//! Offline stand-in for the slice of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], the prefix parse
//! [`from_str_prefix`] (upstream's `StreamDeserializer::byte_offset` as one
//! call), and the [`Value`] tree (re-exported from the compat `serde`,
//! which fixes its data model to JSON shapes).
//!
//! Finite `f32`/`f64` values round-trip bit-exactly: floats are printed
//! with Rust's shortest round-trip `Display` and re-parsed with
//! `str::parse`, which is correctly rounded.

pub use zfgan_serde::{Error, Map, Number, Value};

use zfgan_serde::{Deserialize, Serialize};

/// Serialises `value` as compact JSON.
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors the
/// upstream signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Serialises `value` as human-readable JSON (two-space indent, the
/// upstream default).
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors the
/// upstream signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                out.push_str(&Value::String(k.clone()).to_string());
                out.push_str(": ");
                write_pretty(out, val, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Parses JSON text into any [`Deserialize`] type (including [`Value`]).
///
/// # Errors
///
/// Returns an error on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let (v, end) = from_str_prefix(s)?;
    let rest = s[end..].trim_start_matches([' ', '\t', '\n', '\r']);
    if !rest.is_empty() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            s.len() - rest.len()
        )));
    }
    T::from_value(&v)
}

/// Parses one JSON value off the front of `s` (leading whitespace skipped)
/// and returns it with the byte offset just past it, so `&s[offset..]` is
/// whatever follows — whitespace included, never looked at. The offset is
/// what upstream reports as `StreamDeserializer::byte_offset` after one
/// `Deserializer::from_str(s).into_iter::<Value>().next()`; it lets a
/// caller frame a small value inside a larger text without parsing the
/// rest.
///
/// # Errors
///
/// Returns an error when `s` does not start with a complete JSON value.
pub fn from_str_prefix(s: &str) -> Result<(Value, usize), Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    Ok((v, p.pos))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.parse_value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| Error::custom("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a following \uXXXX.
                                if self.peek() != Some(b'\\') {
                                    return Err(Error::custom("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(Error::custom("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::custom("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::custom("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Copy the whole contiguous run of unescaped bytes at
                    // once, validating UTF-8 over the run only (quote and
                    // backslash are ASCII, so they can never appear inside
                    // a multi-byte character's continuation bytes).
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while let Some(&b) = self.bytes.get(end) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::custom("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::custom("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::custom("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        let num = if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                Number::from_u64(u)
            } else if let Ok(i) = text.parse::<i64>() {
                Number::from_i64(i)
            } else {
                // Integer literal beyond 64 bits: fall back to f64, like
                // serde_json's arbitrary-precision-off behaviour.
                Number::from_f64(
                    text.parse::<f64>()
                        .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
                )
            }
        } else {
            Number::from_f64(
                text.parse::<f64>()
                    .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
            )
        };
        Ok(Value::Number(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v: Value = from_str(r#"{"a": [1, -2.5, "x\n", null, true], "b": {}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert!(obj.get("b").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        for bits in [0x3f80_0001u32, 0x0000_0001, 0x7f7f_ffff, 0xbf00_0000] {
            let x = f32::from_bits(bits);
            let json = to_string(&x).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), bits, "{json}");
        }
        let y = 0.1f64 + 0.2;
        let back: f64 = from_str(&to_string(&y).unwrap()).unwrap();
        assert_eq!(back.to_bits(), y.to_bits());
    }

    #[test]
    fn pretty_printing_matches_shape() {
        let v: Value = from_str(r#"{"k": [1, 2]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
        let err = from_str::<Value>("[1] \n x").unwrap_err();
        assert_eq!(err.to_string(), "trailing characters at byte 6");
        assert_eq!(from_str::<u64>(" 7 \n").unwrap(), 7);
    }

    #[test]
    fn prefix_parse_reports_where_the_value_ended() {
        // (text, offset just past the first value)
        for (text, end) in [
            ("1", 1),
            ("12,\"det\":{}", 2),
            ("  \n\t{\"a\":1}  tail", 11),
            (r#"{"a":{"b":[1,{"c":"}]\"x"}]}},"det":{}"#, 29),
            ("[[],[[]]]]]", 9),
            (r#""quoted \" , text"rest"#, 18),
            ("null,", 4),
            ("true false", 4),
            ("-2.5e3}", 6),
            ("{} ", 2),
        ] {
            let (v, offset) = from_str_prefix(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(offset, end, "{text}");
            // The prefix alone is the whole value: nothing past the offset
            // took part in the parse.
            let lead = text.len() - text.trim_start().len();
            assert_eq!(from_str::<Value>(&text[lead..offset]).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn prefix_parse_rejects_incomplete_and_malformed_values() {
        for text in [
            "",
            "   ",
            "{\"a\":1",
            "{\"a\"",
            "[1,2",
            "[1,,2]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "nul",
            "}",
            ",1",
            "1.2.3",
            "-",
        ] {
            assert!(from_str_prefix(text).is_err(), "{text:?} must not parse");
        }
    }
}
