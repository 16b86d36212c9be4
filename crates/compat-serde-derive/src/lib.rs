//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` implemented directly on `proc_macro` token
//! streams (no `syn`/`quote` — the container has no registry access).
//!
//! Supported shapes — exactly what this workspace declares:
//! - structs with named fields, optionally generic (`struct Fmaps<T> {…}`);
//! - enums with unit, newtype, tuple, and struct variants.
//!
//! The serialised form matches serde's externally-tagged default:
//! structs → objects keyed by field name; unit variants → the variant
//! name as a string; data-carrying variants → `{"Variant": payload}`.
//! The one supported attribute is `#[serde(skip)]` on a named struct
//! field (left out when serialising, `Default::default()` when
//! deserialising — serde's own meaning); any other `#[serde(...)]`
//! produces a compile error rather than being silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What one parsed `enum` variant carries.
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

/// One named struct field; `skip` is `#[serde(skip)]`.
struct Field {
    name: String,
    skip: bool,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Generic parameter names, e.g. `["T"]` for `Fmaps<T>`.
    generics: Vec<String>,
    body: Body,
}

const SKIP_MISPLACED: &str = "#[serde(skip)] is supported on named struct fields only";

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Derives the compat `serde::Serialize` (a `to_value` tree builder).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(msg) => compile_error(&msg),
    }
}

/// Derives the compat `serde::Deserialize` (a `from_value` reader).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(msg) => compile_error(&msg),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skips `#[...]` / `#![...]` attribute sequences, returning whether
    /// one of them was `#[serde(skip)]`; rejects every other
    /// `#[serde(...)]`, which the shim cannot honour.
    fn skip_attrs(&mut self) -> Result<bool, String> {
        let mut skip = false;
        while let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() != '#' {
                break;
            }
            self.next();
            if let Some(TokenTree::Punct(p)) = self.peek() {
                if p.as_char() == '!' {
                    self.next();
                }
            }
            match self.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    let body: String = g.stream().to_string().split_whitespace().collect();
                    if body == "serde(skip)" {
                        skip = true;
                    } else if body.starts_with("serde") {
                        return Err(
                            "compat serde_derive supports no #[serde(...)] attribute but `skip`"
                                .to_string(),
                        );
                    }
                }
                _ => return Err("malformed attribute".to_string()),
            }
        }
        Ok(skip)
    }

    /// Skips `pub`, `pub(crate)`, `pub(in …)`.
    fn skip_vis(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(id)) => Ok(id.to_string()),
            other => Err(format!("expected identifier, found {other:?}")),
        }
    }

    /// Parses `<...>` generics if present, returning type-parameter names.
    fn parse_generics(&mut self) -> Result<Vec<String>, String> {
        let mut params = Vec::new();
        match self.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
            _ => return Ok(params),
        }
        self.next(); // consume '<'
        let mut depth = 1usize;
        let mut expecting_param = true;
        let mut prev_was_quote = false;
        while depth > 0 {
            let t = self.next().ok_or_else(|| "unclosed generics".to_string())?;
            match &t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth -= 1;
                }
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                    expecting_param = true;
                }
                TokenTree::Punct(p) if p.as_char() == '\'' => {
                    prev_was_quote = true;
                    continue;
                }
                TokenTree::Punct(p) if p.as_char() == ':' && depth == 1 => {
                    expecting_param = false;
                }
                TokenTree::Ident(id) if depth == 1 && expecting_param && !prev_was_quote => {
                    let name = id.to_string();
                    if name == "const" {
                        return Err(
                            "compat serde_derive does not support const generics".to_string()
                        );
                    }
                    params.push(name);
                    expecting_param = false;
                }
                _ => {}
            }
            prev_was_quote = false;
        }
        Ok(params)
    }
}

/// Parses the named fields inside a brace group: `vis name: Type, …`.
fn parse_named_fields(group: TokenStream) -> Result<Vec<Field>, String> {
    let mut c = Cursor::new(group);
    let mut fields = Vec::new();
    while !c.at_end() {
        let skip = c.skip_attrs()?;
        if c.at_end() {
            break;
        }
        c.skip_vis();
        let name = c.expect_ident()?;
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "expected ':' after field `{name}`, found {other:?}"
                ))
            }
        }
        fields.push(Field { name, skip });
        // Skip the type: everything until a comma at angle-bracket depth 0.
        let mut depth = 0usize;
        while let Some(t) = c.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    c.next();
                    break;
                }
                _ => {}
            }
            c.next();
        }
    }
    Ok(fields)
}

/// Counts the elements of a tuple-variant payload (top-level commas + 1).
fn count_tuple_fields(group: TokenStream) -> usize {
    let toks: Vec<TokenTree> = group.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0usize;
    let mut count = 1usize;
    let mut trailing_comma = false;
    for t in &toks {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(group: TokenStream) -> Result<Vec<Variant>, String> {
    let mut c = Cursor::new(group);
    let mut variants = Vec::new();
    while !c.at_end() {
        if c.skip_attrs()? {
            return Err(SKIP_MISPLACED.to_string());
        }
        if c.at_end() {
            break;
        }
        let name = c.expect_ident()?;
        let kind = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                c.next();
                if n == 1 {
                    VariantKind::Tuple(1)
                } else {
                    VariantKind::Tuple(n)
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                c.next();
                if fields.iter().any(|f| f.skip) {
                    return Err(SKIP_MISPLACED.to_string());
                }
                VariantKind::Struct(fields.into_iter().map(|f| f.name).collect())
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Skip an optional discriminant and the separating comma.
        let mut depth = 0usize;
        while let Some(t) = c.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    c.next();
                    break;
                }
                _ => {}
            }
            c.next();
        }
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut c = Cursor::new(input);
    if c.skip_attrs()? {
        return Err(SKIP_MISPLACED.to_string());
    }
    c.skip_vis();
    let kw = c.expect_ident()?;
    let is_enum = match kw.as_str() {
        "struct" => false,
        "enum" => true,
        other => {
            return Err(format!(
                "compat serde_derive supports structs and enums, not `{other}`"
            ))
        }
    };
    let name = c.expect_ident()?;
    let generics = c.parse_generics()?;
    // Skip a possible `where` clause: scan to the body brace group.
    let body_group = loop {
        match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                return Err("compat serde_derive supports named-field structs only".to_string())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err("compat serde_derive supports named-field structs only".to_string())
            }
            Some(_) => continue,
            None => return Err(format!("no body found for `{name}`")),
        }
    };
    let body = if is_enum {
        Body::Enum(parse_variants(body_group)?)
    } else {
        Body::Struct(parse_named_fields(body_group)?)
    };
    Ok(Item {
        name,
        generics,
        body,
    })
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// `impl<T: ::serde::Trait> ::serde::Trait for Name<T>` header pieces.
fn impl_header(item: &Item, trait_name: &str) -> String {
    if item.generics.is_empty() {
        format!("impl ::serde::{trait_name} for {name}", name = item.name)
    } else {
        let bounded: Vec<String> = item
            .generics
            .iter()
            .map(|g| format!("{g}: ::serde::{trait_name}"))
            .collect();
        let plain = item.generics.join(", ");
        format!(
            "impl<{}> ::serde::{trait_name} for {}<{plain}>",
            bounded.join(", "),
            item.name
        )
    }
}

fn gen_serialize(item: &Item) -> String {
    let header = impl_header(item, "Serialize");
    let body = match &item.body {
        Body::Struct(fields) => {
            let mut s = String::from("let mut m = ::serde::Map::new();\n");
            for f in fields.iter().filter(|f| !f.skip).map(|f| &f.name) {
                s.push_str(&format!(
                    "m.insert(\"{f}\", ::serde::Serialize::to_value(&self.{f}));\n"
                ));
            }
            s.push_str("::serde::Value::Object(m)");
            s
        }
        Body::Enum(variants) => {
            let name = &item.name;
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String(\"{vn}\".to_string()),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(x0) => {{ let mut m = ::serde::Map::new(); \
                         m.insert(\"{vn}\", ::serde::Serialize::to_value(x0)); \
                         ::serde::Value::Object(m) }}\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => {{ let mut m = ::serde::Map::new(); \
                             m.insert(\"{vn}\", ::serde::Value::Array(vec![{elems}])); \
                             ::serde::Value::Object(m) }}\n",
                            binds = binds.join(", "),
                            elems = elems.join(", "),
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let pats = fields.join(", ");
                        let mut inner = String::from("let mut fm = ::serde::Map::new(); ");
                        for f in fields {
                            inner.push_str(&format!(
                                "fm.insert(\"{f}\", ::serde::Serialize::to_value({f})); "
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {pats} }} => {{ {inner}\
                             let mut m = ::serde::Map::new(); \
                             m.insert(\"{vn}\", ::serde::Value::Object(fm)); \
                             ::serde::Value::Object(m) }}\n"
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!("{header} {{\n fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}")
}

fn gen_deserialize(item: &Item) -> String {
    let header = impl_header(item, "Deserialize");
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => {
            let mut s = format!(
                "let m = v.as_object().ok_or_else(|| \
                 ::serde::Error::custom(\"expected object for `{name}`\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n"
            );
            for Field { name: f, skip } in fields {
                if *skip {
                    s.push_str(&format!("{f}: ::std::default::Default::default(),\n"));
                    continue;
                }
                s.push_str(&format!(
                    "{f}: ::serde::Deserialize::from_value(m.get(\"{f}\")\
                     .ok_or_else(|| ::serde::Error::missing_field(\"{f}\"))?)?,\n"
                ));
            }
            s.push_str("})");
            s
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantKind::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(\
                         ::serde::Deserialize::from_value(inner)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&arr[{i}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{ let arr = inner.as_array().ok_or_else(|| \
                             ::serde::Error::custom(\"expected array for `{name}::{vn}`\"))?; \
                             if arr.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::Error::custom(\"wrong tuple arity for `{name}::{vn}`\")); }} \
                             ::std::result::Result::Ok({name}::{vn}({elems})) }}\n",
                            elems = elems.join(", "),
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{f}: ::serde::Deserialize::from_value(fm.get(\"{f}\")\
                                 .ok_or_else(|| ::serde::Error::missing_field(\"{f}\"))?)?,\n"
                            ));
                        }
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{ let fm = inner.as_object().ok_or_else(|| \
                             ::serde::Error::custom(\"expected object for `{name}::{vn}`\"))?; \
                             ::std::result::Result::Ok({name}::{vn} {{ {inits} }}) }}\n"
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                 ::serde::Value::String(s) => match s.as_str() {{\n\
                 {unit_arms}\
                 other => ::std::result::Result::Err(::serde::Error::custom(\
                 format!(\"unknown variant `{{other}}` of `{name}`\"))),\n\
                 }},\n\
                 ::serde::Value::Object(m) if m.len() == 1 => {{\n\
                 let (k, inner) = m.iter().next().expect(\"len checked\");\n\
                 let _ = inner;\n\
                 match k.as_str() {{\n\
                 {data_arms}\
                 other => ::std::result::Result::Err(::serde::Error::custom(\
                 format!(\"unknown variant `{{other}}` of `{name}`\"))),\n\
                 }}\n\
                 }},\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                 \"expected a `{name}` variant\")),\n\
                 }}"
            )
        }
    };
    format!(
        "{header} {{\n fn from_value(v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}"
    )
}
