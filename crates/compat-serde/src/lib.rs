//! Offline stand-in for the slice of `serde` this workspace uses.
//!
//! Real serde is format-agnostic via a visitor pipeline; this shim fixes
//! the data model to a JSON-shaped [`Value`] tree, which is the only
//! format the workspace serialises to (`serde_json`). The public names
//! (`Serialize`, `Deserialize`, `serde::{Serialize, Deserialize}` derive
//! macros behind the `derive` feature) match upstream so call sites
//! compile unchanged.
//!
//! Round-trip guarantee: `f32`/`f64` survive `to_value → to_string →
//! from_str → from_value` **bit-exactly** for finite values — floats ride
//! through `f64` (f32→f64 is exact) and are printed with Rust's shortest
//! round-trip `Display`. The checkpoint tests rely on this.

mod value;

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

pub use value::{Map, Number, Value};

#[cfg(feature = "derive")]
pub use zfgan_serde_derive::{Deserialize, Serialize};

/// A deserialisation/serialisation error (message-only, like
/// `serde_json::Error` for the purposes of this workspace).
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Builds an error from any message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// The conventional "missing field" error.
    pub fn missing_field(name: &str) -> Self {
        Error(format!("missing field `{name}`"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// A type that can be reconstructed from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns an error when the value's shape does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_i64(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
ser_de_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected f64"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // f32 → f64 is exact, so the round-trip back through `as f32`
        // recovers the original bits for every finite value.
        Value::Number(Number::from_f64(f64::from(*self)))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| Error::custom("expected f32"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for &'static str {
    /// Interns the parsed string to satisfy `'static` — upstream serde
    /// expresses this with deserializer lifetimes the shim doesn't carry.
    /// Only label-like fields (`lane: &'static str`) hit this path, so the
    /// pool holds one leaked copy per distinct label, however many times a
    /// struct carrying it is deserialised.
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(intern(s)),
            _ => Err(Error::custom("expected string")),
        }
    }
}

/// The process-wide `&'static str` pool behind `<&'static str>::from_value`.
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    // A panic cannot leave the set half-updated (one `insert`), so a
    // poisoned lock is still a valid pool.
    let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = pool.get(s) {
        return interned;
    }
    let interned: &'static str = Box::leak(s.into());
    pool.insert(interned);
    interned
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

// ---------------------------------------------------------------------------
// Containers / references
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(Deserialize::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! ser_de_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => {
                        let expect = [$($idx),+].len();
                        if items.len() != expect {
                            return Err(Error::custom("tuple arity mismatch"));
                        }
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    _ => Err(Error::custom("expected array for tuple")),
                }
            }
        }
    )*};
}
ser_de_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every warm DSE hit rebuilds structs with `&'static str` labels; a
    /// fresh leak per call grew a serving process without bound.
    #[test]
    fn static_str_labels_are_interned_not_leaked_per_call() {
        let label = Value::String("G (T-CONV) interned-label-test".to_string());
        let first = <&'static str>::from_value(&label).unwrap();
        for _ in 0..10_000 {
            let again = <&'static str>::from_value(&label).unwrap();
            assert!(std::ptr::eq(first, again), "one copy per distinct string");
        }
        let other = <&'static str>::from_value(&Value::String("other".into())).unwrap();
        assert_eq!(other, "other");
        assert!(!std::ptr::eq(first.as_ptr(), other.as_ptr()));
        assert!(<&'static str>::from_value(&Value::Null).is_err());
    }
}
