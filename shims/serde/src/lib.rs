//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The real `serde` cannot be fetched in this build environment, and the
//! workspace only ever derives `Serialize` on plain structs/enums and
//! feeds them to `serde_json::to_string{,_pretty}`. This crate models
//! serialization as conversion to an in-memory [`Value`] tree; the
//! companion `serde_json` shim renders that tree as JSON with the same
//! formatting conventions as the real crate (compact `"k":v`, pretty
//! 2-space indent, `null` for non-finite floats).

#![forbid(unsafe_code)]

pub use serde_derive::Serialize;

/// An in-memory serialization tree (a superset of JSON's data model).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Ordered key/value map (field declaration order is preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an [`Value::Object`] by key (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as an `f64` ([`Value::UInt`]/[`Value::Int`]
    /// widen losslessly up to 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Conversion into a [`Value`] tree. Derivable via `#[derive(Serialize)]`.
pub trait Serialize {
    /// Converts `self` into the serialization tree.
    fn to_value(&self) -> Value;
}

macro_rules! impl_serialize_uint {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::UInt(u64::from(*self))
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

macro_rules! impl_serialize_int {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::Int(i64::from(*self))
            }
        }
    )*};
}

impl_serialize_int!(i8, i16, i32, i64);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        Value::Int(*self as i64)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

/// A `Value` serializes to itself, so hand-assembled trees (used where
/// the derive surface does not reach, e.g. tuple fields) can be passed
/// to the same `serde_json` entry points as derived types.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
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

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<K: ToString, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::{Serialize, Value};

    #[test]
    fn value_accessors() {
        let v = Value::Object(vec![
            ("n".to_string(), Value::UInt(3)),
            ("x".to_string(), Value::Float(1.5)),
            ("s".to_string(), Value::Str("hi".into())),
            ("b".to_string(), Value::Bool(true)),
            ("a".to_string(), Value::Array(vec![Value::Int(-1)])),
        ]);
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), None);
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("n").is_none());
        assert_eq!(Value::Int(-1).as_f64(), Some(-1.0));
    }

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(3u32.to_value(), Value::UInt(3));
        assert_eq!((-4i32).to_value(), Value::Int(-4));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(Option::<u32>::None.to_value(), Value::Null);
        assert_eq!(
            vec![1u32, 2].to_value(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)])
        );
    }
}
