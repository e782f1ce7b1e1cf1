//! Offline stand-in for `serde`: a value-tree data model with derive.
//!
//! Types convert to and from [`Value`]; `serde_json` renders and parses the
//! tree. The derive macros lay types out the way serde's defaults do
//! (structs as objects, newtypes as their content, enums externally
//! tagged), so the JSON matches what the real crates would write.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer.
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) | Value::UInt(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

/// Why a [`Value`] could not become the requested type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// An error with a free-form message.
    pub fn msg(message: impl Into<String>) -> DeError {
        DeError(message.into())
    }

    /// "expected X, found Y".
    pub fn expected(what: &str, found: &Value) -> DeError {
        DeError(format!("expected {what}, found {}", found.kind()))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the value tree.
pub trait Serialize {
    /// This value as a tree.
    fn to_value(&self) -> Value;
}

/// Conversion out of the value tree.
pub trait Deserialize: Sized {
    /// Rebuilds the type from a tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// What a struct field of this type becomes when its key is absent:
    /// an error, except for `Option`.
    fn missing_field(name: &str) -> Result<Self, DeError> {
        Err(DeError(format!("missing field `{name}`")))
    }
}

/// Looks up `name` in a derived struct's object, trying position `hint`
/// first: objects written by the derive keep declaration order.
#[doc(hidden)]
pub fn field<T: Deserialize>(
    entries: &[(String, Value)],
    hint: usize,
    name: &str,
) -> Result<T, DeError> {
    let found = match entries.get(hint) {
        Some((key, v)) if key == name => Some(v),
        _ => entries.iter().find(|(key, _)| key == name).map(|(_, v)| v),
    };
    match found {
        Some(v) => T::from_value(v).map_err(|e| DeError(format!("{name}: {}", e.0))),
        None => T::missing_field(name),
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("a boolean", other)),
        }
    }
}

macro_rules! unsigned {
    ($($ty:ty)*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }

        impl Deserialize for $ty {
            fn from_value(v: &Value) -> Result<$ty, DeError> {
                match v {
                    Value::UInt(n) => <$ty>::try_from(*n).ok(),
                    Value::Int(n) => <$ty>::try_from(*n).ok(),
                    other => return Err(DeError::expected("an unsigned integer", other)),
                }
                .ok_or_else(|| DeError::msg(concat!("integer out of range for ", stringify!($ty))))
            }
        }
    )*};
}

macro_rules! signed {
    ($($ty:ty)*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                if *self < 0 {
                    Value::Int(*self as i64)
                } else {
                    Value::UInt(*self as u64)
                }
            }
        }

        impl Deserialize for $ty {
            fn from_value(v: &Value) -> Result<$ty, DeError> {
                match v {
                    Value::UInt(n) => <$ty>::try_from(*n).ok(),
                    Value::Int(n) => <$ty>::try_from(*n).ok(),
                    other => return Err(DeError::expected("an integer", other)),
                }
                .ok_or_else(|| DeError::msg(concat!("integer out of range for ", stringify!($ty))))
            }
        }
    )*};
}

unsigned!(u8 u16 u32 u64 usize);
signed!(i8 i16 i32 i64 isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<f64, DeError> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(DeError::expected("a number", other)),
        }
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

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("a string", other)),
        }
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
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing_field(_name: &str) -> Result<Option<T>, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("an array", other)),
        }
    }
}

macro_rules! tuple {
    ($len:literal => $($name:ident $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<($($name,)+), DeError> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError::expected(concat!("an array of length ", $len), other)),
                }
            }
        }
    };
}

tuple!(2 => A 0, B 1);
tuple!(3 => A 0, B 1, C 2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_check_their_range() {
        assert_eq!(u16::from_value(&Value::UInt(65535)), Ok(65535));
        assert!(u16::from_value(&Value::UInt(65536)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
        assert_eq!(i32::from_value(&Value::Int(-7)), Ok(-7));
        assert_eq!((-7i64).to_value(), Value::Int(-7));
        assert_eq!(7i64.to_value(), Value::UInt(7));
    }

    #[test]
    fn options_and_missing_fields() {
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<u32>::from_value(&Value::UInt(3)), Ok(Some(3)));
        let obj = vec![("a".to_string(), Value::UInt(1))];
        assert_eq!(field::<u32>(&obj, 0, "a"), Ok(1));
        assert_eq!(field::<u32>(&obj, 5, "a"), Ok(1));
        assert_eq!(field::<Option<u32>>(&obj, 1, "b"), Ok(None));
        assert!(field::<u32>(&obj, 1, "b").is_err());
    }

    #[test]
    fn tuples_and_vectors_round_trip() {
        let v = vec![("x".to_string(), 2u32), ("y".to_string(), 3)];
        let tree = v.to_value();
        assert_eq!(Vec::<(String, u32)>::from_value(&tree), Ok(v));
        assert!(<(u32, u32)>::from_value(&Value::Array(vec![Value::UInt(1)])).is_err());
    }
}
