//! [`ToJson`] / [`FromJson`] traits and the impls for the standard
//! types inside the workspace's JSON artifacts: unsigned integers,
//! `f64`, `String` and `Vec`s of them.
//!
//! These replace `serde::Serialize` / `serde::Deserialize`: a type
//! converts to and from the in-tree [`Value`] tree, and the
//! [`json_struct!`](crate::json_struct), [`json_newtype!`](crate::json_newtype), and
//! [`json_unit_enum!`](crate::json_unit_enum) macros generate the impls that
//! `#[derive(Serialize, Deserialize)]` used to. Only types a program
//! writes or reads implement them; an impl nothing uses is deleted.

use super::parse::JsonError;
use super::value::{Number, Object, Value};

/// Conversion into a JSON [`Value`].
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Value;
}

/// Conversion from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Reconstructs `Self` from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value has the wrong shape.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// Serializes `value` compactly (the `serde_json::to_string`
/// replacement).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Serializes `value` with indentation and a trailing newline (the
/// `serde_json::to_string_pretty` replacement).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Parses and decodes in one step (the `serde_json::from_str`
/// replacement).
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON (with line/column) or on
/// a shape mismatch.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&super::parse(input)?)
}

/// Decodes the field `name` of `obj`, tagging errors with the field
/// name. Used by the impl macros.
pub fn field<T: FromJson>(obj: &Object, name: &str) -> Result<T, JsonError> {
    let v = obj
        .get(name)
        .ok_or_else(|| JsonError::decode(format!("missing field {name:?}")))?;
    T::from_json(v).map_err(|e| e.context(&format!("field {name:?}")))
}

macro_rules! impl_json_uint {
    ($($t:ty),+ $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(Number::U(*self as u64))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let n = v
                    .as_number()
                    .and_then(Number::as_u64)
                    .ok_or_else(|| JsonError::expected(stringify!($t), v))?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::decode(format!(
                        "{} out of range for {}", n, stringify!($t)
                    ))
                })
            }
        }
    )+};
}

impl_json_uint!(u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(Number::F(*self))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Num(n) => Ok(n.as_f64()),
            // Non-finite floats serialize as null; accept the round trip.
            Value::Null => Ok(f64::NAN),
            _ => Err(JsonError::expected("number", v)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::expected("string", v))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::expected("array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.context(&format!("element {i}"))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(from_str::<u64>(&to_string(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(from_str::<String>("\"x\"").unwrap(), "x");
        assert_eq!(to_string(&"x".to_owned()), "\"x\"");
    }

    #[test]
    fn out_of_range_integers_are_rejected() {
        assert!(from_str::<u32>("4294967296").is_err());
        assert!(from_str::<u32>("-1").is_err());
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Vec<u32>> = vec![vec![], vec![7, 9]];
        assert_eq!(to_string(&v), "[[],[7,9]]");
        assert_eq!(from_str::<Vec<Vec<u32>>>("[[],[7,9]]").unwrap(), v);
    }

    #[test]
    fn decode_errors_name_the_field() {
        let err = from_str::<Vec<u32>>("[1,\"x\"]").unwrap_err();
        assert!(err.message.contains("element 1"), "{err}");
    }

    #[test]
    fn non_finite_floats_round_trip_as_nan() {
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }
}
