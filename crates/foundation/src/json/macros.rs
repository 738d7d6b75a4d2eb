//! Macros that generate [`ToJson`](crate::json::ToJson) /
//! [`FromJson`](crate::json::FromJson) impls — the in-tree replacement
//! for `#[derive(Serialize, Deserialize)]`.
//!
//! Three shapes cover the serialized types in the workspace:
//! named-field structs ([`json_struct!`](crate::json_struct)), newtype
//! wrappers ([`json_newtype!`](crate::json_newtype)), and fieldless
//! enums ([`json_unit_enum!`](crate::json_unit_enum)). The generated
//! decoders fill fields directly, past any checked constructor, so a
//! type with an invariant to keep (`dwm_core::Placement`, a
//! permutation) writes its impls by hand and decodes through that
//! constructor.

/// Implements `ToJson`/`FromJson` for a named-field struct.
///
/// Fields serialize in declaration order under their own names, and
/// every listed field must be present when decoding. Invoke it from
/// the module that owns the struct so private fields are reachable.
///
/// ```
/// use dwm_foundation::json::{from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Span { start: u64, len: u64 }
/// dwm_foundation::json_struct!(Span { start, len });
///
/// let s = Span { start: 1, len: 2 };
/// assert_eq!(to_string(&s), r#"{"start":1,"len":2}"#);
/// assert_eq!(from_str::<Span>(r#"{"start":1,"len":2}"#).unwrap(), s);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                let mut obj = $crate::json::Object::new();
                $(obj.insert(
                    stringify!($field),
                    $crate::json::ToJson::to_json(&self.$field),
                );)+
                $crate::json::Value::Obj(obj)
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                let obj = v.as_object().ok_or_else(|| {
                    $crate::json::JsonError::expected(
                        concat!("object for ", stringify!($name)),
                        v,
                    )
                })?;
                Ok($name {
                    $($field: $crate::json::field(obj, stringify!($field))?,)+
                })
            }
        }
    };
}

/// Implements `ToJson`/`FromJson` for a single-field tuple struct,
/// serialized transparently as its inner value (serde's newtype
/// convention).
///
/// ```
/// use dwm_foundation::json::{from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Id(u32);
/// dwm_foundation::json_newtype!(Id);
///
/// assert_eq!(to_string(&Id(7)), "7");
/// assert_eq!(from_str::<Id>("7").unwrap(), Id(7));
/// ```
#[macro_export]
macro_rules! json_newtype {
    ($name:ident) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::ToJson::to_json(&self.0)
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                Ok($name(
                    $crate::json::FromJson::from_json(v)
                        .map_err(|e| e.context(stringify!($name)))?,
                ))
            }
        }
    };
}

/// Implements `ToJson`/`FromJson` for an enum whose variants carry no
/// data, serialized as the variant-name string (serde's unit-variant
/// convention).
///
/// ```
/// use dwm_foundation::json::{from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// enum Kind { Read, Write }
/// dwm_foundation::json_unit_enum!(Kind { Read, Write });
///
/// assert_eq!(to_string(&Kind::Write), "\"Write\"");
/// assert_eq!(from_str::<Kind>("\"Read\"").unwrap(), Kind::Read);
/// assert!(from_str::<Kind>("\"Wrote\"").is_err());
/// ```
#[macro_export]
macro_rules! json_unit_enum {
    ($name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Str(
                    match self {
                        $($name::$variant => stringify!($variant),)+
                    }
                    .to_owned(),
                )
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($name::$variant),)+
                    Some(other) => Err($crate::json::JsonError::decode(format!(
                        "unknown {} variant {:?}",
                        stringify!($name),
                        other
                    ))),
                    None => Err($crate::json::JsonError::expected(
                        concat!("string for enum ", stringify!($name)),
                        v,
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::json::{from_str, to_string};

    #[derive(Debug, PartialEq)]
    struct Inner {
        label: String,
        weight: u64,
    }
    json_struct!(Inner { label, weight });

    #[derive(Debug, PartialEq)]
    struct Outer {
        items: Vec<Inner>,
        scale: f64,
    }
    json_struct!(Outer { items, scale });

    #[derive(Debug, PartialEq)]
    struct Wrapper(usize);
    json_newtype!(Wrapper);

    #[derive(Debug, PartialEq)]
    enum Mode {
        Fast,
        Exact,
    }
    json_unit_enum!(Mode { Fast, Exact });

    #[test]
    fn nested_structs_round_trip() {
        let o = Outer {
            items: vec![
                Inner {
                    label: "a".into(),
                    weight: 1,
                },
                Inner {
                    label: "b".into(),
                    weight: u64::MAX,
                },
            ],
            scale: 0.5,
        };
        let json = to_string(&o);
        assert_eq!(
            json,
            r#"{"items":[{"label":"a","weight":1},{"label":"b","weight":18446744073709551615}],"scale":0.5}"#
        );
        assert_eq!(from_str::<Outer>(&json).unwrap(), o);
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = from_str::<Inner>(r#"{"label":"a"}"#).unwrap_err();
        assert!(err.message.contains("weight"), "{err}");
        let err =
            from_str::<Outer>(r#"{"items":[{"label":"a","weight":"x"}],"scale":1}"#).unwrap_err();
        assert!(err.message.contains("field \"weight\""), "{err}");
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(to_string(&Wrapper(9)), "9");
        assert_eq!(from_str::<Wrapper>("9").unwrap(), Wrapper(9));
        assert!(from_str::<Wrapper>("\"九\"").is_err());
    }

    #[test]
    fn unit_enum_uses_variant_names() {
        assert_eq!(to_string(&Mode::Exact), "\"Exact\"");
        assert_eq!(from_str::<Mode>("\"Fast\"").unwrap(), Mode::Fast);
        assert!(from_str::<Mode>("3").is_err());
    }
}
