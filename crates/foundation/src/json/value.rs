//! The JSON value tree and its serializer.

use std::fmt;

/// A JSON number.
///
/// Integers are kept exact (no round-trip through `f64`), which
/// matters for shift counters that can exceed 2^53 on long traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A nonnegative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A floating-point number.
    F(f64),
}

impl Number {
    /// The number as `u64`, if exactly representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(v) if v >= 0.0 && v <= u64::MAX as f64 && v.fract() == 0.0 => Some(v as u64),
            Number::F(_) => None,
        }
    }

    /// The number as `i64`, if exactly representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            Number::F(_) => None,
        }
    }

    /// The number as `f64` (integers may round).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        }
    }
}

/// A JSON object: ordered key → value pairs.
///
/// Insertion order is preserved, so a struct serialized field-by-field
/// always produces the same byte sequence — the determinism guarantee
/// the experiment reports rely on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Object {
    entries: Vec<(String, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends a key/value pair (keys are not deduplicated).
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        self.entries.push((key.into(), value));
    }

    /// The first value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Value)> for Object {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Object {
            entries: iter.into_iter().collect(),
        }
    }
}

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Object),
}

impl Value {
    /// The value as a number, if it is one.
    pub fn as_number(&self) -> Option<Number> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// A short name of the value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline, for files meant to be read or diffed.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out.push('\n');
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(out, *n),
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_break(out, indent, depth);
            out.push(']');
        }
        Value::Obj(obj) => {
            if obj.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            write_break(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_break(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    use std::fmt::Write as _;
    match n {
        Number::U(v) => {
            let _ = write!(out, "{v}");
        }
        Number::I(v) => {
            let _ = write!(out, "{v}");
        }
        Number::F(v) if v.is_finite() => {
            // `{:?}` prints the shortest representation that parses
            // back to the same f64, keeping a decimal point or
            // exponent so the value stays a float on re-parse.
            let _ = write!(out, "{v:?}");
        }
        // JSON has no NaN/Infinity; follow serde_json's lenient
        // writers and emit null.
        Number::F(_) => out.push_str("null"),
    }
}

fn write_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_serialization_shapes() {
        let mut obj = Object::new();
        obj.insert("a", Value::Num(Number::U(1)));
        obj.insert("b", Value::Arr(vec![Value::Null, Value::Bool(true)]));
        obj.insert("c", Value::Str("x\"y".into()));
        let v = Value::Obj(obj);
        assert_eq!(v.to_compact(), r#"{"a":1,"b":[null,true],"c":"x\"y"}"#);
    }

    #[test]
    fn pretty_serialization_indents() {
        let mut obj = Object::new();
        obj.insert("k", Value::Arr(vec![Value::Num(Number::I(-2))]));
        let pretty = Value::Obj(obj).to_pretty();
        assert_eq!(pretty, "{\n  \"k\": [\n    -2\n  ]\n}\n");
    }

    #[test]
    fn floats_keep_their_floatness() {
        assert_eq!(Value::Num(Number::F(1.0)).to_compact(), "1.0");
        assert_eq!(Value::Num(Number::F(0.5)).to_compact(), "0.5");
        assert_eq!(Value::Num(Number::F(f64::NAN)).to_compact(), "null");
    }

    #[test]
    fn number_conversions_are_exact() {
        assert_eq!(Number::U(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Number::U(u64::MAX).as_i64(), None);
        assert_eq!(Number::I(-1).as_u64(), None);
        assert_eq!(Number::F(3.0).as_u64(), Some(3));
        assert_eq!(Number::F(3.5).as_i64(), None);
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = Value::Str("\u{01}\n".into());
        assert_eq!(v.to_compact(), "\"\\u0001\\n\"");
    }

    #[test]
    fn object_lookup_and_order() {
        let mut obj = Object::new();
        obj.insert("x", Value::Null);
        obj.insert("y", Value::Bool(false));
        assert_eq!(obj.get("y"), Some(&Value::Bool(false)));
        assert_eq!(obj.get("z"), None);
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["x", "y"]);
    }
}
