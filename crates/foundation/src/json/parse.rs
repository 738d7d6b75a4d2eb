//! Recursive-descent JSON parser with line/column error reporting.

use std::error::Error;
use std::fmt;

use super::value::{Number, Object, Value};

/// Maximum nesting depth accepted by the parser (guards against stack
/// overflow on adversarial input).
const MAX_DEPTH: usize = 256;

/// A JSON parse or decode error.
///
/// Parse errors carry the 1-based line and column of the offending
/// input; decode errors (a well-formed value of the wrong shape) carry
/// `line == 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the error, or 0 for decode errors.
    pub line: usize,
    /// 1-based column of the error, or 0 for decode errors.
    pub column: usize,
}

impl JsonError {
    /// A decode (shape) error with no input position.
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            line: 0,
            column: 0,
        }
    }

    /// A decode error of the form "expected X, got `<type>`".
    pub fn expected(what: &str, got: &Value) -> Self {
        JsonError::decode(format!("expected {what}, got {}", got.type_name()))
    }

    /// Prefixes the message with a field/element context, preserving
    /// any input position.
    pub fn context(mut self, ctx: &str) -> Self {
        self.message = format!("{ctx}: {}", self.message);
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "JSON error at line {}, column {}: {}",
                self.line, self.column, self.message
            )
        } else {
            write!(f, "JSON error: {}", self.message)
        }
    }
}

impl Error for JsonError {}

/// Parses a complete JSON document (one value plus trailing
/// whitespace).
///
/// # Errors
///
/// Returns a [`JsonError`] with line/column information on malformed
/// input.
///
/// # Example
///
/// ```
/// use dwm_foundation::json::parse;
///
/// let v = parse(r#"{"shifts": 42}"#)?;
/// assert_eq!(v.as_object().unwrap().get("shifts").unwrap().to_string(), "42");
/// let err = parse("{\"a\": }").unwrap_err();
/// assert_eq!((err.line, err.column), (1, 7));
/// # Ok::<(), dwm_foundation::json::JsonError>(())
/// ```
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(input);
    let value = p.value()?;
    p.finish()?;
    Ok(value)
}

/// A `[…]` of integers read by [`Parser::u32_array`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct U32Array {
    /// The elements in order, up to the read's limit and stopping
    /// before the first invalid one.
    pub values: Vec<u32>,
    /// Number of elements in the array, counted past the limit.
    pub len: usize,
    /// Index of the first element that is not an integer in
    /// `0..=u32::MAX`, judged as [`Number::as_u64`] judges it (so `3.0`,
    /// `1e1` and `-0` are valid).
    pub first_invalid: Option<usize>,
}

/// The recursive-descent parser behind [`parse`], also usable as a
/// pull decoder: a caller walks an object with [`Parser::object`] and
/// reads each member either as a [`Value`] or, for integer arrays, with
/// [`Parser::u32_array`]. Every route shares one grammar, one depth
/// limit and one error-position scheme, so a document fails at the same
/// line and column, with the same message, however it is read.
///
/// # Example
///
/// ```
/// use dwm_foundation::json::Parser;
///
/// let mut p = Parser::new(r#"{"ids": [3, 1, 4], "tag": "x"}"#);
/// let mut ids = None;
/// p.object(|p, key| {
///     match key.as_str() {
///         "ids" => ids = Some(p.u32_array(usize::MAX)?),
///         _ => {
///             p.value()?;
///         }
///     }
///     Ok(())
/// })?;
/// p.finish()?;
/// assert_eq!(ids.unwrap().values, vec![3, 1, 4]);
/// # Ok::<(), dwm_foundation::json::JsonError>(())
/// ```
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Nesting depth of the value about to be read.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the first value of `input` (leading
    /// whitespace skipped).
    pub fn new(input: &'a str) -> Self {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    /// The first byte of the next value, if any.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Ends the document: only whitespace may follow the value read.
    ///
    /// # Errors
    ///
    /// A positioned [`JsonError`] on trailing characters.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Reads one value of any type.
    ///
    /// # Errors
    ///
    /// A positioned [`JsonError`] on malformed input.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        self.check_depth()?;
        match self.peek() {
            Some(b'{') => self.object_value(),
            Some(b'[') => self.array_value(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'0'..=b'9') => match self.plain_integer() {
                Some(v) => Ok(Value::Num(Number::U(v))),
                None => self.number(),
            },
            Some(b'-') => self.number(),
            _ => Err(self.error(format!(
                "expected a JSON value, got {}",
                self.describe_here()
            ))),
        }
    }

    /// Reads one object, calling `member` with each key in document
    /// order. `member` must consume the member's value (with
    /// [`Parser::value`], [`Parser::object`] or [`Parser::u32_array`]);
    /// the parser is positioned at it.
    ///
    /// # Errors
    ///
    /// A positioned [`JsonError`] on malformed input, or the first error
    /// `member` returns.
    pub fn object(
        &mut self,
        member: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.check_depth()?;
        self.members(member)
    }

    /// Reads one array, calling `element` at each element; like
    /// [`Parser::object`]'s `member`, it must consume the element.
    ///
    /// # Errors
    ///
    /// A positioned [`JsonError`] on malformed input, or the first error
    /// `element` returns.
    pub fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.check_depth()?;
        self.elements(element)
    }

    /// Reads one array of integers straight into `u32`s, without
    /// keeping a [`Value`] per element.
    ///
    /// Each element is read as [`Parser::value`] reads it (plain
    /// integers through its fast path, without building a `Value`) and
    /// kept only as a `u32`. At most
    /// `limit` values are kept (the buffer never grows past it), but
    /// every element is still read and counted, so a too-long array
    /// reports its true length. Storing also stops at the first element
    /// that is not a `u32`, whose index is recorded. Syntax errors
    /// anywhere in the array are reported exactly as [`parse`] reports
    /// them.
    ///
    /// # Errors
    ///
    /// A positioned [`JsonError`] on malformed input.
    pub fn u32_array(&mut self, limit: usize) -> Result<U32Array, JsonError> {
        self.check_depth()?;
        let mut out = U32Array::default();
        self.elements(|p| {
            // The integer fast path taken directly, skipping the
            // `Value` round trip, where `value` would take it too.
            let plain = if p.depth <= MAX_DEPTH {
                p.plain_integer()
            } else {
                None
            };
            let value = match plain {
                Some(v) => u32::try_from(v).ok(),
                None => match p.value()? {
                    Value::Num(n) => n.as_u64().and_then(|v| u32::try_from(v).ok()),
                    _ => None,
                },
            };
            match value {
                Some(v) if out.first_invalid.is_none() && out.values.len() < limit => {
                    if out.values.len() == out.values.capacity() {
                        let grown = (out.values.capacity() * 2).max(16).min(limit);
                        out.values.reserve_exact(grown - out.values.len());
                    }
                    out.values.push(v);
                }
                Some(_) => {}
                None => {
                    out.first_invalid.get_or_insert(out.len);
                }
            }
            out.len += 1;
            Ok(())
        })?;
        Ok(out)
    }

    /// The integer fast path of [`Parser::value`]: a plain run of 1–19
    /// digits with no sign, fraction or exponent and no leading zero —
    /// exactly the tokens the general number grammar reads as
    /// `Number::U` without overflow. Consumes it and returns its value;
    /// anything else leaves the position untouched for the general
    /// grammar, which also owns every error message.
    fn plain_integer(&mut self) -> Option<u64> {
        let rest = &self.bytes[self.pos..];
        let mut value = 0u64;
        let mut digits = 0;
        while let Some(d) = rest.get(digits).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            if digits == 19 {
                return None;
            }
            value = value * 10 + u64::from(d);
            digits += 1;
        }
        let plain = digits > 0
            && (digits == 1 || rest[0] != b'0')
            && !matches!(rest.get(digits), Some(b'.' | b'e' | b'E'));
        if !plain {
            return None;
        }
        self.pos += digits;
        Some(value)
    }

    fn object_value(&mut self) -> Result<Value, JsonError> {
        let mut obj = Object::new();
        self.members(|p, key| {
            let value = p.value()?;
            obj.insert(key, value);
            Ok(())
        })?;
        Ok(Value::Obj(obj))
    }

    fn array_value(&mut self) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        self.elements(|p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn check_depth(&self) -> Result<(), JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        Ok(())
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            message: message.into(),
            line,
            column,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', got {}",
                b as char,
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("'{}'", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".into(),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal, expected '{word}'")))
        }
    }

    /// The object grammar; each member value is read one level deeper.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error(format!(
                    "expected object key string, got {}",
                    self.describe_here()
                )));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(self.error(format!(
                        "expected ',' or '}}' in object, got {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }

    /// The array grammar; each element is read one level deeper.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(self.error(format!(
                        "expected ',' or ']' in array, got {}",
                        self.describe_here()
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue; // unicode_escape advanced pos itself
                        }
                        other => {
                            return Err(self.error(format!(
                                "invalid escape sequence \\{}",
                                other.map(|b| b as char).unwrap_or('?')
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pair handling for characters outside the BMP.
        if (0xD800..0xDC00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"));
                }
            }
            return Err(self.error("unpaired surrogate in \\u escape"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1
            && self.bytes[if self.bytes[start] == b'-' {
                start + 1
            } else {
                start
            }] == b'0'
        {
            return Err(self.error("leading zeros are not allowed"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let num = if is_float {
            Number::F(
                text.parse::<f64>()
                    .map_err(|e| self.error(format!("bad number {text:?}: {e}")))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            match stripped.parse::<u64>() {
                Ok(0) => Number::U(0),
                _ => Number::I(
                    text.parse::<i64>()
                        .map_err(|_| self.error(format!("integer out of range: {text}")))?,
                ),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) => Number::U(v),
                Err(_) => Number::F(
                    text.parse::<f64>()
                        .map_err(|e| self.error(format!("bad number {text:?}: {e}")))?,
                ),
            }
        };
        Ok(Value::Num(num))
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(format!("expected a digit, got {}", self.describe_here())));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(Number::U(42)));
        assert_eq!(parse("-7").unwrap(), Value::Num(Number::I(-7)));
        assert_eq!(parse("2.5e3").unwrap(), Value::Num(Number::F(2500.0)));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "d"}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], Value::Num(Number::U(1)));
        assert_eq!(arr[1].as_object().unwrap().get("b").unwrap(), &Value::Null);
        assert_eq!(obj.get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn round_trips_own_output() {
        let v = parse(r#"{"s":"a\"b\\c\nd","n":[0.5,-3,18446744073709551615]}"#).unwrap();
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("{\n  \"a\": ]\n}").unwrap_err();
        assert_eq!((err.line, err.column), (2, 8));
        assert!(err.to_string().contains("line 2"));
        let err = parse("[1, 2").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected ',' or ']'"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "[1,]",
            "01",
            "1.2.3",
            "tru",
            "nul",
            "+1",
            "\"\\x\"",
            "[1] [2]",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
        assert!(parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn big_u64_survives_exactly() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_number().unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(2000) + &"]".repeat(2000);
        assert!(parse(&deep).is_err());
    }

    /// Reads `input` as one array through [`Parser::u32_array`].
    fn typed(input: &str, limit: usize) -> Result<U32Array, JsonError> {
        let mut p = Parser::new(input);
        let out = p.u32_array(limit)?;
        p.finish()?;
        Ok(out)
    }

    /// What the `Value` tree says the same array holds.
    fn reference(input: &str) -> Result<U32Array, JsonError> {
        let Value::Arr(items) = parse(input)? else {
            panic!("{input:?} is not an array");
        };
        let mut out = U32Array {
            len: items.len(),
            ..U32Array::default()
        };
        for (i, v) in items.iter().enumerate() {
            let n = v
                .as_number()
                .and_then(Number::as_u64)
                .and_then(|n| u32::try_from(n).ok());
            match n {
                Some(n) if out.first_invalid.is_none() => out.values.push(n),
                Some(_) => {}
                None => {
                    out.first_invalid.get_or_insert(i);
                }
            }
        }
        Ok(out)
    }

    #[test]
    fn integer_path_matches_the_value_tree() {
        for input in [
            "[]",
            "[ ]",
            "[0]",
            "[4294967295]",
            "[4294967296]",
            "[99999999999]",
            "[18446744073709551616]",
            " [ 1 ,\n\t2 , 3 ] ",
            "[3.0,1e1,-0,0.0,2E0,1.0e1,-0.0,7]",
            "[1,-1,2]",
            "[1,\"x\",2]",
            "[1,[2],3]",
            "[1,{\"a\":[1]},null,true]",
            "[0.5,1]",
            "[1e10]",
            "[-1e-300]",
        ] {
            assert_eq!(typed(input, usize::MAX), reference(input), "{input}");
        }
    }

    #[test]
    fn integer_path_errors_match_the_value_tree() {
        let deep = format!("[{}1{}]", "[".repeat(256), "]".repeat(256));
        let shallow = format!("[{}1{}]", "[".repeat(255), "]".repeat(255));
        for input in [
            "[",
            "[1",
            "[1,",
            "[1,]",
            "[01]",
            "[00]",
            "[-]",
            "[1.]",
            "[1e]",
            "[1 2]",
            "[1]x",
            "[1]\n ]",
            "[-01]",
            "[+1]",
            "[1,\n  tru]",
            "[\"\\x\"]",
            "{\"a\":1}",
            deep.as_str(),
            shallow.as_str(),
        ] {
            let expected = parse(input).err();
            let got = typed(input, usize::MAX).err();
            if input.starts_with('{') {
                // Not an array: the typed read refuses at the bracket.
                assert_eq!(got.map(|e| (e.line, e.column)), Some((1, 1)));
                continue;
            }
            assert_eq!(got, expected, "{input}");
        }
    }

    #[test]
    fn integer_fast_path_matches_the_number_grammar() {
        for token in [
            "0",
            "7",
            "42,",
            "4294967296]",
            "1234567890123456789",
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "01",
            "00",
            "1.",
            "1.5",
            "1e",
            "1e3",
            "2E0",
            "3.0}",
            "-0",
            "-7",
            "-",
        ] {
            let fast = Parser::new(token).value();
            let general = Parser::new(token).number();
            assert_eq!(fast, general, "{token}");
            let (mut a, mut b) = (Parser::new(token), Parser::new(token));
            if a.value().is_ok() && b.number().is_ok() {
                assert_eq!(a.pos, b.pos, "{token}: consumed length");
            }
        }
    }

    #[test]
    fn integer_buffer_never_grows_past_the_limit() {
        let input = format!(
            "[{}]",
            (0..1000)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        for limit in [0, 1, 15, 16, 17, 100, 999, 1000] {
            let out = typed(&input, limit).unwrap();
            assert_eq!(out.len, 1000);
            assert_eq!(out.values.len(), limit);
            assert!(out.values.capacity() <= limit, "limit {limit}");
            assert!(out.values.iter().enumerate().all(|(i, &v)| v == i as u32));
        }
    }

    #[test]
    fn pull_reads_share_error_positions_with_parse() {
        let input = "{\"a\": [1, 2],\n \"b\": {\"c\": [3, x]}}";
        let expected = parse(input).unwrap_err();
        let mut p = Parser::new(input);
        let err = p
            .object(|p, key| {
                if key == "a" {
                    p.u32_array(usize::MAX).map(drop)
                } else {
                    p.value().map(drop)
                }
            })
            .unwrap_err();
        assert_eq!(err, expected);
        assert_eq!((err.line, err.column), (2, 17));
    }
}
