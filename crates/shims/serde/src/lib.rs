//! Offline API-subset shim of the `serde` crate.
//!
//! The build container has no registry access, so the workspace vendors the
//! serialization surface it uses under the crate name the ecosystem expects.
//! Unlike real serde there is no derive machinery and no pluggable
//! `Serializer`/`Deserializer` pair: types convert to and from a single
//! in-memory [`Value`] tree (the JSON data model, with integers kept exact),
//! and the [`json`] module renders and parses that tree. Implementations are
//! written by hand, which is what the workspace's wire types do.
//!
//! Design constraints the wire format relies on:
//!
//! * **Lossless numbers.** `u64`/`i64` round-trip exactly ([`Value::UInt`] /
//!   [`Value::Int`] are separate from [`Value::Float`]), and finite `f64`s
//!   are rendered with Rust's shortest-roundtrip `{:?}` formatting, so
//!   `parse(render(x)) == x` bit-for-bit.
//! * **Deterministic output.** Object fields serialize in insertion order;
//!   the same value always renders to the same string (golden files can be
//!   checked in).

#![warn(missing_docs)]

use std::fmt;

/// A serialization or deserialization failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with a custom message (the `serde::de::Error` entry
    /// point the workspace uses).
    pub fn custom(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// An error for a missing object field.
    pub fn missing_field(name: &str) -> Self {
        Error::custom(format!("missing field `{name}`"))
    }

    /// An error for a type mismatch at a named location.
    pub fn expected(what: &str, got: &Value) -> Self {
        Error::custom(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// The in-memory data model: JSON's value tree, with integers kept separate
/// from floats so `u64`/`i64` round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A non-negative integer (rendered without decimal point or exponent).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered `(key, value)` pairs (order is preserved on both
    /// render and parse, making output deterministic).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// A short name for the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not an object or the field is absent.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(_) => self.get(key).ok_or_else(|| Error::missing_field(key)),
            other => Err(Error::expected("object", other)),
        }
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// Returns an error on any other kind.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }

    /// The value as a `u64` (accepts only non-negative integers).
    ///
    /// # Errors
    ///
    /// Returns an error on any other kind.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match self {
            Value::UInt(n) => Ok(*n),
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            other => Err(Error::expected("non-negative integer", other)),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// Returns an error on any other kind or on overflow.
    pub fn as_usize(&self) -> Result<usize, Error> {
        usize::try_from(self.as_u64()?).map_err(|_| Error::custom("integer overflows usize"))
    }

    /// The value as an `f64` (integers convert).
    ///
    /// # Errors
    ///
    /// Returns an error on any non-numeric kind.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(Error::expected("number", other)),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns an error on any other kind.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::expected("string", other)),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns an error on any other kind.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::expected("array", other)),
        }
    }
}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

// A Value tree is its own serialization (as in real serde_json), so
// hand-assembled trees render through `json::to_string` directly.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

/// Conversion out of the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree, validating along the way.
    ///
    /// # Errors
    ///
    /// Returns an error when the value's shape or contents do not describe a
    /// valid `Self`.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_bool()
    }
}

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
}

impl Deserialize for u64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_u64()
    }
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl Deserialize for usize {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_usize()
    }
}

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        if *self >= 0 {
            Value::UInt(*self as u64)
        } else {
            Value::Int(*self)
        }
    }
}

impl Deserialize for i64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Int(n) => Ok(*n),
            Value::UInt(n) => i64::try_from(*n).map_err(|_| Error::custom("integer overflows i64")),
            other => Err(Error::expected("integer", other)),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_f64()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_str().map(str::to_string)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_array()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

/// The JSON rendering and parsing of the [`Value`] data model (the shim's
/// stand-in for the `serde_json` crate).
pub mod json {
    use super::{Deserialize, Error, Serialize, Value};
    use std::fmt::Write as _;

    /// Serializes a value to compact JSON.
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        render(&value.to_value(), &mut out, None, 0);
        out
    }

    /// Serializes a value to human-readable, 2-space-indented JSON (used
    /// for golden files; the output is deterministic).
    pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        render(&value.to_value(), &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Deserializes a value from JSON text.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or when the parsed tree does not
    /// describe a valid `T`.
    pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
        T::from_value(&parse(text)?)
    }

    /// Parses JSON text into a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or trailing garbage.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            chars: text.char_indices().peekable(),
            text,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if let Some((i, _)) = p.chars.peek() {
            return Err(Error::custom(format!("trailing input at byte {i}")));
        }
        Ok(value)
    }

    fn render(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => {
                write!(out, "{n}").expect("string write");
            }
            Value::Int(n) => {
                write!(out, "{n}").expect("string write");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest-roundtrip rendering: parsing
                    // it back yields the identical f64, and integral values
                    // keep a ".0" so they stay classified as floats.
                    write!(out, "{x:?}").expect("string write");
                } else {
                    // JSON has no NaN/∞; render as null like serde_json.
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Array(items) => {
                render_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                    render(&items[i], out, indent, depth + 1);
                });
            }
            Value::Object(fields) => {
                render_seq(out, indent, depth, fields.len(), '{', '}', |out, i| {
                    render_string(&fields[i].0, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    render(&fields[i].1, out, indent, depth + 1);
                });
            }
        }
    }

    fn render_seq(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        len: usize,
        open: char,
        close: char,
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        if len == 0 {
            out.push(close);
            return;
        }
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
            }
            item(out, i);
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
        out.push(close);
    }

    fn render_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("string write");
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Maximum container nesting the parser accepts (serde_json's default
    /// is 128). The parser recurses per level, so without a cap a
    /// deep-nested hostile payload would overflow the stack and abort the
    /// process instead of returning the documented wire error.
    const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        chars: std::iter::Peekable<std::str::CharIndices<'a>>,
        text: &'a str,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some((_, ' ' | '\t' | '\n' | '\r'))) {
                self.chars.next();
            }
        }

        fn expect_char(&mut self, want: char) -> Result<(), Error> {
            match self.chars.next() {
                Some((_, c)) if c == want => Ok(()),
                Some((i, c)) => Err(Error::custom(format!(
                    "expected '{want}' at byte {i}, found '{c}'"
                ))),
                None => Err(Error::custom(format!(
                    "expected '{want}', found end of input"
                ))),
            }
        }

        fn eat_keyword(&mut self, keyword: &str) -> Result<(), Error> {
            for want in keyword.chars() {
                match self.chars.next() {
                    Some((_, c)) if c == want => {}
                    _ => {
                        return Err(Error::custom(format!(
                            "invalid literal, expected {keyword}"
                        )))
                    }
                }
            }
            Ok(())
        }

        fn value(&mut self, depth: usize) -> Result<Value, Error> {
            if depth > MAX_DEPTH {
                return Err(Error::custom(format!(
                    "nesting deeper than {MAX_DEPTH} levels"
                )));
            }
            self.skip_ws();
            match self.chars.peek().copied() {
                None => Err(Error::custom("unexpected end of input")),
                Some((_, 'n')) => {
                    self.eat_keyword("null")?;
                    Ok(Value::Null)
                }
                Some((_, 't')) => {
                    self.eat_keyword("true")?;
                    Ok(Value::Bool(true))
                }
                Some((_, 'f')) => {
                    self.eat_keyword("false")?;
                    Ok(Value::Bool(false))
                }
                Some((_, '"')) => Ok(Value::Str(self.string()?)),
                Some((_, '[')) => {
                    self.chars.next();
                    let mut items = Vec::new();
                    self.skip_ws();
                    if matches!(self.chars.peek(), Some((_, ']'))) {
                        self.chars.next();
                        return Ok(Value::Array(items));
                    }
                    loop {
                        items.push(self.value(depth + 1)?);
                        self.skip_ws();
                        match self.chars.next() {
                            Some((_, ',')) => continue,
                            Some((_, ']')) => return Ok(Value::Array(items)),
                            _ => return Err(Error::custom("expected ',' or ']' in array")),
                        }
                    }
                }
                Some((_, '{')) => {
                    self.chars.next();
                    let mut fields = Vec::new();
                    self.skip_ws();
                    if matches!(self.chars.peek(), Some((_, '}'))) {
                        self.chars.next();
                        return Ok(Value::Object(fields));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.expect_char(':')?;
                        fields.push((key, self.value(depth + 1)?));
                        self.skip_ws();
                        match self.chars.next() {
                            Some((_, ',')) => continue,
                            Some((_, '}')) => return Ok(Value::Object(fields)),
                            _ => return Err(Error::custom("expected ',' or '}' in object")),
                        }
                    }
                }
                Some((start, c)) if c == '-' || c.is_ascii_digit() => self.number(start),
                Some((i, c)) => Err(Error::custom(format!("unexpected '{c}' at byte {i}"))),
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect_char('"')?;
            let mut out = String::new();
            loop {
                match self.chars.next() {
                    None => return Err(Error::custom("unterminated string")),
                    Some((_, '"')) => return Ok(out),
                    Some((_, '\\')) => match self.chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, '/')) => out.push('/'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'b')) => out.push('\u{8}'),
                        Some((_, 'f')) => out.push('\u{c}'),
                        Some((_, 'u')) => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, c) = self
                                    .chars
                                    .next()
                                    .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                                code = code * 16
                                    + c.to_digit(16)
                                        .ok_or_else(|| Error::custom("invalid \\u escape"))?;
                            }
                            // Surrogate pairs are not produced by the
                            // renderer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::custom("invalid \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(Error::custom("invalid escape sequence")),
                    },
                    Some((_, c)) => out.push(c),
                }
            }
        }

        fn number(&mut self, start: usize) -> Result<Value, Error> {
            let mut end = start;
            let mut float = false;
            while let Some(&(i, c)) = self.chars.peek() {
                match c {
                    '0'..='9' | '-' | '+' => {}
                    '.' | 'e' | 'E' => float = true,
                    _ => break,
                }
                end = i + c.len_utf8();
                self.chars.next();
            }
            let token = &self.text[start..end];
            if !float {
                if let Some(stripped) = token.strip_prefix('-') {
                    if let Ok(n) = stripped.parse::<u64>() {
                        if n <= i64::MAX as u64 {
                            return Ok(Value::Int(-(n as i64)));
                        }
                        if n == i64::MAX as u64 + 1 {
                            // |i64::MIN| overflows i64 before negation.
                            return Ok(Value::Int(i64::MIN));
                        }
                    }
                } else if let Ok(n) = token.parse::<u64>() {
                    return Ok(Value::UInt(n));
                }
            }
            token
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid number {token:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(json::to_string(&true), "true");
        assert!(json::from_str::<bool>("true").unwrap());
        assert_eq!(json::to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(
            json::from_str::<u64>("18446744073709551615").unwrap(),
            u64::MAX
        );
        assert_eq!(json::to_string(&-42i64), "-42");
        assert_eq!(json::from_str::<i64>("-42").unwrap(), -42);
        // The extreme integers, including |i64::MIN| = i64::MAX + 1.
        for n in [i64::MIN, i64::MIN + 1, i64::MAX] {
            assert_eq!(json::from_str::<i64>(&json::to_string(&n)).unwrap(), n);
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(json::parse(&deep).is_err());
        let deep_objects = "{\"k\":".repeat(100_000);
        assert!(json::parse(&deep_objects).is_err());
        // 100 levels (within the limit) still parse.
        let ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(json::parse(&ok).is_ok());
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for x in [
            0.1,
            -0.0,
            1.0,
            std::f64::consts::PI,
            1e-300,
            6.5e9,
            f64::MIN_POSITIVE,
        ] {
            let text = json::to_string(&x);
            let back: f64 = json::from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "qu\"ote\\slash\nnewline\ttab X† X·H".to_string();
        let text = json::to_string(&s);
        assert_eq!(json::from_str::<String>(&text).unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(json::to_string(&v), "[1,2,3]");
        assert_eq!(json::from_str::<Vec<u64>>("[1,2,3]").unwrap(), v);
        let none: Option<u64> = None;
        assert_eq!(json::to_string(&none), "null");
        assert_eq!(json::from_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(json::from_str::<Option<u64>>("7").unwrap(), Some(7));
    }

    #[test]
    fn objects_preserve_field_order() {
        let v = Value::object(vec![("zeta", Value::UInt(1)), ("alpha", Value::UInt(2))]);
        let mut out = String::new();
        out.push_str(&json::to_string(&WrapValue(v.clone())));
        assert_eq!(out, r#"{"zeta":1,"alpha":2}"#);
        assert_eq!(json::parse(&out).unwrap(), v);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::object(vec![
            ("name", Value::Str("fig4".to_string())),
            (
                "points",
                Value::Array(vec![Value::UInt(1), Value::Float(0.5)]),
            ),
            ("empty", Value::Array(Vec::new())),
        ]);
        let pretty = json::to_string_pretty(&WrapValue(v.clone()));
        assert!(pretty.contains("\n  \"name\""));
        assert_eq!(json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("1 2").is_err());
        assert!(json::parse("\"unterminated").is_err());
        assert!(json::from_str::<u64>("-3").is_err());
    }

    struct WrapValue(Value);
    impl Serialize for WrapValue {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
}
