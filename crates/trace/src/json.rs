//! The workspace's one JSON value, writer and parser.
//!
//! Every JSON document the workspace writes or reads goes through this
//! module: the Chrome traces and the run counters they embed, the
//! figures sweep document and the checks over them.
//!
//! * [`Value`] keeps object members in insertion order, holds integers
//!   exactly (all of `u64` and `i64`; answer digests exceed 2^53) and
//!   floats separately.
//! * [`Value::to_json`] writes one fixed layout: a container goes on
//!   one line when that line, from its opening to its closing bracket,
//!   takes at most 240 bytes; otherwise each member goes on its own
//!   line, indented two spaces deeper. Floats are written in their
//!   shortest round-trip form, non-finite ones as `null`.
//! * [`parse`] accepts RFC 8259 JSON and rejects trailing data,
//!   truncated input and duplicate object keys with a [`ParseError`]
//!   carrying the byte offset. It never panics.

use std::fmt::{self, Write as _};

/// Widest one-line container [`Value::to_json`] writes, in bytes.
const LINE_WIDTH: usize = 240;

/// Deepest container nesting [`parse`] follows (bounds its recursion).
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written without fraction or exponent, held exactly.
    Int(i128),
    /// A number written with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`with`](Self::with).
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Appends the member `key: value` to this object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Object(members) => members.push((key.to_string(), value.into())),
            other => panic!("`with({key:?})` on the non-object {other:?}"),
        }
        self
    }

    /// The member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer, if this is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The number as a float (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the value as JSON in the module's fixed layout (no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write(self, Some(0), &mut out, usize::MAX);
        out
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v.into())
            }
        }
    )*};
}

value_from!(
    u64 => Int, i64 => Int, f64 => Float,
    &str => Str, String => Str, Vec<Value> => Array,
);

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i128)
    }
}

/// A container's members in order, keyed for objects.
type Members<'a> = Box<dyn Iterator<Item = (Option<&'a str>, &'a Value)> + 'a>;

/// Writes `v` at nesting level `depth`, or on one line when `depth` is
/// `None`. False once a one-line write grows `out` past `limit` bytes
/// (the partial output is then the caller's to discard).
fn write(v: &Value, depth: Option<usize>, out: &mut String, limit: usize) -> bool {
    let (open, close, members): (char, char, Members<'_>) = match v {
        Value::Array(items) => ('[', ']', Box::new(items.iter().map(|v| (None, v)))),
        Value::Object(m) => (
            '{',
            '}',
            Box::new(m.iter().map(|(k, v)| (Some(k.as_str()), v))),
        ),
        Value::Str(s) => {
            write_str(s, out);
            return out.len() <= limit;
        }
        scalar => {
            let _ = match scalar {
                // `{:?}` is the shortest round-trip form and always has
                // a `.` or an exponent, so it parses back as a float.
                Value::Float(f) if f.is_finite() => write!(out, "{f:?}"),
                Value::Int(i) => write!(out, "{i}"),
                Value::Bool(b) => write!(out, "{b}"),
                // `null` and the non-finite floats.
                _ => write!(out, "null"),
            };
            return out.len() <= limit;
        }
    };
    let start = out.len();
    if depth.is_some() {
        if write(v, None, out, start + LINE_WIDTH) {
            return true;
        }
        out.truncate(start);
    }
    // Expanded members start on their own line, indented one level.
    let pad = depth.map(|d| format!("\n{}", "  ".repeat(d + 1)));
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match &pad {
            Some(pad) => out.push_str(pad),
            None if i > 0 => out.push(' '),
            None => {}
        }
        if let Some(key) = key {
            write_str(key, out);
            out.push_str(": ");
        }
        if !write(value, depth.map(|d| d + 1), out, limit) {
            return false;
        }
    }
    if let Some(pad) = &pad {
        out.push_str(&pad[..pad.len() - 2]);
    }
    out.push(close);
    out.len() <= limit
}

/// Writes `s` as a JSON string literal.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value (a truncated document).
    Eof,
    /// A byte that is not valid JSON where it stands.
    Syntax,
    /// An object key that appeared before in the same object.
    DuplicateKey(String),
    /// Non-whitespace after the document's value.
    TrailingData,
    /// Containers nested deeper than the parser follows.
    TooDeep,
}

/// A parse failure at byte `offset` of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong there.
    pub kind: ErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::Eof => f.write_str("input ends inside a value"),
            ErrorKind::Syntax => f.write_str("invalid JSON"),
            ErrorKind::DuplicateKey(key) => write!(f, "duplicate key {key:?}"),
            ErrorKind::TrailingData => f.write_str("data after the document"),
            ErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document.
///
/// # Errors
///
/// A [`ParseError`] at the first byte that is not valid JSON, at the
/// end of truncated input, at trailing data, at a duplicate object key
/// or where nesting passes 128 containers.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < text.len() {
        return p.fail(ErrorKind::TrailingData);
    }
    Ok(value)
}

/// The cursor only ever steps over ASCII bytes, so `at` stays on a
/// char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, kind: ErrorKind) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.at,
            kind,
        })
    }

    /// Fails at the cursor: `Eof` at the end of input, else `Syntax`.
    fn unexpected<T>(&self) -> Result<T, ParseError> {
        self.fail(match self.byte() {
            None => ErrorKind::Eof,
            Some(_) => ErrorKind::Syntax,
        })
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Consumes `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.byte() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.at += 1;
        }
    }

    /// Skips whitespace, then consumes `b`.
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat(b) {
            Ok(())
        } else {
            self.unexpected()
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return self.fail(ErrorKind::TooDeep);
        }
        match self.byte() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Value)> = Vec::new();
                self.seq(b'}', |p| {
                    p.skip_ws();
                    let at = p.at;
                    if p.byte() != Some(b'"') {
                        return p.unexpected();
                    }
                    let key = p.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        let kind = ErrorKind::DuplicateKey(key);
                        return Err(ParseError { offset: at, kind });
                    }
                    p.expect(b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.unexpected(),
        }
    }

    /// Parses comma-separated elements up to the `close` bracket; the
    /// cursor is on the opening bracket.
    fn seq(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.at += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        for &b in word.as_bytes() {
            if !self.eat(b) {
                return self.unexpected();
            }
        }
        Ok(value)
    }

    /// Parses a string literal; the cursor is on its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control byte.
            let rest = self.text.get(self.at..).unwrap_or_default();
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.at += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return self.unexpected();
            }
            let c = match self.byte() {
                Some(b'u') => {
                    self.at += 1;
                    out.push(self.unicode()?);
                    continue;
                }
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                _ => return self.unexpected(),
            };
            self.at += 1;
            out.push(c);
        }
    }

    /// Decodes the digits of a `\u` escape, joining a surrogate pair.
    fn unicode(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return self.unexpected();
            }
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return self.fail(ErrorKind::Syntax);
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        // A lone low surrogate is no char.
        char::from_u32(code).map_or_else(|| self.fail(ErrorKind::Syntax), Ok)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            match self.byte().and_then(|b| char::from(b).to_digit(16)) {
                Some(digit) => code = code * 16 + digit,
                None => return self.unexpected(),
            }
            self.at += 1;
        }
        Ok(code)
    }

    /// Consumes ASCII digits; false if there were none.
    fn digits(&mut self) -> bool {
        let start = self.at;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at > start
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        self.eat(b'-');
        let mut valid = self.eat(b'0') || self.digits();
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            valid &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            float = true;
            let _ = self.eat(b'+') || self.eat(b'-');
            valid &= self.digits();
        }
        if !valid {
            return self.unexpected();
        }
        let text = &self.text[start..self.at];
        match text.parse::<i128>() {
            Ok(i) if !float => Ok(Value::Int(i)),
            // Fractions, exponents and integers beyond `i128`.
            _ => text
                .parse()
                .map(Value::Float)
                .or_else(|_| self.fail(ErrorKind::Syntax)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(text: &str) -> ParseError {
        parse(text).expect_err(text)
    }

    #[test]
    fn errors_carry_kind_and_byte_offset() {
        let at = |offset, kind| ParseError { offset, kind };
        assert_eq!(err("{\"a\": 1"), at(7, ErrorKind::Eof));
        assert_eq!(err(""), at(0, ErrorKind::Eof));
        assert_eq!(err("nul"), at(3, ErrorKind::Eof));
        assert_eq!(err("[1, 2]]"), at(6, ErrorKind::TrailingData));
        let dup = ErrorKind::DuplicateKey("a".into());
        assert_eq!(err("{\"a\": 1, \"a\": 2}"), at(9, dup));
        assert_eq!(err("[01]"), at(2, ErrorKind::Syntax));
        assert_eq!(err("[1.]"), at(3, ErrorKind::Syntax));
        assert_eq!(err("[-]"), at(2, ErrorKind::Syntax));
        assert_eq!(err("[1,]"), at(3, ErrorKind::Syntax));
        assert_eq!(err("{\"a\" 1}"), at(5, ErrorKind::Syntax));
        assert_eq!(err("\"\\x\""), at(2, ErrorKind::Syntax));
        assert_eq!(err("\"\\udc00\""), at(7, ErrorKind::Syntax));
        assert_eq!(err("\"a\nb\""), at(2, ErrorKind::Syntax));
        assert_eq!(err(&"[".repeat(1000)).kind, ErrorKind::TooDeep);
        assert_eq!(err("[1 2]").to_string(), "invalid JSON at byte 3");
    }

    #[test]
    fn numbers_keep_integers_exact_and_floats_apart() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::from(u64::MAX)));
        assert_eq!(parse("-9223372036854775808"), Ok(Value::from(i64::MIN)));
        assert_eq!(parse("5"), Ok(Value::Int(5)));
        assert_eq!(parse("5.0"), Ok(Value::Float(5.0)));
        assert_eq!(parse("-2e3"), Ok(Value::Float(-2000.0)));
        assert_eq!(Value::Float(5.0).to_json(), "5.0");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
        let crab = Value::from("\u{1f600}");
        assert_eq!(parse("\"\\ud83d\\ude00\""), Ok(crab));
    }

    #[test]
    fn layout_puts_short_containers_on_one_line() {
        let long = Value::from("y".repeat(LINE_WIDTH));
        let doc = Value::object()
            .with("short", vec![Value::from(1u64), Value::from("x")])
            .with("empty", Value::object())
            .with("long", vec![long.clone(), long.clone()]);
        let long = long.to_json();
        assert_eq!(
            doc.to_json(),
            format!(
                "{{\n  \"short\": [1, \"x\"],\n  \"empty\": {{}},\n  \"long\": [\n    \
                 {long},\n    {long}\n  ]\n}}"
            )
        );
    }

    #[test]
    fn builder_and_accessors() {
        let v = Value::object()
            .with("n", 7u64)
            .with("s", "t")
            .with("i", -1i64);
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("t"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("i").and_then(Value::as_u64), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.as_array(), None);
    }
}
