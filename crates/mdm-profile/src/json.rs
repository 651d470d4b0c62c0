//! A minimal JSON value, writer, and parser.
//!
//! The build environment has no network access, so `serde`/`serde_json`
//! are unavailable; the flight recorder, the ledger and the serve
//! protocol round-trip through this module instead. It supports exactly the JSON this repo emits: objects,
//! arrays, finite numbers, strings (with `\uXXXX` escapes), booleans
//! and null. Numbers are carried as `f64`; values JSON cannot express
//! exactly get string spellings via the checked constructors
//! [`Value::from_f64`] (non-finite → `"NaN"`/`"inf"`/`"-inf"`) and
//! [`Value::from_u64`] (≥ 2⁵³ → decimal string), which the accessors
//! [`Value::as_f64`]/[`Value::as_u64`] read back. A `Value::Num`
//! holding a non-finite `f64` directly serializes as `null` rather
//! than panicking — telemetry must be able to *record* a blown-up run,
//! not crash on it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed or to-be-written JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (a non-finite value serializes as `null`;
    /// build through [`Value::from_f64`] to preserve it instead).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Value>),
}

/// The largest integer (2⁵³) every smaller non-negative integer of
/// which is exactly representable as an `f64` JSON number.
const EXACT_F64_LIMIT: u64 = 1 << 53;

impl Value {
    /// A number that always survives serialization: finite values
    /// become [`Value::Num`], non-finite ones the string sentinels
    /// `"NaN"` / `"inf"` / `"-inf"` that [`Value::as_f64`] reads back.
    /// Use this (not `Value::Num` directly) for telemetry values that
    /// may come from a diverging trajectory.
    pub fn from_f64(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(x)
        } else if x.is_nan() {
            Value::Str("NaN".into())
        } else if x > 0.0 {
            Value::Str("inf".into())
        } else {
            Value::Str("-inf".into())
        }
    }

    /// An integer that always survives serialization: values below 2⁵³
    /// become [`Value::Num`] (exact in `f64`), larger ones a decimal
    /// string that [`Value::as_u64`] reads back. Use for seeds and
    /// counters that may occupy the full `u64` range.
    pub fn from_u64(x: u64) -> Value {
        if x < EXACT_F64_LIMIT {
            Value::Num(x as f64)
        } else {
            Value::Str(x.to_string())
        }
    }

    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is one — including the non-finite string
    /// sentinels written by [`Value::from_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The number as an integer, if it is one (in exact-f64 range), or
    /// a decimal string written by [`Value::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < EXACT_F64_LIMIT as f64 => {
                Some(*x as u64)
            }
            Value::Str(s) if s.bytes().all(|b| b.is_ascii_digit()) => s.parse().ok(),
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

    /// The array elements, if this is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string field `key`, if present and a string.
    pub fn opt_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// The string field `key`, or `default` when absent or mistyped.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.opt_str(key).unwrap_or(default).to_string()
    }

    /// The integer field `key`, if present and an integer.
    pub fn opt_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// The number field `key`, if present and a number (`null` reads
    /// as absent — the spelling [`Value::from_opt_f64`] writes).
    pub fn opt_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// The boolean field `key`, if present and a boolean.
    pub fn opt_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string field `key`, or the codec's one error.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.opt_str(key).ok_or_else(|| malformed(key))
    }

    /// The integer field `key`, or the codec's one error.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.opt_u64(key).ok_or_else(|| malformed(key))
    }

    /// The number field `key`, or the codec's one error.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.opt_f64(key).ok_or_else(|| malformed(key))
    }

    /// The array under `key`; an absent key is an empty array,
    /// anything but an array an error.
    pub fn arr(&self, key: &str) -> Result<&[Value], String> {
        match self.get(key) {
            None => Ok(&[]),
            Some(v) => v.as_arr().ok_or_else(|| malformed(key)),
        }
    }

    /// The name → number object under `key`; an absent key is an empty
    /// map, anything but an object of numbers an error.
    pub fn f64_map(&self, key: &str) -> Result<BTreeMap<String, f64>, String> {
        self.map_of(key, Value::as_f64)
    }

    /// The name → integer object under `key` (as [`Self::f64_map`]).
    pub fn u64_map(&self, key: &str) -> Result<BTreeMap<String, u64>, String> {
        self.map_of(key, Value::as_u64)
    }

    fn map_of<T>(
        &self,
        key: &str,
        read: fn(&Value) -> Option<T>,
    ) -> Result<BTreeMap<String, T>, String> {
        match self.get(key) {
            None => Ok(BTreeMap::new()),
            Some(Value::Obj(map)) => map
                .iter()
                .map(|(name, v)| match read(v) {
                    Some(x) => Ok((name.clone(), x)),
                    None => Err(malformed(&format!("{key}.{name}"))),
                })
                .collect(),
            Some(_) => Err(malformed(key)),
        }
    }

    /// A name → number object, each value through [`Value::from_f64`].
    pub fn from_f64_map(map: &BTreeMap<String, f64>) -> Value {
        Value::Obj(map.iter().map(|(k, v)| (k.clone(), Value::from_f64(*v))).collect())
    }

    /// A name → integer object, each value through [`Value::from_u64`].
    pub fn from_u64_map(map: &BTreeMap<String, u64>) -> Value {
        Value::Obj(map.iter().map(|(k, v)| (k.clone(), Value::from_u64(*v))).collect())
    }

    /// A number when there is one, `null` otherwise.
    pub fn from_opt_f64(x: Option<f64>) -> Value {
        x.map_or(Value::Null, Value::from_f64)
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize to a single line with no whitespace (for JSONL, where
    /// one value per line is the framing).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/inf; never panic mid-recording.
                    out.push_str("null");
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/inf; never panic mid-recording.
                    out.push_str("null");
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    // Round-trippable shortest float formatting.
                    let _ = write!(out, "{x}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the subset this module writes, which is
    /// all of standard JSON except exotic number forms).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }
}

/// The one wording every typed field reader fails with.
pub(crate) fn malformed(key: &str) -> String {
    format!("missing or malformed `{key}`")
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the
                            // ASCII identifiers this repo writes.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b & 0xC0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Build an object from key–value pairs (insertion order is irrelevant;
/// output is sorted by key).
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = obj([
            ("name", Value::Str("profile_step".into())),
            ("n", Value::Num(4096.0)),
            ("t", Value::Num(0.12345678901234)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            (
                "phases",
                Value::Arr(vec![
                    obj([("name", Value::Str("real".into())), ("s", Value::Num(1.5))]),
                    obj([("name", Value::Str("wave".into())), ("s", Value::Num(2.5))]),
                ]),
            ),
        ]);
        let text = doc.to_pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn escapes_round_trip() {
        let doc = Value::Str("line\nbreak \"quoted\" back\\slash ünïcode \u{1}".into());
        let back = Value::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let doc = obj([
            ("step", Value::Num(3.0)),
            ("label", Value::Str("nacl\n\"512\"".into())),
            ("phases", Value::Arr(vec![Value::Num(0.5), Value::Null])),
            ("empty_obj", Value::Obj(BTreeMap::new())),
            ("empty_arr", Value::Arr(Vec::new())),
        ]);
        let line = doc.to_compact();
        assert!(!line.contains('\n'), "JSONL framing forbids raw newlines: {line}");
        assert!(!line.contains(": "), "compact form has no decorative spaces");
        assert_eq!(Value::parse(&line).unwrap(), doc);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.0, -1.0, 43.8, 1.34e12, 6.75e14, 1e-9, f64::MIN_POSITIVE] {
            let text = Value::Num(x).to_pretty();
            assert_eq!(Value::parse(&text).unwrap().as_f64().unwrap(), x, "{text}");
        }
        assert_eq!(Value::Num(32768.0).to_pretty().trim(), "32768");
    }

    #[test]
    fn non_finite_num_serializes_as_null_not_panic() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Num(x).to_compact(), "null");
            assert_eq!(Value::Num(x).to_pretty().trim(), "null");
        }
    }

    #[test]
    fn from_f64_sentinels_round_trip() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let text = Value::from_f64(x).to_compact();
            assert_eq!(Value::parse(&text).unwrap().as_f64(), Some(x), "{text}");
        }
        let text = Value::from_f64(f64::NAN).to_compact();
        assert_eq!(text, "\"NaN\"");
        assert!(Value::parse(&text).unwrap().as_f64().unwrap().is_nan());
        // Finite values stay plain numbers.
        assert_eq!(Value::from_f64(1.5), Value::Num(1.5));
    }

    #[test]
    fn from_u64_survives_full_range() {
        for x in [0, 1, (1 << 53) - 1, 1 << 53, u64::MAX] {
            let text = Value::from_u64(x).to_compact();
            assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(x), "{text}");
        }
        assert_eq!(Value::from_u64(u64::MAX), Value::Str(u64::MAX.to_string()));
        // Non-numeric strings are not integers.
        assert_eq!(Value::Str("12x".into()).as_u64(), None);
        assert_eq!(Value::Str("-3".into()).as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{" ).is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"open").is_err());
    }

    #[test]
    fn accessors() {
        let doc = Value::parse(r#"{"a": 3, "b": "x", "c": [1, 2]}"#).unwrap();
        assert_eq!(doc.opt_u64("a"), Some(3));
        assert_eq!(doc.opt_str("b"), Some("x"));
        assert_eq!(doc.arr("c").unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn typed_field_readers_share_one_error_and_treat_absent_as_empty() {
        let doc = Value::parse(r#"{"n": 3, "s": "x", "m": {"a": 1.5, "b": "NaN"}, "b": true}"#)
            .unwrap();
        assert_eq!(doc.req_u64("n"), Ok(3));
        assert_eq!(doc.req_str("n"), Err("missing or malformed `n`".to_string()));
        assert_eq!(doc.req_f64("gone"), Err("missing or malformed `gone`".to_string()));
        assert_eq!((doc.opt_bool("b"), doc.opt_bool("n")), (Some(true), None));
        let m = doc.f64_map("m").unwrap();
        assert!(m["a"] == 1.5 && m["b"].is_nan());
        assert_eq!(Value::from_f64_map(&m), *doc.get("m").unwrap());
        assert_eq!(doc.u64_map("m"), Err("missing or malformed `m.a`".to_string()));
        assert_eq!(doc.f64_map("s"), Err("missing or malformed `s`".to_string()));
        assert_eq!(doc.u64_map("gone"), Ok(BTreeMap::new()));
        assert_eq!(doc.arr("gone"), Ok(&[][..]));
        assert!(doc.arr("n").is_err());
        assert_eq!(Value::from_opt_f64(None), Value::Null);
    }
}
