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
            Value::Str(s) => write_string(out, s),
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
                    write_string(out, key);
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
                    write_string(out, key);
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
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
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

/// Append `s` as a JSON string literal: quotes, and an escape for `"`,
/// `\\` and every control character. The runs between escapes are
/// copied whole.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte that ends a run is ASCII, so `run..i` is a whole
        // number of characters.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// `"00"` … `"99"`: the decimal digits of every pair.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The eight decimal digits of `x < 10⁸`, zero-padded, into `out`: two
/// independent four-digit halves in 32-bit arithmetic.
fn eight_digits(out: &mut [u8], x: u32) {
    for (half, v) in out.chunks_exact_mut(4).zip([x / 10_000, x % 10_000]) {
        let (hi, lo) = (v as usize / 100 * 2, v as usize % 100 * 2);
        half[..2].copy_from_slice(&DIGIT_PAIRS[hi..hi + 2]);
        half[2..].copy_from_slice(&DIGIT_PAIRS[lo..lo + 2]);
    }
}

/// Append `x` as [`Value::from_u64`] spells it in [`Value::to_compact`]:
/// a bare integer below 2⁵³, a quoted decimal string from there on. The
/// output is bytes (ASCII), for encoders that write a whole document
/// into one buffer and check it is UTF-8 once, at the end.
pub fn write_u64(out: &mut Vec<u8>, x: u64) {
    const E8: u64 = 100_000_000;
    // Three eight-digit groups hold every u64; the leading zeros go
    // (all but the last digit, for 0).
    let mut digits = [0u8; 24];
    let mut rest = x;
    for group in digits.chunks_exact_mut(8).rev() {
        eight_digits(group, (rest % E8) as u32);
        rest /= E8;
    }
    let zeros = digits[..23].iter().take_while(|&&d| d == b'0').count();
    let quoted = x >= EXACT_F64_LIMIT;
    if quoted {
        out.push(b'"');
    }
    out.extend_from_slice(&digits[zeros..]);
    if quoted {
        out.push(b'"');
    }
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

/// A pull reader over one JSON document — the parser behind
/// [`Value::parse`], open to decoders that walk a document without
/// building its [`Value`] tree. Each method reads one value (skipping
/// the whitespace before it) and accepts exactly the text
/// [`Value::parse`] accepts there, so a decoder built on it agrees with
/// one that parses first and reads the tree after: [`Self::u64`] gives
/// what `value()?.as_u64()` gives, and [`Self::object`] and
/// [`Self::array`] walk the members and elements `value()` would
/// collect.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

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

    /// The first byte of the next value, after whitespace; not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
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

    /// The end of the document: nothing but whitespace may follow.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        if self.peek().is_some() {
            return Err(self.error("trailing characters"));
        }
        Ok(())
    }

    /// The next value, whole.
    pub fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    map.insert(key, r.value()?);
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'-' | b'0'..=b'9') => Ok(Value::Num(self.number()?)),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// The next value as [`Value::as_u64`] reads it: `Ok(None)` for a
    /// well-formed value that is not an integer. Digit runs — bare, or
    /// quoted without escapes — are read in place.
    pub fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        match self.peek() {
            Some(b'"') => {
                let digits = self.bytes[self.pos + 1..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                let end = self.pos + 1 + digits;
                if digits == 0 || self.bytes.get(end) != Some(&b'"') {
                    return Ok(Value::Str(self.string()?).as_u64());
                }
                let x = decimal(&self.bytes[self.pos + 1..end]);
                self.pos = end + 1;
                Ok(x)
            }
            Some(b'-' | b'0'..=b'9') => {
                let token = self.number_token();
                // Fifteen digits stay below 2⁵³, where every integer is
                // its own `f64`.
                if token.len() <= 15 && token.iter().all(u8::is_ascii_digit) {
                    return Ok(decimal(token));
                }
                Ok(Value::Num(self.number_value(token)?).as_u64())
            }
            _ => Ok(self.value()?.as_u64()),
        }
    }

    /// An array, calling `element` once per element; each call must read
    /// exactly one value.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// An object, calling `member` once per member with its key; each
    /// call must read exactly one value. Keys come in document order,
    /// repeats included (a [`Value`] keeps the last).
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            member(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run is a whole number of characters.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                .map_err(|_| self.error("invalid UTF-8"))?;
            out.push_str(text);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.bytes.get(self.pos).copied() else {
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
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| self.error("invalid \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| self.error("invalid \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed for the
                    // ASCII identifiers this repo writes.
                    out.push(char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?);
                }
                _ => return Err(self.error("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let token = self.number_token();
        self.number_value(token)
    }

    /// Consume the bytes a number may hold: an optional `-`, then digits,
    /// `.`, `e`, `E`, `+` and `-`.
    fn number_token(&mut self) -> &'a [u8] {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(|&b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        &self.bytes[start..self.pos]
    }

    /// The value of a token [`Self::number_token`] just consumed.
    fn number_value(&self, token: &[u8]) -> Result<f64, ParseError> {
        let text = std::str::from_utf8(token).expect("ASCII token");
        text.parse::<f64>()
            .map_err(|_| self.error("invalid number"))
    }
}

/// The `u64` a run of ASCII digits spells, `None` past `u64::MAX` (as
/// `str::parse` reads it).
fn decimal(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |x, &d| {
        x.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    })
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

    /// An escaper that writes one `char` at a time: the oracle the
    /// run-copying [`write_string`] must match byte for byte.
    fn write_escaped_per_char(out: &mut String, s: &str) {
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

    #[test]
    fn run_copied_strings_match_the_per_char_forms() {
        let mut samples: Vec<String> = ["", "plain", "\"", "a\\b", "ends\n", "\u{1}\u{1f}\u{7f}"]
            .map(String::from)
            .into();
        samples.push("nacl-512 \"ü\" \t tab \r\n é 😀 \\u0041 \u{0} end".into());
        samples.push((0u8..0x80).map(char::from).chain("ÿ€😀".chars()).collect());
        for s in &samples {
            let (mut runs, mut chars) = (String::new(), String::new());
            write_string(&mut runs, s);
            write_escaped_per_char(&mut chars, s);
            assert_eq!(runs, chars, "{s:?}");
            assert_eq!(
                Value::parse(&runs).unwrap(),
                Value::Str(s.clone()),
                "{runs}"
            );
        }
        // Escapes the writer never emits still read back.
        let read = Value::parse(r#""\/\b\f\u00e9\u0041x""#).unwrap();
        assert_eq!(read, Value::Str("/\u{8}\u{c}éAx".into()));
        for bad in [r#""\u12""#, r#""\q""#, r#""\"#, r#""open"#, r#""\ud800""#] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn write_u64_spells_what_from_u64_writes() {
        let edges = [0, 1, 9, 10, 999_999_999_999_999, 1_000_000_000_000_000];
        let around_2_53 = [
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for x in edges
            .into_iter()
            .chain(around_2_53)
            .chain((0..64).map(|k| 1u64 << k))
        {
            let mut out = Vec::new();
            write_u64(&mut out, x);
            assert_eq!(out, Value::from_u64(x).to_compact().as_bytes(), "{x}");
        }
    }

    #[test]
    fn reader_u64_reads_what_value_as_u64_reads() {
        let tokens = [
            "0",
            "7",
            "007",
            "-0",
            "-1",
            "1.0",
            "1e3",
            "1E+2",
            "2.5",
            "1e400",
            "-",
            "1-2",
            "1.",
            "123456789012345",
            "1234567890123456",
            "9007199254740991",
            "9007199254740992",
            "99999999999999999999",
            r#""""#,
            r#""0""#,
            r#""0012""#,
            r#""18446744073709551615""#,
            r#""18446744073709551616""#,
            r#""12x""#,
            r#""\u0031\u0032""#,
            r#""-3""#,
            "null",
            "true",
            "false",
            "[1]",
            r#"{"a":1}"#,
            "  42  ",
            "\"NaN\"",
            "x",
            "",
        ];
        for token in tokens {
            let text = format!("[{token}]");
            let oracle =
                Value::parse(&text).map(|v| v.as_arr().unwrap().first().and_then(Value::as_u64));
            let mut reader = Reader::new(&text);
            let mut read = None;
            let streamed = reader
                .array(|r| {
                    read = Some(r.u64()?);
                    Ok(())
                })
                .and_then(|()| reader.finish())
                .map(|()| read.flatten());
            assert_eq!(streamed, oracle, "{token:?}");
        }
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
