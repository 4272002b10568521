//! A minimal JSON value, writer and parser.
//!
//! The workspace builds offline with no external crates, so this is its
//! one JSON codec: sinks, manifests, the analyzer's reports and the
//! fleet wire protocol all go through it. It covers exactly what they need:
//! objects with string keys, arrays, finite numbers, strings, booleans and
//! null. Non-finite numbers serialize as `null` (JSON has no NaN), which a
//! manifest diff surfaces as an anomaly instead of a parse error.
//!
//! Two entry points skip the [`Json`] tree for hot paths, on the same
//! grammar:
//!
//! - [`ObjectWriter`] writes one object field by field, straight into a
//!   caller's buffer. Given its keys in ascending order it writes the
//!   bytes [`Json::render`] writes for the same fields.
//! - [`parse_fields`] scans a document's top-level object in place: its
//!   keys and strings are borrowed from the input when they hold no
//!   escape, and only a nested array or object is parsed into a [`Json`].
//!   It accepts and rejects exactly what [`parse`] does, with the same
//!   [`ParseError`].
//!
//! Every writer shares two fast paths: an integral number below 2^53 is
//! written as its digits and `.0` (what `{:?}` prints for it) without the
//! float formatter, and a string with nothing to escape is copied in one
//! piece.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
///
/// Object keys are kept in a [`BTreeMap`] so rendering is deterministic —
/// two manifests with the same content are byte-identical, which is what
/// makes benchmark trajectories diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite double (non-finite values render as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: Vec<(String, Json)>) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// The value at `key`, when this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON (the JSONL sink's format).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(RENDER_CAPACITY);
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation (the manifest file format).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i, lvl| {
                    items[i].write(out, indent, lvl);
                });
            }
            Json::Object(map) => {
                let entries: Vec<(&String, &Json)> = map.iter().collect();
                write_seq(
                    out,
                    indent,
                    level,
                    '{',
                    '}',
                    entries.len(),
                    |out, i, lvl| {
                        write_string(out, entries[i].0);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        entries[i].1.write(out, indent, lvl);
                    },
                );
            }
        }
    }
}

/// The room [`Json::render`] reserves up front, enough for a typical
/// wire message or event line without regrowing.
const RENDER_CAPACITY: usize = 128;

/// Writes one compact JSON object field by field, with no [`Json`] tree.
///
/// Keys must come in ascending byte order, the order a [`Json::Object`]
/// renders in; then the bytes equal [`Json::render`] of the same fields.
/// Debug builds assert the order.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, last: None }
    }

    /// Writes the separator and `"key":`.
    fn key(&mut self, key: &'static str) -> &mut String {
        if let Some(last) = self.last {
            debug_assert!(
                last < key,
                "object keys out of order: {last:?} then {key:?}"
            );
            self.out.push(',');
        }
        self.last = Some(key);
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Writes a number field (a non-finite value as `null`).
    pub fn number(&mut self, key: &'static str, value: f64) -> &mut Self {
        write_number(self.key(key), value);
        self
    }

    /// Writes a string field.
    pub fn string(&mut self, key: &'static str, value: &str) -> &mut Self {
        write_string(self.key(key), value);
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Shared array/object layout: separators, newlines and indentation.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        item(out, i, level + 1);
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * level));
        }
    }
    out.push(close);
}

/// 2^53: every integer of smaller magnitude is an exact `f64` and an
/// exact `i64`, and `{:?}` prints it as plain digits and `.0`.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Writes a number; non-finite values become `null`.
fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < EXACT_INTEGER_LIMIT && !(n == 0.0 && n.is_sign_negative()) {
        // The bytes `{:?}` prints for an integral value, without the
        // float formatter: the cast is exact below 2^53.
        #[allow(clippy::cast_possible_truncation)]
        let int = n as i64;
        if int < 0 {
            out.push('-');
        }
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut rest = int.unsigned_abs();
        loop {
            start -= 1;
            #[allow(clippy::cast_possible_truncation)]
            let digit = (rest % 10) as u8;
            digits[start] = b'0' + digit;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.extend(digits[start..].iter().map(|&d| char::from(d)));
        out.push_str(".0");
    } else if n.is_finite() {
        // `{:?}` is Rust's shortest round-trip float rendering, which is
        // also valid JSON for finite values.
        let _ = fmt::Write::write_fmt(out, format_args!("{n:?}"));
    } else {
        out.push_str("null");
    }
}

/// Writes a JSON string with the escapes the grammar requires.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so a string with none of
    // them is copied whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (used by round-trip tests and manifest
/// readers; trailing whitespace is allowed, trailing garbage is not).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    expect_end(bytes, pos)?;
    Ok(value)
}

/// A top-level field's value as [`parse_fields`] found it.
#[derive(Debug, PartialEq)]
pub enum FieldValue<'a> {
    /// A string, borrowed from the input when it holds no escape.
    Str(Cow<'a, str>),
    /// Any other value: a number, boolean or `null`, or a nested array
    /// or object parsed into a tree.
    Json(Json),
}

impl FieldValue<'_> {
    /// The numeric value, when this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::Json(json) => json.as_f64(),
            FieldValue::Str(_) => None,
        }
    }

    /// The string value, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            FieldValue::Json(_) => None,
        }
    }
}

/// The fields of a top-level object, in document order.
#[derive(Debug, Default, PartialEq)]
pub struct Fields<'a>(Vec<(Cow<'a, str>, FieldValue<'a>)>);

impl<'a> Fields<'a> {
    /// The value of the last field named `key`: the one a parsed
    /// [`Json::Object`] keeps when a key repeats.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&FieldValue<'a>> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Scans one JSON document whose top level is an object, without
/// building a tree for it: `Ok(None)` for a valid document of another
/// kind.
///
/// # Errors
///
/// The [`ParseError`] that [`parse`] returns for the same text.
pub fn parse_fields(text: &str) -> Result<Option<Fields<'_>>, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return parse(text).map(|_| None);
    }
    let mut fields = Vec::with_capacity(8);
    parse_members(bytes, &mut pos, |key, pos| {
        skip_ws(bytes, pos);
        let value = if bytes.get(*pos) == Some(&b'"') {
            FieldValue::Str(parse_string(bytes, pos)?)
        } else {
            FieldValue::Json(parse_value(bytes, pos)?)
        };
        fields.push((key, value));
        Ok(())
    })?;
    expect_end(bytes, pos)?;
    Ok(Some(Fields(fields)))
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
    }
}

/// Allows trailing whitespace after a document's value, nothing else.
fn expect_end(bytes: &[u8], mut pos: usize) -> Result<(), ParseError> {
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(err(pos, "trailing characters after value"))
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, "unexpected token"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(|s| Json::String(s.into_owned())),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            let mut map = BTreeMap::new();
            parse_members(bytes, pos, |key, pos| {
                map.insert(key.into_owned(), parse_value(bytes, pos)?);
                Ok(())
            })?;
            Ok(Json::Object(map))
        }
        Some(_) => parse_number(bytes, pos).map(Json::Number),
    }
}

/// Parses the object members after the `{` at `pos`, through the
/// closing `}`, handing each key to `member`, which parses the value
/// that follows it.
fn parse_members<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    mut member: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        member(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

/// Parses a string, borrowed from the input when it holds no escape.
fn parse_string<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = Cow::Borrowed("");
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let out = out.to_mut();
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed for telemetry
                        // payloads (all emitters write BMP text); map them
                        // to the replacement character rather than erroring.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape. Both
                // are ASCII, so the run ends on a char boundary of the
                // (valid, since it came from a &str) input, and UTF-8
                // validation stays linear in the document size.
                let end = bytes[*pos..]
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| err(*pos, "invalid UTF-8"))?;
                // A run follows the opening quote or an escape, so `out`
                // is empty only when the run opens the string.
                if out.is_empty() {
                    out = Cow::Borrowed(run);
                } else {
                    out.to_mut().push_str(run);
                }
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| err(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_sorted() {
        let value = Json::object(vec![
            ("b".to_string(), Json::Number(2.0)),
            (
                "a".to_string(),
                Json::Array(vec![Json::Bool(true), Json::Null]),
            ),
        ]);
        assert_eq!(value.render(), r#"{"a":[true,null],"b":2.0}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let value = Json::object(vec![("k".to_string(), Json::Number(1.0))]);
        assert_eq!(value.render_pretty(), "{\n  \"k\": 1.0\n}");
    }

    #[test]
    fn escapes_and_round_trips_strings() {
        let original = Json::String("line\n\"quoted\"\tand \\ unicode £".to_string());
        let text = original.render();
        assert_eq!(parse(&text).expect("test value"), original);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Number(f64::NAN).render(), "null");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null");
    }

    #[test]
    fn round_trips_nested_structures() {
        let value = Json::object(vec![
            (
                "metrics".to_string(),
                Json::object(vec![
                    ("count".to_string(), Json::Number(42.0)),
                    ("ratio".to_string(), Json::Number(0.724)),
                ]),
            ),
            (
                "phases".to_string(),
                Json::Array(vec![Json::object(vec![
                    ("name".to_string(), Json::String("stress".to_string())),
                    ("wall_s".to_string(), Json::Number(1.5e-3)),
                ])]),
            ),
            ("git".to_string(), Json::Null),
        ]);
        assert_eq!(parse(&value.render()).expect("test value"), value);
        assert_eq!(parse(&value.render_pretty()).expect("test value"), value);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parses_numbers_in_all_common_shapes() {
        assert_eq!(parse("-1.5e3").expect("test value"), Json::Number(-1500.0));
        assert_eq!(parse("0").expect("test value"), Json::Number(0.0));
        assert_eq!(
            parse("[1,2.25]")
                .expect("test value")
                .as_array()
                .expect("test value")
                .len(),
            2
        );
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 1.5, "s": "x", "l": [1]}"#).expect("test value");
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("l").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }

    /// A seeded xorshift64 stream for the randomized checks (`seed`
    /// must not be 0).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn number_text(n: f64) -> String {
        let mut out = String::new();
        write_number(&mut out, n);
        out
    }

    #[test]
    fn numbers_are_written_as_debug_formatting_writes_them() {
        let limit = EXACT_INTEGER_LIMIT;
        let edges = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            1e-5,
            1e-4,
            0.5,
            1.0,
            -1.0,
            1e15,
            limit - 1.0,
            -(limit - 1.0),
            limit,
            -limit,
            limit + 2.0,
            1e16,
            -1e16,
            f64::MAX,
            f64::MIN,
        ];
        let mut next = stream(0x6e75);
        let random = (0..100_000).map(|i| {
            let bits = next();
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_wrap)]
            match i % 4 {
                0 => f64::from_bits(bits),
                // Integers on both sides of 2^53.
                1 => ((bits >> 9) as i64 - (1 << 54)) as f64,
                2 => ((bits >> 40) as i64 - (1 << 23)) as f64,
                _ => ((bits >> 11) as f64) / 1e6 - 4e9,
            }
        });
        for n in edges.into_iter().chain(random) {
            let expected = if n.is_finite() {
                format!("{n:?}")
            } else {
                "null".to_string()
            };
            assert_eq!(number_text(n), expected, "bits {:#x}", n.to_bits());
        }
    }

    #[test]
    fn strings_without_escapes_are_copied_whole_and_others_escaped() {
        for (text, wire) in [
            ("plain é🦀", "\"plain é🦀\""),
            ("", "\"\""),
            ("q\"b\\n\nt\tr\r\u{1}", "\"q\\\"b\\\\n\\nt\\tr\\r\\u0001\""),
        ] {
            let mut out = String::new();
            write_string(&mut out, text);
            assert_eq!(out, wire);
            assert_eq!(parse(&out), Ok(Json::String(text.to_string())));
        }
    }

    #[test]
    fn the_object_writer_writes_what_render_writes() {
        let mut out = String::from("prefix ");
        let mut fields = ObjectWriter::new(&mut out);
        fields
            .number("a", 2.0)
            .bool("b", true)
            .string("c\"", "x\ny")
            .number("d", f64::NAN)
            .number("e", -0.25);
        fields.finish();
        let tree = Json::object(vec![
            ("e".to_string(), Json::Number(-0.25)),
            ("d".to_string(), Json::Number(f64::NAN)),
            ("c\"".to_string(), Json::String("x\ny".to_string())),
            ("b".to_string(), Json::Bool(true)),
            ("a".to_string(), Json::Number(2.0)),
        ]);
        assert_eq!(out, format!("prefix {}", tree.render()));
        let mut empty = String::new();
        ObjectWriter::new(&mut empty).finish();
        assert_eq!(empty, Json::object(Vec::new()).render());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys out of order")]
    fn the_object_writer_refuses_keys_out_of_order() {
        let mut out = String::new();
        ObjectWriter::new(&mut out)
            .number("b", 1.0)
            .number("a", 2.0);
    }

    #[test]
    fn the_field_scan_finds_what_parse_finds() {
        let text =
            r#" {"b":1,"a":"x","n":{"k":[1,{}]},"b":"last","e\u0073c":"t\u0061b\t","z":null} "#;
        let fields = parse_fields(text).expect("valid").expect("an object");
        let tree = parse(text).expect("valid");
        let Json::Object(map) = &tree else {
            panic!("an object");
        };
        for (key, value) in map {
            let scanned = match fields.get(key).expect("every key is found") {
                FieldValue::Str(s) => Json::String(s.to_string()),
                FieldValue::Json(json) => json.clone(),
            };
            assert_eq!(&scanned, value, "{key}");
        }
        // Document order, every occurrence; a repeated key resolves to
        // its last value, as the tree keeps it.
        let keys: Vec<&str> = fields.0.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["b", "a", "n", "b", "esc", "z"]);
        assert_eq!(fields.get("b").and_then(FieldValue::as_str), Some("last"));
        assert!(fields.get("missing").is_none());
        // Strings without escapes are borrowed; the rest are owned.
        assert!(matches!(
            fields.0[1],
            (Cow::Borrowed("a"), FieldValue::Str(Cow::Borrowed("x")))
        ));
        assert!(matches!(
            fields.0[4],
            (Cow::Owned(_), FieldValue::Str(Cow::Owned(_)))
        ));
    }

    #[test]
    fn the_field_scan_fails_where_parse_fails() {
        for text in [
            "",
            " ",
            "{",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":1} x",
            "{\"a\":[1,]}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":nul}",
            "{\"a\":-}",
            "{\"a\":\"open}",
        ] {
            assert_eq!(
                parse_fields(text).map(|_| ()),
                parse(text).map(|_| ()),
                "{text:?}"
            );
            assert!(parse(text).is_err(), "{text:?}");
        }
        for text in ["[]", " 7 ", "\"x\"", "null", "[{\"a\":1}]"] {
            assert_eq!(parse_fields(text), Ok(None), "{text:?}");
        }
        assert_eq!(parse_fields(" {} "), Ok(Some(Fields::default())));
    }
}
