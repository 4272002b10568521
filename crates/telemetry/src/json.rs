//! A minimal JSON value, writer and parser.
//!
//! The workspace builds offline with no external crates, so this is its
//! one JSON codec: sinks, manifests, the analyzer's reports and the
//! fleet wire protocol all go through it. It covers exactly what they need:
//! objects with string keys, arrays, finite numbers, strings, booleans and
//! null. Non-finite numbers serialize as `null` (JSON has no NaN), which a
//! manifest diff surfaces as an anomaly instead of a parse error.

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
        let mut out = String::new();
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

/// Writes a number; non-finite values become `null`.
fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
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
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after value"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
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
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
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
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after object key"));
                }
                *pos += 1;
                map.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Number),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
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
                out.push_str(run);
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
}
