//! A minimal JSON writer and parser.
//!
//! The workspace deliberately has no external dependencies, so the report
//! and trace exporters hand-write their JSON through [`JsonWriter`], and
//! `hsc report validate` / the test-suite check it back with [`parse`]. Both
//! sides cover exactly the subset the exporters produce: objects, arrays,
//! strings, booleans, null, and numbers (unsigned integers and finite
//! floats).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal, escaping as required by
/// RFC 8259 (quotes, backslashes, and control characters).
pub fn push_escaped(out: &mut String, s: &str) {
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

/// An append-only JSON builder that tracks comma placement.
///
/// # Examples
///
/// ```
/// use hsc_obs::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("answer");
/// w.uint(42);
/// w.key("tags");
/// w.begin_array();
/// w.string("a");
/// w.string("b");
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"answer":42,"tags":["a","b"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    comma_stack: Vec<bool>,
    after_key: bool,
}

impl JsonWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn separate(&mut self) {
        if let Some(top) = self.comma_stack.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    fn begin_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else {
            self.separate();
        }
    }

    /// Writes an object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) {
        self.separate();
        push_escaped(&mut self.out, k);
        self.out.push(':');
        self.after_key = true;
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.begin_value();
        self.out.push('{');
        self.comma_stack.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.comma_stack.pop();
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.begin_value();
        self.out.push('[');
        self.comma_stack.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.comma_stack.pop();
        self.out.push(']');
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.begin_value();
        push_escaped(&mut self.out, s);
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.begin_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float value (non-finite values become `null`).
    pub fn float(&mut self, v: f64) {
        self.begin_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, v: bool) {
        self.begin_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Returns the accumulated JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object behind this value, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array behind this value, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string behind this value, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number behind this value, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up `key` if this value is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
///
/// # Examples
///
/// ```
/// use hsc_obs::json::parse;
///
/// let v = parse(r#"{"xs":[1,2,3]}"#).unwrap();
/// assert_eq!(v.get("xs").unwrap().as_array().unwrap().len(), 3);
/// assert!(parse("{oops}").is_err());
/// ```
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// A cursor over one document. `pos` only ever stops on an ASCII byte or
/// at the end, so it is always a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>().map(Value::Number).map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece:
            // both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let end = run.map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by a low-surrogate
                            // escape is one char; a lone surrogate is U+FFFD.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos + 1..].starts_with(b"\\u")
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex =
            self.text.get(at..at + 4).ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape at byte {at}: {e}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_commas_correctly() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.begin_array();
        w.uint(1);
        w.uint(2);
        w.end_array();
        w.key("b");
        w.begin_object();
        w.key("c");
        w.string("x\"y");
        w.key("d");
        w.boolean(true);
        w.end_object();
        w.key("e");
        w.float(1.5);
        w.end_object();
        let text = w.finish();
        assert_eq!(text, r#"{"a":[1,2],"b":{"c":"x\"y","d":true},"e":1.5}"#);
        // And the parser agrees it is well-formed.
        let v = parse(&text).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{2603}";
        let mut w = JsonWriter::new();
        w.begin_array();
        w.string(nasty);
        w.end_array();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.as_array().unwrap()[0].as_str(), Some(nasty));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1}x"#).is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_char() {
        let v = parse(r#"["\ud83d\ude00", "a\ud83dz", "\ude00", "\ud83d\u0041"]"#).unwrap();
        let strs: Vec<&str> = v.as_array().unwrap().iter().map(|s| s.as_str().unwrap()).collect();
        assert_eq!(strs, ["\u{1f600}", "a\u{fffd}z", "\u{fffd}", "\u{fffd}A"]);
        assert!(parse(r#""\ud83d\uzzzz""#).is_err());
    }

    /// Each string is read once: a document of short strings parses in
    /// time linear in its size, even unoptimized.
    #[test]
    fn a_two_megabyte_document_of_short_strings_parses_quickly() {
        let mut w = JsonWriter::new();
        w.begin_array();
        for i in 0..200_000 {
            w.string(&format!("s{i:06}"));
        }
        w.end_array();
        let text = w.finish();
        assert!(text.len() > 2_000_000, "{} bytes", text.len());
        let start = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_array().unwrap()[199_999].as_str(), Some("s199999"));
        assert!(took.as_secs_f64() < 5.0, "parsing {} bytes took {took:?}", text.len());
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), Value::Array(Vec::new()));
        assert_eq!(parse("  null ").unwrap(), Value::Null);
    }
}
