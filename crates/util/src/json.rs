//! Minimal JSON document model, parser, and serializer.
//!
//! The IAB Global Vendor List is published as JSON
//! (`https://vendorlist.consensu.org/vXXX/vendor-list.json`), and the paper
//! downloads all 215 published versions. To model that wire format without
//! pulling a JSON crate outside the approved dependency set, this module
//! implements the subset of RFC 8259 we need: all value types, string
//! escapes (including `\uXXXX` with surrogate pairs), and both compact and
//! pretty serialization. Numbers are stored as `f64`, which is lossless for
//! every integer appearing in GVL documents (vendor ids < 2^53).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
///
/// Objects use a [`BTreeMap`] so serialization is deterministic — important
/// because the integration tests assert byte-identical output for identical
/// seeds.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with deterministically-ordered keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from an iterator of key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// Build an array from an iterator of values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Integer constructor (exact for |n| < 2^53).
    pub fn int(n: i64) -> Json {
        Json::Number(n as f64)
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Member lookup on objects; `None` for other value types.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Index into arrays; `None` for other value types.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Array(v) => v.get(idx),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u32`, if it is a non-negative integral number.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as u32)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize without whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }

    /// Parse a JSON document. The entire input must be consumed (modulo
    /// trailing whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Error produced by [`Json::parse`], with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
        self.depth -= 1;
        Ok(Json::Object(map))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
        self.depth -= 1;
        Ok(Json::Array(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require \uXXXX low surrogate.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("expected low surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("unexpected low surrogate"));
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: copy the full sequence verbatim.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8 start byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        // Fraction.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("number out of range"))
    }
}

fn write_value(out: &mut String, v: &Json, indent: Option<usize>, level: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Number(n) => write_number(out, *n),
        Json::String(s) => write_string(out, s),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Json::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * level {
            out.push(' ');
        }
    }
}

/// Append `n` the way [`Json::to_compact`] prints a number: integral
/// values below 9e15 in magnitude as integers, other finite values in
/// Rust's shortest round-trip form, NaN and infinities as `null`.
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; serialize as null like most lenient encoders.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` as a JSON string literal, the way [`Json::to_compact`]
/// prints one: `"` and `\` backslash-escaped, the control characters
/// U+0000–U+001F as `\b`, `\t`, `\n`, `\f`, `\r` or `\u00xx`, and
/// everything else (DEL and non-ASCII included) as raw UTF-8.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Start of the pending run of bytes that need no escape.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Number(-50.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parse_containers() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
        assert_eq!(v.get("a").unwrap().at(1).unwrap().as_u32(), Some(2));
        assert_eq!(
            v.get("a").unwrap().at(2).unwrap().get("b"),
            Some(&Json::Null)
        );
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::object([]));
    }

    #[test]
    fn parse_escapes() {
        let v = Json::parse(r#""a\n\t\"\\Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
        // Surrogate pair for U+1F600.
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Raw UTF-8 passes through.
        let v = Json::parse("\"köln 😀\"").unwrap();
        assert_eq!(v.as_str(), Some("köln 😀"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "01",
            "1.",
            "\"\\x\"",
            "\"\u{1}\"",
            "[1]2",
            "nulll",
            r#""\ud83d""#,
            r#"{"a" 1}"#,
        ] {
            assert!(Json::parse(bad).is_err(), "should fail: {bad:?}");
        }
    }

    #[test]
    fn serialize_compact_and_pretty() {
        let v = Json::object([
            ("b".into(), Json::int(2)),
            ("a".into(), Json::array([Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.to_compact(), r#"{"a":[true,null],"b":2}"#);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"a\": ["));
        // Pretty output reparses to the same value.
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(Json::Number(3.0).to_compact(), "3");
        assert_eq!(Json::Number(3.5).to_compact(), "3.5");
        assert_eq!(Json::Number(-0.25).to_compact(), "-0.25");
        assert_eq!(Json::Number(f64::NAN).to_compact(), "null");
        assert_eq!(Json::int(-42).to_compact(), "-42");
        assert_eq!(Json::Number(8.5e15).to_compact(), "8500000000000000");
        let mut out = String::from("[");
        write_number(&mut out, 7.0);
        assert_eq!(out, "[7");
    }

    #[test]
    fn string_escapes_are_pinned_for_every_ascii_char() {
        let all: String = (0u8..0x80).map(char::from).chain(['😀']).collect();
        let expected = concat!(
            r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r"#,
            r#"\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018"#,
            r##"\u0019\u001a\u001b\u001c\u001d\u001e\u001f !\"#$%&'()*+,-./0123456789"##,
            r#":;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"#,
            "\u{7f}😀\"",
        );
        let mut out = String::new();
        write_string(&mut out, &all);
        assert_eq!(out, expected);
        assert_eq!(Json::str(all.clone()).to_compact(), expected);
        assert_eq!(Json::parse(expected).unwrap().as_str(), Some(all.as_str()));
        // Escapes between unescaped runs, at both ends, and back to back.
        let mut out = String::from("x");
        write_string(&mut out, "\"köln\"\n\n");
        assert_eq!(out, r#"x"\"köln\"\n\n""#);
    }

    #[test]
    fn roundtrip_deep() {
        let src = r#"{"vendors":[{"id":1,"name":"Vendor \"One\"","purposeIds":[1,2,3],"legIntPurposeIds":[],"featureIds":[2],"policyUrl":"https://example.com/p"}],"vendorListVersion":215}"#;
        let v = Json::parse(src).unwrap();
        let again = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn depth_limit() {
        let deep = "[".repeat(300) + &"]".repeat(300);
        assert!(Json::parse(&deep).is_err());
    }
}
