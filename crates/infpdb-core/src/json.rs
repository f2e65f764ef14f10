//! Minimal, dependency-free JSON encoding and decoding.
//!
//! The workspace is offline (no serde), but three subsystems need to
//! speak JSON: the HTTP body format of `infpdb-net`, the
//! `BENCH_*.json` artifacts of `infpdb-bench`, and the `infpdb shell`
//! REPL. This module is the one shared implementation: a [`Json`] value
//! tree, an escape-correct compact/pretty encoder, and a recursive
//! descent parser for the full JSON grammar (RFC 8259), including
//! `\uXXXX` escapes with surrogate pairs.
//!
//! Two properties matter to the callers:
//!
//! * **f64 round-trip fidelity.** Floats are rendered with Rust's
//!   shortest-round-trip `Display` and parsed with `str::parse::<f64>`,
//!   so `Json::Float(x).encode()` decodes back to a value bit-identical
//!   to `x`. The network layer's end-to-end "byte-identical probability
//!   estimates" check rests on this.
//! * **Object key order is preserved.** Objects are association vectors,
//!   not hash maps, so encoded artifacts are deterministic and diffable.
//!
//! The parser also decodes untrusted HTTP bodies, so its cost is bounded
//! by its input: one linear pass (a string's plain runs are copied whole,
//! never re-validated byte by byte) and at most [`MAX_NESTING`] levels of
//! arrays and objects, so a hostile body cannot exhaust the stack.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Manifests, bench artifacts and wire bodies nest at most four levels;
/// the parser recurses once per level, so the cap bounds its stack.
pub const MAX_NESTING: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits `i64`.
    Int(i64),
    /// Any other number. Non-finite values encode as `null` (JSON has no
    /// NaN/Infinity).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, preserving insertion order.
    Object(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Problem description.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` both read as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view (`Int` only; floats are never silently truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object view (ordered `(key, value)` pairs).
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact encoding (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(self.size_hint());
        self.write(&mut out, None, 0);
        out
    }

    /// About the compact encoding's length: exact for strings without
    /// escapes, the widest rendering for numbers.
    fn size_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Int(_) => 20,
            Json::Float(_) => 24,
            Json::Str(s) => s.len() + 2,
            Json::Array(items) => 1 + items.iter().map(|v| v.size_hint() + 1).sum::<usize>(),
            Json::Object(pairs) => {
                1 + pairs
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.size_hint())
                    .sum::<usize>()
            }
        }
    }

    /// Pretty encoding with two-space indentation, for diffable
    /// checked-in artifacts.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                write!(out, "{n}").ok();
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // shortest representation that round-trips; integral
                    // floats keep a ".0" so they re-parse as Float
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(out, "{x:.1}").ok();
                    } else {
                        write!(out, "{x}").ok();
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => write_seq(
                out,
                indent,
                depth,
                '[',
                ']',
                items.len(),
                |out, i, depth| {
                    items[i].write(out, indent, depth);
                },
            ),
            Json::Object(pairs) => write_seq(
                out,
                indent,
                depth,
                '{',
                '}',
                pairs.len(),
                |out, i, depth| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth);
                },
            ),
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Whether a byte stands for itself inside a JSON string literal:
/// everything but the quote, the backslash and the control bytes.
fn is_plain(b: u8) -> bool {
    b != b'"' && b != b'\\' && b >= 0x20
}

/// Writes `s` as a JSON string literal, copying each run of plain
/// characters in one piece.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // start of the run not yet copied; every escaped byte is ASCII, so
    // each run boundary is a char boundary
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if is_plain(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                write!(out, "\\u{b:04x}").ok();
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(format!(
                        "arrays and objects nested deeper than {MAX_NESTING} levels"
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run up to the next quote, backslash or control
            // byte in one piece: the input is a `&str` and the run ends
            // at an ASCII byte, so it is valid UTF-8 as it stands
            let run = self.pos;
            while matches!(self.peek(), Some(b) if is_plain(b)) {
                self.pos += 1;
            }
            out.push_str(&self.input[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // high surrogate: a \uXXXX low surrogate
                                // must follow
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or_else(|| self.err("invalid surrogate"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // exactly four hex digits: `from_str_radix` alone would also
        // take a sign
        if !self.bytes[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let v = u32::from_str_radix(&self.input[self.pos..end], 16).expect("four hex digits");
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digits")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structure_and_key_order() {
        let doc = Json::obj([
            ("b", Json::Int(1)),
            (
                "a",
                Json::Array(vec![Json::Null, Json::Bool(true), Json::str("x")]),
            ),
            ("nested", Json::obj([("k", Json::Float(0.5))])),
        ]);
        let compact = doc.encode();
        assert_eq!(compact, r#"{"b":1,"a":[null,true,"x"],"nested":{"k":0.5}}"#);
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        let pretty = doc.encode_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        assert!(pretty.contains("\n  \"b\": 1,"));
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for x in [
            0.1,
            1.0 / 3.0,
            0.7112119049570766,
            f64::MIN_POSITIVE,
            1e300,
            -2.5e-10,
            1.0,
            0.0,
        ] {
            let enc = Json::Float(x).encode();
            let back = Json::parse(&enc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {enc}");
        }
        // non-finite encodes as null (JSON has no NaN)
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
        assert_eq!(Json::Float(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn integral_floats_stay_floats() {
        let enc = Json::Float(3.0).encode();
        assert_eq!(enc, "3.0");
        assert_eq!(Json::parse(&enc).unwrap(), Json::Float(3.0));
        // while integer-syntax numbers parse as Int
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        // integers beyond i64 fall back to Float
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote\" backslash\\ newline\n tab\t nul\u{0} unicode\u{1F600}émoji";
        let enc = Json::str(nasty).encode();
        assert_eq!(Json::parse(&enc).unwrap().as_str().unwrap(), nasty);
        // \u escapes including surrogate pairs parse
        let parsed = Json::parse(r#""\u0041\ud83d\ude00\u00e9""#).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "A\u{1F600}é");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "1e",
            "\"unterminated",
            "\"\\u12",
            "\"\\ud800\"",
            "01",
            "{} trailing",
            "\"raw\u{01}control\"",
        ] {
            let r = Json::parse(bad);
            assert!(r.is_err(), "{bad:?} must fail, got {r:?}");
        }
        // a lone zero is still a fine number
        assert!(Json::parse("0").is_ok());
        assert!(Json::parse("0.25").is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        // a spawned thread has the default 2 MiB stack, as a connection
        // thread of `serve` does
        std::thread::spawn(move || {
            for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
                let err = Json::parse(&nested(open, close, 100_000)).unwrap_err();
                assert!(err.message.contains("nested deeper"), "{err}");
                assert_eq!(err.offset, MAX_NESTING * open.len());
                assert!(Json::parse(&nested(open, close, MAX_NESTING)).is_ok());
                assert!(Json::parse(&nested(open, close, MAX_NESTING + 1)).is_err());
                // siblings close their levels again
                let wide = format!("[{}]", vec![nested(open, close, 3); 1000].join(","));
                assert!(Json::parse(&wide).is_ok());
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // plain runs of 1-, 2-, 3- and 4-byte characters between escapes
        let unit = "plain ascii \"é€\u{1F600}\\\n";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        let doc = Json::obj([("s", Json::str(text.clone()))]).encode();
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(text.as_str()));
        // a scan that re-reads the rest of the input per character took
        // 23 s on a 1 MiB string in a release build
        assert!(elapsed < std::time::Duration::from_secs(2), "{elapsed:?}");
    }

    #[test]
    fn a_unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
        for bad in [r#""\u+0e9""#, r#""\u-001""#, r#""\u 0e9""#, r#""\u00é""#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"n": 2, "x": 2.5, "s": "hi", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(doc.get("n").unwrap().as_i64(), Some(2));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("x").unwrap().as_f64(), Some(2.5));
        assert_eq!(doc.get("x").unwrap().as_i64(), None);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.as_object().unwrap().len(), 5);
    }
}
