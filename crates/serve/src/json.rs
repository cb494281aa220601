//! Minimal JSON tree, parser and writer for the wire protocol.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available; the protocol needs only a small, *robust* subset: parse a
//! request line into a tree without ever panicking (fuzzed — see the
//! crate's property suite), and write a response tree onto one line.
//!
//! Deliberate deviations from strict RFC 8259, all on the lenient side of
//! *parsing* (the writer emits strict JSON):
//!
//! * numbers are scanned as a `[+-0-9.eE]` run and handed to
//!   [`str::parse::<f64>`], so `1e999` overflows to `inf` instead of
//!   erroring (the solve boundary rejects non-finite drives with a typed
//!   error — exactly the hardening this PR is about);
//! * duplicate object keys are kept in order; [`Json::get`] returns the
//!   first.
//!
//! Floats are written with `f64`'s `Display`, which is
//! shortest-round-trip: a client that parses the decimal text back with
//! `str::parse::<f64>()` recovers **bit-identical** values. That is what
//! lets the server tests assert cached concurrent responses equal a
//! direct [`Study::solve`](layerbem_core::study::Study::solve) to the
//! last bit, across the text protocol.

use std::fmt::Write;

/// Maximum nesting depth the parser accepts. Deeper input returns a
/// [`JsonError`] instead of overflowing the stack — a resident server
/// must survive `[[[[…`.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what the writer emits for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`; integers up to 2⁵³ are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source/insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse failure with byte offset and cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Serializes onto a single line (the writer never emits raw control
    /// characters, so the result is always newline-free).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Straight into `out`: a leakage reply is thousands of
                    // numbers, otherwise one `String` allocation apiece.
                    write!(out, "{v}").expect("writing to a String cannot fail");
                } else {
                    // NaN/inf are not representable in JSON; `null` keeps
                    // the document well-formed (the protocol validates
                    // numbers before they reach a response anyway).
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// First value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number when this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string when this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool when this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items when this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builder: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builder: an object from ordered pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.fail(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.fail(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            None => Err(self.fail("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'+' | b'0'..=b'9' | b'.') => self.number(),
            Some(c) => Err(self.fail(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.fail(format!("invalid number '{text}'")))
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.fail("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        let mut run = self.pos; // start of the current unescaped span
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    out.push_str(self.span(run, self.pos)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.span(run, self.pos)?);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            run = self.pos;
                            continue;
                        }
                        _ => return Err(self.fail("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.fail("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// A raw source span as UTF-8 (the input is a `&str`, so spans on
    /// byte boundaries found by the ASCII scanner are always valid).
    fn span(&self, start: usize, end: usize) -> Result<&'a str, JsonError> {
        std::str::from_utf8(&self.bytes[start..end]).map_err(|_| JsonError {
            at: start,
            message: "invalid UTF-8 in string".into(),
        })
    }

    /// `\uXXXX`, including surrogate pairs. A lone surrogate becomes
    /// U+FFFD instead of an error: a resident server should answer a
    /// sloppy client, not hang up on it.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: expect a following \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                let save = self.pos;
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                self.pos = save;
            }
            return Ok('\u{fffd}');
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Ok('\u{fffd}');
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.fail("truncated \\u escape"));
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.bytes[self.pos];
            let d = match c {
                b'0'..=b'9' => (c - b'0') as u32,
                b'a'..=b'f' => (c - b'a') as u32 + 10,
                b'A'..=b'F' => (c - b'A') as u32 + 10,
                _ => return Err(self.fail("non-hex digit in \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = Json::parse("{\"op\":\"solve\",\"xs\":[1,2,3]}").unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("solve"));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(3));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.1,
            1.0 / 3.0,
            std::f64::consts::PI,
            6.02214076e23,
            -1.7976931348623157e308,
            5e-324,
            0.0,
            10_000.0,
        ] {
            let line = Json::Num(v).to_line();
            let back = Json::parse(&line).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {line}");
        }
    }

    #[test]
    fn numbers_and_escapes_are_written_exactly_as_format_would() {
        for v in [
            -0.0,
            0.0,
            5e-324,
            1e21,
            1e-7,
            0.1 + 0.2,
            f64::MAX,
            f64::MIN,
            1.0,
            -42.0,
            9_007_199_254_740_993.0,
            2224.0,
        ] {
            // `to_string` is `format!` of `Display`: the old allocation.
            assert_eq!(Json::Num(v).to_line(), v.to_string(), "{v:e}");
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        let want: String = (0u32..0x20)
            .map(|c| match c {
                0x0a => "\\n".to_string(),
                0x0d => "\\r".to_string(),
                0x09 => "\\t".to_string(),
                c => format!("\\u{c:04x}"),
            })
            .collect();
        assert_eq!(Json::str(controls).to_line(), format!("\"{want}\""));
    }

    #[test]
    fn writer_emits_single_lines_and_escapes() {
        let v = Json::obj(vec![
            ("deck", Json::str("rod 0 0 0.5 1 0.01\n# comment\n")),
            ("n", Json::Num(3.0)),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_line(), "null");
    }

    #[test]
    fn overflowing_literals_parse_to_infinity_not_panic() {
        // Strict JSON has no inf; our scanner admits the literal and the
        // protocol layer rejects it where it matters (scenario drives).
        assert_eq!(Json::parse("1e999").unwrap(), Json::Num(f64::INFINITY));
    }

    #[test]
    fn malformed_documents_return_typed_errors() {
        for bad in [
            "", "{", "[1,", "\"abc", "{\"a\"1}", "tru", "{]", "[}", "nul", "--1", "\u{7}",
            "{\"a\":}", "[1 2]", "1 2",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.message.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000);
        let e = Json::parse(&bomb).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
    }

    #[test]
    fn surrogate_pairs_and_lone_surrogates() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
        assert_eq!(
            Json::parse("\"\\ud83d\"").unwrap(),
            Json::Str("\u{fffd}".into())
        );
    }
}
