//! A minimal JSON tree, writer and parser.
//!
//! Every telemetry format — JSONL event lines, run manifests — is
//! written and parsed by this self-contained module. Objects keep insertion order, so emitted documents are
//! byte-stable given the same inputs (what the golden-file schema test
//! relies on).

use std::fmt;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A non-negative integer, kept exact: every `u64` round-trips. The
    /// parser reads each digits-only literal that fits a `u64` as one.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object (builder entry point).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object; panics on non-objects (builder
    /// misuse, not data errors).
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            // Rounds to nearest, as parsing the literal as a float would.
            #[allow(clippy::cast_precision_loss)]
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                // In-range integral f64 by the guard above.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(*n as u64)
            }
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space-indented rendering (what manifests are written as).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                let (k, v) = &pairs[i];
                write_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset on malformed input or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
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
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-bad encoding.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
        // Exactly-integral and in the f64-exact range: no trailing ".0".
        #[allow(clippy::cast_possible_truncation)]
        let i = n as i64;
        out.push_str(&i.to_string());
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
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
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-UTF-8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are replaced, not recombined —
                            // no producer in this workspace emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: find the full char in the source.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("`{text}` is not a number")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_and_pretty() {
        let doc = Json::obj()
            .with("a", Json::Num(1.0))
            .with("b", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .with("s", Json::Str("x\"y".into()));
        assert_eq!(doc.to_compact(), r#"{"a":1,"b":[true,null],"s":"x\"y"}"#);
        assert!(doc.to_pretty().contains("\n  \"a\": 1,"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(20_000_000.0).to_compact(), "20000000");
        assert_eq!(Json::Num(0.5).to_compact(), "0.5");
        assert_eq!(Json::Num(-3.0).to_compact(), "-3");
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn parse_round_trips() {
        let text = r#"{"a":1,"b":[true,null,-2.5e3],"s":"x\"y\nz","o":{"k":"v"}}"#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x\"y\nz"));
    }

    #[test]
    fn unicode_survives() {
        let doc = Json::Str("héllo → 温度".into());
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn malformed_inputs_error_with_offset() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"abc",
            "{\"a\":1} x",
            "nul",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad:?}: {err}");
        }
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e18).as_u64(), None, "outside the exact range");
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
    }
}
