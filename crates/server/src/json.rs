//! A minimal JSON value type, parser, and serializer.
//!
//! The wire protocol is JSON lines, but the build environment has no
//! crates.io access, so `serde` is out of reach; this module hand-rolls
//! the small subset the daemon needs. Objects preserve insertion order
//! (a `Vec` of pairs, not a map) so responses serialize byte-identically
//! for identical inputs — the determinism tests rely on that.
//!
//! Supported: the full JSON grammar except that numbers are held as
//! `f64` (every counter the protocol ships fits losslessly below 2^53).
//!
//! Large outputs skip the tree: `check` replies and verdict-store
//! payloads are written field by field with the crate's `Obj` writer,
//! whose string escaping and integer printing are the very functions
//! [`Json::to_line`] uses, so both routes print a value identically.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order, duplicate keys keep the
    /// first occurrence on lookup.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number value from any unsigned counter.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize to the compact single-line form.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write<O: Out>(&self, out: &mut O) {
        match self {
            Json::Null => out.put("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_arr(out, items, |out, item| item.write(out)),
            Json::Obj(pairs) => {
                let mut obj = Obj::open(out);
                for (k, v) in pairs {
                    v.write(obj.key(k));
                }
                obj.close();
            }
        }
    }
}

/// Where JSON text is written: a `String` for reply lines, or the
/// verdict store's frame buffer, which holds binary frame headers
/// between payloads. [`Json::to_line`] and the direct writers (reply
/// lines in [`crate::proto`], store payloads in [`crate::persist`])
/// produce their bytes through the same primitives below, so a value
/// written either way comes out byte-identical.
pub(crate) trait Out {
    /// Append `s` verbatim.
    fn put(&mut self, s: &str);
}

impl Out for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Out for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// Write `s` as a JSON string. Unescaped runs are copied whole; only
/// `"`, `\` and control characters are escaped (`\u{7f}` and
/// non-ASCII text pass through). Every byte that needs an escape is
/// ASCII, so each run ends on a character boundary.
pub(crate) fn write_escaped<O: Out>(out: &mut O, s: &str) {
    const HEX: &str = "0123456789abcdef";
    out.put("\"");
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.put(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            _ => {
                let (hi, lo) = ((b >> 4) as usize, (b & 0xf) as usize);
                out.put("\\u00");
                out.put(&HEX[hi..hi + 1]);
                out.put(&HEX[lo..lo + 1]);
            }
        }
    }
    out.put(&s[run..]);
    out.put("\"");
}

/// Write a number as [`Json::Num`] holds it: integers below 2^53 in
/// plain decimal without going through `fmt`, anything else (a fraction,
/// or an integer an `f64` may have rounded) as `f64` prints.
fn write_num<O: Out>(out: &mut O, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let n = n as i64;
        if n < 0 {
            out.put("-");
        }
        write_u64(out, n.unsigned_abs());
    } else {
        out.put(&n.to_string());
    }
}

/// Write `n` in decimal.
fn write_u64<O: Out>(out: &mut O, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn write_bool<O: Out>(out: &mut O, b: bool) {
    out.put(if b { "true" } else { "false" });
}

/// Write `items` as a JSON array, each element by `item`.
pub(crate) fn write_arr<O: Out, T>(
    out: &mut O,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut O, T),
) {
    out.put("[");
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.put(",");
        }
        item(out, x);
    }
    out.put("]");
}

/// A JSON object being written field by field, in call order, with the
/// separators [`Json::to_line`] uses.
pub(crate) struct Obj<'a, O: Out> {
    out: &'a mut O,
    empty: bool,
}

impl<'a, O: Out> Obj<'a, O> {
    /// Write the opening brace.
    pub(crate) fn open(out: &'a mut O) -> Self {
        out.put("{");
        Obj { out, empty: true }
    }

    /// Write `"key":` and return the output for the value.
    pub(crate) fn key(&mut self, key: &str) -> &mut O {
        if !self.empty {
            self.out.put(",");
        }
        self.empty = false;
        write_escaped(self.out, key);
        self.out.put(":");
        self.out
    }

    /// A string field.
    pub(crate) fn str(&mut self, key: &str, value: &str) {
        write_escaped(self.key(key), value);
    }

    /// A counter field, printed exactly as [`Json::num`] would print it.
    pub(crate) fn num(&mut self, key: &str, value: u64) {
        write_num(self.key(key), value as f64);
    }

    /// A boolean field.
    pub(crate) fn bool(&mut self, key: &str, value: bool) {
        write_bool(self.key(key), value);
    }

    /// Write the closing brace.
    pub(crate) fn close(self) {
        self.out.put("}");
    }
}

/// Parse one JSON document, requiring the whole input to be consumed
/// (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// A JSON syntax error with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair?
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy the run up to the next structural byte.
                    // The input is a `&str`, so it is valid UTF-8
                    // already, and `"` and `\` are ASCII, so the run's
                    // bounds are character boundaries: slicing it needs
                    // no second validation.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for src in ["null", "true", "false", "0", "-42", "3.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_line(), src, "{src}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            parse(r#" {"op":"check","units":[{"name":"a","source":"int x;"}],"id":7} "#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("check"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        let units = v.get("units").and_then(Json::as_arr).unwrap();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].get("name").and_then(Json::as_str), Some("a"));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ unicode: ünïcodé \u{1}";
        let line = Json::str(original).to_line();
        assert_eq!(parse(&line).unwrap().as_str(), Some(original));
        // \u escapes and surrogate pairs decode.
        assert_eq!(parse(r#""A😀""#).unwrap().as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "01a",
            "[1 2]",
            "{\"a\":1,}",
            r#""\ud800""#,
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.to_line(), r#"{"z":1,"a":2,"m":3}"#);
    }
}
