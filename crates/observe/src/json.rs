//! Minimal JSON value, writer, and parser.
//!
//! The manifest needs a dependency-free round trip: write a manifest to
//! disk, read it back in the golden-run test. This module implements
//! exactly that — a [`Json`] tree, `Display`-based serialization, and a
//! recursive-descent parser. It is not a general-purpose JSON library:
//! numbers are `f64`, object keys keep insertion order, and non-finite
//! floats serialize as `null`.

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs (no deduplication).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The `f64` if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// First member of an object with key `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Serialize with two-space indentation and a trailing newline —
    /// the on-disk manifest format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => {
                use fmt::Write;
                write!(out, "{other}").expect("writing to String");
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Append `s` as a JSON string literal (quoted and escaped) — the
/// escaping [`Json::Str`] and object keys serialize with, for writers
/// that emit JSON text without building a tree.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("writing to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact serialization. `Display` for `f64` is Rust's shortest
    /// round-trip formatting, so parse(to_string(x)) == x for finite
    /// numbers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, key);
                    write!(f, "{buf}:{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure: what was expected and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting [`parse`] accepts. The parser descends one
/// stack frame pair per level and reads untrusted request bodies, so an
/// unbounded document (`[[[[…`) would overflow the thread's stack — an
/// abort, not a catchable error. The serving protocol nests 2 deep and
/// run manifests fewer than 16.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, containers nested at most [`MAX_DEPTH`] deep).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one container, refusing to open it beyond [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("containers nested too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty remainder");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-3.5", "1e-7", "\"hi\""] {
            let v = parse(text).expect(text);
            assert_eq!(parse(&v.to_string()).expect("reparse"), v, "{text}");
        }
    }

    #[test]
    fn shortest_float_formatting_round_trips() {
        for n in [0.1, 1.0 / 3.0, f64::MAX, 5e-324, -0.0, 123456789.123456] {
            let v = Json::Num(n);
            let back = parse(&v.to_string()).expect("reparse").as_num().expect("num");
            assert_eq!(back.to_bits(), n.to_bits(), "{n}");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}f λ";
        let v = Json::Str(s.to_string());
        assert_eq!(parse(&v.to_string()).expect("reparse"), v);
        assert_eq!(
            parse("\"\\u0041\\u03bb\"").expect("escapes"),
            Json::Str("Aλ".to_string())
        );
    }

    #[test]
    fn nested_structures_round_trip_compact_and_pretty() {
        let doc = Json::Obj(vec![
            ("seed".to_string(), Json::Num(42.0)),
            (
                "epochs".to_string(),
                Json::Arr(vec![
                    Json::Obj(vec![("loss".to_string(), Json::Num(0.25))]),
                    Json::Obj(vec![("loss".to_string(), Json::Num(0.125))]),
                ]),
            ),
            ("empty".to_string(), Json::Arr(vec![])),
            ("name".to_string(), Json::Str("run".to_string())),
        ]);
        assert_eq!(parse(&doc.to_string()).expect("compact"), doc);
        assert_eq!(parse(&doc.pretty()).expect("pretty"), doc);
    }

    #[test]
    fn object_lookup_helpers() {
        let doc = parse("{\"a\": {\"b\": [1, 2]}}").expect("doc");
        let b = doc.get("a").and_then(|a| a.get("b")).expect("a.b");
        assert_eq!(b.as_arr().map(|a| a.len()), Some(2));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        for depth in [MAX_DEPTH + 1, 1_000_000] {
            let err = parse(&nest("[", "]", depth)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH, "refused where the limit is crossed");
            // Unclosed, as a hostile body would send it.
            assert!(parse(&"[".repeat(depth)).is_err());
            assert!(parse(&"{\"k\":".repeat(depth)).is_err());
        }
        // Depth is how many containers are open, not how many were seen.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(parse(&wide).is_ok());
    }

    /// What `doc` reads back as after a write: the writer's one lossy
    /// rule is that non-finite numbers (`1e999` parses to infinity)
    /// become `null`.
    fn as_written(doc: &Json) -> Json {
        match doc {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(as_written).collect()),
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(k, v)| (k.clone(), as_written(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// `parse` must return, never panic; and whatever it accepts must
    /// survive its own writers. Returns whether `text` was accepted.
    fn survives(text: &str) -> bool {
        let Ok(doc) = parse(text) else { return false };
        let want = as_written(&doc);
        assert_eq!(parse(&doc.to_string()).as_ref(), Ok(&want), "compact: {text:?}");
        assert_eq!(parse(&doc.pretty()).as_ref(), Ok(&want), "pretty: {text:?}");
        true
    }

    /// The same for raw bytes, read the way `stwa-serve` reads a body:
    /// strict UTF-8 first; the lossy reading is parsed too, since it is
    /// what a more lenient front end would hand over.
    fn survives_bytes(bytes: &[u8]) {
        if let Ok(text) = std::str::from_utf8(bytes) {
            survives(text);
        }
        survives(&String::from_utf8_lossy(bytes));
    }

    /// A small deterministic generator (no dependency): documents with
    /// every value kind, escapes, multi-byte text and repeated keys.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % bound
        }

        fn string(&mut self) -> String {
            const PIECES: [&str; 10] =
                ["a", "\"", "\\", "\n", "\u{1}", "λ", "€", "🚦", "/", "k"];
            (0..self.next(5))
                .map(|_| PIECES[self.next(10) as usize])
                .collect()
        }

        fn number(&mut self) -> f64 {
            match self.next(6) {
                0 => 0.0,
                1 => -0.0,
                2 => self.next(1000) as f64 - 500.0,
                3 => (self.next(1 << 20) as f64) / 1024.0 * 1e-7,
                4 => f64::MAX,
                _ => 5e-324 * self.next(9) as f64,
            }
        }

        fn doc(&mut self, depth: usize) -> Json {
            let kinds = if depth == 0 { 4 } else { 6 };
            match self.next(kinds) {
                0 => Json::Null,
                1 => Json::Bool(self.next(2) == 0),
                2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 => Json::Arr((0..self.next(4)).map(|_| self.doc(depth - 1)).collect()),
                _ => Json::Obj(
                    // Keys come from a tiny alphabet, so they repeat.
                    (0..self.next(4))
                        .map(|_| (self.string(), self.doc(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn generated_and_mangled_documents_never_panic_and_accepted_ones_round_trip() {
        let mut gen = Gen(0x5eed);
        let mut texts: Vec<String> = vec![
            r#"{"frame": [0.5, -1.25e2, 3E+1, 0, 1e-7], "s": "a\u00e9\ud83d\ude00\/\b\f"}"#.into(),
            r#" { "a" : 1 , "a" : [ true , null ] , "" : { } } "#.into(),
            "\"λ€🚦\"".into(),
        ];
        for _ in 0..60 {
            let doc = gen.doc(3);
            texts.push(doc.to_string());
            texts.push(doc.pretty());
        }
        for text in &texts {
            assert!(survives(text), "a valid document was refused: {text:?}");
            let bytes = text.as_bytes();
            for cut in 0..bytes.len() {
                // Truncated at every byte, mid-character included.
                survives_bytes(&bytes[..cut]);
                // Invalid UTF-8 spliced in at every byte: a lone
                // continuation, a lone lead, a cut-short three-byte
                // sequence, an overlong encoding, a byte no encoding uses.
                for bad in [&b"\x80"[..], b"\xc3", b"\xe2\x82", b"\xc0\xaf", b"\xff"] {
                    let mangled = [&bytes[..cut], bad, &bytes[cut..]].concat();
                    assert!(std::str::from_utf8(&mangled).is_err());
                    survives_bytes(&mangled);
                }
            }
        }
        // A `\u` escape whose four "digits" run into multi-byte text.
        for text in ["\"\\u00é\"", "\"\\uλλ\"", "\"\\u🚦\"", "\"\\u12", "\"\\ud800\""] {
            survives(text);
        }
    }

    #[test]
    fn extreme_numbers_and_repeated_keys_are_accepted_or_refused_never_fatal() {
        for exp in ["1", "38", "39", "308", "309", "999", "99999999999999999999"] {
            for (sign, mantissa) in [("", "1"), ("-", "1"), ("", "0.000123"), ("-", "9.99")] {
                for e in ["e", "E", "e+", "e-"] {
                    let text = format!("{sign}{mantissa}{e}{exp}");
                    assert!(survives(&text), "{text}");
                    assert!(survives(&format!("[{text}, {text}]")), "[{text}, ..]");
                }
            }
        }
        // Overflow parses to infinity (the serving protocol refuses it
        // one level up, by value), underflow to a signed zero.
        assert_eq!(parse("1e999").unwrap().as_num(), Some(f64::INFINITY));
        assert_eq!(parse("-1e999").unwrap().as_num(), Some(f64::NEG_INFINITY));
        assert_eq!(parse("-1e-999").unwrap().as_num().map(f64::to_bits), Some((-0.0f64).to_bits()));
        for text in ["1e", "1e+", "-", "-e5", "1.e5x", ".5", "+1", "1e5e5", "0x10", "1_000"] {
            survives(text);
        }

        // Repeated keys are kept in order; `get` answers with the first.
        let doc = parse(r#"{"a": 1, "b": 2, "a": {"a": 3}, "a": 1}"#).unwrap();
        assert_eq!(doc.as_obj().map(<[_]>::len), Some(4));
        assert_eq!(doc.get("a"), Some(&Json::Num(1.0)));
        assert!(survives(&doc.to_string()));

        // A mebibyte of digits: as an integer, as a fraction, as an
        // exponent, and as one array element among others.
        let digits = "7".repeat(1 << 20);
        for text in [
            digits.clone(),
            format!("-{digits}"),
            format!("0.{digits}"),
            format!("1e{digits}"),
            format!("1e-{digits}"),
            format!("[1, {digits}, 2]"),
            format!("{{\"frame\": [{digits}.{digits}e-{digits}]}}"),
        ] {
            assert!(survives(&text), "{} bytes of digits", text.len());
        }
        assert!(!survives(&format!("{digits}x")));
    }

    #[test]
    fn malformed_documents_error_with_offset() {
        for text in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            let err = parse(text).expect_err(text);
            assert!(err.offset <= text.len(), "{text}: {err}");
        }
    }
}
