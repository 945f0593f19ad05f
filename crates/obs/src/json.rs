//! Minimal JSON value, writer, parser, and strict field reader.
//!
//! The build runs offline with no access to serde, so every wire format
//! in the workspace (run manifests and query documents) is serialized by
//! hand. [`Json`] keeps integers and floats distinct (counters must
//! round-trip exactly) and objects as insertion-ordered key/value
//! vectors so emitted documents are stable and diffable. The parser
//! accepts standard JSON minus the corners the writer never produces
//! (`\u` escapes beyond the BMP are passed through unvalidated).
//!
//! [`Fields`] is the one reader for fixed-schema objects in both wire
//! formats, and it holds their single strictness rule: an unknown or
//! duplicate key is an error, every field is required (a `null` is
//! accepted only where the reader asks for [`Fields::nullable`]), and a
//! float must be finite (the parser reads `1e999` as infinity, which no
//! writer emits). Objects keyed by data (a manifest's config, metrics,
//! spans and quality maps) stay plain [`Json`] objects.
//!
//! # Examples
//!
//! ```
//! use udse_obs::json::{Fields, Json};
//!
//! let doc = Json::obj([
//!     ("tool", Json::str("repro")),
//!     ("designs", Json::Int(262_500)),
//! ]);
//! let text = doc.to_string_pretty();
//! let back = Json::parse(&text).unwrap();
//! let f = Fields::new(&back, &"run", &["tool", "designs"]).unwrap();
//! assert_eq!(f.u64("designs"), Ok(262_500));
//! assert!(Fields::new(&back, &"run", &["tool"]).is_err(), "`designs` is unknown");
//! ```

use std::fmt::{self, Write as _};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, kept exact (counters, counts, seeds).
    Int(i64),
    /// A floating-point number. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer value, if this is `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value of `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-printed serialization with two-space indentation and a
    /// trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }

    /// Parses a JSON document, requiring it to span the whole input.
    /// Arrays and objects may nest at most `MAX_DEPTH` (64) levels deep.
    /// The input length is not limited: the parsed value's memory is
    /// linear in `text`, which the caller already holds whole.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError { pos, what: "trailing characters after document" });
        }
        Ok(value)
    }
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // `{}` on f64 is the shortest representation that round-trips, but
    // prints integral values without a decimal point; add one so the
    // value re-parses as Float, not Int.
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting in hostile input would
/// overflow the stack instead of returning an error; every document this
/// workspace writes nests at most five levels.
const MAX_DEPTH: usize = 64;

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What the parser expected or rejected.
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, what: &'static str) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { pos: *pos, what })
    }
}

/// Parses one value whose enclosing containers are `depth` levels deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(ParseError { pos: *pos, what: "nesting too deep" });
    }
    match bytes.get(*pos) {
        None => Err(ParseError { pos: *pos, what: "unexpected end of input" }),
        Some(b'n') => parse_keyword(bytes, pos, b"null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, b"false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ParseError { pos: *pos, what: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':' after object key")?;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(ParseError { pos: *pos, what: "expected ',' or '}'" }),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &'static [u8],
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(ParseError { pos: *pos, what: "invalid literal" })
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError { pos: *pos, what: "unterminated string" }),
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
                            .ok_or(ParseError { pos: *pos, what: "bad \\u escape" })?;
                        out.push(
                            char::from_u32(hex)
                                .ok_or(ParseError { pos: *pos, what: "bad \\u escape" })?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(ParseError { pos: *pos, what: "bad escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape. Both
                // are ASCII, so the run ends on a char boundary of the
                // (valid UTF-8) input and decodes in linear time.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| ParseError { pos: start, what: "invalid utf-8" })?,
                );
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError { pos: start, what: "invalid number" })?;
    if text.is_empty() || text == "-" {
        return Err(ParseError { pos: start, what: "expected value" });
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| ParseError { pos: start, what: "invalid number" })
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| ParseError { pos: start, what: "integer out of range" })
    }
}

/// Strict, required-field access to one fixed-schema object.
///
/// [`Fields::new`] checks the object's keys once against the schema;
/// each accessor then reads one required field and returns an error
/// naming `ctx.key` when it is missing or has the wrong type. The
/// context is any [`Display`](fmt::Display) (a `format_args!` chain such
/// as `"{ctx}.rows[{i}]"` works), so it is formatted only on error.
pub struct Fields<'a> {
    pairs: &'a [(String, Json)],
    ctx: &'a dyn fmt::Display,
}

impl<'a> Fields<'a> {
    /// Wraps `doc`, which must be an object whose keys are all in `keys`,
    /// each at most once; `ctx` names the object in errors.
    ///
    /// # Errors
    ///
    /// Fails on a non-object, an unknown key, or a duplicate key.
    pub fn new(doc: &'a Json, ctx: &'a dyn fmt::Display, keys: &[&str]) -> Result<Self, String> {
        let Json::Obj(pairs) = doc else {
            return Err(format!("{ctx}: expected an object"));
        };
        for (i, (k, _)) in pairs.iter().enumerate() {
            if !keys.contains(&k.as_str()) {
                return Err(format!("{ctx}: unknown field `{k}`"));
            }
            if pairs[..i].iter().any(|(prev, _)| prev == k) {
                return Err(format!("{ctx}: duplicate field `{k}`"));
            }
        }
        Ok(Fields { pairs, ctx })
    }

    /// The raw value of a required field of any type.
    pub fn get(&self, key: &str) -> Result<&'a Json, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            Some((_, v)) => Ok(v),
            None => Err(format!("{}: missing {key}", self.ctx)),
        }
    }

    fn typed<T>(
        &self,
        key: &str,
        what: &str,
        read: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        read(self.get(key)?).ok_or_else(|| format!("{}.{key}: expected {what}", self.ctx))
    }

    /// A finite number; an integer reads as its float value.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a finite number", |v| v.as_f64().filter(|f| f.is_finite()))
    }

    /// A non-negative integer.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", |v| v.as_i64().filter(|&n| n >= 0))
            .map(|n| n as u64)
    }

    /// A boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", Json::as_bool)
    }

    /// A string.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// An array.
    pub fn arr(&self, key: &str) -> Result<&'a [Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    /// An object's key/value pairs, for maps keyed by data.
    pub fn obj(&self, key: &str) -> Result<&'a [(String, Json)], String> {
        self.typed(key, "an object", |v| match v {
            Json::Obj(pairs) => Some(pairs.as_slice()),
            _ => None,
        })
    }

    /// A field that must be present but may be `null` ("not measured",
    /// "unbounded"); any other value is read with `read`.
    pub fn nullable<T>(
        &self,
        key: &str,
        read: fn(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key)? {
            Json::Null => Ok(None),
            _ => read(self, key).map(Some),
        }
    }

    /// Checks a document's layout version field against the one this
    /// build reads.
    pub fn version(&self, key: &str, expected: i64) -> Result<(), String> {
        let version = self.typed(key, "an integer", Json::as_i64)?;
        if version != expected {
            return Err(format!(
                "{}: unsupported {key} {version} (this build reads {expected})",
                self.ctx
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_scalars() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::Bool(true).to_string_compact(), "true");
        assert_eq!(Json::Int(-42).to_string_compact(), "-42");
        assert_eq!(Json::Float(1.5).to_string_compact(), "1.5");
        assert_eq!(Json::Float(3.0).to_string_compact(), "3.0");
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").to_string_compact(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let doc = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(doc.to_string_compact(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj([
            ("tool", Json::str("repro")),
            ("count", Json::Int(9_007_199_254_740_993)),
            ("rate", Json::Float(12345.678)),
            ("tiny", Json::Float(1.25e-12)),
            ("flags", Json::Arr(vec![Json::Bool(false), Json::Null])),
            ("nested", Json::obj([("unicode", Json::str("µarch → ±3%"))])),
            ("empty_obj", Json::obj(Vec::<(String, Json)>::new())),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = Json::parse(&text).expect("parses");
            assert_eq!(back, doc, "round trip through {text}");
        }
    }

    #[test]
    fn int_float_distinction_survives_round_trip() {
        let back = Json::parse("{\"a\":3,\"b\":3.0}").unwrap();
        assert_eq!(back.get("a"), Some(&Json::Int(3)));
        assert_eq!(back.get("b"), Some(&Json::Float(3.0)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.pos, err.what), (MAX_DEPTH, "nesting too deep"));
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        let text = "µ".repeat(200_000);
        let doc = Json::str(text.as_str()).to_string_compact();
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(text.as_str()));
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let back = Json::parse(" { \"k\" : [ 1 , \"\\u00b5\" ] } ").unwrap();
        assert_eq!(back.get("k").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(back.get("k").unwrap().as_arr().unwrap()[1].as_str(), Some("µ"));
    }

    #[test]
    fn accessors() {
        let doc = Json::obj([("s", Json::str("x")), ("n", Json::Int(2))]);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Int(1).get("s"), None);
    }
}
