//! A minimal JSON value: ordered objects, deterministic rendering, and a
//! recursive-descent parser.
//!
//! Rendering is byte-deterministic: object keys keep insertion order,
//! numbers use Rust's shortest round-trip formatting, and non-finite floats
//! render as `null` (matching what `serde_json` emitted for the seed's
//! reports). That determinism is what lets the parallel sweep engine assert
//! byte-identical output against the serial path.

use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so the bound keeps a hostile document
/// from overflowing a thread's stack; the deepest pinned document (the
/// service transcript) nests 7 levels.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A floating-point number. Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and significant for
    /// rendering.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array by mapping a slice.
    pub fn arr<T, F: FnMut(&T) -> Json>(items: &[T], f: F) -> Json {
        Json::Arr(items.iter().map(f).collect())
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (`Int` and `Num` both qualify).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let mut buf = String::new();
                let _ = fmt::Write::write_fmt(&mut buf, format_args!("{i}"));
                out.push_str(&buf);
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let mut buf = String::new();
                    let _ = fmt::Write::write_fmt(&mut buf, format_args!("{n}"));
                    out.push_str(&buf);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error, or
    /// of the first array or object nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<Option<f64>> for Json {
    fn from(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
                let mut buf = String::new();
                let _ = fmt::Write::write_fmt(&mut buf, format_args!("\\u{:04x}", c as u32));
                out.push_str(&buf);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
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
                let key = match parse_value(text, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                s.push(
                                    char::from_u32(code)
                                        .ok_or(format!("invalid \\u escape {hex}"))?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy the run up to the next quote or escape in one
                        // step. Both are ASCII, which never occurs inside a
                        // multi-byte UTF-8 sequence, so the run ends on a
                        // character boundary.
                        let start = *pos;
                        while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                            *pos += 1;
                        }
                        s.push_str(&text[start..*pos]);
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            if text.contains(['.', 'e', 'E']) {
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            } else {
                text.parse::<i64>()
                    .map(Json::Int)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let v = Json::obj([
            ("name", Json::str("x")),
            ("rate", Json::Num(12.5)),
            ("n", Json::Int(3)),
            ("nan", Json::Num(f64::NAN)),
            ("list", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let a = v.render();
        let b = v.render();
        assert_eq!(a, b);
        assert!(a.contains("\"rate\": 12.5"));
        assert!(a.contains("\"nan\": null"));
    }

    #[test]
    fn round_trips() {
        let v = Json::obj([
            ("s", Json::str("a \"quoted\" line\n")),
            (
                "xs",
                Json::Arr(vec![Json::Num(1.25), Json::Null, Json::Bool(true)]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let parsed = Json::parse(&v.render()).expect("parses");
        assert_eq!(parsed, v);
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, {"b": null}], "c": "A"}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("c").and_then(Json::as_str), Some("A"));
        let arr = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
    }

    #[test]
    fn round_trips_escapes_unicode_and_multibyte_text() {
        let text = "quote \" backslash \\ slash / nl \n cr \r tab \t \
                    bell \u{7} nul \u{0} unit-sep \u{1f} del \u{7f} \
                    é ß 漢字 🦀 \u{10ffff}";
        let v = Json::obj([
            (text, Json::str(text)),
            ("k", Json::Arr(vec![Json::str("")])),
        ]);
        let rendered = v.render();
        assert!(rendered.contains("\\u0007") && rendered.contains("\\u0000"));
        assert_eq!(Json::parse(&rendered).expect("parses"), v);
        // `\u` escapes the renderer never writes decode as well.
        assert_eq!(
            Json::parse(r#""\u00e9\u6f22\/\b\f""#).expect("parses"),
            Json::str("é漢/\u{8}\u{c}")
        );
        assert!(Json::parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(Json::parse(r#""\u12""#).is_err(), "truncated escape");
        assert!(Json::parse("\"open").is_err(), "unterminated string");
    }

    #[test]
    fn parses_a_one_mebibyte_string_in_one_pass() {
        let big = "é0123456789abcdef".repeat(1 << 16);
        assert!(big.len() >= 1 << 20);
        let doc = Json::Arr(vec![Json::str(&big), Json::Int(1)]).render();
        let parsed = Json::parse(&doc).expect("parses");
        assert_eq!(parsed.as_arr().expect("array")[0].as_str(), Some(&*big));
    }

    #[test]
    fn parses_a_hundred_thousand_short_strings() {
        let items: Vec<Json> = (0..100_000).map(|i| Json::str(&format!("s{i}"))).collect();
        let doc = Json::Arr(items.clone()).render();
        assert_eq!(Json::parse(&doc).expect("parses"), Json::Arr(items));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        // Unbounded, each of these overflows the stack and aborts.
        assert!(Json::parse(&nested(100_000)).is_err());
        assert!(Json::parse(&"{\"a\": ".repeat(100_000)).is_err());
        let mut at_bound = Json::Arr(vec![]);
        for _ in 1..MAX_DEPTH {
            at_bound = Json::Arr(vec![at_bound]);
        }
        assert_eq!(Json::parse(&nested(MAX_DEPTH)), Ok(at_bound));
        let past = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(past.contains("deeper than 64 levels"), "{past}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 456").is_err());
    }
}
