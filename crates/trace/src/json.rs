//! Minimal JSON value, parser and serializer (std-only).
//!
//! This is the one JSON implementation of the workspace: the trace
//! analyzers ([`crate::analyze`]) parse exported `TRACE_*.jsonl` streams
//! with it, the Perfetto exporter ([`crate::chrome`]) renders through it,
//! and `sm_bench::output` re-exports it for the `BENCH_*.json` trajectory
//! documents and the `smdoctor` CLI. It covers the full JSON grammar the
//! workspace emits; objects keep **insertion order**, so serialization is
//! deterministic — documents render with exactly the key order they were
//! built with.

/// Minimal JSON value for the workspace's machine-readable artifacts
/// (the workspace has no serde; this covers everything the benches and
/// traces emit).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The null value (also what non-finite numbers serialize as).
    Null,
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document (recursive descent over the full grammar the
    /// benches and traces emit, at most [`MAX_DEPTH`] arrays and objects
    /// deep). Returns a readable error with the byte offset on malformed
    /// input — `smdoctor` reports it as corruption.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// How deeply [`Json::parse`] nests arrays and objects before it refuses
/// the document: far above anything the workspace writes (the `BENCH_*`
/// tables nest 5 deep), and far below what exhausts a thread's stack,
/// which a parser recursing once per opener would otherwise do on hostile
/// input.
pub const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", want as char))
    }
}

/// Parse one value; `depth` is how many more arrays and objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect_byte(b, pos, b':')?;
                let value = parse_value(b, pos, depth - 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII number bytes");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("malformed number '{text}' at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unmodified).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/inf; null keeps the document valid.
                    write!(f, "null")
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Bool(b) => write!(f, "{b}"),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_insertion_ordered_and_escaped() {
        let doc = Json::obj([
            ("name", Json::Str("x\"y".into())),
            ("n", Json::Num(4.0)),
            ("t", Json::Num(0.125)),
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"x\"y","n":4,"t":0.125,"ok":true,"xs":[1,2]}"#
        );
    }

    #[test]
    fn parser_roundtrips_serializer_output() {
        let doc = Json::obj([
            ("name", Json::Str("a \"quoted\" name\n".into())),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(-0.5)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "nested",
                Json::Arr(vec![Json::Num(1.0), Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(42.0));
        assert_eq!(doc.get("nested").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.as_obj().unwrap().len(), 6);
        assert!(Json::parse("{\"x\": 1} trailing").is_err());
        assert!(Json::parse("{\"x\": }").is_err());
    }

    /// Nesting is bounded: a document [`MAX_DEPTH`] deep parses, one level
    /// more is refused at the offending opener, and a million openers are
    /// an `Err`, not a stack overflow.
    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        for opener in ["[", "{\"a\":"] {
            let err = Json::parse(&opener.repeat(1_000_000)).unwrap_err();
            assert!(err.starts_with("nesting deeper than"), "{err}");
        }
    }
}
