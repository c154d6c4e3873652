//! Minimal deterministic JSON: the workspace's one JSON layer.
//!
//! The workspace has no serde (offline build), so it carries its own tiny
//! JSON value type. `bro-verify`'s golden snapshots write and read it, the
//! Chrome trace exporter ([`crate::chrome`]) writes its strings and floats
//! through the same escaper and float writer, and trace validation parses
//! exported traces with [`Json::parse`]. Writing is deterministic by
//! construction: object keys keep insertion order, floats use Rust's
//! shortest round-trip `Display`, and indentation is fixed — re-serializing
//! a parsed document reproduces it byte-for-byte, which is what lets
//! `UPDATE_GOLDEN=1` produce stable diffs.

use std::fmt::Write as _;

/// A JSON value. Numbers are split into `Int`/`Float` so `u64` counters
/// (e.g. byte counts) never lose precision through an `f64` round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer written without a decimal point.
    Int(i128),
    /// Float written via shortest round-trip formatting.
    Float(f64),
    /// String with standard JSON escaping.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys keep insertion order (no sorting, no hashing).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
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

    /// Pretty-prints with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
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
                    item.write_pretty(out, indent + 1);
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
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Accepts exactly what [`Json::to_pretty`]
    /// emits plus arbitrary whitespace; rejects trailing garbage, numbers
    /// that overflow to a non-finite float, and nesting deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Goldens and
/// traces nest at most 4 deep; the cap keeps the recursive parser from
/// overflowing the stack on hostile input.
pub const MAX_DEPTH: usize = 64;

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes `v` in shortest round-trip form, always with a `.` or exponent
/// so it reads back as a float; non-finite values become `null`.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no Inf/NaN; don't emit unparseable text if one slips in.
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    // `Display` prints integral floats without a dot; keep the float-ness
    // visible so parsing restores the same variant.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Writes `s` as a quoted JSON string literal.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
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
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
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
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected '{lit}' at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one go.
                // Both are ASCII, so the run ends on a char boundary, and
                // each byte is validated once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if text.contains(['.', 'e', 'E']) {
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Float(v)),
            Ok(_) => Err(format!("float '{text}' out of range")),
            Err(e) => Err(format!("bad float '{text}': {e}")),
        }
    } else {
        text.parse::<i128>().map(Json::Int).map_err(|e| format!("bad int '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn sample() -> Json {
        Json::obj([
            ("device", Json::Str("tesla_k20".into())),
            ("flops", Json::Int(123456789012345)),
            ("time_s", Json::Float(1.25e-4)),
            ("empty", Json::Arr(vec![])),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("a", Json::Int(1)), ("b", Json::Bool(true))]),
                    Json::Null,
                ]),
            ),
        ])
    }

    #[test]
    fn round_trips_byte_stably() {
        let doc = sample();
        let text = doc.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_pretty(), text);
    }

    #[test]
    fn integral_floats_keep_their_variant() {
        let doc = Json::obj([("t", Json::Float(2.0))]);
        let text = doc.to_pretty();
        assert!(text.contains("2.0"));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_counters_survive_exactly() {
        let doc = Json::obj([("bytes", Json::Int(u64::MAX as i128))]);
        let back = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back.get("bytes").unwrap().as_int(), Some(u64::MAX as i128));
    }

    #[test]
    fn shortest_float_round_trip_is_exact() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -2.5e-17] {
            let doc = Json::obj([("v", Json::Float(v))]);
            let back = Json::parse(&doc.to_pretty()).unwrap();
            assert_eq!(back.get("v").unwrap().as_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::Str("quote \" slash \\ newline \n tab \t ctrl \u{1} ok".into());
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn multibyte_utf8_next_to_escapes_round_trips() {
        let text = r#""éé\"ü\n日本\u0041ß\\😀""#;
        assert_eq!(Json::parse(text).unwrap(), Json::Str("éé\"ü\n日本Aß\\😀".into()));
        let doc = Json::Str("é\"ü\\日\n😀\u{1}ß".into());
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} {}").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn overflowing_floats_are_rejected() {
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("[-1e400]").is_err());
        assert_eq!(Json::parse("1e308").unwrap(), Json::Float(1e308));
    }

    /// One seeded byte-level mutation of a JSON document.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut rand_chacha::ChaCha8Rng) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..6) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes.truncate(at),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let s =
                    [&b"["[..], b"{", b"]", b"}", b",", b":", b"\"", b"\\", b"\\u", b"-", b"e9"];
                bytes.splice(at..at, s[rng.gen_range(0..s.len())].iter().copied());
            }
            4 => bytes.insert(at, [0xFF, 0xC3, 0x80, b'0', b'.'][rng.gen_range(0..5usize)]),
            _ => {
                // Duplicate a slice of the document somewhere else.
                let from = rng.gen_range(0..bytes.len() + 1);
                let len = rng.gen_range(0..64usize).min(bytes.len() - from);
                let piece = bytes[from..from + len].to_vec();
                bytes.splice(at..at, piece);
            }
        }
    }

    /// Seeded mutations of a committed golden snapshot and of an exported
    /// Chrome trace: `parse` must return `Err`, or a value that survives a
    /// `to_pretty` round trip unchanged. It must never panic.
    #[test]
    fn mutated_documents_parse_to_err_or_round_trip() {
        use crate::trace::Tracer;
        let golden = include_str!("../../../tests/golden/cluster.json");
        let t = Tracer::enabled();
        let s = t.begin(0, "spmv/\"quoted\"\tname");
        t.end(s);
        t.record_model_span(1, "local-kernel", 0.0, 1.5e-3, None);
        let trace = crate::chrome::chrome_trace_json(&t.spans());
        let (mut ok, mut err) = (0, 0);
        for (doc, seeds) in [(golden, 0..400u64), (trace.as_str(), 400..1600)] {
            assert!(Json::parse(doc).is_ok());
            for seed in seeds {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let mut bytes = doc.as_bytes().to_vec();
                for _ in 0..rng.gen_range(1..4usize) {
                    mutate(&mut bytes, &mut rng);
                }
                match Json::parse(&String::from_utf8_lossy(&bytes)) {
                    Ok(v) => {
                        assert_eq!(Json::parse(&v.to_pretty()).as_ref(), Ok(&v), "seed {seed}");
                        ok += 1;
                    }
                    Err(_) => err += 1,
                }
            }
        }
        // Both outcomes occur, so the oracle is not vacuous.
        assert!(ok > 50 && err > 50, "ok {ok}, err {err}");
    }

    #[test]
    fn key_order_is_preserved_not_sorted() {
        let doc = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        let text = doc.to_pretty();
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
    }
}
