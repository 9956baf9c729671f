//! A minimal JSON writer and well-formedness checker.
//!
//! The workspace builds without serde (offline/no-deps policy), so every
//! `BENCH_*.json` artifact and [`crate::harness::Measurement`] rendering
//! goes through this one module: a tiny object/array writer that emits
//! *conformant* JSON (RFC 8259 string escapes, non-finite floats as
//! `null`) and a recursive-descent parser used as the in-tree validator
//! for everything we emit.

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Escape a string for inclusion in a JSON string literal (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, control
/// characters become `\n`/`\t`/… or `\u00XX`. Everything else — UTF-8
/// included — passes through verbatim, as JSON allows.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value: non-finite values (which JSON cannot
/// represent) become `null`, finite values use Rust's round-trippable
/// decimal rendering (never scientific notation, always a valid JSON
/// number).
pub fn float(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Incremental JSON object writer.
///
/// ```
/// let mut o = cf2df_bench::json::Obj::new();
/// o.str("label", "a \"quoted\" name");
/// o.num("fired", 42u64);
/// assert_eq!(o.finish(), r#"{"label":"a \"quoted\" name","fired":42}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj { buf: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(k));
        &mut self.buf
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        let e = escape(v);
        let _ = write!(self.key(k), "\"{e}\"");
        self
    }

    /// Add an integer field.
    pub fn num(&mut self, k: &str, v: impl Into<u128>) -> &mut Obj {
        let v = v.into();
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field (`null` when non-finite).
    pub fn float(&mut self, k: &str, v: f64) -> &mut Obj {
        let f = float(v);
        self.key(k).push_str(&f);
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Obj {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a field whose value is already-rendered JSON (a nested object
    /// or array).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k).push_str(v);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Render an iterator of already-rendered JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

// ---------------------------------------------------------------------
// Parsing / validation
// ---------------------------------------------------------------------

/// A parsed JSON value — the in-tree validator's output.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (keys are not deduplicated).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Returns an error describing the first
/// violation (with byte offset) — this is the well-formedness checker
/// applied to every artifact the workspace emits.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(&c) => Err(format!("unexpected '{}' at byte {}", c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {} (expected {lit})", *pos))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let k = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let v = parse_value(b, pos)?;
        fields.push((k, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {pos}, found {other:?}"
                ))
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {pos}, found {other:?}"
                ))
            }
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
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
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}' at byte {pos}"))?;
                        // Surrogates are accepted only as escape pairs;
                        // lone surrogates map to the replacement char.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!("invalid escape {other:?} at byte {pos}"));
                    }
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "raw control character 0x{c:02x} in string at byte {pos}"
                ));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // safe to do bytewise).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("valid utf8 input"));
            }
        }
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> usize {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos - s
    };
    if digits(b, pos) == 0 {
        return Err(format!("expected digits at byte {pos}"));
    }
    // JSON forbids leading zeros: "01" is two tokens, i.e. invalid here.
    let int_part = &b[start..*pos];
    let unsigned = if int_part[0] == b'-' {
        &int_part[1..]
    } else {
        int_part
    };
    if unsigned.len() > 1 && unsigned[0] == b'0' {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err(format!("expected fraction digits at byte {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err(format!("expected exponent digits at byte {pos}"));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
    let x: f64 = text
        .parse()
        .map_err(|_| format!("unparseable number '{text}' at byte {start}"))?;
    Ok(Json::Num(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_json_conformant() {
        // Control chars, quotes, backslashes — including the cases where
        // Rust's `escape_default` would emit invalid `\u{..}` escapes.
        let nasty = "q\"\\ \n \t \u{1} \u{7f} é日";
        let escaped = escape(nasty);
        let doc = format!("{{\"k\":\"{escaped}\"}}");
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str().unwrap(), nasty);
        assert!(escaped.contains("\\u0001"));
        assert!(!escaped.contains("\\u{"), "Rust-style escapes are not JSON");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
        assert_eq!(float(2.5), "2.5");
        let mut o = Obj::new();
        o.float("a", f64::NAN).float("b", 1.5);
        let doc = o.finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Null));
        assert_eq!(v.get("b").unwrap().as_num(), Some(1.5));
    }

    #[test]
    fn writer_roundtrips_through_parser() {
        let mut inner = Obj::new();
        inner.num("n", 7u64).bool("ok", true);
        let mut o = Obj::new();
        o.str("label", "a \"b\" \\c\u{0}")
            .num("big", u64::MAX)
            .raw("inner", &inner.finish())
            .raw("arr", &array((0..3).map(|i| i.to_string())));
        let doc = o.finish();
        let v = parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert_eq!(
            v.get("label").unwrap().as_str().unwrap(),
            "a \"b\" \\c\u{0}"
        );
        assert_eq!(
            v.get("inner").unwrap().get("n").unwrap().as_num(),
            Some(7.0)
        );
        assert_eq!(v.get("arr").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"\\u{41}\"", // Rust-style escape: invalid JSON
            "\"raw \u{1} control\"",
            "NaN",
            "inf",
            "{\"a\":01}",
            "{\"a\":1}x",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn validator_accepts_the_grammar() {
        for good in [
            "null",
            "true",
            "-0.5e3",
            "[]",
            "{}",
            "{\"a\":[1,2,{\"b\":\"\\u0041\"}],\"c\":null}",
            "  [ 1 , 2 ]  ",
        ] {
            parse(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }
}
