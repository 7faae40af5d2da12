//! A minimal JSON value parser.
//!
//! The workspace has no serde; `dasp-trace` *emits* JSON by hand (its
//! `escape_json` and `fmt_f64` also serve the observatory's writers) and
//! validates it, but the observatory must also *read* snapshots back
//! (`dasp-bench diff` compares two `BENCH_*.json` files), so this module
//! carries a small recursive-descent parser producing a [`Json`] tree.
//! Object keys keep their document order; lookups are linear, which is
//! fine at snapshot scale (tens of workloads, a dozen fields each).

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`; snapshot counters fit).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses exactly one JSON document.
    pub fn parse(input: &str) -> Result<Json, String> {
        let b = input.as_bytes();
        let mut pos = 0usize;
        skip_ws(b, &mut pos);
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
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

    /// Required-field accessors for schema readers: `get` + type check,
    /// with a path-labelled error.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
    }

    /// Like [`Json::req_f64`] for non-negative integers.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    /// Like [`Json::req_f64`] for strings.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, b"true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, b"false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, b"null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, pos)),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8], v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key string at byte {pos}"));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        members.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos)?);
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

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening '"'
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogates are replaced rather than paired; the
                        // snapshots this parser reads never emit them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => {
                // Consume one full UTF-8 scalar so multi-byte characters
                // survive intact.
                let start = *pos;
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(start..start + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or_else(|| format!("invalid UTF-8 in string at byte {start}"))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-UTF8 number".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
        let doc = Json::parse(r#"{"a": [1, 2], "b": {"c": "x"}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().req_str("c").unwrap(), "x");
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{'a':1}", "{} extra", "NaN", "\"open"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let doc = Json::parse("\"caf\u{e9} \\u0041 \\t\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "café A \t");
        let escaped = format!("\"{}\"", dasp_trace::escape_json("q\" b\\ n\n"));
        assert_eq!(
            Json::parse(&escaped).unwrap().as_str().unwrap(),
            "q\" b\\ n\n"
        );
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn req_accessors_name_the_field() {
        let doc = Json::parse(r#"{"n": "not-a-number"}"#).unwrap();
        let err = doc.req_f64("n").unwrap_err();
        assert!(err.contains("`n`"), "{err}");
        assert!(doc.req_str("n").is_ok());
        assert!(doc.req_u64("absent").is_err());
    }
}
