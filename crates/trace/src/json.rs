//! A minimal recursive-descent JSON validator.
//!
//! The exporters in this crate emit JSON by hand (the workspace has no
//! serde); this validator is the safety net the tests use to prove the
//! emitted bytes are well-formed per RFC 8259 before a browser or
//! Perfetto ever sees them.

/// Checks that `input` is exactly one well-formed JSON value.
///
/// Returns `Err` with a byte offset and description on the first
/// violation. Accepts the full JSON grammar (objects, arrays, strings
/// with escapes, numbers, literals) but, like strict parsers, rejects
/// trailing garbage, trailing commas, and bare NaN/Infinity.
pub fn validate_json(input: &str) -> Result<(), String> {
    let b = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, pos)),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key string at byte {pos}"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => {
                                    return Err(format!("bad \\u escape at byte {pos}"));
                                }
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        _ => return Err(format!("bad number at byte {start}")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("bad fraction at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("bad exponent at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    Ok(())
}

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added): quotes, backslashes and every control character. Exporters
/// share this so every emitted string passes [`validate_json`].
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON-legal number (`null`-free: non-finite
/// values are clamped to 0, which JSON cannot represent otherwise).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // `{}` on f64 emits digits (optionally signed, optionally with an
    // exponent), all JSON-legal; inf/NaN were handled above.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            r#"{"a": [1, 2.5, "x\n", {"b": null}], "c": false}"#,
            "  [ 1 , 2 ]  ",
            r#""é""#,
        ] {
            assert!(validate_json(doc).is_ok(), "rejected valid: {doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "[1 2]",
            "NaN",
            "01",
            "1.",
            "\"unterminated",
            "{} extra",
            "\"raw\tcontrol\"", // literal tab byte inside a string
        ] {
            assert!(validate_json(doc).is_err(), "accepted invalid: {doc:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_validation() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1}";
        let doc = format!("\"{}\"", escape_json(nasty));
        assert!(validate_json(&doc).is_ok());
    }

    #[test]
    fn fmt_f64_is_json_legal() {
        for v in [0.0, -1.5, 1e-9, 123456789.25, f64::NAN, f64::INFINITY] {
            assert!(validate_json(&fmt_f64(v)).is_ok());
        }
    }
}
