//! The workspace's JSON codec: a strict RFC 8259 parser and the shared
//! string escaper and number formatter.
//!
//! The workspace has no serde. Exporters emit JSON by hand through
//! [`escape_json`] and [`fmt_f64`]; [`Json::parse`] reads documents back
//! into a [`Json`] tree (the observatory's `BENCH_*.json` snapshots), and
//! [`validate_json`] — the safety net proving emitted bytes well-formed
//! before a browser or Perfetto ever sees them — is the same parser with
//! the tree dropped. Object keys keep their document order; lookups are
//! linear, which is fine at snapshot scale.

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

/// Checks that `input` is exactly one well-formed JSON value.
///
/// Returns `Err` with a byte offset and description on the first
/// violation; see [`Json::parse`] for the grammar.
pub fn validate_json(input: &str) -> Result<(), String> {
    Json::parse(input).map(|_| ())
}

impl Json {
    /// Parses exactly one JSON document under the strict RFC 8259
    /// grammar: rejects trailing garbage, trailing commas, bare
    /// NaN/Infinity, leading zeros (`01`), bare fractions (`1.`, `-.5`),
    /// and malformed `\u` escapes.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: input,
            b: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
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

/// Recursive-descent state: the document and a byte cursor into it.
struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a run of ASCII digits, returning how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key string at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        // Unescaped bytes are copied in runs; runs end only at ASCII
        // bytes, so every slice falls on a char boundary.
        let mut run = self.pos;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let unescaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            let code = hex.iter().fold(0u32, |acc, &h| {
                                acc * 16 + char::from(h).to_digit(16).unwrap_or(0)
                            });
                            // Surrogates are replaced rather than paired;
                            // nothing in the workspace emits them.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(unescaped);
                    self.pos += 1;
                    run = self.pos;
                }
                0x00..=0x1f => {
                    return Err(format!("raw control byte in string at {}", self.pos));
                }
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                self.digits();
            }
            _ => return Err(format!("bad number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        // The grammar above is a subset of what `f64::from_str` accepts.
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
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
            "0",
            "-0.5",
            "1E-7",
            r#""\u00e9\uD83D""#,
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
            "-.5",
            ".5",
            "1e",
            "-",
            "\"\\u+041\"",
            "\"\\u00g1\"",
            "\"\\u12\"",
            "\"unterminated",
            "{} extra",
            "\"raw\tcontrol\"", // literal tab byte inside a string
            "\"open",
        ] {
            assert!(validate_json(doc).is_err(), "accepted invalid: {doc:?}");
            assert!(Json::parse(doc).is_err(), "parsed invalid: {doc:?}");
        }
    }

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
    fn unicode_and_escapes_round_trip() {
        let doc = Json::parse("\"caf\u{e9} \\u0041 \\t\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "café A \t");
        let escaped = format!("\"{}\"", escape_json("q\" b\\ n\n"));
        assert_eq!(
            Json::parse(&escaped).unwrap().as_str().unwrap(),
            "q\" b\\ n\n"
        );
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let control: String = (0u8..0x20).map(char::from).collect();
        let nasty = format!("quote \" backslash \\ {control} \u{7f}é✓\u{2028}");
        let doc = format!("\"{}\"", escape_json(&nasty));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(nasty.as_str()));
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

    #[test]
    fn fmt_f64_is_json_legal() {
        for v in [0.0, -1.5, 1e-9, 123456789.25, f64::NAN, f64::INFINITY] {
            assert!(validate_json(&fmt_f64(v)).is_ok());
        }
    }
}
