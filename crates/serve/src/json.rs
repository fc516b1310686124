//! Minimal JSON value, parser and writer.
//!
//! The serving protocol needs structured request/reply bodies and the
//! workspace is offline-only (no serde), so this module implements the small
//! JSON subset the protocol uses: objects, arrays, strings with the standard
//! escapes, IEEE doubles, booleans and null. The writer emits integral
//! numbers without a fractional part so ids and counters stay readable.
//!
//! The parser faces the network (`POST /v1/jobs` is unauthenticated), so it is
//! bounded in every dimension an input controls: nesting stops at
//! [`MAX_DEPTH`] (the descent is recursive, and a handler thread's stack is
//! not the request's to spend), the work is linear in the input, and nothing
//! larger than the input is allocated. Malformed input is `CorruptData`, never
//! a panic.

use std::fmt::Write as _;
use swlb_obs::SwlbError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64, like JavaScript).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object — insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (last occurrence wins), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which is out of range.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Build an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Serialize to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null"); // JSON has no NaN/Inf
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
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

/// Deepest nesting of arrays and objects [`parse`] accepts — far above any
/// `JobSpec`, status or stats document (≤ 4).
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, SwlbError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(corrupt(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

fn corrupt(msg: String) -> SwlbError {
    SwlbError::CorruptData(format!("JSON: {msg}"))
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; only ever rests on a character boundary.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), SwlbError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(corrupt(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, SwlbError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(corrupt(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, SwlbError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(corrupt(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ))),
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(corrupt(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn number(&mut self) -> Result<Json, SwlbError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let tok = &self.text[start..self.pos];
        tok.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| corrupt(format!("bad number {tok:?}")))
    }

    fn string(&mut self) -> Result<String, SwlbError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(corrupt("unterminated string".into()));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(corrupt("unterminated escape".into()));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            // `get`: four bytes that end inside a multi-byte
                            // character are no hex digits either.
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| corrupt("truncated \\u escape".into()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| corrupt(format!("bad \\u escape {hex:?}")))?;
                            self.pos += 4;
                            // BMP only; surrogates map to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(corrupt(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                _ => {
                    // Back up and take the whole (possibly multi-byte) char.
                    self.pos -= 1;
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, SwlbError> {
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
                _ => return Err(corrupt(format!("expected , or ] at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, SwlbError> {
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
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(corrupt(format!("expected , or }} at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn roundtrips_values() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-3",
            "2.5",
            r#""hi there""#,
            r#"[1,2,[3,"x"],null]"#,
            r#"{"a":1,"b":{"c":[true,false]},"s":"\"quoted\\\n"}"#,
        ];
        for c in cases {
            let v = parse(c).unwrap_or_else(|e| panic!("{c}: {e}"));
            let text = v.to_text();
            assert_eq!(parse(&text).unwrap(), v, "reparse of {c}");
        }
    }

    #[test]
    fn accessors_and_builders() {
        let v = Json::obj([
            ("id", Json::num(7)),
            ("name", Json::str("lid")),
            ("tags", Json::Arr(vec![Json::str("a")])),
            ("on", Json::Bool(true)),
        ]);
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("lid"));
        assert_eq!(v.get("tags").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("on").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::num(1.5).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "nul", "\"abc", "{\"a\" 1}", "1 2", "{]}"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""Aé\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé\t"));
        // Control chars re-escape on output.
        assert_eq!(Json::str("\u{1}").to_text(), "\"\\u0001\"");
    }

    // The malformed-input corpus. `parse` faces unauthenticated request
    // bodies: whatever the bytes, the answer is a value or `CorruptData` — no
    // panic, no stack overflow, nothing allocated beyond the input's size.

    /// What a handler does with a body: UTF-8 check, then `parse`.
    fn parse_bytes(bytes: &[u8]) -> Result<Json, SwlbError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SwlbError::CorruptData("body is not UTF-8".into()))?;
        parse(text)
    }

    fn assert_typed(r: Result<Json, SwlbError>, what: &str) {
        match r {
            Ok(_) | Err(SwlbError::CorruptData(_)) => {}
            Err(e) => panic!("{what}: untyped failure {e:?}"),
        }
    }

    /// Every construct the grammar has, multi-byte characters and a `\u`
    /// escape included.
    const SAMPLE: &str = r#"{"case":"cavité","nx":24,"tau":0.8,"neg":-1.5e-3,"on":true,"off":false,"none":null,"tags":["a","\u00e9\n",[1,[2,{"k":[]}]],{}],"s":"q\"\\\/\b\f\r\t"}"#;

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let inner = if open == "[" { "" } else { "1" };
            let doc = |n: usize| open.repeat(n) + inner + &close.repeat(n);
            assert!(parse(&doc(MAX_DEPTH)).is_ok(), "{open} x {MAX_DEPTH}");
            let e = parse(&doc(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.to_string().contains("nesting"), "{e}");
        }
        // The depth bomb: 20 KB of `[` used to overflow a 2 MiB handler
        // stack and abort the process. Unclosed, closed and mixed.
        for bomb in [
            "[".repeat(20_000),
            nested("[", "]", 20_000),
            "[{\"a\":".repeat(10_000),
            "[".repeat(1 << 20),
        ] {
            let e = parse(&bomb).unwrap_err();
            assert!(matches!(e, SwlbError::CorruptData(_)), "{e}");
        }
        // Depth is per path, not per document: siblings do not add up.
        let wide = format!("[{}]", vec![nested("[", "]", MAX_DEPTH - 1); 50].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn sample_cut_at_every_byte_is_corrupt() {
        assert!(parse(SAMPLE).is_ok());
        for keep in 0..SAMPLE.len() {
            match parse_bytes(&SAMPLE.as_bytes()[..keep]) {
                Err(SwlbError::CorruptData(_)) => {}
                other => panic!("cut to {keep} B: {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_parses_or_fails_typed() {
        for byte in 0..SAMPLE.len() {
            for bit in 0..8 {
                let mut bad = SAMPLE.as_bytes().to_vec();
                bad[byte] ^= 1 << bit;
                assert_typed(parse_bytes(&bad), &format!("bit {bit} of byte {byte}"));
            }
        }
    }

    #[test]
    fn hostile_escapes_numbers_and_lengths_fail_typed() {
        // `\u` followed by four bytes that end inside a multi-byte character
        // used to panic on a non-boundary slice.
        for bad in [
            "\"\\u000é\"",
            "\"\\u00é\"",
            "\"\\ué\"",
            "\"\\u12",
            "\"\\u",
            "\"\\",
            "\"\\é\"",
            "\"\\uzzzz\"",
            "-",
            "1e",
            "--1",
            "1.2.3",
            "+1",
            "[1,]",
            "{\"a\":}",
            "{,}",
            "{1:2}",
            "tru",
            "nulll",
            "\u{feff}1",
        ] {
            match parse(bad) {
                Err(SwlbError::CorruptData(_)) => {}
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        // Out-of-range numbers are values, not errors or panics; the writer
        // prints what JSON cannot hold as null.
        assert_eq!(parse("1e999").unwrap().to_text(), "null");
        assert_eq!(parse("-1e999").unwrap().as_u64(), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        // A long string is scanned once, not once per character.
        let long = format!("\"{}\"", "é".repeat(1 << 19));
        let t0 = std::time::Instant::now();
        assert_eq!(parse(&long).unwrap().as_str().map(str::len), Some(1 << 20));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "{:?}",
            t0.elapsed()
        );
    }

    /// Values `to_text` and `parse` agree on exactly: finite numbers (integers
    /// print as such, floats through `{}`'s shortest round-trip form), strings
    /// over an alphabet of every escape class, nesting below the cap.
    struct AnyJson(usize);

    impl Strategy for AnyJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            const ALPHABET: [char; 11] = [
                'a',
                '"',
                '\\',
                '/',
                '\n',
                '\t',
                '\u{1}',
                'é',
                '✓',
                '\u{1F600}',
                ' ',
            ];
            let text = |rng: &mut TestRng| -> String {
                let pick = |rng: &mut TestRng| ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
                (0..rng.below(6)).map(|_| pick(rng)).collect()
            };
            let inner = AnyJson(self.0.saturating_sub(1));
            match rng.below(if self.0 == 0 { 4 } else { 6 }) {
                0 => {
                    [Json::Null, Json::Bool(true), Json::Bool(false)][rng.below(3) as usize].clone()
                }
                1 => Json::Num(rng.below(1 << 40) as f64 - (1u64 << 39) as f64),
                2 => Json::Num((rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20)),
                3 => Json::Str(text(rng)),
                4 => Json::Arr((0..rng.below(4)).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..rng.below(4))
                        .map(|_| (text(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn to_text_then_parse_is_the_identity(v in AnyJson(5)) {
            let text = v.to_text();
            prop_assert_eq!(&parse(&text).unwrap(), &v, "{}", text);
        }
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::num(128u32).to_text(), "128");
        assert_eq!(Json::num(2.5).to_text(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_text(), "null");
    }
}
