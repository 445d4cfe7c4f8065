//! A minimal, dependency-free JSON tree: parse and render.
//!
//! The serving edge speaks JSON on the wire but must not pull serde into
//! the workspace's dependency-free server path, so this module hand-rolls
//! the ~300 lines the API actually needs: a recursive-descent parser into
//! a [`Json`] value (objects kept as ordered `Vec<(String, Json)>` pairs —
//! no hashed collections on a serving path) and a compact renderer.
//!
//! Float fidelity matters here: diagnosis scores are `f32`s and the
//! round-trip over the wire must be bit-identical (the end-to-end suite
//! asserts it). [`Json::from_f32`] goes through Rust's shortest-roundtrip
//! decimal formatting, whose parse back through `f64` re-rounds to the
//! exact original `f32`. Rendering that `f64` prints the digits the `f32`
//! started from, so the diagnose replies skip the tree and the detour:
//! the crate-private `write_f32` puts the same bytes straight into the
//! body.

use std::fmt;

/// Maximum nesting depth accepted by the parser (defence against
/// stack-exhausting `[[[[…` bodies).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs (first write wins on `get`).
    Obj(Vec<(String, Json)>),
}

/// Why a body failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        match p.peek() {
            None => Ok(value),
            Some(_) => Err(p.err("trailing characters after the document")),
        }
    }

    /// A number from an `f32`, preserving bit-identity across a
    /// render → parse → `as f32` round trip (see module docs).
    pub fn from_f32(v: f32) -> Json {
        if v.is_finite() {
            // Shortest f32 decimal → nearest f64; casting that f64 back to
            // f32 recovers the original bits.
            Json::Num(format!("{v}").parse::<f64>().unwrap_or(f64::from(v)))
        } else {
            Json::Null
        }
    }

    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as usize)
            }
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 is the shortest decimal that round-trips; integral
        // values print without a fraction ("3", not "3.0").
        let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
    } else {
        // JSON has no NaN/Inf; the API never emits them (non-finite scores
        // are typed errors upstream), so this is a belt-and-braces `null`.
        out.push_str("null");
    }
}

/// Append `v` exactly as [`Json::from_f32`]`(v).render()` would print it:
/// `Display` of a finite `f32` and of the `f64` parsed back from that text
/// are the same shortest decimal (pinned over sampled bit patterns by the
/// tests below), and a non-finite value is `null`.
pub(crate) fn write_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        let end = self.pos + word.len();
        if self.src.get(self.pos..end) == Some(word) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Fast path: copy a run of plain UTF-8 up to the next quote,
            // backslash or control byte.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                let run = self
                    .src
                    .get(start..self.pos)
                    .ok_or_else(|| self.err("string is not valid UTF-8"))?;
                out.push_str(run);
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate escape"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape sequence")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let raw = self
            .src
            .get(start..self.pos)
            .ok_or_else(|| self.err("malformed number"))?;
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err(format!("malformed number `{raw}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"a b\"").unwrap(), Json::Str("a b".into()));
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"d"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("d"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_usize(), Some(1));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"",
            "{\"a\"}",
            "{\"a\":1,}",
            "1 2",
            "nan",
            "1e999",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" back\\slash \n tab\t unicode \u{263A} nul-ish \u{0001}";
        let rendered = Json::Str(original.to_string()).render();
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Explicit \u escapes, including a surrogate pair.
        let v = Json::parse(r#""\u0041\u263a\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{263A}\u{1F600}"));
    }

    #[test]
    fn f32_round_trip_is_bit_identical() {
        let cases = [
            0.1f32,
            -3.25,
            1e-30,
            3.4e38,
            f32::MIN_POSITIVE,
            0.0,
            -0.0,
            std::f32::consts::PI,
            1.0 / 3.0,
        ];
        for x in cases {
            let rendered = Json::from_f32(x).render();
            let parsed = Json::parse(&rendered).unwrap().as_f64().unwrap() as f32;
            assert_eq!(parsed.to_bits(), x.to_bits(), "{x} via `{rendered}`");
        }
        assert_eq!(Json::from_f32(f32::NAN), Json::Null);
    }

    /// What [`write_f32`] rests on: `Display` of an `f32` and `Display` of
    /// the `f64` parsed from that text print the same bytes, so writing the
    /// `f32` directly is what `from_f32(v).render()` always produced.
    #[test]
    fn f32_display_survives_the_f64_detour_byte_for_byte() {
        let check = |v: f32| {
            let direct = format!("{v}");
            let detour = format!("{}", direct.parse::<f64>().unwrap());
            assert_eq!(direct, detour, "bits {:#010x}", v.to_bits());
            let mut written = String::new();
            write_f32(&mut written, v);
            assert_eq!(written, Json::from_f32(v).render());
            assert_eq!(
                (written.parse::<f64>().unwrap() as f32).to_bits(),
                v.to_bits()
            );
        };
        for v in [
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::EPSILON,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::from_bits(0x8000_0001),
            1.0e-7,
            16_777_216.0,
            1.0e21,
        ] {
            check(v);
        }
        // Every 4099th bit pattern (1.05 M, both signs, every exponent,
        // subnormals included), then a seeded spray over the rest.
        for bits in (0..=u32::MAX).step_by(4099) {
            let v = f32::from_bits(bits);
            if v.is_finite() {
                check(v);
            }
        }
        let mut rng = diagnet_nn::rng::SplitMix64::new(0x5EED_F32D);
        for _ in 0..200_000 {
            let v = f32::from_bits(rng.next_u64() as u32);
            if v.is_finite() {
                check(v);
            }
        }
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut written = String::new();
            write_f32(&mut written, v);
            assert_eq!(written, "null");
        }
    }

    #[test]
    fn render_is_parseable_and_ordered() {
        let v = Json::obj(vec![
            ("b", Json::Num(2.0)),
            ("a", Json::Arr(vec![Json::Bool(false), Json::Null])),
        ]);
        let compact = v.render();
        assert_eq!(compact, r#"{"b":2,"a":[false,null]}"#);
        assert_eq!(Json::parse(&compact).unwrap(), v);
        // Clients may indent: whitespace between tokens is skipped.
        let indented = "{\n  \"b\": 2,\n  \"a\": [\n    false,\n    null\n  ]\n}\n";
        assert_eq!(Json::parse(indented).unwrap(), v);
    }

    #[test]
    fn first_key_wins_on_get() {
        let v = Json::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("3.5").unwrap().as_usize(), None);
        assert_eq!(Json::parse("-1").unwrap().as_usize(), None);
        assert_eq!(Json::parse("12").unwrap().as_usize(), Some(12));
    }
}
