//! The workspace's one JSON value: parse and render. Every JSON document
//! the workspace emits — run reports, progress events, diagnostics, EXPLAIN
//! plans, trace trees, chrome traces, server bodies — is built as a [`Json`]
//! and rendered by its `Display`, which writes compact canonical text; the
//! perf gates and tests read the same documents back with [`Json::parse`].
//! `std` only. Two deliberate simplifications: numbers are held as `f64`
//! (integers are exact up to 2^53, so wider ids render as hex strings), and
//! object members keep their order with no deduplication ([`Json::get`]
//! returns the first match, which is what our own documents hold).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `members`, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Path lookup: `j.path(&["methods", "Manual", "time_secs"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// `From` conversions for the scalars documents are built from.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr,)*) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        })*
    };
}

json_from! {
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    bool => |b| Json::Bool(b),
    f64 => |n| Json::Num(n),
    u64 => |n| Json::Num(n as f64),
    usize => |n| Json::Num(n as f64),
}

/// Escapes `s` for inclusion inside a JSON string literal: the quote, the
/// backslash and every control character (RFC 8259 §7).
pub fn json_escape(s: &str) -> String {
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

/// Renders the object `head` with one more member, `key`, holding `items`
/// as an array. Each item is rendered as it is drawn, so an array too long
/// to hold as one tree (a learn run's chrome trace, up to 262,144 spans)
/// never is.
pub(crate) fn render_with_array(
    head: &[(&str, Json)],
    key: &str,
    items: impl IntoIterator<Item = Json>,
) -> String {
    use fmt::Write;
    let items = items.into_iter();
    let mut out = String::with_capacity(128 * items.size_hint().0 + 64);
    out.push('{');
    for (k, v) in head {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "\"{}\":{v},", json_escape(k));
    }
    let _ = write!(out, "\"{}\":[", json_escape(key));
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out.push_str("]}");
    out
}

impl fmt::Display for Json {
    /// Compact canonical text. A non-finite number, which JSON cannot
    /// spell, renders as `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => write!(f, "null"),
            Json::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", json_escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts; deeper input is
/// an error rather than a stack overflow.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate escape followed by a low one is
                            // one non-BMP character (Python's `json.dumps`
                            // writes them so); a lone surrogate becomes U+FFFD.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let rewind = self.pos;
                                self.pos += 2;
                                let low = self.hex4()?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                } else {
                                    self.pos = rewind;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one code point: `pos` only ever advances by
                    // whole characters, so it sits on a char boundary.
                    let c = self.src[self.pos..].chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The four hex digits of a `\\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
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
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.25e2").unwrap(), Json::Num(-325.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_and_paths() {
        let j = Json::parse(
            r#"{"dataset": "uw", "methods": {"Manual": {"time_secs": 1.5, "phases": {"learn": {"count": 2}}}}, "tags": [1, 2, 3]}"#,
        )
        .unwrap();
        assert_eq!(j.get("dataset").unwrap().as_str(), Some("uw"));
        assert_eq!(
            j.path(&["methods", "Manual", "time_secs"])
                .unwrap()
                .as_f64(),
            Some(1.5)
        );
        assert_eq!(
            j.path(&["methods", "Manual", "phases", "learn", "count"])
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        let tags = j.get("tags").unwrap().as_arr().unwrap();
        assert_eq!(tags.len(), 3);
        assert_eq!(tags[2].as_f64(), Some(3.0));
        assert!(j.path(&["methods", "NoSuch"]).is_none());
    }

    #[test]
    fn unescapes_strings() {
        let j = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\ndA"));
        // Python's `json.dumps("😀")`: one character from a surrogate pair.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
        // Lone or misordered surrogates each become U+FFFD.
        for (src, want) in [
            (r#""\ud83d""#, "\u{FFFD}"),
            (r#""\ude00x""#, "\u{FFFD}x"),
            (r#""\ud83d\u0041""#, "\u{FFFD}A"),
            (r#""\ude00\ud83d""#, "\u{FFFD}\u{FFFD}"),
        ] {
            assert_eq!(Json::parse(src).unwrap().as_str(), Some(want), "{src}");
        }
        assert!(Json::parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn roundtrips_through_display() {
        let src = r#"{"a":[1,true,null,"x\ny"],"b":{"c":2.5}}"#;
        let j = Json::parse(src).unwrap();
        let again = Json::parse(&j.to_string()).unwrap();
        assert_eq!(j, again);
    }

    #[test]
    fn escapes_every_control_character() {
        // Every code point in U+0000..=U+001F must leave a displayed string
        // as an escape sequence (RFC 8259 §7) and parse back to itself —
        // access-log lines and kept traces embed request paths verbatim, so
        // a single raw control byte would corrupt the JSONL stream.
        let all_controls: String = (0u32..=0x1f).map(|c| char::from_u32(c).unwrap()).collect();
        let rendered = Json::Str(all_controls.clone()).to_string();
        for b in rendered.bytes() {
            assert!(
                b >= 0x20,
                "raw control byte {b:#04x} leaked into {rendered:?}"
            );
        }
        assert!(rendered.contains("\\u0000"));
        assert!(rendered.contains("\\n"));
        assert!(rendered.contains("\\r"));
        assert!(rendered.contains("\\t"));
        assert!(rendered.contains("\\u001f"));
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(all_controls.as_str()));
    }

    #[test]
    fn control_characters_survive_object_keys() {
        // Keys go through the same escaper as values.
        let j = Json::Obj(vec![("a\u{1}b".to_string(), Json::Str("\u{7}".into()))]);
        let rendered = j.to_string();
        assert_eq!(rendered, "{\"a\\u0001b\":\"\\u0007\"}");
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.get("a\u{1}b").unwrap().as_str(), Some("\u{7}"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn conversions_and_obj_build_the_same_value() {
        let built = Json::obj([
            ("s", "x".into()),
            ("owned", String::from("y").into()),
            ("b", true.into()),
            ("f", 0.5.into()),
            ("u", 7u64.into()),
            ("n", 3usize.into()),
        ]);
        assert_eq!(
            built.to_string(),
            r#"{"s":"x","owned":"y","b":true,"f":0.5,"u":7,"n":3}"#
        );
        assert_eq!(Json::parse(&built.to_string()).unwrap(), built);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let j = Json::Arr(vec![
            f64::NAN.into(),
            f64::INFINITY.into(),
            f64::NEG_INFINITY.into(),
        ]);
        assert_eq!(j.to_string(), "[null,null,null]");
    }

    #[test]
    fn streamed_array_renders_like_the_whole_object() {
        let items = || (0..3u64).map(|i| Json::obj([("i", i.into())]));
        let streamed = render_with_array(&[("unit", "ms".into())], "events", items());
        let whole = Json::obj([
            ("unit", "ms".into()),
            ("events", Json::Arr(items().collect())),
        ]);
        assert_eq!(streamed, whole.to_string());
        assert_eq!(
            render_with_array(&[], "k\"", std::iter::empty()),
            r#"{"k\"":[]}"#
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    /// SplitMix64: a seeded generator for the property tests below, so they
    /// need no dependency and every failure replays.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Characters a string draws from: every control character, the two
    /// characters the escaper must quote, ASCII, and non-ASCII up to
    /// four UTF-8 bytes.
    fn gen_char(rng: &mut Rng) -> char {
        match rng.below(6) {
            0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            1 => ['"', '\\', '/', '\u{7f}'][rng.below(4) as usize],
            2 => [
                'é',
                'ß',
                '←',
                '中',
                '€',
                '\u{2028}',
                '\u{feff}',
                '😀',
                '\u{10ffff}',
            ][rng.below(9) as usize],
            _ => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(),
        }
    }

    fn gen_string(rng: &mut Rng) -> String {
        let len = rng.below(12);
        (0..len).map(|_| gen_char(rng)).collect()
    }

    fn gen_num(rng: &mut Rng) -> f64 {
        const TWO_53: u64 = 1 << 53;
        match rng.below(5) {
            0 => rng.below(TWO_53 + 1) as f64,
            1 => -(rng.below(TWO_53 + 1) as f64),
            2 => rng.below(1000) as f64,
            // Any finite double, bit pattern and all.
            3 => loop {
                let f = f64::from_bits(rng.next());
                if f.is_finite() {
                    break f;
                }
            },
            _ => (rng.below(1_000_000) as f64) / 1e4,
        }
    }

    fn gen_value(rng: &mut Rng, depth: u32) -> Json {
        let leaf = depth == 0 || rng.below(3) == 0;
        match rng.below(if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Num(gen_num(rng)),
            3 => Json::Str(gen_string(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| gen_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn arbitrary_values_round_trip_through_display_and_parse() {
        let mut rng = Rng(0x5eed_0001);
        for case in 0..5_000 {
            let v = gen_value(&mut rng, 5);
            let text = v.to_string();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, v, "case {case}: {text}");
            assert!(
                !text.bytes().any(|b| b < 0x20),
                "case {case}: raw control byte in {text:?}"
            );
        }
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes_or_truncations() {
        let mut rng = Rng(0x5eed_0002);
        let alphabet = b"{}[]:,\"\\/ntrufalse0123456789.eE+-u \n\t";
        for _ in 0..20_000 {
            let len = rng.below(40) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.below(3) {
                    0 => rng.next() as u8,
                    _ => alphabet[rng.below(alphabet.len() as u64) as usize],
                })
                .collect();
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }
        for _ in 0..500 {
            let text = gen_value(&mut rng, 4).to_string();
            for (cut, _) in text.char_indices() {
                let _ = Json::parse(&text[..cut]);
            }
        }
    }

    #[test]
    fn parses_own_chrome_trace_output() {
        let json = crate::chrome::export_chrome_trace(&[]);
        let parsed = Json::parse(&json).expect("chrome export is valid JSON");
        assert!(parsed.get("traceEvents").unwrap().as_arr().is_some());
    }
}
