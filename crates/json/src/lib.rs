//! Dependency-free JSON: an ordered value model, a writer (compact and
//! pretty) and a small recursive-descent parser.
//!
//! The simulator serialises run statistics, experiment results and trace
//! events to JSON, and the build must work with no network access, so
//! this crate replaces `serde`/`serde_json` for the workspace. The
//! surface is deliberately small: values are built explicitly through
//! [`Json`] and the [`ToJson`] trait, and read back through its inverse,
//! [`FromJson`] (with [`Json::field`] for object members), which every
//! snapshot and statistics reader in the workspace uses.
//!
//! The crate also holds the workspace's one FNV-1a ([`fnv1a`],
//! [`Fnv1a`]): every crate that writes a digest already depends on it.
//!
//! ```
//! use dtsvliw_json::{Json, ToJson};
//!
//! let v = Json::obj([("cycles", 42u64.to_json()), ("ipc", 1.5.to_json())]);
//! let text = v.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("cycles").unwrap().as_u64(), Some(42));
//! assert_eq!(back.field::<u32>("cycles"), Some(42));
//! assert_eq!(back.field::<u8>("ipc"), None, "floats are not integers");
//! ```

use std::fmt::{self, Write as _};

mod fnv;
pub use fnv::{fnv1a, Fnv1a};

/// A JSON value. Object keys keep insertion order so dumps are stable
/// and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A non-negative integer (u64 keeps cycle counters exact; f64
    /// would silently round above 2^53).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number. Non-finite values render as `null`
    /// (JSON has no NaN/Inf).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Member lookup on an object (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member `key` of an object, read as `T` (`None` when `self` is
    /// not an object, has no such member, or the member does not read
    /// as `T`).
    pub fn field<T: FromJson>(&self, key: &str) -> Option<T> {
        T::from_json(self.get(key)?)
    }

    /// The value as a u64 (integers only; floats are not coerced).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an i64 (integers only; floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U64(n) => i64::try_from(*n).ok(),
            Json::I64(n) => Some(*n),
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

    /// The value as an f64 (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
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

    /// Compact rendering (no whitespace).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, None, 0);
        s
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.render(&mut s, Some(2), 0);
        s
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // Keep integral floats distinguishable from ints so
                    // parsing round-trips the variant.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.render(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    escape_into(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our
                            // dumps; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            s.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
            at: start,
            msg: "bad number",
        })
    }
}

/// Conversion into a [`Json`] value. Implement this for every type that
/// appears in a dump; there is no derive — impls, here and for
/// [`FromJson`], are explicit and live next to the type.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for u16 {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for u8 {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        if *self >= 0 {
            Json::U64(*self as u64)
        } else {
            Json::I64(*self)
        }
    }
}

impl ToJson for i32 {
    fn to_json(&self) -> Json {
        (*self as i64).to_json()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

macro_rules! tuple_json {
    ($(($($t:ident $v:ident),+))+) => {$(
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                let ($($v,)+) = self;
                Json::arr([$($v.to_json()),+])
            }
        }

        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(j: &Json) -> Option<Self> {
                match j.as_arr()? {
                    [$($v),+] => Some(($($t::from_json($v)?,)+)),
                    _ => None,
                }
            }
        }
    )+};
}

tuple_json! {
    (A a, B b)
    (A a, B b, C c)
    (A a, B b, C c, D d)
}

/// Conversion back from a [`Json`] value: the inverse of [`ToJson`].
/// `None` on any mismatch — a value of the wrong kind, an integer out of
/// the target's range (negative, or above its maximum; floats are never
/// integers), an array of the wrong length — so a reader chains members
/// with `?` and its caller turns the `None` into a typed error.
pub trait FromJson: Sized {
    /// The value read as `Self`.
    fn from_json(j: &Json) -> Option<Self>;
}

macro_rules! uint_from_json {
    ($($t:ty)*) => {$(
        impl FromJson for $t {
            fn from_json(j: &Json) -> Option<Self> {
                <$t>::try_from(j.as_u64()?).ok()
            }
        }
    )*};
}

uint_from_json!(u64 u32 u16 u8 usize);

impl FromJson for bool {
    fn from_json(j: &Json) -> Option<Self> {
        j.as_bool()
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Option<Self> {
        j.as_str().map(str::to_string)
    }
}

/// `null` reads as `None`; anything else must read as `T`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Option<Self> {
        match j {
            Json::Null => Some(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Option<Self> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

/// An array of exactly `N` elements.
impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(j: &Json) -> Option<Self> {
        let items = j.as_arr().filter(|items| items.len() == N)?;
        let items: Vec<T> = items.iter().map(T::from_json).collect::<Option<_>>()?;
        items.try_into().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let v = Json::obj([
            ("null", Json::Null),
            ("bool", Json::Bool(true)),
            ("big", Json::U64(u64::MAX)),
            ("neg", Json::I64(-42)),
            ("float", Json::F64(1.25)),
            ("text", Json::Str("a\"b\\c\n\t\u{1}".into())),
            ("arr", Json::arr([Json::U64(1), Json::U64(2)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn u64_precision_is_exact() {
        let n = (1u64 << 53) + 1; // not representable as f64
        let text = Json::U64(n).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn typed_accessors() {
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::U64(1).as_bool(), None);
        assert_eq!(Json::I64(-3).as_i64(), Some(-3));
        assert_eq!(Json::U64(7).as_i64(), Some(7));
        assert_eq!(Json::U64(u64::MAX).as_i64(), None, "out of i64 range");
        assert_eq!(Json::F64(1.0).as_i64(), None, "floats are not coerced");
        assert_eq!(Json::I64(-1).as_u64(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integral_float_keeps_decimal_point() {
        let text = Json::F64(2.0).to_string();
        assert_eq!(text, "2.0");
        assert!(matches!(Json::parse(&text).unwrap(), Json::F64(_)));
    }

    #[test]
    fn integers_read_only_within_their_width() {
        fn edge<T: FromJson + PartialEq + std::fmt::Debug + TryFrom<u64>>(max: u64) {
            let t = |n: u64| T::try_from(n).ok().unwrap();
            assert_eq!(T::from_json(&Json::U64(max)), Some(t(max)));
            assert_eq!(T::from_json(&Json::I64(0)), Some(t(0)));
            if max < u64::MAX {
                assert_eq!(T::from_json(&Json::U64(max + 1)), None, "max + 1");
            }
            assert_eq!(T::from_json(&Json::I64(-1)), None, "negative");
            assert_eq!(T::from_json(&Json::I64(i64::MIN)), None, "negative");
            assert_eq!(T::from_json(&Json::F64(1.0)), None, "float");
            assert_eq!(T::from_json(&Json::F64(0.5)), None, "float");
            assert_eq!(T::from_json(&Json::Null), None, "null");
            assert_eq!(T::from_json(&Json::Str("1".into())), None, "string");
        }
        edge::<u8>(u8::MAX as u64);
        edge::<u16>(u16::MAX as u64);
        edge::<u32>(u32::MAX as u64);
        edge::<u64>(u64::MAX);
        edge::<usize>(usize::MAX as u64);
    }

    #[test]
    fn only_option_reads_null() {
        assert_eq!(Option::<u8>::from_json(&Json::Null), Some(None));
        assert_eq!(Option::<u8>::from_json(&Json::U64(3)), Some(Some(3)));
        assert_eq!(Option::<u8>::from_json(&Json::U64(256)), None);
        assert_eq!(Option::<bool>::from_json(&Json::U64(1)), None);
        assert_eq!(bool::from_json(&Json::Null), None);
        assert_eq!(String::from_json(&Json::Null), None);
        assert_eq!(Vec::<u8>::from_json(&Json::Null), None);
        assert_eq!(<[u8; 0]>::from_json(&Json::Null), None);
        assert_eq!(<(u8, u8)>::from_json(&Json::Null), None);
        assert_eq!(bool::from_json(&Json::Bool(false)), Some(false));
        assert_eq!(String::from_json(&Json::Str("x".into())), Some("x".into()));
    }

    #[test]
    fn arrays_and_tuples_read_exactly_their_length() {
        let arr = |n: u64| Json::Arr((0..n).map(Json::U64).collect());
        assert_eq!(<[u8; 3]>::from_json(&arr(3)), Some([0, 1, 2]));
        assert_eq!(<[u8; 3]>::from_json(&arr(2)), None);
        assert_eq!(<[u8; 3]>::from_json(&arr(4)), None);
        assert_eq!(Vec::<u8>::from_json(&arr(4)), Some(vec![0, 1, 2, 3]));
        assert_eq!(Vec::<u8>::from_json(&Json::arr([Json::Null])), None);

        assert_eq!(<(u8, u8)>::from_json(&arr(2)), Some((0, 1)));
        assert_eq!(<(u8, u16, u32)>::from_json(&arr(3)), Some((0, 1, 2)));
        assert_eq!(<(u8, u8, u8, u64)>::from_json(&arr(4)), Some((0, 1, 2, 3)));
        for n in [0, 1, 3] {
            assert_eq!(<(u8, u8)>::from_json(&arr(n)), None, "length {n}");
        }
        for n in [2, 4] {
            assert_eq!(<(u8, u8, u8)>::from_json(&arr(n)), None, "length {n}");
        }
        for n in [3, 5] {
            assert_eq!(<(u8, u8, u8, u8)>::from_json(&arr(n)), None, "length {n}");
        }
        assert_eq!(
            <(u8, u8)>::from_json(&Json::arr([Json::U64(1), Json::U64(256)])),
            None
        );

        // Tuples render as the arrays they read back from.
        let t = (7u32, 2u8, u64::MAX, Some(true));
        assert_eq!(t.to_json().to_string(), "[7,2,18446744073709551615,true]");
        assert_eq!(FromJson::from_json(&t.to_json()), Some(t));
    }

    #[test]
    fn field_reads_an_object_member() {
        let v = Json::obj([("a", Json::U64(300)), ("n", Json::Null)]);
        assert_eq!(v.field::<u16>("a"), Some(300));
        assert_eq!(v.field::<u8>("a"), None, "out of range");
        assert_eq!(v.field::<Option<u8>>("n"), Some(None));
        assert_eq!(v.field::<Option<u8>>("missing"), None, "missing key");
        assert_eq!(v.field::<u64>("missing"), None, "missing key");
        for not_obj in [Json::Null, Json::U64(1), Json::arr([Json::U64(1)])] {
            assert_eq!(not_obj.field::<Option<u64>>("a"), None, "{not_obj}");
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
        let v = Json::Str("héllo →".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
