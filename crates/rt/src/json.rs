//! JSON value type, parser, canonical emitter, and conversion traits.
//!
//! The encoding conventions deliberately match what the workspace's
//! previous serde-derived impls produced, so corpora and result files
//! written before the migration still parse:
//!
//! * structs → objects with one key per field;
//! * transparent string ids → plain strings;
//! * unit enum variants → `"Variant"`;
//! * newtype variants → `{"Variant": value}`;
//! * tuple variants → `{"Variant": [a, b, ...]}`;
//! * struct variants → `{"Variant": {"field": ...}}`;
//! * `Option` → `null` or the value (absent fields read as `None`);
//! * `Range<T>` → `{"start": a, "end": b}`;
//! * maps → objects keyed through [`JsonKey`].
//!
//! Serialization is one streaming emitter: [`ToJson::write_json`] writes
//! a value's compact, canonical JSON text piece by piece into a [`Sink`]
//! — a `String`, or a hasher that folds the bytes in as they arrive — so
//! neither [`to_string`] nor a content fingerprint builds a [`Json`] tree
//! or an intermediate string. The tree that [`to_value`], [`jobj!`](crate::jobj) and
//! [`to_string_pretty`] need is read back from the emitted text, so there
//! is one serializer to keep canonical.
//!
//! Integers are emitted exactly. A parsed number is an `f64`, so the
//! integer [`FromJson`] impls accept only magnitudes up to
//! [`MAX_EXACT_INT`] (2^53 − 1) and refuse larger ones instead of
//! rounding them.
//!
//! Use [`impl_json_struct!`](crate::impl_json_struct) /
//! [`impl_json_enum!`](crate::impl_json_enum) to derive the
//! [`ToJson`]/[`FromJson`] pair declaratively.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

/// Maximum nesting depth the parser accepts before bailing out.
pub const MAX_DEPTH: usize = 128;

/// The largest integer magnitude, 2^53 − 1, that a JSON number (an `f64`)
/// holds exactly and that no other integer text rounds to.
pub const MAX_EXACT_INT: f64 = 9_007_199_254_740_991.0;

/// A parsed or constructed JSON value.
///
/// Objects preserve insertion order (maps serialize in key order via
/// `BTreeMap`, so output is still deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integral values print without a decimal point.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// Looks up `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// True for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Json::Obj(_))
    }

    /// True for arrays.
    pub fn is_array(&self) -> bool {
        matches!(self, Json::Arr(_))
    }

    /// True for strings.
    pub fn is_string(&self) -> bool {
        matches!(self, Json::Str(_))
    }

    /// True for numbers representable as a `u64`.
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one no larger than
    /// [`MAX_EXACT_INT`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer, if its magnitude is at most
    /// [`MAX_EXACT_INT`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT => Some(*n as i64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn dump(&self) -> String {
        to_string(self)
    }

    /// Serializes with two-space indentation.
    pub fn dump_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_json(out),
        }
    }
}

impl Index<&str> for Json {
    type Output = Json;

    /// Object field access; missing keys and non-objects yield `Null`,
    /// so lookups chain like `value["design"]["hardware"]["Server"]`.
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;

    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

// ---------------------------------------------------------------------------
// Canonical emitter
// ---------------------------------------------------------------------------

/// Where the emitter writes: compact JSON text, delivered in pieces.
///
/// The concatenation of the pieces is the canonical text; how the text
/// is cut into pieces carries no meaning.
pub trait Sink {
    /// Appends the next piece of JSON text.
    fn put(&mut self, text: &str);
}

impl Sink for String {
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }
}

/// Lets `write!` format straight into a sink.
struct FmtSink<'a>(&'a mut dyn Sink);

impl fmt::Write for FmtSink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put(s);
        Ok(())
    }
}

/// Emits `s` as a quoted JSON string, copying unescaped runs whole.
pub fn write_str(s: &str, out: &mut dyn Sink) {
    out.put("\"");
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        // Escaped bytes are ASCII, so both cuts fall on char boundaries.
        out.put(&s[run..i]);
        match short {
            Some(escape) => out.put(escape),
            None => {
                use fmt::Write;
                let _ = write!(FmtSink(out), "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.put(&s[run..]);
    out.put("\"");
}

/// Emits an integer exactly: `magnitude`, negated when `negative`.
fn write_int(magnitude: u64, negative: bool, out: &mut dyn Sink) {
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    let mut n = magnitude;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    out.put(std::str::from_utf8(&buf[at..]).expect("digits are ascii"));
}

/// Emits a float: integral values inside f64's exact window print
/// without a decimal point; JSON has no NaN/Inf, so those degrade to
/// `null` like lenient emitters do.
fn write_f64(n: f64, out: &mut dyn Sink) {
    if !n.is_finite() {
        out.put("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write_int(n.abs() as u64, n < 0.0, out);
    } else {
        use fmt::Write;
        let _ = write!(FmtSink(out), "{n}");
    }
}

/// Emits a JSON array of `items`.
fn write_seq<'a, T: ToJson + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut dyn Sink) {
    out.put("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.put(",");
        }
        item.write_json(out);
    }
    out.put("]");
}

/// Error raised by parsing or [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Builds an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Self {
        JsonError(m.to_string())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    Parser::new(input, MAX_DEPTH).document()
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
    /// Elements of the arrays still open, innermost last: each array
    /// collects here and leaves as one exactly-sized `Vec`. A syntax
    /// error ends the parse, so nothing needs popping on the error path.
    items: Vec<Json>,
    /// Members of the objects still open, likewise.
    members: Vec<(String, Json)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, max_depth: usize) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            max_depth,
            items: Vec::new(),
            members: Vec::new(),
        }
    }

    fn document(mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > self.max_depth {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let mark = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value(depth + 1)?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(mark..).collect()));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let mark = self.members.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.members.drain(mark..).collect()));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. Those stop bytes are ASCII, so the run
            // starts and ends on char boundaries of the input.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes one escape sequence after its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uXXXX low half.
                    if !self.eat_keyword("\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                } else {
                    char::from_u32(hi)
                };
                // hex4 already advanced past the digits.
                return match c {
                    Some(c) => {
                        out.push(c);
                        Ok(())
                    }
                    None => Err(self.err("invalid unicode escape")),
                };
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        let int_start = self.pos;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        let int_end = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            self.digits();
        }
        // Up to 15 digits fit an f64 exactly: accumulate them directly.
        if integral && int_end - int_start <= 15 {
            let magnitude = self.bytes[int_start..int_end]
                .iter()
                .fold(0u64, |n, &b| n * 10 + u64::from(b - b'0')) as f64;
            return Ok(Json::Num(if negative { -magnitude } else { magnitude }));
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into canonical JSON.
pub trait ToJson {
    /// Emits `self`'s compact, canonical JSON text into `out`.
    fn write_json(&self, out: &mut dyn Sink);

    /// Converts `self` into a [`Json`] tree, read back from the emitted
    /// text (numbers pass through `f64` on the way).
    fn to_json(&self) -> Json {
        let text = to_string(self);
        Parser::new(&text, usize::MAX)
            .document()
            .expect("the canonical emitter writes valid JSON")
    }
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reads `Self` out of a JSON value.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Serializes any [`ToJson`] value with indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().dump_pretty()
}

/// Converts any [`ToJson`] value into a [`Json`] tree.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Json {
    value.to_json()
}

/// Parses a document and converts it into `T`.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&parse(input)?)
}

/// Reads a struct field out of an object, treating a missing key as
/// `null` so `Option` fields tolerate absence.
pub fn field<T: FromJson>(j: &Json, name: &str) -> Result<T, JsonError> {
    match j {
        Json::Obj(_) => match j.get(name) {
            Some(v) => T::from_json(v)
                .map_err(|e| JsonError(format!("field `{name}`: {e}"))),
            None => T::from_json(&Json::Null)
                .map_err(|_| JsonError(format!("missing field `{name}`"))),
        },
        other => Err(JsonError(format!(
            "expected object with field `{name}`, got {other}"
        ))),
    }
}

/// Keys usable in JSON-object-encoded maps.
///
/// JSON object keys must be strings, so map key types round-trip
/// through this trait rather than [`ToJson`].
pub trait JsonKey: Sized {
    /// Encodes the key as a string.
    fn to_key(&self) -> Cow<'_, str>;
    /// Decodes the key from a string.
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

impl ToJson for Json {
    fn write_json(&self, out: &mut dyn Sink) {
        match self {
            Json::Null => out.put("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Num(n) => write_f64(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_seq(items, out),
            Json::Obj(pairs) => {
                out.put("{");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.put(",");
                    }
                    write_str(k, out);
                    out.put(":");
                    v.write_json(out);
                }
                out.put("}");
            }
        }
    }

    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut dyn Sink) {
        out.put(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool()
            .ok_or_else(|| JsonError(format!("expected bool, got {j}")))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut dyn Sink) {
                let n = *self as i128;
                write_int(n.unsigned_abs() as u64, n < 0, out);
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let n = j
                    .as_f64()
                    .ok_or_else(|| JsonError(format!("expected number, got {j}")))?;
                if n.fract() != 0.0 {
                    return Err(JsonError(format!("expected integer, got {n}")));
                }
                if n.abs() > MAX_EXACT_INT {
                    return Err(JsonError(format!(
                        "integer ≈{n:e} is beyond ±2^53 and not exact, out of range for {}",
                        stringify!($t)
                    )));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(JsonError(format!(
                        "integer {n} out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}
impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut dyn Sink) {
        write_f64(*self, out);
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64()
            .ok_or_else(|| JsonError(format!("expected number, got {j}")))
    }
}

impl ToJson for f32 {
    fn write_json(&self, out: &mut dyn Sink) {
        write_f64(*self as f64, out);
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(f64::from_json(j)? as f32)
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut dyn Sink) {
        write_str(self, out);
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError(format!("expected string, got {j}")))
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut dyn Sink) {
        write_str(self, out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut dyn Sink) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut dyn Sink) {
        match self {
            None => out.put("null"),
            Some(v) => v.write_json(out),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn write_json(&self, out: &mut dyn Sink) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Box::new(T::from_json(j)?))
    }
}

impl<T: ToJson + ?Sized> ToJson for Arc<T> {
    fn write_json(&self, out: &mut dyn Sink) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for Arc<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Arc::new(T::from_json(j)?))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut dyn Sink) {
        write_seq(self, out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_array()
            .ok_or_else(|| JsonError(format!("expected array, got {j}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut dyn Sink) {
        write_seq(self, out);
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn write_json(&self, out: &mut dyn Sink) {
        write_seq(self, out);
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_array()
            .ok_or_else(|| JsonError(format!("expected array, got {j}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<K: JsonKey + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut dyn Sink) {
        out.put("{");
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.put(",");
            }
            write_str(&k.to_key(), out);
            out.put(":");
            v.write_json(out);
        }
        out.put("}");
    }
}

impl<K: JsonKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_object()
            .ok_or_else(|| JsonError(format!("expected object, got {j}")))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
            .collect()
    }
}

impl<T: ToJson> ToJson for Range<T> {
    fn write_json(&self, out: &mut dyn Sink) {
        out.put("{\"start\":");
        self.start.write_json(out);
        out.put(",\"end\":");
        self.end.write_json(out);
        out.put("}");
    }
}

impl<T: FromJson> FromJson for Range<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(field::<T>(j, "start")?..field::<T>(j, "end")?)
    }
}

// ---------------------------------------------------------------------------
// Derive macros
// ---------------------------------------------------------------------------

/// Derives [`ToJson`]/[`FromJson`] for a struct with named fields.
///
/// ```
/// use netarch_rt::impl_json_struct;
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Point { x: i64, y: i64 }
/// impl_json_struct!(Point { x, y });
///
/// let p = Point { x: 1, y: -2 };
/// let text = netarch_rt::json::to_string(&p);
/// assert_eq!(text, r#"{"x":1,"y":-2}"#);
/// assert_eq!(netarch_rt::json::from_str::<Point>(&text).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $first:ident $(, $field:ident)* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut dyn $crate::json::Sink) {
                out.put(concat!("{\"", stringify!($first), "\":"));
                $crate::json::ToJson::write_json(&self.$first, out);
                $(
                    out.put(concat!(",\"", stringify!($field), "\":"));
                    $crate::json::ToJson::write_json(&self.$field, out);
                )*
                out.put("}");
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                j: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                let $first = $crate::json::field(j, stringify!($first))?;
                $(let $field = $crate::json::field(j, stringify!($field))?;)*
                Ok(Self { $first $(, $field)* })
            }
        }
    };
}

/// Derives [`ToJson`]/[`FromJson`] for an enum using serde-style
/// external tagging. Each variant is declared with a shape keyword:
///
/// * `unit Name` → `"Name"`
/// * `one Name(T)` → `{"Name": value}`
/// * `tuple Name(A, B)` / `tuple Name(A, B, C)` → `{"Name": [a, b, ...]}`
/// * `record Name { f: T, ... }` → `{"Name": {"f": ...}}`
///
/// ```
/// use netarch_rt::impl_json_enum;
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum Shape {
///     Empty,
///     Circle(f64),
///     Rect { w: f64, h: f64 },
/// }
/// impl_json_enum!(Shape {
///     unit Empty,
///     one Circle(f64),
///     record Rect { w: f64, h: f64 },
/// });
///
/// assert_eq!(netarch_rt::json::to_string(&Shape::Empty), r#""Empty""#);
/// assert_eq!(netarch_rt::json::to_string(&Shape::Circle(2.5)), r#"{"Circle":2.5}"#);
/// let r: Shape = netarch_rt::json::from_str(r#"{"Rect":{"w":3,"h":4}}"#).unwrap();
/// assert_eq!(r, Shape::Rect { w: 3.0, h: 4.0 });
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($body:tt)+ }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut dyn $crate::json::Sink) {
                $crate::__json_enum_to_all!(self, out, $ty, $($body)+);
                unreachable!("impl_json_enum: variant list must be exhaustive")
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                j: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                if let $crate::json::Json::Str(tag) = j {
                    $crate::__json_enum_from_str_all!(tag, $ty, $($body)+);
                    return Err($crate::json::JsonError(format!(
                        "unknown {} variant `{tag}`",
                        stringify!($ty)
                    )));
                }
                if let $crate::json::Json::Obj(pairs) = j {
                    if pairs.len() == 1 {
                        let (tag, val) = &pairs[0];
                        $crate::__json_enum_from_tagged_all!(tag, val, $ty, $($body)+);
                        return Err($crate::json::JsonError(format!(
                            "unknown {} variant `{tag}`",
                            stringify!($ty)
                        )));
                    }
                }
                Err($crate::json::JsonError(format!(
                    "expected {} variant, got {j}",
                    stringify!($ty)
                )))
            }
        }
    };
}

/// Internal: walks the variant list emitting serialization statements.
/// (A token-muncher: an optional payload capture next to the `,`
/// separator would be ambiguous in a plain repetition.)
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_to_all {
    ($self:expr, $out:ident, $ty:ident $(,)?) => {};
    ($self:expr, $out:ident, $ty:ident, unit $variant:ident $(, $($rest:tt)*)?) => {
        $crate::__json_enum_to!($self, $out, $ty, unit $variant);
        $crate::__json_enum_to_all!($self, $out, $ty $(, $($rest)*)?);
    };
    ($self:expr, $out:ident, $ty:ident,
     $shape:ident $variant:ident $payload:tt $(, $($rest:tt)*)?) => {
        $crate::__json_enum_to!($self, $out, $ty, $shape $variant $payload);
        $crate::__json_enum_to_all!($self, $out, $ty $(, $($rest)*)?);
    };
}

/// Internal: walks the variant list emitting string-tag matchers.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_from_str_all {
    ($tag:expr, $ty:ident $(,)?) => {};
    ($tag:expr, $ty:ident, unit $variant:ident $(, $($rest:tt)*)?) => {
        $crate::__json_enum_from_str!($tag, $ty, unit $variant);
        $crate::__json_enum_from_str_all!($tag, $ty $(, $($rest)*)?);
    };
    ($tag:expr, $ty:ident, $shape:ident $variant:ident $payload:tt $(, $($rest:tt)*)?) => {
        $crate::__json_enum_from_str_all!($tag, $ty $(, $($rest)*)?);
    };
}

/// Internal: walks the variant list emitting tagged-object matchers.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_from_tagged_all {
    ($tag:expr, $val:expr, $ty:ident $(,)?) => {};
    ($tag:expr, $val:expr, $ty:ident, unit $variant:ident $(, $($rest:tt)*)?) => {
        $crate::__json_enum_from_tagged_all!($tag, $val, $ty $(, $($rest)*)?);
    };
    ($tag:expr, $val:expr, $ty:ident, $shape:ident $variant:ident $payload:tt $(, $($rest:tt)*)?) => {
        $crate::__json_enum_from_tagged!($tag, $val, $ty, $shape $variant $payload);
        $crate::__json_enum_from_tagged_all!($tag, $val, $ty $(, $($rest)*)?);
    };
}

/// Internal: per-variant serialization statement for [`impl_json_enum!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_to {
    ($self:expr, $out:ident, $ty:ident, unit $variant:ident) => {
        if let $ty::$variant = $self {
            $out.put(concat!("\"", stringify!($variant), "\""));
            return;
        }
    };
    ($self:expr, $out:ident, $ty:ident, one $variant:ident ($t:ty)) => {
        if let $ty::$variant(x) = $self {
            $out.put(concat!("{\"", stringify!($variant), "\":"));
            $crate::json::ToJson::write_json(x, $out);
            $out.put("}");
            return;
        }
    };
    ($self:expr, $out:ident, $ty:ident, tuple $variant:ident ($t0:ty, $t1:ty)) => {
        if let $ty::$variant(a, b) = $self {
            $out.put(concat!("{\"", stringify!($variant), "\":["));
            $crate::json::ToJson::write_json(a, $out);
            $out.put(",");
            $crate::json::ToJson::write_json(b, $out);
            $out.put("]}");
            return;
        }
    };
    ($self:expr, $out:ident, $ty:ident, tuple $variant:ident ($t0:ty, $t1:ty, $t2:ty)) => {
        if let $ty::$variant(a, b, c) = $self {
            $out.put(concat!("{\"", stringify!($variant), "\":["));
            $crate::json::ToJson::write_json(a, $out);
            $out.put(",");
            $crate::json::ToJson::write_json(b, $out);
            $out.put(",");
            $crate::json::ToJson::write_json(c, $out);
            $out.put("]}");
            return;
        }
    };
    ($self:expr, $out:ident, $ty:ident,
     record $variant:ident { $f0:ident : $t0:ty $(, $fname:ident : $fty:ty)* $(,)? }) => {
        if let $ty::$variant { $f0 $(, $fname)* } = $self {
            $out.put(concat!("{\"", stringify!($variant), "\":{\"", stringify!($f0), "\":"));
            $crate::json::ToJson::write_json($f0, $out);
            $(
                $out.put(concat!(",\"", stringify!($fname), "\":"));
                $crate::json::ToJson::write_json($fname, $out);
            )*
            $out.put("}}");
            return;
        }
    };
}

/// Internal: string-tag deserialization statement (unit variants only).
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_from_str {
    ($tag:expr, $ty:ident, unit $variant:ident) => {
        if $tag == stringify!($variant) {
            return Ok($ty::$variant);
        }
    };
    ($tag:expr, $ty:ident, $shape:ident $variant:ident $payload:tt) => {};
}

/// Internal: tagged-object deserialization statement for payload variants.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_from_tagged {
    ($tag:expr, $val:expr, $ty:ident, unit $variant:ident) => {};
    ($tag:expr, $val:expr, $ty:ident, one $variant:ident ($t:ty)) => {
        if $tag == stringify!($variant) {
            return Ok($ty::$variant(<$t as $crate::json::FromJson>::from_json(
                $val,
            )?));
        }
    };
    ($tag:expr, $val:expr, $ty:ident, tuple $variant:ident ($t0:ty, $t1:ty)) => {
        if $tag == stringify!($variant) {
            if let Some([a, b]) = $val.as_array().and_then(|s| <&[_; 2]>::try_from(s).ok()) {
                return Ok($ty::$variant(
                    <$t0 as $crate::json::FromJson>::from_json(a)?,
                    <$t1 as $crate::json::FromJson>::from_json(b)?,
                ));
            }
            return Err($crate::json::JsonError(format!(
                "variant {} expects a 2-element array",
                stringify!($variant)
            )));
        }
    };
    ($tag:expr, $val:expr, $ty:ident, tuple $variant:ident ($t0:ty, $t1:ty, $t2:ty)) => {
        if $tag == stringify!($variant) {
            if let Some([a, b, c]) = $val.as_array().and_then(|s| <&[_; 3]>::try_from(s).ok()) {
                return Ok($ty::$variant(
                    <$t0 as $crate::json::FromJson>::from_json(a)?,
                    <$t1 as $crate::json::FromJson>::from_json(b)?,
                    <$t2 as $crate::json::FromJson>::from_json(c)?,
                ));
            }
            return Err($crate::json::JsonError(format!(
                "variant {} expects a 3-element array",
                stringify!($variant)
            )));
        }
    };
    ($tag:expr, $val:expr, $ty:ident, record $variant:ident { $($fname:ident : $fty:ty),+ $(,)? }) => {
        if $tag == stringify!($variant) {
            $(let $fname = $crate::json::field::<$fty>($val, stringify!($fname))?;)+
            return Ok($ty::$variant { $($fname),+ });
        }
    };
}

/// Builds a [`Json`] object literal from `"key": value` pairs, where
/// each value is anything implementing [`ToJson`].
///
/// ```
/// let j = netarch_rt::jobj! { "n": 3u32, "name": "simon" };
/// assert_eq!(j.dump(), r#"{"n":3,"name":"simon"}"#);
/// ```
#[macro_export]
macro_rules! jobj {
    { $($key:literal : $value:expr),* $(,)? } => {
        $crate::json::Json::Obj(vec![
            $(($key.to_string(), $crate::json::ToJson::to_json(&$value)),)*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(parse("1e9").unwrap(), Json::Num(1e9));
        assert_eq!(parse("-2.5e-3").unwrap(), Json::Num(-0.0025));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "", "nul", "tru", "01", "1.", ".5", "1e", "+1", "[1,]", "[1 2]",
            "{\"a\":}", "{\"a\" 1}", "{a:1}", "\"\\x\"", "\"unterminated",
            "1 2", "[1]]",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":"x"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.dump(), text);
        assert_eq!(parse(&v.dump_pretty()).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "tab\tnewline\nquote\"backslash\\bell\u{7}unicode\u{1F600}é";
        let j = Json::Str(s.to_string());
        assert_eq!(
            j.dump(),
            "\"tab\\tnewline\\nquote\\\"backslash\\\\bell\\u0007unicode\u{1F600}é\""
        );
        assert_eq!(parse(&j.dump()).unwrap(), j);
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn index_chains() {
        let v = parse(r#"{"a":{"b":[10,20]}}"#).unwrap();
        assert_eq!(v["a"]["b"][1].as_u64(), Some(20));
        assert!(v["missing"]["also"].is_null());
    }

    #[test]
    fn integral_floats_print_without_point() {
        assert_eq!(Json::Num(3.0).dump(), "3");
        assert_eq!(Json::Num(-7.0).dump(), "-7");
        assert_eq!(Json::Num(2.5).dump(), "2.5");
        assert_eq!(Json::Num(1e9).dump(), "1000000000");
    }

    #[test]
    fn tree_conversion_reads_back_the_emitted_text() {
        let m: BTreeMap<String, Vec<f64>> = [("k".to_string(), vec![1.0, 0.5])].into();
        assert_eq!(
            to_value(&m),
            Json::Obj(vec![(
                "k".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(0.5)])
            )])
        );
        // Deeper than the parser's input limit: the tree still builds.
        let deep = (0..2 * MAX_DEPTH).fold(Json::Null, |j, _| Json::Arr(vec![j]));
        assert_eq!(to_value(&Some(deep.clone())), deep);
    }

    #[test]
    fn option_and_missing_fields() {
        #[derive(Debug, Clone, PartialEq)]
        struct S {
            a: u32,
            b: Option<String>,
        }
        impl_json_struct!(S { a, b });
        let s: S = from_str(r#"{"a":1}"#).unwrap();
        assert_eq!(s, S { a: 1, b: None });
        let s: S = from_str(r#"{"a":1,"b":"x"}"#).unwrap();
        assert_eq!(s.b.as_deref(), Some("x"));
        assert!(from_str::<S>(r#"{"b":"x"}"#).is_err(), "missing `a`");
    }

    #[test]
    fn enum_shapes_roundtrip() {
        #[derive(Debug, Clone, PartialEq)]
        enum E {
            U,
            One(u32),
            Two(u32, bool),
            Three(String, u32, f64),
            Rec { x: u32, y: Option<u32> },
        }
        impl_json_enum!(E {
            unit U,
            one One(u32),
            tuple Two(u32, bool),
            tuple Three(String, u32, f64),
            record Rec { x: u32, y: Option<u32> },
        });
        let cases = vec![
            (E::U, r#""U""#),
            (E::One(5), r#"{"One":5}"#),
            (E::Two(1, true), r#"{"Two":[1,true]}"#),
            (E::Three("s".into(), 2, 0.5), r#"{"Three":["s",2,0.5]}"#),
            (
                E::Rec { x: 9, y: None },
                r#"{"Rec":{"x":9,"y":null}}"#,
            ),
        ];
        for (value, expect) in cases {
            assert_eq!(to_string(&value), expect);
            assert_eq!(from_str::<E>(expect).unwrap(), value);
        }
        assert!(from_str::<E>(r#""Nope""#).is_err());
        assert!(from_str::<E>(r#"{"One":"x"}"#).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        let m: BTreeMap<String, Vec<u32>> =
            [("a".to_string(), vec![1, 2]), ("b".to_string(), vec![])]
                .into_iter()
                .collect();
        let text = to_string(&m);
        assert_eq!(text, r#"{"a":[1,2],"b":[]}"#);
        assert_eq!(from_str::<BTreeMap<String, Vec<u32>>>(&text).unwrap(), m);

        let r = 3u32..44u32;
        let text = to_string(&r);
        assert_eq!(text, r#"{"start":3,"end":44}"#);
        assert_eq!(from_str::<Range<u32>>(&text).unwrap(), r);

        let s: BTreeSet<String> = ["b".to_string(), "a".to_string()].into();
        assert_eq!(to_string(&s), r#"["a","b"]"#);
    }

    #[test]
    fn jobj_macro() {
        let j = jobj! { "k": 1u64, "nested": jobj! { "v": "s" } };
        assert_eq!(j.dump(), r#"{"k":1,"nested":{"v":"s"}}"#);
    }
}
