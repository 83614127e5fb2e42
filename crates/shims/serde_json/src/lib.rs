//! Offline stand-in for [serde_json](https://docs.rs/serde_json).
//!
//! Renders and parses the `serde` shim's [`Value`] model. The renderer
//! is deterministic: object members appear in insertion order (which
//! the derive macro fixes to field-declaration order), so serializing
//! the same data always yields identical bytes — a property the bench
//! cache and report-diffing tests rely on.

use serde::{Deserialize, Serialize, Value};

/// A serialization or parse failure.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Alias matching real serde_json's module-level `Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value as compact JSON.
///
/// # Errors
///
/// Never fails for the shim's value model; the `Result` return matches
/// real serde_json's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes a value as indented JSON (two-space indent, like the real
/// crate's default `PrettyFormatter`).
///
/// # Errors
///
/// Never fails for the shim's value model.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), Some("  "), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into a value of type `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(|e| Error::new(e.to_string()))
}

// ---------------------------------------------------------------- render

fn render(value: &Value, indent: Option<&str>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                out.push_str(&x.to_string());
            } else {
                // JSON has no NaN/Infinity; degrade to null like a
                // lenient encoder rather than poisoning the document.
                out.push_str("null");
            }
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<&str>, depth: usize, out: &mut String) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parse

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(text: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::String),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((unit - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or_else(|| Error::new("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = core::str::from_utf8(rest)
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let text = core::str::from_utf8(slice).map_err(|_| Error::new("invalid \\u escape"))?;
        let unit = u32::from_str_radix(text, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::String("fc \"x\"\n".to_string())),
            ("count".to_string(), Value::U64(u64::MAX - 1)),
            ("delta".to_string(), Value::I64(-5)),
            (
                "items".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null, Value::F64(0.5)]),
            ),
        ]);
        let text = to_string(&ValueCarrier(v.clone())).unwrap();
        let back: ValueCarrier = from_str(&text).unwrap();
        assert_eq!(back.0, v);
    }

    #[test]
    fn pretty_renders_indented() {
        let v = Value::Object(vec![("a".to_string(), Value::Array(vec![Value::U64(1)]))]);
        let text = to_string_pretty(&ValueCarrier(v)).unwrap();
        assert_eq!(text, "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<ValueCarrier>("{\"a\": }").is_err());
        assert!(from_str::<ValueCarrier>("[1, 2").is_err());
        assert!(from_str::<ValueCarrier>("123 456").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        let back: ValueCarrier = from_str("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(back.0, Value::String("é😀".to_string()));
    }

    #[test]
    fn skipped_option_member_parses_omitted_null_and_present() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Section {
            total: u64,
            #[serde(skip_serializing_if = "Option::is_none")]
            extra: Option<u64>,
        }
        let absent = Section {
            total: 1,
            extra: None,
        };
        assert_eq!(to_string(&absent).unwrap(), "{\"total\":1}");
        for (text, extra) in [
            ("{\"total\":1}", None),
            ("{\"total\":1,\"extra\":null}", None),
            ("{\"total\":1,\"extra\":5}", Some(5)),
        ] {
            let back: Section = from_str(text).unwrap();
            assert_eq!(back, Section { total: 1, extra }, "{text}");
        }
    }

    /// Test helper passing a raw `Value` through the trait-based API.
    #[derive(Debug, PartialEq, Clone)]
    struct ValueCarrier(Value);

    impl serde::Serialize for ValueCarrier {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }

    impl serde::Deserialize for ValueCarrier {
        fn from_value(v: &Value) -> std::result::Result<Self, serde::ValueError> {
            Ok(ValueCarrier(v.clone()))
        }
    }
}
