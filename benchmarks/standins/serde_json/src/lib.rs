//! Offline stand-in for `serde_json` over the serde stand-in's value tree.
//!
//! Output matches serde_json byte for byte where grade10 depends on it:
//! compact form without spaces, pretty form with two-space indent, `\u00xx`
//! for control characters, non-finite floats as `null`. Floats are written
//! with Rust's shortest round-trip formatting and parsed with the standard
//! library's correctly rounded parser, so every finite `f64` survives a
//! round trip exactly.

use std::fmt::Write as _;
use std::io::{Read, Write};

use serde::{Deserialize, Serialize, Value};

/// A serialization, parse or I/O failure.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is the shortest digits that round-trip, always with a
        // fraction or exponent so the value parses back as a float.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Renders `v`; `indent` is `None` for the compact form, else the current
/// nesting depth of the pretty form.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => write_str(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(depth) = indent {
                    newline(out, depth + 1);
                }
                write_value(out, item, indent.map(|d| d + 1));
            }
            if let (Some(depth), false) = (indent, items.is_empty()) {
                newline(out, depth);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(depth) = indent {
                    newline(out, depth + 1);
                }
                write_str(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, indent.map(|d| d + 1));
            }
            if let (Some(depth), false) = (indent, entries.is_empty()) {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

/// Compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None);
    Ok(out)
}

/// Pretty JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(0));
    Ok(out)
}

/// Compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Writes compact JSON to `writer`.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(|e| Error(format!("write failed: {e}")))
}

/// Nesting bound: input is untrusted and the parser recurses.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error<T>(&self, what: &str) -> Result<T> {
        Err(Error(format!("{what} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            self.error("invalid literal")
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return self.error("nesting too deep");
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.error("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.error("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return self.error("expected a string key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b':') {
                        return self.error("expected `:`");
                    }
                    self.pos += 1;
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return self.error("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.error("unexpected character"),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut float = false;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // The slice holds ASCII digits and punctuation only.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        let parsed = if float {
            None
        } else if text.starts_with('-') {
            text.parse().ok().map(Value::Int)
        } else {
            text.parse().ok().map(Value::UInt)
        };
        // Integers beyond 64 bits fall back to the nearest float, as
        // serde_json does.
        match parsed.or_else(|| {
            text.parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .map(Value::Float)
        }) {
            Some(v) => Ok(v),
            None => {
                self.pos = start;
                self.error("invalid number")
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        match digits {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => self.error("invalid \\u escape"),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(
                self.bytes.get(self.pos),
                None | Some(b'"' | b'\\' | 0x00..=0x1f)
            ) {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.bytes[start..self.pos]) {
                Ok(run) => out.push_str(run),
                Err(_) => return self.error("invalid UTF-8 in string"),
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return self.error("unpaired surrogate");
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            match char::from_u32(code) {
                                Some(c) => c,
                                None => return self.error("unpaired surrogate"),
                            }
                        }
                        _ => return self.error("invalid escape"),
                    });
                }
                Some(_) => return self.error("control character in string"),
                None => return self.error("unterminated string"),
            }
        }
    }
}

/// Parses JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut parser = Parser { bytes, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != bytes.len() {
        return parser.error("trailing characters");
    }
    T::from_value(&value).map_err(|e| Error(e.0))
}

/// Parses JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Reads `reader` to the end and parses it.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| Error(format!("read failed: {e}")))?;
    from_slice(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_match_serde_json_layout() {
        let v = Value::Object(vec![
            (
                "a".to_string(),
                Value::Array(vec![Value::UInt(1), Value::Int(-2)]),
            ),
            ("b".to_string(), Value::Object(Vec::new())),
            ("c".to_string(), Value::Array(Vec::new())),
            ("d".to_string(), Value::Float(8.0)),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":[1,-2],"b":{},"c":[],"d":8.0}"#
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    -2\n  ],\n  \"b\": {},\n  \"c\": [],\n  \"d\": 8.0\n}"
        );
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        let mut x = 0x3ff0_0000_0000_0001u64;
        for _ in 0..20_000 {
            // A cheap LCG walks the bit patterns, subnormals and huge
            // exponents included.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = f64::from_bits(x);
            if !f.is_finite() {
                continue;
            }
            let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f:?}");
        }
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "tab\t quote\" back\\ nl\n bell\u{7} é 😀".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(json, "\"tab\\t quote\\\" back\\\\ nl\\n bell\\u0007 é 😀\"");
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00\u00e9\/""#).unwrap(),
            "😀é/"
        );
    }

    #[test]
    fn numbers_keep_their_kind() {
        assert_eq!(
            from_str::<Value>("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(from_str::<Value>("-3").unwrap(), Value::Int(-3));
        assert_eq!(from_str::<Value>("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(from_str::<Value>("2.5").unwrap(), Value::Float(2.5));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "\"abc",
            "1 2",
            "\"\\x\"",
            "-",
            "[1 2]",
            "\"\\u12\"",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(from_str::<Value>(&deep).is_err());
    }
}
