//! The `events.jsonl` codec: one [`RawEvent`] per line, read and written
//! against the event's schema directly rather than through a JSON value
//! tree.
//!
//! The reader accepts exactly the lines the workspace's `serde_json`
//! accepts for a `RawEvent` and decodes them to the same events: any JSON
//! whitespace and member order, unknown members (skipped, but still checked
//! to be JSON nested at most [`MAX_DEPTH`] deep), `-0` and leading zeros in
//! integers, CRLF line ends, and blank lines. The one difference is
//! deliberate: a field given twice in one object is rejected, as real
//! serde_json rejects it. Keys and strings without escapes are borrowed
//! from the line; only the segment and resource names the returned events
//! own are allocated. Every error names its 1-based line and the byte
//! within that line.
//!
//! The writer renders each event into one reused line buffer, with the
//! same bytes `serde_json::to_writer` renders, and writes each line with
//! one `write_all`.

use std::io::{self, BufRead, Write};

use super::{RawEvent, RawEventKind, RawPath};

/// Nesting bound of skipped values; the event object is depth 0. The
/// decoder recurses into skipped values, and a line is untrusted.
const MAX_DEPTH: usize = 128;

/// The `RawEventKind` variants, as tagged in a line.
const VARIANTS: [&str; 4] = ["PhaseStart", "PhaseEnd", "BlockStart", "BlockEnd"];

/// Reads every event of a JSON-lines stream.
pub(super) fn read<R: BufRead>(mut r: R) -> io::Result<Vec<RawEvent>> {
    let (mut line, mut scratch, mut out) = (Vec::new(), Scratch::default(), Vec::new());
    for number in 1usize.. {
        line.clear();
        if r.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let bytes = match line.strip_suffix(b"\n") {
            Some(body) => body.strip_suffix(b"\r").unwrap_or(body),
            None => &line,
        };
        let event = match std::str::from_utf8(bytes) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => Line {
                text,
                pos: 0,
                scratch: &mut scratch,
            }
            .event(),
            Err(e) => Err(format!("invalid UTF-8 at byte {}", e.valid_up_to())),
        };
        out.push(event.map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {number}: {e}"))
        })?);
    }
    Ok(out)
}

/// Writes `events` as JSON lines.
pub(super) fn write<W: Write>(events: &[RawEvent], mut w: W) -> io::Result<()> {
    let mut line = Vec::new();
    for ev in events {
        line.clear();
        line.extend_from_slice(b"{\"time\":");
        push_uint(&mut line, ev.time);
        line.extend_from_slice(b",\"machine\":");
        push_uint(&mut line, ev.machine.into());
        line.extend_from_slice(b",\"thread\":");
        push_uint(&mut line, ev.thread.into());
        line.extend_from_slice(b",\"kind\":{");
        match &ev.kind {
            RawEventKind::PhaseStart { path } => push_path(&mut line, VARIANTS[0], path),
            RawEventKind::PhaseEnd { path } => push_path(&mut line, VARIANTS[1], path),
            RawEventKind::BlockStart { resource } => {
                push_resource(&mut line, VARIANTS[2], resource)
            }
            RawEventKind::BlockEnd { resource } => push_resource(&mut line, VARIANTS[3], resource),
        }
        line.extend_from_slice(b"}}\n");
        w.write_all(&line)?;
    }
    Ok(())
}

fn push_path(out: &mut Vec<u8>, variant: &str, path: &RawPath) {
    push_str(out, variant);
    out.extend_from_slice(b":{\"path\":[");
    for (i, (name, key)) in path.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        push_str(out, name);
        out.push(b',');
        push_uint(out, (*key).into());
        out.push(b']');
    }
    out.extend_from_slice(b"]}");
}

fn push_resource(out: &mut Vec<u8>, variant: &str, resource: &str) {
    push_str(out, variant);
    out.extend_from_slice(b":{\"resource\":");
    push_str(out, resource);
    out.push(b'}');
}

fn push_uint(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// A JSON string literal: `\"`, `\\`, the named escapes for `\n`, `\r`,
/// `\t`, backspace and form feed, `\u00xx` for the other control bytes,
/// everything else (`DEL` and non-ASCII included) as it is.
fn push_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&s.as_bytes()[start..i]);
        if named.is_empty() {
            out.extend_from_slice(&[b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)]]);
            out.push(HEX[usize::from(b & 0xf)]);
        } else {
            out.extend_from_slice(named);
        }
        start = i + 1;
    }
    out.extend_from_slice(&s.as_bytes()[start..]);
    out.push(b'"');
}

/// Buffers the reader reuses from line to line.
#[derive(Default)]
struct Scratch {
    /// The unescaped text of the last string that held an escape.
    text: String,
    /// The segments of the path being read.
    path: RawPath,
}

/// A decode failure, already worded with its byte: "… at byte N".
type Decoded<T> = Result<T, String>;

fn fail<T>(at: usize, what: impl std::fmt::Display) -> Decoded<T> {
    Err(format!("{what} at byte {at}"))
}

/// A number as the JSON grammar of the format reads it.
enum Number {
    /// Written without sign, fraction or exponent.
    UInt(u64),
    /// Written with a `-` and without fraction or exponent.
    Int(i64),
    /// Written with a fraction or an exponent, or an integer beyond 64 bits.
    Float,
}

/// One line being decoded.
struct Line<'a> {
    text: &'a str,
    /// The next byte to read.
    pos: usize,
    scratch: &'a mut Scratch,
}

impl Line<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` or fails with `what`.
    fn expect(&mut self, byte: u8, what: &str) -> Decoded<()> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            fail(self.pos, what)
        }
    }

    /// What the value at the cursor is, for an error message.
    fn found(&self) -> &'static str {
        match self.peek() {
            Some(b'"') => "a string",
            Some(b'[') => "an array",
            Some(b'{') => "an object",
            Some(b't' | b'f') => "a boolean",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "a number",
            Some(_) => "an unexpected character",
            None => "the end of the line",
        }
    }

    fn event(mut self) -> Decoded<RawEvent> {
        let (mut time, mut machine, mut thread, mut kind) = (None, None, None, None);
        self.expect(b'{', "expected an object")?;
        let end = self.object(0, &["time", "machine", "thread", "kind"], |line, field| {
            match field {
                0 => time = Some(line.uint()?),
                1 => machine = Some(line.uint()?),
                2 => thread = Some(line.uint()?),
                _ => kind = Some(line.kind()?),
            }
            Ok(())
        })?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return fail(self.pos, "trailing characters");
        }
        let missing = |name| format!("missing field `{name}` at byte {end}");
        Ok(RawEvent {
            time: time.ok_or_else(|| missing("time"))?,
            machine: machine.ok_or_else(|| missing("machine"))?,
            thread: thread.ok_or_else(|| missing("thread"))?,
            kind: kind.ok_or_else(|| missing("kind"))?,
        })
    }

    /// Reads the members of an object at nesting `depth`, its `{` just
    /// consumed. A member named in `fields` is handed to `field` with its
    /// index, the cursor on its value; it may appear once. Every other
    /// member is skipped. Returns the position of the closing `}`.
    fn object(
        &mut self,
        depth: usize,
        fields: &[&str],
        mut field: impl FnMut(&mut Self, usize) -> Decoded<()>,
    ) -> Decoded<usize> {
        let mut seen = 0u32;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(self.pos - 1);
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            if self.peek() != Some(b'"') {
                return fail(at, "expected a string key");
            }
            let key = self.string()?;
            let known = fields.iter().position(|&name| name == key);
            self.expect(b':', "expected `:`")?;
            match known {
                Some(i) if seen & 1 << i != 0 => {
                    return fail(at, format_args!("duplicate field `{}`", fields[i]))
                }
                Some(i) => {
                    seen |= 1 << i;
                    self.skip_ws();
                    field(self, i)?;
                }
                None => self.skip_value(depth + 1)?,
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(self.pos - 1);
                }
                _ => return fail(self.pos, "expected `,` or `}`"),
            }
        }
    }

    /// Reads an integer field: `-0` is zero, leading zeros are allowed,
    /// and a float is rejected even when it is whole.
    fn uint<T: TryFrom<u64>>(&mut self) -> Decoded<T> {
        let at = self.pos;
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return fail(
                at,
                format_args!("expected an unsigned integer, found {}", self.found()),
            );
        }
        let n = match self.number()? {
            Number::UInt(n) => Some(n),
            Number::Int(n) => u64::try_from(n).ok(),
            Number::Float => return fail(at, "expected an unsigned integer, found a float"),
        };
        match n.and_then(|n| T::try_from(n).ok()) {
            Some(n) => Ok(n),
            None => fail(
                at,
                format_args!("integer out of range for {}", std::any::type_name::<T>()),
            ),
        }
    }

    /// Reads the number at the cursor: a `-` or a digit, then every byte
    /// among digits, `.`, `e`, `E`, `+` and `-`. Without any of the last
    /// five it is an integer; one beyond 64 bits, or one with them, must be
    /// a finite float.
    fn number(&mut self) -> Decoded<Number> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let int = match (float, negative) {
            (true, _) => None,
            (false, true) => text.parse().ok().map(Number::Int),
            (false, false) => text.parse().ok().map(Number::UInt),
        };
        match int {
            Some(n) => Ok(n),
            None if text.parse::<f64>().is_ok_and(f64::is_finite) => Ok(Number::Float),
            None => fail(start, "invalid number"),
        }
    }

    /// Reads the string at the cursor (on its `"`). It is borrowed from the
    /// line unless it holds an escape; then it is unescaped into the
    /// scratch buffer.
    fn string(&mut self) -> Decoded<&str> {
        let bytes = self.text.as_bytes();
        let run_end = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
                .map_or(bytes.len(), |n| from + n)
        };
        let start = self.pos + 1;
        let mut end = run_end(start);
        if bytes.get(end) == Some(&b'"') {
            self.pos = end + 1;
            return Ok(&self.text[start..end]);
        }
        self.scratch.text.clear();
        let mut from = start;
        loop {
            self.scratch.text.push_str(&self.text[from..end]);
            self.pos = end + 1;
            match bytes.get(end) {
                Some(b'"') => return Ok(&self.scratch.text),
                Some(b'\\') => {
                    let c = self.escape()?;
                    self.scratch.text.push(c);
                }
                Some(_) => return fail(end, "control character in string"),
                None => return fail(end, "unterminated string"),
            }
            from = self.pos;
            end = run_end(from);
        }
    }

    /// Decodes the escape after a `\`. A `\u` high surrogate takes the
    /// `\u` low surrogate after it.
    fn escape(&mut self) -> Decoded<char> {
        let at = self.pos;
        let byte = self.peek();
        self.pos += 1;
        Ok(match byte {
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
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return fail(self.pos, "unpaired surrogate");
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                match char::from_u32(code) {
                    Some(c) => c,
                    None => return fail(self.pos, "unpaired surrogate"),
                }
            }
            _ => return fail(at, "invalid escape"),
        })
    }

    /// Reads the four bytes of a `\u` escape as `u32::from_str_radix` reads
    /// them.
    fn hex4(&mut self) -> Decoded<u32> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .and_then(|digits| u32::from_str_radix(digits, 16).ok());
        match code {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => fail(self.pos, "invalid \\u escape"),
        }
    }

    /// Reads a `RawEventKind`: an object with one member, a variant tag
    /// whose value is an object holding that variant's field.
    fn kind(&mut self) -> Decoded<RawEventKind> {
        let at = self.pos;
        self.expect(b'{', "expected a variant of RawEventKind")?;
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return fail(at, "expected a variant of RawEventKind");
        }
        let tag = self.string()?;
        let Some(variant) = VARIANTS.iter().position(|&v| v == tag) else {
            return fail(at, format_args!("unknown variant `{tag}` of RawEventKind"));
        };
        self.expect(b':', "expected `:`")?;
        let kind = match variant {
            0 => RawEventKind::PhaseStart {
                path: self.variant("path", Self::path)?,
            },
            1 => RawEventKind::PhaseEnd {
                path: self.variant("path", Self::path)?,
            },
            2 => RawEventKind::BlockStart {
                resource: self.variant("resource", Self::owned_string)?,
            },
            _ => RawEventKind::BlockEnd {
                resource: self.variant("resource", Self::owned_string)?,
            },
        };
        self.expect(b'}', "expected `}` after the one variant of RawEventKind")?;
        Ok(kind)
    }

    /// Reads a variant's content, an object at depth 2, with its one
    /// field `name` read by `read`.
    fn variant<T>(&mut self, name: &str, read: fn(&mut Self) -> Decoded<T>) -> Decoded<T> {
        self.expect(b'{', "expected an object")?;
        let mut value = None;
        let end = self.object(2, &[name], |line, _| {
            value = Some(read(line)?);
            Ok(())
        })?;
        match value {
            Some(value) => Ok(value),
            None => fail(end, format_args!("missing field `{name}`")),
        }
    }

    fn owned_string(&mut self) -> Decoded<String> {
        if self.peek() != Some(b'"') {
            return fail(
                self.pos,
                format_args!("expected a string, found {}", self.found()),
            );
        }
        self.string().map(str::to_owned)
    }

    /// Reads a path: an array of `[name, key]` pairs.
    fn path(&mut self) -> Decoded<RawPath> {
        if self.peek() != Some(b'[') {
            return fail(
                self.pos,
                format_args!("expected an array, found {}", self.found()),
            );
        }
        self.pos += 1;
        self.scratch.path.clear();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(RawPath::new());
        }
        loop {
            self.expect(b'[', "expected a `[name, key]` pair")?;
            self.skip_ws();
            let name = self.owned_string()?;
            self.expect(b',', "expected `,` in a `[name, key]` pair")?;
            self.skip_ws();
            let key = self.uint()?;
            self.expect(b']', "expected `]` closing a `[name, key]` pair")?;
            self.scratch.path.push((name, key));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(self.scratch.path.drain(..).collect());
                }
                _ => return fail(self.pos, "expected `,` or `]`"),
            }
        }
    }

    /// Checks and skips any JSON value at nesting `depth`.
    fn skip_value(&mut self, depth: usize) -> Decoded<()> {
        if depth > MAX_DEPTH {
            return fail(self.pos, "nesting too deep");
        }
        self.skip_ws();
        let literal = |line: &mut Self, text: &str| {
            if line.text[line.pos..].starts_with(text) {
                line.pos += text.len();
                Ok(())
            } else {
                fail(line.pos, "invalid literal")
            }
        };
        match self.peek() {
            None => fail(self.pos, "unexpected end of input"),
            Some(b'n') => literal(self, "null"),
            Some(b't') => literal(self, "true"),
            Some(b'f') => literal(self, "false"),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return fail(self.pos, "expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.object(depth, &[], |_, _| Ok(())).map(drop)
            }
            Some(_) => fail(self.pos, "unexpected character"),
        }
    }
}

/// The line decode the codec replaced, through the JSON value tree, kept
/// verbatim as the oracle of the tests below.
#[cfg(test)]
fn read_by_value<R: BufRead>(r: R) -> io::Result<Vec<RawEvent>> {
    let mut out = Vec::new();
    for line in r.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(serde_json::from_str(&line).map_err(std::io::Error::other)?);
    }
    Ok(out)
}

/// The writer the codec replaced, kept verbatim as the oracle of the tests
/// below.
#[cfg(test)]
fn write_by_value<W: Write>(events: &[RawEvent], mut w: W) -> io::Result<()> {
    for ev in events {
        serde_json::to_writer(&mut w, ev)?;
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;

    /// What names are drawn from: every escape class, `/`, `DEL`, Unicode
    /// whitespace and one- to four-byte UTF-8.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '/', '"', '\\', '\t', '\n', '\r', '\u{8}', '\u{c}', '\u{0}', '\u{1}',
        '\u{1f}', '\u{7f}', 'é', 'α', '☃', '😀', '\u{a0}', '\u{2028}',
    ];

    fn name(rng: &mut ChaCha8Rng) -> String {
        let len = rng.gen_range(0..6);
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    /// A value in `0..=max`, often one of the extremes.
    fn uint(rng: &mut ChaCha8Rng, max: u64) -> u64 {
        match rng.gen_range(0..4) {
            0 => 0,
            1 => max,
            2 => rng.gen_range(0..10),
            _ => rng.gen::<u64>() % max,
        }
    }

    fn event(rng: &mut ChaCha8Rng) -> RawEvent {
        let path = |rng: &mut ChaCha8Rng| {
            let depth = rng.gen_range(0..5);
            (0..depth)
                .map(|_| (name(rng), uint(rng, u32::MAX.into()) as u32))
                .collect()
        };
        let kind = match rng.gen_range(0..4) {
            0 => RawEventKind::PhaseStart { path: path(rng) },
            1 => RawEventKind::PhaseEnd { path: path(rng) },
            2 => RawEventKind::BlockStart {
                resource: name(rng),
            },
            _ => RawEventKind::BlockEnd {
                resource: name(rng),
            },
        };
        RawEvent {
            time: uint(rng, u64::MAX),
            machine: uint(rng, u16::MAX.into()) as u16,
            thread: uint(rng, u16::MAX.into()) as u16,
            kind,
        }
    }

    fn stream(rng: &mut ChaCha8Rng) -> Vec<RawEvent> {
        let len = rng.gen_range(0..30);
        (0..len).map(|_| event(rng)).collect()
    }

    fn written(events: &[RawEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        write(events, &mut out).unwrap();
        out
    }

    /// Decodes `bytes` with the codec and the oracle and checks the
    /// contract: the same events, or an `InvalidData` error where the
    /// oracle fails too or the codec found a repeated field. Returns
    /// whether the codec accepted.
    fn agree(bytes: &[u8]) -> bool {
        match (read(bytes), read_by_value(bytes)) {
            (Ok(ours), Ok(oracle)) => {
                assert_eq!(ours, oracle, "{}", String::from_utf8_lossy(bytes));
                true
            }
            (Err(e), oracle) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                assert!(e.to_string().starts_with("line "), "{e}");
                if oracle.is_ok() {
                    assert!(e.to_string().contains("duplicate field"), "{e}");
                }
                false
            }
            (Ok(ours), Err(e)) => panic!(
                "accepted what the oracle rejects ({e}): {}\n{ours:?}",
                String::from_utf8_lossy(bytes)
            ),
        }
    }

    #[test]
    fn writer_matches_the_oracle_byte_for_byte() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let mut adversarial: Vec<String> =
            (0..=0x80u8).map(|b| char::from(b).to_string()).collect();
        adversarial
            .extend(["", "é☃😀", "\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}"].map(String::from));
        adversarial.push(adversarial.concat());
        let mut cases: Vec<Vec<RawEvent>> = (0..200).map(|_| stream(&mut rng)).collect();
        cases.push(
            adversarial
                .iter()
                .flat_map(|s| {
                    let at = |kind| RawEvent {
                        time: u64::MAX,
                        machine: u16::MAX,
                        thread: 0,
                        kind,
                    };
                    [
                        at(RawEventKind::BlockStart {
                            resource: s.clone(),
                        }),
                        at(RawEventKind::PhaseEnd {
                            path: vec![(s.clone(), u32::MAX), (s.repeat(3), 0)],
                        }),
                    ]
                })
                .collect(),
        );
        for events in cases {
            let mut oracle = Vec::new();
            write_by_value(&events, &mut oracle).unwrap();
            let ours = written(&events);
            assert!(
                ours == oracle,
                "{}\n{}",
                String::from_utf8_lossy(&ours),
                String::from_utf8_lossy(&oracle)
            );
            assert_eq!(read(ours.as_slice()).unwrap(), events);
        }
    }

    /// Written streams with CRLF line ends, blank and whitespace-only lines
    /// and no final newline read back as the oracle reads them.
    #[test]
    fn reader_matches_the_oracle_on_random_streams() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x10ad);
        for _ in 0..200 {
            let events = stream(&mut rng);
            let mut text = Vec::new();
            for line in written(&events).split_inclusive(|&b| b == b'\n') {
                if rng.gen_bool(0.2) {
                    let blank = ["", " \t", "\r", "\u{a0}\u{3000}\u{2028}", "\u{b}\u{c}"];
                    text.extend_from_slice(blank[rng.gen_range(0..blank.len())].as_bytes());
                    text.extend_from_slice(if rng.gen_bool(0.5) { b"\r\n" } else { b"\n" });
                }
                let body = &line[..line.len() - 1];
                text.extend_from_slice(body);
                text.extend_from_slice(if rng.gen_bool(0.5) { b"\r\n" } else { b"\n" });
            }
            if rng.gen_bool(0.5) && text.ends_with(b"\n") {
                text.pop();
            }
            assert!(agree(&text));
            assert_eq!(read(text.as_slice()).unwrap(), events);
        }
    }

    /// Renders events the way another writer might: random whitespace,
    /// member order, escapes and integer spellings, and unknown members
    /// holding nested values. Now and then a token is spelt in a way the
    /// format may or may not accept: a float or out-of-range integer, a
    /// malformed escape or literal, nesting near the depth bound, a
    /// missing member, a wrong variant.
    struct Render<'r> {
        rng: &'r mut ChaCha8Rng,
        out: String,
    }

    /// An object member for [`Render::object`]: its key and what renders
    /// its value.
    type Member<'m, 'r> = (&'m str, Box<dyn Fn(&mut Render<'r>) + 'm>);

    impl<'r> Render<'r> {
        fn odd(&mut self) -> bool {
            self.rng.gen_bool(0.006)
        }

        fn pick<'s>(&mut self, from: &[&'s str]) -> &'s str {
            from[self.rng.gen_range(0..from.len())]
        }

        fn ws(&mut self) {
            while self.rng.gen_bool(0.3) {
                let ws = self.pick(&[" ", "\t", "\r", "  "]);
                self.out.push_str(ws);
            }
            if self.odd() {
                let ws = self.pick(&["\u{a0}", "\u{b}", "\u{0}"]);
                self.out.push_str(ws);
            }
        }

        fn string(&mut self, s: &str) {
            self.out.push('"');
            for c in s.chars() {
                let escaped = self.rng.gen_bool(0.15);
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '/' if escaped => self.out.push_str("\\/"),
                    '\n' if escaped => self.out.push_str("\\n"),
                    '\t' if escaped => self.out.push_str("\\t"),
                    '\u{0}'..='\u{1f}' | '\u{80}'.. if escaped || c < ' ' => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            if self.rng.gen_bool(0.5) {
                                let _ = write!(self.out, "\\u{unit:04x}");
                            } else {
                                let _ = write!(self.out, "\\u{unit:04X}");
                            }
                        }
                    }
                    c if escaped => {
                        let _ = write!(self.out, "\\u{:04x}", u32::from(c));
                    }
                    c => self.out.push(c),
                }
            }
            if self.odd() {
                let bad = self.pick(&[
                    "\\x",
                    "\\",
                    "\\u12",
                    "\\u+041",
                    "\\ud800",
                    "\\udc00",
                    "\\ud800\\u0041",
                    "\\ud83d\\ude00",
                    "\u{1}",
                    "\\u00e9",
                ]);
                self.out.push_str(bad);
            }
            self.out.push('"');
        }

        fn int(&mut self, n: u64) {
            if self.odd() {
                let spelling = self.pick(&[
                    "1.0",
                    "1e3",
                    "18446744073709551616",
                    "70000",
                    "-1",
                    "-00",
                    "1-",
                    "--0",
                    "+1",
                    ".5",
                    "0x1",
                    "1E+2",
                    "4294967296",
                    "65536",
                    "",
                ]);
                self.out.push_str(spelling);
                return;
            }
            match self.rng.gen_range(0..8) {
                0 if n == 0 => {
                    let zero = self.pick(&["-0", "-000", "00"]);
                    self.out.push_str(zero);
                }
                1 => {
                    let _ = write!(self.out, "00{n}");
                }
                _ => {
                    let _ = write!(self.out, "{n}");
                }
            }
        }

        /// A JSON value for an unknown member.
        fn value(&mut self, depth: usize) {
            if depth == 0 && self.odd() {
                let nest = self.rng.gen_range(125..131);
                self.out.push_str(&"[".repeat(nest));
                self.out.push('1');
                self.out.push_str(&"]".repeat(nest));
                return;
            }
            let scalar = depth > 3 || self.rng.gen_bool(0.5);
            self.ws();
            match self.rng.gen_range(0..if scalar { 4 } else { 6 }) {
                0 => {
                    let literal = self.pick(&["null", "true", "false", "-0.0", "1.5e-3", "12"]);
                    self.out.push_str(literal);
                }
                1 => {
                    let n = self.rng.gen::<u64>();
                    self.int(n);
                }
                2 => {
                    let s = name(self.rng);
                    self.string(&s);
                }
                3 if self.odd() => {
                    let bad = self.pick(&["tru", "nul", "1e999", "[1,]", "{\"a\" 1}", "-", "{,}"]);
                    self.out.push_str(bad);
                }
                3 => self.out.push_str("[]"),
                4 => {
                    self.out.push('[');
                    for i in 0..self.rng.gen_range(0..4) {
                        if i > 0 {
                            self.out.push(',');
                        }
                        self.value(depth + 1);
                    }
                    self.ws();
                    self.out.push(']');
                }
                _ => {
                    self.out.push('{');
                    for i in 0..self.rng.gen_range(0..4) {
                        if i > 0 {
                            self.out.push(',');
                        }
                        self.ws();
                        let key = name(self.rng);
                        self.string(&key);
                        self.ws();
                        self.out.push(':');
                        self.value(depth + 1);
                    }
                    self.ws();
                    self.out.push('}');
                }
            }
            self.ws();
        }

        /// An object of `members`, each rendered by its closure, in a
        /// random order among up to two unknown members; now and then one
        /// member is left out.
        fn object(&mut self, mut members: Vec<Member<'_, 'r>>) {
            for _ in 0..self.rng.gen_range(0..3) {
                members.push(("x-unknown", Box::new(|r: &mut Self| r.value(0))));
            }
            for i in (1..members.len()).rev() {
                members.swap(i, self.rng.gen_range(0..=i));
            }
            if self.odd() && !members.is_empty() {
                members.pop();
            }
            self.ws();
            self.out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.ws();
                let key = if *key == "x-unknown" {
                    format!("x{}", name(self.rng))
                } else {
                    key.to_string()
                };
                self.string(&key);
                self.ws();
                self.out.push(':');
                self.ws();
                member(self);
                self.ws();
            }
            self.out.push('}');
            self.ws();
        }

        fn path(&mut self, path: &RawPath) {
            self.out.push('[');
            for (i, (name, key)) in path.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.ws();
                self.out.push('[');
                self.ws();
                self.string(name);
                self.ws();
                self.out.push(',');
                self.ws();
                self.int((*key).into());
                if self.odd() {
                    self.out.push_str(",1");
                }
                self.ws();
                self.out.push(']');
                self.ws();
            }
            self.out.push(']');
        }

        fn kind(&mut self, kind: &RawEventKind) {
            let (variant, content): Member<'_, 'r> = match kind {
                RawEventKind::PhaseStart { path } => {
                    ("PhaseStart", Box::new(|r: &mut Self| r.path(path)))
                }
                RawEventKind::PhaseEnd { path } => {
                    ("PhaseEnd", Box::new(|r: &mut Self| r.path(path)))
                }
                RawEventKind::BlockStart { resource } => {
                    ("BlockStart", Box::new(|r: &mut Self| r.string(resource)))
                }
                RawEventKind::BlockEnd { resource } => {
                    ("BlockEnd", Box::new(|r: &mut Self| r.string(resource)))
                }
            };
            let field = if variant.starts_with("Phase") {
                "path"
            } else {
                "resource"
            };
            let variant = if self.odd() {
                self.pick(&["Phase", "blockEnd", "PhaseEnd"])
            } else {
                variant
            };
            if self.odd() {
                self.string(variant);
                return;
            }
            self.out.push('{');
            self.ws();
            self.string(variant);
            self.ws();
            self.out.push(':');
            self.object(vec![(field, content)]);
            if self.odd() {
                self.out.push_str(",\"BlockEnd\":{\"resource\":\"\"}");
            }
            self.out.push('}');
        }

        fn event(&mut self, ev: &RawEvent) {
            if self.odd() {
                self.ws();
            }
            self.object(vec![
                ("time", Box::new(|r: &mut Self| r.int(ev.time))),
                ("machine", Box::new(|r: &mut Self| r.int(ev.machine.into()))),
                ("thread", Box::new(|r: &mut Self| r.int(ev.thread.into()))),
                ("kind", Box::new(|r: &mut Self| r.kind(&ev.kind))),
            ]);
        }
    }

    /// Lines spelt by [`Render`] decode as the oracle decodes them: both
    /// accept with the same event, or both reject.
    #[test]
    fn reader_matches_the_oracle_on_perturbed_lines() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9e47);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..3000 {
            let ev = event(&mut rng);
            let mut render = Render {
                rng: &mut rng,
                out: String::new(),
            };
            render.event(&ev);
            if agree(render.out.as_bytes()) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted >= 1500 && rejected >= 600,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    /// Single spellings at the edges of the grammar, each accepted or
    /// rejected as the oracle does.
    #[test]
    fn edge_spellings_agree_with_the_oracle() {
        let line = |time: &str, extra: &str, kind: &str| {
            format!(r#"{{"time":{time},"machine":0,"thread":0{extra},"kind":{kind}}}"#)
        };
        let block = r#"{"BlockEnd":{"resource":"r"}}"#;
        let accepted = [
            line("-0", "", block),
            line("-000", "", block),
            line("007", "", block),
            line("18446744073709551615", "", block),
            line("1", r#","x":1e3"#, block),
            line("1", r#","x":-0.0"#, block),
            line("1", r#","x":1.5E+2"#, block),
            line("1", r#","x":["\u+041","\ud83d\ude00","\/",{}]"#, block),
            line("1", "", r#"{"PhaseEnd":{"path":[],"resource":7}}"#),
            line("1", "", r#"{"BlockEnd":{"path":[],"resource":"\u0072"}}"#),
            line(
                "1",
                "\r\t ",
                "\t{ \"BlockEnd\" :\r{\"resource\"\t:\"r\" } }\r",
            ),
            format!(r#"{{"\u0074ime":1,"machine":0,"thread":0,"kind":{block}}}"#),
        ];
        let rejected = [
            line("1.0", "", block),
            line("1e3", "", block),
            line("18446744073709551616", "", block),
            line("-1", "", block),
            line("+1", "", block),
            line("1", r#","x":1e999"#, block),
            line("1", r#","x":01.5.5"#, block),
            line("1", r#","x":"\ud800""#, block),
            line("1", r#","x":"\ud800\u0041""#, block),
            line("1", r#","x":tru"#, block),
            line("1", r#","x":[1,]"#, block),
            line(
                "1",
                "",
                r#"{"BlockEnd":{"resource":"r"},"BlockStart":{"resource":"r"}}"#,
            ),
            line("1", "", r#"{"BlockEnd":{"resource":"r"}"#),
            line("1", "", r#"{}"#),
            line("1", "", r#""BlockEnd""#),
            line("1", "", r#"{"PhaseEnd":{"path":[["a",1,2]]}}"#),
            line("1", "", r#"{"PhaseEnd":{"path":[["a"]]}}"#),
            line("1", "", r#"{"PhaseEnd":{"path":[[1,"a"]]}}"#),
            line("1", "", r#"{"PhaseEnd":{"path":[["a",4294967296]]}}"#),
            line("1", "", r#"{"PhaseEnd":{"resource":"r"}}"#),
            format!("\u{a0}{}", line("1", "", block)),
            format!("{} x", line("1", "", block)),
        ];
        for line in &accepted {
            assert!(agree(line.as_bytes()), "{line}");
        }
        for line in &rejected {
            assert!(!agree(line.as_bytes()), "{line}");
        }
        let machine =
            r#"{"time":1,"machine":70000,"thread":0,"kind":{"BlockEnd":{"resource":"r"}}}"#;
        assert!(!agree(machine.as_bytes()));
    }

    /// A field given twice is rejected, where the oracle picked one of the
    /// two by where it stood.
    #[test]
    fn repeated_fields_are_rejected() {
        for line in [
            r#"{"time":1,"time":2,"machine":0,"thread":0,"kind":{"BlockEnd":{"resource":"r"}}}"#,
            r#"{"time":1,"machine":0,"thread":0,"machine":3,"kind":{"BlockEnd":{"resource":"r"}}}"#,
            r#"{"time":1,"machine":0,"thread":0,"kind":{"BlockEnd":{"resource":"r","resource":"s"}}}"#,
            r#"{"time":1,"machine":0,"thread":0,"kind":{"PhaseEnd":{"path":[],"path":[["a",1]]}}}"#,
            r#"{"time":1,"machine":0,"thread":0,"time":1,"kind":{"BlockEnd":{"resource":"r"}}}"#,
        ] {
            assert!(read_by_value(line.as_bytes()).is_ok(), "{line}");
            let e = read(line.as_bytes()).unwrap_err();
            assert!(
                e.to_string().starts_with("line 1: duplicate field `"),
                "{e}"
            );
            assert!(!agree(line.as_bytes()));
        }
        // Unknown members may repeat, as they may in serde_json.
        let line = r#"{"x":1,"x":{"y":1,"y":2},"time":1,"machine":0,"thread":0,"kind":{"BlockEnd":{"resource":"r"}}}"#;
        assert!(agree(line.as_bytes()));
    }

    /// Errors name the 1-based line, counting blank ones, and the byte
    /// within it.
    #[test]
    fn errors_name_the_line_and_the_byte() {
        let good = r#"{"time":1,"machine":0,"thread":0,"kind":{"BlockEnd":{"resource":"r"}}}"#;
        let cases = [
            (
                r#"{"time":1 "machine":0}"#,
                "expected `,` or `}` at byte 10",
            ),
            (
                r#"{"time":1.0}"#,
                "expected an unsigned integer, found a float at byte 8",
            ),
            (
                r#"{"time":1,"machine":70000}"#,
                "integer out of range for u16 at byte 20",
            ),
            (
                r#"{"time":1,"machine":0,"thread":0}"#,
                "missing field `kind` at byte 32",
            ),
            (
                r#"{"time":1,"machine":0,"thread":0,"kind":{"Phase":{}}}"#,
                "unknown variant `Phase` of RawEventKind at byte 40",
            ),
            ("{\"x\":\"\u{1}\"}", "control character in string at byte 6"),
        ];
        for (bad, message) in cases {
            let text = format!("{good}\n\r\n{good}\r\n{bad}\n{good}\n");
            let e = read(text.as_bytes()).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(e.to_string(), format!("line 4: {message}"));
        }
        let e = read(&b"\n\xff\n"[..]).unwrap_err();
        assert_eq!(e.to_string(), "line 2: invalid UTF-8 at byte 0");
    }

    /// The decoder's fuzz contract: every truncation of a log, single-bit
    /// flips, splices of two lines and nesting far past the bound decode
    /// to the oracle's events or fail with `InvalidData`, never a panic.
    #[test]
    fn damaged_logs_decode_as_the_oracle_or_fail_cleanly() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xf022);
        let events: Vec<RawEvent> = (0..8).map(|_| event(&mut rng)).collect();
        let log = written(&events);
        for cut in 0..=log.len() {
            agree(&log[..cut]);
        }
        let mut flipped = 0;
        for _ in 0..300 {
            let mut bytes = log.clone();
            bytes[rng.gen_range(0..log.len())] ^= 1 << rng.gen_range(0..8);
            flipped += usize::from(!agree(&bytes));
        }
        assert!(flipped >= 200, "only {flipped} of 300 flips rejected");
        let lines: Vec<&[u8]> = log
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        for _ in 0..300 {
            let (a, b) = (
                lines[rng.gen_range(0..lines.len())],
                lines[rng.gen_range(0..lines.len())],
            );
            let spliced = [
                &a[..rng.gen_range(0..=a.len())],
                &b[rng.gen_range(0..=b.len())..],
            ]
            .concat();
            agree(&spliced);
        }
        let deep = |open: &str, close: &str| {
            let nest = 100_000;
            format!(
                r#"{{"x":{}1{},"time":1,"machine":0,"thread":0,"kind":{{"BlockEnd":{{"resource":"r","y":{}{}}}}}}}"#,
                open.repeat(nest),
                close.repeat(nest),
                open.repeat(nest),
                close.repeat(nest)
            )
        };
        for line in [deep("[", "]"), deep("{\"a\":", "}"), deep("[{\"a\":", "}]")] {
            assert!(!agree(line.as_bytes()));
            let e = read(line.as_bytes()).unwrap_err();
            assert!(e.to_string().contains("nesting too deep"), "{e}");
        }
        // The bound itself: an unknown member of the event is depth 1, so
        // 127 arrays around a scalar fit and 128 do not; one of the
        // variant's object is depth 3.
        let nested = |n: usize, in_variant: bool| {
            let value = format!("{}0{}", "[".repeat(n), "]".repeat(n));
            let (x, y) = if in_variant {
                ("0", value.as_str())
            } else {
                (value.as_str(), "0")
            };
            format!(
                r#"{{"x":{x},"time":1,"machine":0,"thread":0,"kind":{{"BlockEnd":{{"resource":"r","y":{y}}}}}}}"#
            )
        };
        assert!(agree(nested(127, false).as_bytes()));
        assert!(!agree(nested(128, false).as_bytes()));
        assert!(agree(nested(125, true).as_bytes()));
        assert!(!agree(nested(126, true).as_bytes()));
    }
}
