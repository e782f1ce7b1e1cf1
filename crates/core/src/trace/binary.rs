//! Versioned binary trace container: the offline interchange format for
//! event streams and monitoring data, alongside the JSON-lines text forms.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..8)    magic            b"G10TRACE"
//! [8..12)   format version   u32 (currently 1)
//! [12..16)  section count    u32
//! [16..24)  table checksum   u64  FNV-1a over the raw section table
//! [24..)    section table    count × 32-byte entries:
//!             id u32 | reserved u32 | offset u64 | len u64 | crc u64
//! ...       section payloads at their recorded offsets
//! ```
//!
//! Sections (`crc` is FNV-1a over the payload bytes — the same
//! [`crate::hash::fnv1a`] the campaign journal uses):
//!
//! * `STRINGS` (1): `u32` count, then per string `u32` length + UTF-8 bytes.
//!   Deduplicated pool for phase-type names and resource kinds.
//! * `PATHS` (2): `u32` count, then per path `u32` segment count +
//!   per segment (`u32` string id, `u32` instance key). Deduplicated.
//! * `EVENTS` (3): `u32` count, then fixed 20-byte records:
//!   `time u64 | machine u16 | thread u16 | kind u8 | pad [u8; 3] |
//!   payload u32`. Kinds: 0 `PhaseStart` / 1 `PhaseEnd` (payload = path
//!   id), 2 `BlockStart` / 3 `BlockEnd` (payload = string id of the
//!   blocking resource).
//! * `RESOURCES` (4, optional): `u32` count, then per resource
//!   `u32` kind string id | `u32` machine (`u32::MAX` = cluster-global) |
//!   `u64` capacity bits | `u32` measurement count | per measurement
//!   `start u64 | end u64 | avg-bits u64`. Floats travel as
//!   [`f64::to_bits`], so a round trip is exact.
//!
//! Id 5 is retired: it held the key of a stage-cache record, which is no
//! longer a container. Nothing writes it, and the decoder, like for any id
//! it does not know, checks its checksum and ignores it.
//!
//! Damage handling: every structural defect — short header, wrong magic,
//! unsupported version, truncated or overlapping sections, zero-length
//! sections, checksum mismatches, dangling string/path references —
//! returns [`Grade10Error::Serialization`]. Decoding never panics on
//! arbitrary input; `tests/binary_format.rs` fuzzes this contract. The
//! monitoring is returned as written: validating or repairing it is
//! ingestion's job, as for `resources.json`.

use std::path::Path;

use crate::campaign::atomic_write;
use crate::error::Grade10Error;
use crate::hash::fnv1a;
use crate::parse::{EventStream, FirstSeen, RawEvent, Record, RecordKind};
use crate::trace::repair::RawSeries;
use crate::trace::resource::{Measurement, ResourceIdx, ResourceInstance, ResourceTrace};

/// File magic: the first eight bytes of every binary trace.
pub const MAGIC: [u8; 8] = *b"G10TRACE";
/// Current container version. Readers reject anything newer; older
/// versions are migrated explicitly when the format evolves (none yet).
pub const FORMAT_VERSION: u32 = 1;

const SECTION_STRINGS: u32 = 1;
const SECTION_PATHS: u32 = 2;
const SECTION_EVENTS: u32 = 3;
const SECTION_RESOURCES: u32 = 4;

const HEADER_LEN: usize = 24;
const SECTION_ENTRY_LEN: usize = 32;
const EVENT_RECORD_LEN: usize = 20;
const MACHINE_NONE: u32 = u32::MAX;

/// A decoded binary trace: the event stream plus optional monitoring data.
#[derive(Debug, Clone)]
pub struct BinaryTrace {
    /// The raw execution events, in the order they were written.
    pub events: Vec<RawEvent>,
    /// Monitoring data, when the writer included a `RESOURCES` section.
    pub resources: Option<ResourceTrace>,
}

fn corrupt(msg: impl Into<String>) -> Grade10Error {
    Grade10Error::Serialization(format!("binary trace: {}", msg.into()))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a container: `STRINGS`, `PATHS`, `EVENTS`, then `RESOURCES`
/// when `series` is given. The pools are `stream`'s as they stand, after
/// the series' kinds new to it are interned, so names appear as `EVENTS`
/// first references them, then as `RESOURCES` does.
fn encode_streams<'a>(
    stream: &mut FirstSeen<'a>,
    series: Option<impl ExactSizeIterator<Item = (&'a ResourceInstance, &'a [Measurement])>>,
) -> Vec<u8> {
    // The series first: their kinds join the string pool.
    let series = series.map(|s| encode_series(stream, s));
    let mut strings = Vec::new();
    push_u32(&mut strings, stream.names.len() as u32);
    for s in &stream.names {
        push_u32(&mut strings, s.len() as u32);
        strings.extend_from_slice(s.as_bytes());
    }
    let mut paths = Vec::new();
    push_u32(&mut paths, stream.paths.len() as u32);
    for span in &stream.paths {
        push_u32(&mut paths, span.len() as u32);
        for &(sid, key) in &stream.segments[span.clone()] {
            push_u32(&mut paths, sid);
            push_u32(&mut paths, key);
        }
    }
    let mut events = Vec::with_capacity(4 + stream.records.len() * EVENT_RECORD_LEN);
    push_u32(&mut events, stream.records.len() as u32);
    for r in &stream.records {
        let (kind, payload) = match r.kind {
            RecordKind::PhaseStart(path) => (0u8, path),
            RecordKind::PhaseEnd(path) => (1u8, path),
            RecordKind::BlockStart(name) => (2u8, name),
            RecordKind::BlockEnd(name) => (3u8, name),
        };
        push_u64(&mut events, r.time);
        events.extend_from_slice(&r.machine.to_le_bytes());
        events.extend_from_slice(&r.thread.to_le_bytes());
        events.push(kind);
        events.extend_from_slice(&[0u8; 3]);
        push_u32(&mut events, payload);
    }
    let mut sections = vec![
        (SECTION_STRINGS, strings),
        (SECTION_PATHS, paths),
        (SECTION_EVENTS, events),
    ];
    sections.extend(series.map(|p| (SECTION_RESOURCES, p)));
    seal(&sections)
}

fn encode_series<'a>(
    stream: &mut FirstSeen<'a>,
    series: impl ExactSizeIterator<Item = (&'a ResourceInstance, &'a [Measurement])>,
) -> Vec<u8> {
    let mut buf = Vec::new();
    push_u32(&mut buf, series.len() as u32);
    for (inst, ms) in series {
        push_u32(&mut buf, stream.intern(&inst.kind));
        push_u32(&mut buf, inst.machine.map_or(MACHINE_NONE, |m| m as u32));
        push_u64(&mut buf, inst.capacity.to_bits());
        push_u32(&mut buf, ms.len() as u32);
        for m in ms {
            push_u64(&mut buf, m.start);
            push_u64(&mut buf, m.end);
            push_u64(&mut buf, m.avg.to_bits());
        }
    }
    buf
}

/// The container around `sections`, in order: header, section table and
/// payloads, each checksummed.
fn seal(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_len = sections.len() * SECTION_ENTRY_LEN;
    let mut offset = (HEADER_LEN + table_len) as u64;
    let mut table = Vec::with_capacity(table_len);
    for (id, payload) in sections {
        push_u32(&mut table, *id);
        push_u32(&mut table, 0); // reserved
        push_u64(&mut table, offset);
        push_u64(&mut table, payload.len() as u64);
        push_u64(&mut table, fnv1a(payload));
        offset += payload.len() as u64;
    }

    let mut out = Vec::with_capacity(offset as usize);
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, sections.len() as u32);
    push_u64(&mut out, fnv1a(&table));
    out.extend_from_slice(&table);
    for (_, payload) in sections {
        out.extend_from_slice(payload);
    }
    out
}

/// Serializes events (and optionally monitoring data) into the binary
/// container format.
pub fn encode_trace(events: &[RawEvent], resources: Option<&ResourceTrace>) -> Vec<u8> {
    let series = resources.map(|rt| {
        (0..rt.instances().len()).map(move |r| {
            let r = ResourceIdx(r as u32);
            (rt.instance(r), rt.measurements(r))
        })
    });
    encode_streams(&mut FirstSeen::from_events(events), series)
}

/// Encodes and writes a binary trace to `path` through
/// [`atomic_write`], so a crash mid-write leaves no half-written file
/// under the final name.
pub fn write_trace_file(
    path: &Path,
    events: &[RawEvent],
    resources: Option<&ResourceTrace>,
) -> Result<(), Grade10Error> {
    Ok(atomic_write(path, &encode_trace(events, resources))?)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice. Every accessor
/// returns a classified error instead of panicking, which is what makes
/// the no-panic-on-corrupt-input guarantee auditable.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            what,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Grade10Error> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "{} section truncated at byte {} (wanted {} more of {})",
                    self.what,
                    self.pos,
                    n,
                    self.bytes.len()
                ))
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, Grade10Error> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, Grade10Error> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, Grade10Error> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finish(self) -> Result<(), Grade10Error> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(format!(
                "{} section has {} trailing bytes",
                self.what,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

struct Section<'a> {
    id: u32,
    payload: &'a [u8],
}

/// Validates the container (magic, version, table checksum, section
/// bounds, per-section checksums) and returns the verified sections.
fn parse_container(bytes: &[u8]) -> Result<Vec<Section<'_>>, Grade10Error> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file too short for header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[0..8] != MAGIC {
        return Err(corrupt("bad magic (not a Grade10 binary trace)"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (reader supports {FORMAT_VERSION})"
        )));
    }
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let table_crc = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    let table_end = HEADER_LEN
        .checked_add(
            count
                .checked_mul(SECTION_ENTRY_LEN)
                .ok_or_else(|| corrupt(format!("absurd section count {count}")))?,
        )
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| {
            corrupt(format!(
                "section table truncated: {count} sections do not fit in {} bytes",
                bytes.len()
            ))
        })?;
    let table = &bytes[HEADER_LEN..table_end];
    let actual = fnv1a(table);
    if actual != table_crc {
        return Err(corrupt(format!(
            "section table checksum mismatch (recorded {table_crc:#018x}, computed {actual:#018x})"
        )));
    }

    let mut sections = Vec::with_capacity(count);
    let mut next_free = table_end as u64;
    for (i, entry) in table.chunks_exact(SECTION_ENTRY_LEN).enumerate() {
        let id = u32::from_le_bytes([entry[0], entry[1], entry[2], entry[3]]);
        let offset = u64::from_le_bytes([
            entry[8], entry[9], entry[10], entry[11], entry[12], entry[13], entry[14], entry[15],
        ]);
        let len = u64::from_le_bytes([
            entry[16], entry[17], entry[18], entry[19], entry[20], entry[21], entry[22], entry[23],
        ]);
        let crc = u64::from_le_bytes([
            entry[24], entry[25], entry[26], entry[27], entry[28], entry[29], entry[30], entry[31],
        ]);
        if len == 0 {
            return Err(corrupt(format!("section {i} (id {id}) has zero length")));
        }
        if offset < next_free {
            return Err(corrupt(format!(
                "section {i} (id {id}) overlaps preceding data (offset {offset})"
            )));
        }
        let end = offset.checked_add(len).filter(|&e| e <= bytes.len() as u64);
        let Some(end) = end else {
            return Err(corrupt(format!(
                "section {i} (id {id}) truncated: [{offset}, {offset}+{len}) exceeds file of {} bytes",
                bytes.len()
            )));
        };
        let payload = &bytes[offset as usize..end as usize];
        let actual = fnv1a(payload);
        if actual != crc {
            return Err(corrupt(format!(
                "section {i} (id {id}) checksum mismatch (recorded {crc:#018x}, computed {actual:#018x})"
            )));
        }
        next_free = end;
        sections.push(Section { id, payload });
    }
    Ok(sections)
}

fn decode_strings(payload: &[u8]) -> Result<Vec<&str>, Grade10Error> {
    let mut c = Cursor::new(payload, "strings");
    let count = c.u32()? as usize;
    let mut out = Vec::new();
    for i in 0..count {
        let len = c.u32()? as usize;
        let bytes = c.take(len)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| corrupt(format!("string {i} is not valid UTF-8")))?;
        out.push(s);
    }
    c.finish()?;
    Ok(out)
}

/// Decodes the `PATHS` pool into `stream`, whose `names` hold the
/// `STRINGS` pool.
fn decode_paths(payload: &[u8], stream: &mut FirstSeen<'_>) -> Result<(), Grade10Error> {
    let mut c = Cursor::new(payload, "paths");
    let count = c.u32()? as usize;
    for i in 0..count {
        let nsegs = c.u32()? as usize;
        let from = stream.segments.len();
        for _ in 0..nsegs {
            let sid = c.u32()?;
            let key = c.u32()?;
            if sid as usize >= stream.names.len() {
                return Err(corrupt(format!(
                    "path {i} references string {sid} of {}",
                    stream.names.len()
                )));
            }
            stream.segments.push((sid, key));
        }
        stream.paths.push(from..stream.segments.len());
    }
    c.finish()
}

/// Decodes the `EVENTS` section into records over the pools' ids, each
/// checked against its pool: `strings` names, `paths` paths.
fn decode_events(payload: &[u8], strings: u32, paths: u32) -> Result<Vec<Record>, Grade10Error> {
    let mut c = Cursor::new(payload, "events");
    let count = c.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(payload.len() / EVENT_RECORD_LEN));
    for i in 0..count {
        let time = c.u64()?;
        let machine = c.u16()?;
        let thread = c.u16()?;
        let kind = c.take(4)?[0];
        let payload_id = c.u32()?;
        let (len, of) = match kind {
            0 | 1 => (paths, "path"),
            _ => (strings, "string"),
        };
        let id = |what: &str| {
            (payload_id < len).then_some(payload_id).ok_or_else(|| {
                corrupt(format!(
                    "event {i} ({what}) references {of} {payload_id} of {len}"
                ))
            })
        };
        let kind = match kind {
            0 => RecordKind::PhaseStart(id("PhaseStart")?),
            1 => RecordKind::PhaseEnd(id("PhaseEnd")?),
            2 => RecordKind::BlockStart(id("BlockStart")?),
            3 => RecordKind::BlockEnd(id("BlockEnd")?),
            k => return Err(corrupt(format!("event {i} has unknown kind {k}"))),
        };
        out.push(Record {
            time,
            machine,
            thread,
            kind,
        });
    }
    c.finish()?;
    Ok(out)
}

/// Decodes a `RESOURCES` payload into raw series, as written.
fn decode_series(payload: &[u8], strings: &[&str]) -> Result<Vec<RawSeries>, Grade10Error> {
    let mut c = Cursor::new(payload, "resources");
    let count = c.u32()? as usize;
    let mut out = Vec::new();
    for i in 0..count {
        let sid = c.u32()? as usize;
        let machine_raw = c.u32()?;
        let capacity = f64::from_bits(c.u64()?);
        let kind = strings.get(sid).ok_or_else(|| {
            corrupt(format!(
                "resource {i} references string {sid} of {}",
                strings.len()
            ))
        })?;
        let machine = if machine_raw == MACHINE_NONE {
            None
        } else {
            u16::try_from(machine_raw).map(Some).map_err(|_| {
                corrupt(format!(
                    "resource {i} has machine {machine_raw} out of range"
                ))
            })?
        };
        let mut measurements = Vec::new();
        let mcount = c.u32()? as usize;
        for _ in 0..mcount {
            let start = c.u64()?;
            let end = c.u64()?;
            let avg = f64::from_bits(c.u64()?);
            measurements.push(Measurement { start, end, avg });
        }
        out.push(RawSeries {
            instance: ResourceInstance {
                kind: kind.to_string(),
                machine,
                capacity,
            },
            measurements,
        });
    }
    c.finish()?;
    Ok(out)
}

/// Decodes a container, verifying every checksum, into what it carries as
/// written: the stream ingestion reads, and the `RESOURCES` section when
/// present. The `STRINGS`, `PATHS` and `EVENTS` sections are a
/// [`FirstSeen`] form, which [`FirstSeen::finish`] numbers as it numbers
/// interned events, so no path is cloned per event. The one decoder behind
/// [`decode_trace`] and [`read_trace_streams`]. Damage is a
/// [`Grade10Error`], never a panic.
fn decode_streams(bytes: &[u8]) -> Result<(EventStream, Option<Vec<RawSeries>>), Grade10Error> {
    let sections = parse_container(bytes)?;
    let find = |id: u32| sections.iter().find(|s| s.id == id).map(|s| s.payload);
    let mut stream = FirstSeen::default();
    stream.names =
        decode_strings(find(SECTION_STRINGS).ok_or_else(|| corrupt("missing strings section"))?)?;
    decode_paths(
        find(SECTION_PATHS).ok_or_else(|| corrupt("missing paths section"))?,
        &mut stream,
    )?;
    stream.records = decode_events(
        find(SECTION_EVENTS).ok_or_else(|| corrupt("missing events section"))?,
        stream.names.len() as u32,
        stream.paths.len() as u32,
    )?;
    let series = find(SECTION_RESOURCES)
        .map(|p| decode_series(p, &stream.names))
        .transpose()?;
    Ok((stream.finish(), series))
}

/// Decodes a binary trace from in-memory bytes, verifying every checksum.
/// All damage — truncation, bit flips, dangling references — yields a
/// [`Grade10Error`]; this function does not panic on arbitrary input. The
/// monitoring comes back as written, unvalidated.
pub fn decode_trace(bytes: &[u8]) -> Result<BinaryTrace, Grade10Error> {
    let (events, series) = decode_streams(bytes)?;
    Ok(BinaryTrace {
        events: events.to_events(),
        resources: series.map(ResourceTrace::from_series),
    })
}

// ---------------------------------------------------------------------------
// File access
// ---------------------------------------------------------------------------

/// Reads a trace file into memory: a plain [`std::fs::read`] with the
/// error classified, nothing is mapped. The name is kept for external
/// callers that open trace files through it and index the result as bytes.
pub fn map_trace_file(path: &Path) -> Result<Vec<u8>, Grade10Error> {
    Ok(std::fs::read(path)?)
}

/// Reads, validates, and decodes a binary trace file.
pub fn read_trace_file(path: &Path) -> Result<BinaryTrace, Grade10Error> {
    decode_trace(&std::fs::read(path)?)
}

/// Reads, validates, and decodes a binary trace file into the stream
/// ingestion reads and the monitoring series as written.
pub fn read_trace_streams(
    path: &Path,
) -> Result<(EventStream, Option<Vec<RawSeries>>), Grade10Error> {
    decode_streams(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::parse::tests::{damage, random_stream, DAMAGE_CLASSES};
    use crate::parse::{RawEventKind, RawPath};

    // -----------------------------------------------------------------------
    // The decoder that materialized owned events, kept as the oracle of
    // `stream_decoder_matches_the_owned_oracle`.
    // -----------------------------------------------------------------------

    fn owned_strings(payload: &[u8]) -> Result<Vec<String>, Grade10Error> {
        let mut c = Cursor::new(payload, "strings");
        let count = c.u32()? as usize;
        let mut out = Vec::new();
        for i in 0..count {
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| corrupt(format!("string {i} is not valid UTF-8")))?;
            out.push(s.to_string());
        }
        c.finish()?;
        Ok(out)
    }

    fn owned_paths(payload: &[u8], strings: &[String]) -> Result<Vec<RawPath>, Grade10Error> {
        let mut c = Cursor::new(payload, "paths");
        let count = c.u32()? as usize;
        let mut out = Vec::new();
        for i in 0..count {
            let nsegs = c.u32()? as usize;
            let mut path = Vec::new();
            for _ in 0..nsegs {
                let sid = c.u32()? as usize;
                let key = c.u32()?;
                let name = strings.get(sid).ok_or_else(|| {
                    corrupt(format!(
                        "path {i} references string {sid} of {}",
                        strings.len()
                    ))
                })?;
                path.push((name.clone(), key));
            }
            out.push(path);
        }
        c.finish()?;
        Ok(out)
    }

    fn owned_events(
        payload: &[u8],
        strings: &[String],
        paths: &[RawPath],
    ) -> Result<Vec<RawEvent>, Grade10Error> {
        let mut c = Cursor::new(payload, "events");
        let count = c.u32()? as usize;
        let mut out = Vec::new();
        for i in 0..count {
            let time = c.u64()?;
            let machine = c.u16()?;
            let thread = c.u16()?;
            let kind = c.take(4)?[0];
            let payload_id = c.u32()? as usize;
            let path = |what: &str| -> Result<RawPath, Grade10Error> {
                paths.get(payload_id).cloned().ok_or_else(|| {
                    corrupt(format!(
                        "event {i} ({what}) references path {payload_id} of {}",
                        paths.len()
                    ))
                })
            };
            let string = |what: &str| -> Result<String, Grade10Error> {
                strings.get(payload_id).cloned().ok_or_else(|| {
                    corrupt(format!(
                        "event {i} ({what}) references string {payload_id} of {}",
                        strings.len()
                    ))
                })
            };
            let kind = match kind {
                0 => RawEventKind::PhaseStart {
                    path: path("PhaseStart")?,
                },
                1 => RawEventKind::PhaseEnd {
                    path: path("PhaseEnd")?,
                },
                2 => RawEventKind::BlockStart {
                    resource: string("BlockStart")?,
                },
                3 => RawEventKind::BlockEnd {
                    resource: string("BlockEnd")?,
                },
                k => return Err(corrupt(format!("event {i} has unknown kind {k}"))),
            };
            out.push(RawEvent {
                time,
                machine,
                thread,
                kind,
            });
        }
        c.finish()?;
        Ok(out)
    }

    /// [`decode_streams`] as it was: every event materialized with its own
    /// path and resource strings.
    fn decode_owned(bytes: &[u8]) -> Result<(Vec<RawEvent>, Option<Vec<RawSeries>>), Grade10Error> {
        let sections = parse_container(bytes)?;
        let find = |id: u32| sections.iter().find(|s| s.id == id).map(|s| s.payload);
        let strings = owned_strings(
            find(SECTION_STRINGS).ok_or_else(|| corrupt("missing strings section"))?,
        )?;
        let paths = owned_paths(
            find(SECTION_PATHS).ok_or_else(|| corrupt("missing paths section"))?,
            &strings,
        )?;
        let events = owned_events(
            find(SECTION_EVENTS).ok_or_else(|| corrupt("missing events section"))?,
            &strings,
            &paths,
        )?;
        let series = find(SECTION_RESOURCES)
            .map(|p| decode_series(p, &strings.iter().map(String::as_str).collect::<Vec<_>>()))
            .transpose()?;
        Ok((events, series))
    }

    // -----------------------------------------------------------------------
    // The encoder that interned into its own pools, kept as the oracle of
    // `first_seen_encoder_matches_the_interner_oracle`.
    // -----------------------------------------------------------------------

    #[derive(Default)]
    struct Interner {
        pool: Vec<String>,
        ids: HashMap<String, u32>,
    }

    impl Interner {
        fn intern(&mut self, s: &str) -> u32 {
            if let Some(&id) = self.ids.get(s) {
                return id;
            }
            let id = self.pool.len() as u32;
            self.pool.push(s.to_string());
            self.ids.insert(s.to_string(), id);
            id
        }
    }

    /// The deduplicated string/path pools, filled as the record payloads
    /// that reference them are encoded.
    #[derive(Default)]
    struct PoolEncoder {
        strings: Interner,
        path_ids: HashMap<RawPath, u32>,
        paths: Vec<Vec<(u32, u32)>>,
    }

    impl PoolEncoder {
        fn intern_path(&mut self, path: &RawPath) -> u32 {
            if let Some(&id) = self.path_ids.get(path) {
                return id;
            }
            let id = self.paths.len() as u32;
            let segs = path
                .iter()
                .map(|(name, key)| (self.strings.intern(name), *key))
                .collect();
            self.paths.push(segs);
            self.path_ids.insert(path.clone(), id);
            id
        }

        fn encode_events(&mut self, events: &[RawEvent]) -> Vec<u8> {
            let mut buf = Vec::with_capacity(4 + events.len() * EVENT_RECORD_LEN);
            push_u32(&mut buf, events.len() as u32);
            for ev in events {
                let (kind, payload) = match &ev.kind {
                    RawEventKind::PhaseStart { path } => (0u8, self.intern_path(path)),
                    RawEventKind::PhaseEnd { path } => (1u8, self.intern_path(path)),
                    RawEventKind::BlockStart { resource } => (2u8, self.strings.intern(resource)),
                    RawEventKind::BlockEnd { resource } => (3u8, self.strings.intern(resource)),
                };
                push_u64(&mut buf, ev.time);
                buf.extend_from_slice(&ev.machine.to_le_bytes());
                buf.extend_from_slice(&ev.thread.to_le_bytes());
                buf.push(kind);
                buf.extend_from_slice(&[0u8; 3]);
                push_u32(&mut buf, payload);
            }
            buf
        }

        fn encode_series<'a>(
            &mut self,
            series: impl ExactSizeIterator<Item = (&'a ResourceInstance, &'a [Measurement])>,
        ) -> Vec<u8> {
            let mut buf = Vec::new();
            push_u32(&mut buf, series.len() as u32);
            for (inst, ms) in series {
                push_u32(&mut buf, self.strings.intern(&inst.kind));
                push_u32(&mut buf, inst.machine.map_or(MACHINE_NONE, |m| m as u32));
                push_u64(&mut buf, inst.capacity.to_bits());
                push_u32(&mut buf, ms.len() as u32);
                for m in ms {
                    push_u64(&mut buf, m.start);
                    push_u64(&mut buf, m.end);
                    push_u64(&mut buf, m.avg.to_bits());
                }
            }
            buf
        }

        fn strings_payload(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            push_u32(&mut buf, self.strings.pool.len() as u32);
            for s in &self.strings.pool {
                push_u32(&mut buf, s.len() as u32);
                buf.extend_from_slice(s.as_bytes());
            }
            buf
        }

        fn paths_payload(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            push_u32(&mut buf, self.paths.len() as u32);
            for path in &self.paths {
                push_u32(&mut buf, path.len() as u32);
                for &(sid, key) in path {
                    push_u32(&mut buf, sid);
                    push_u32(&mut buf, key);
                }
            }
            buf
        }
    }

    /// [`encode_streams`] as it was, over raw events.
    fn encode_pooled<'a>(
        events: &[RawEvent],
        series: Option<impl ExactSizeIterator<Item = (&'a ResourceInstance, &'a [Measurement])>>,
    ) -> Vec<u8> {
        let mut enc = PoolEncoder::default();
        // Record payloads first: interning fills the string/path pools.
        let events_payload = enc.encode_events(events);
        let series_payload = series.map(|s| enc.encode_series(s));
        let mut sections = vec![
            (SECTION_STRINGS, enc.strings_payload()),
            (SECTION_PATHS, enc.paths_payload()),
            (SECTION_EVENTS, events_payload),
        ];
        sections.extend(series_payload.map(|p| (SECTION_RESOURCES, p)));
        seal(&sections)
    }

    fn sample_events() -> Vec<RawEvent> {
        let path = vec![("job".to_string(), 0u32)];
        vec![
            RawEvent {
                time: 0,
                machine: 0,
                thread: 0,
                kind: RawEventKind::PhaseStart { path: path.clone() },
            },
            RawEvent {
                time: 5_000_000,
                machine: 0,
                thread: 1,
                kind: RawEventKind::BlockStart {
                    resource: "msgq".into(),
                },
            },
            RawEvent {
                time: 9_000_000,
                machine: 0,
                thread: 1,
                kind: RawEventKind::BlockEnd {
                    resource: "msgq".into(),
                },
            },
            RawEvent {
                time: 20_000_000,
                machine: 0,
                thread: 0,
                kind: RawEventKind::PhaseEnd { path },
            },
        ]
    }

    fn sample_resources() -> ResourceTrace {
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        rt.add_series(cpu, 0, 10_000_000, &[0.5, 1.25, 0.125]);
        let net = rt.add_resource(ResourceInstance {
            kind: "net".into(),
            machine: None,
            capacity: 125e6,
        });
        rt.add_series(net, 0, 10_000_000, &[1e6, 0.0]);
        rt
    }

    #[test]
    fn round_trip_events_only() {
        let events = sample_events();
        let bytes = encode_trace(&events, None);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.events, events);
        assert!(back.resources.is_none());
    }

    #[test]
    fn round_trip_with_resources() {
        let events = sample_events();
        let rt = sample_resources();
        let bytes = encode_trace(&events, Some(&rt));
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.events, events);
        let brt = back.resources.unwrap();
        assert_eq!(brt.instances(), rt.instances());
        for r in 0..rt.instances().len() {
            let idx = ResourceIdx(r as u32);
            assert_eq!(brt.measurements(idx), rt.measurements(idx));
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("grade10-binary-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.g10t");
        let events = sample_events();
        write_trace_file(&path, &events, None).unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(back.events, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_event_stream_round_trips() {
        let bytes = encode_trace(&[], None);
        let back = decode_trace(&bytes).unwrap();
        assert!(back.events.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_trace(&sample_events(), None);
        bytes[0] ^= 0xFF;
        let err = decode_trace(&bytes).unwrap_err();
        assert!(matches!(err, Grade10Error::Serialization(_)), "{err}");
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = encode_trace(&sample_events(), None);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = decode_trace(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = encode_trace(&sample_events(), Some(&sample_resources()));
        for keep in 0..bytes.len() {
            assert!(
                decode_trace(&bytes[..keep]).is_err(),
                "decode of {keep}-byte prefix unexpectedly succeeded"
            );
        }
    }

    /// A random stream for the oracles: `random_stream`, damaged, with
    /// names drawn from a pool of ASCII and non-ASCII spellings, empty and
    /// prefixes of one another (so sorting the pool is not the identity),
    /// sometimes an empty path, plus random series.
    fn random_streams(rng: &mut ChaCha8Rng, case: usize) -> (Vec<RawEvent>, Vec<RawSeries>) {
        const SPELLINGS: [&str; 8] = ["task", "Task", "tâche", "задача", "t", "ta", "", "タスク"];
        let mut events = random_stream(rng);
        damage(rng, &mut events, case % DAMAGE_CLASSES);
        let respell = |rng: &mut ChaCha8Rng, name: &mut String| {
            if rng.gen_bool(0.3) {
                *name = SPELLINGS[rng.gen_range(0..SPELLINGS.len())].to_string();
            }
        };
        for ev in &mut events {
            match &mut ev.kind {
                RawEventKind::PhaseStart { path } | RawEventKind::PhaseEnd { path } => {
                    if let Some((name, _)) = path.last_mut() {
                        respell(rng, name);
                    }
                }
                RawEventKind::BlockStart { resource } | RawEventKind::BlockEnd { resource } => {
                    respell(rng, resource)
                }
            }
        }
        if rng.gen_bool(0.2) {
            let kind = RawEventKind::PhaseStart { path: Vec::new() };
            let at = rng.gen_range(0..=events.len());
            events.insert(
                at,
                RawEvent {
                    time: 1,
                    machine: 0,
                    thread: 0,
                    kind,
                },
            );
        }
        let series = (0..rng.gen_range(0..3))
            .map(|s| RawSeries {
                instance: ResourceInstance {
                    kind: SPELLINGS[rng.gen_range(0..SPELLINGS.len())].to_string(),
                    machine: (s > 0).then_some(s as u16),
                    capacity: rng.gen_range(-1.0..8.0),
                },
                measurements: (0..rng.gen_range(0..4u64))
                    .map(|m| Measurement {
                        start: m * 10,
                        end: m * 10 + rng.gen_range(0..20),
                        avg: if rng.gen_bool(0.1) {
                            f64::NAN
                        } else {
                            rng.gen_range(-1.0..4.0)
                        },
                    })
                    .collect(),
            })
            .collect();
        (events, series)
    }

    /// `series` as the encoder takes them.
    fn series_refs(
        series: &[RawSeries],
    ) -> impl ExactSizeIterator<Item = (&ResourceInstance, &[Measurement])> {
        series
            .iter()
            .map(|s| (&s.instance, s.measurements.as_slice()))
    }

    /// [`random_streams`] encoded, with their series or not, at random.
    fn random_container(
        rng: &mut ChaCha8Rng,
        case: usize,
    ) -> (Vec<RawEvent>, Vec<RawSeries>, Vec<u8>) {
        let (events, series) = random_streams(rng, case);
        let with_series = rng.gen_bool(0.7).then(|| series_refs(&series));
        let bytes = encode_streams(&mut FirstSeen::from_events(&events), with_series);
        (events, series, bytes)
    }

    /// The stream decoder against the owned oracle on one input: the same
    /// events (through `to_events`) and series, or the same error.
    fn agrees_with_the_oracle(bytes: &[u8]) -> bool {
        match (decode_streams(bytes), decode_owned(bytes)) {
            (Ok(mine), Ok(theirs)) => {
                assert_eq!(mine.0.to_events(), theirs.0);
                assert_eq!(format!("{:?}", mine.1), format!("{:?}", theirs.1));
                true
            }
            (Err(mine), Err(theirs)) => {
                assert_eq!(mine.to_string(), theirs.to_string());
                false
            }
            (mine, theirs) => panic!("stream {:?}, oracle {:?}", mine.err(), theirs.err()),
        }
    }

    /// `bytes`' sections, each `(id, payload)`, in table order.
    fn sections_of(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let sections = parse_container(bytes).expect("a sound container");
        sections
            .iter()
            .map(|s| (s.id, s.payload.to_vec()))
            .collect()
    }

    /// The stream decoder matches the decoder that materialized owned
    /// events on random containers, on every truncation of them, on random
    /// bit flips (raw, so a checksum catches them, and resealed, so the
    /// pools' own checks must), and on sections spliced between containers
    /// and resealed (dangling string and path references).
    #[test]
    fn stream_decoder_matches_the_owned_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xdec0);
        let (mut decoded, mut rejected) = (0, 0);
        let mut tally = |ok: bool| if ok { decoded += 1 } else { rejected += 1 };
        let mut previous: Option<Vec<u8>> = None;
        for case in 0..120 {
            let (events, series, bytes) = random_container(&mut rng, case);
            let (fresh, fresh_series) = decode_streams(&bytes).expect("a fresh container decodes");
            assert_eq!(fresh.to_events(), events, "case {case}");
            match fresh_series {
                Some(s) => assert_eq!(format!("{s:?}"), format!("{series:?}"), "case {case}"),
                // Decoded from the pools or interned from the events, one
                // stream (the series' kinds would join the name pool).
                None => assert_eq!(fresh, EventStream::from_events(&events), "case {case}"),
            }
            tally(agrees_with_the_oracle(&bytes));
            let step = if case < 8 { 1 } else { bytes.len() / 16 + 1 };
            for keep in (0..bytes.len()).step_by(step) {
                tally(agrees_with_the_oracle(&bytes[..keep]));
            }
            let sections = sections_of(&bytes);
            for _ in 0..16 {
                let mut flipped = bytes.clone();
                let at = rng.gen_range(0..flipped.len());
                flipped[at] ^= 1 << rng.gen_range(0..8);
                tally(agrees_with_the_oracle(&flipped));

                let mut resealed = sections.clone();
                let section = &mut resealed[rng.gen_range(0..sections.len())].1;
                let at = rng.gen_range(0..section.len());
                section[at] ^= 1 << rng.gen_range(0..8);
                tally(agrees_with_the_oracle(&seal(&resealed)));
            }
            if let Some(other) = previous.replace(bytes) {
                let other = sections_of(&other);
                for (i, (id, _)) in sections.iter().enumerate() {
                    let mut spliced = sections.clone();
                    if let Some(theirs) = other.iter().find(|(other_id, _)| other_id == id) {
                        spliced[i] = theirs.clone();
                        tally(agrees_with_the_oracle(&seal(&spliced)));
                    }
                }
            }
        }
        assert!(
            decoded >= 200 && rejected >= 2000,
            "{decoded} decoded, {rejected} rejected"
        );
    }

    /// The encoder over the first-seen form writes exactly the bytes the
    /// interning encoder did, on random damaged streams (non-ASCII, empty
    /// and prefix names, empty paths) whose series kinds often repeat a
    /// name of the events, each with and without series.
    #[test]
    fn first_seen_encoder_matches_the_interner_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xe4c0);
        let (mut empty_paths, mut shared_kinds, mut with_series) = (0, 0, 0);
        for case in 0..256 {
            let (events, mut series) = random_streams(&mut rng, case);
            let names: Vec<&str> = events
                .iter()
                .flat_map(|ev| match &ev.kind {
                    RawEventKind::PhaseStart { path } | RawEventKind::PhaseEnd { path } => {
                        path.iter().map(|(n, _)| n.as_str()).collect()
                    }
                    RawEventKind::BlockStart { resource } | RawEventKind::BlockEnd { resource } => {
                        vec![resource.as_str()]
                    }
                })
                .collect();
            for s in &mut series {
                if rng.gen_bool(0.5) {
                    s.instance.kind = names[rng.gen_range(0..names.len())].to_string();
                }
            }
            empty_paths += usize::from(events.iter().any(
                |ev| matches!(&ev.kind, RawEventKind::PhaseStart { path } if path.is_empty()),
            ));
            shared_kinds += usize::from(
                series
                    .iter()
                    .any(|s| names.contains(&s.instance.kind.as_str())),
            );
            with_series += usize::from(!series.is_empty());
            for series_on in [false, true] {
                let mine = encode_streams(
                    &mut FirstSeen::from_events(&events),
                    series_on.then(|| series_refs(&series)),
                );
                let theirs = encode_pooled(&events, series_on.then(|| series_refs(&series)));
                assert!(mine == theirs, "case {case}: series {series_on}");
            }
        }
        assert!(
            empty_paths >= 20 && shared_kinds >= 60 && with_series >= 120,
            "{empty_paths} with an empty path, {shared_kinds} sharing a kind, {with_series} with series"
        );
    }

    /// A container that carries a section with the retired id 5 (the key
    /// of a stage-cache record from before records held rung results)
    /// decodes to the same events and series as the same container without
    /// it, so such a record still reads as a trace.
    #[test]
    fn a_retired_key_section_is_ignored() {
        let (events, rt) = (sample_events(), sample_resources());
        let bytes = encode_trace(&events, Some(&rt));
        let mut sections = sections_of(&bytes);
        sections.push((5, b"pr;rmat:6;giraph;2;46;all;v1".to_vec()));
        let with_key = seal(&sections);
        assert_ne!(with_key, bytes);
        let (plain, keyed) = (
            decode_trace(&bytes).unwrap(),
            decode_trace(&with_key).unwrap(),
        );
        assert_eq!(keyed.events, plain.events);
        assert_eq!(
            format!("{:?}", keyed.resources),
            format!("{:?}", plain.resources)
        );
    }

    /// A container whose one path is 200k segments deep decodes to its two
    /// events: the path table holds all 200k prefixes, and copying each of
    /// them out would take about 2×10^10 strings.
    #[test]
    fn a_very_deep_path_decodes_to_its_events() {
        let deep: RawPath = (0..200_000).map(|k| ("job".to_string(), k)).collect();
        let event = |time, kind| RawEvent {
            time,
            machine: 0,
            thread: 0,
            kind,
        };
        let events = vec![
            event(0, RawEventKind::PhaseStart { path: deep.clone() }),
            event(1, RawEventKind::PhaseEnd { path: deep }),
        ];
        let decoded = decode_trace(&encode_trace(&events, None)).unwrap();
        assert_eq!(decoded.events, events);
    }
}
