//! Byte-level pin of the `events.jsonl` format.
//!
//! `tests/fixtures/events_v1.jsonl` is a small event log as the JSON-lines
//! writer renders it: every event kind, paths of one to four segments, the
//! integer extremes, and segment and resource names that need escaping
//! (quote, backslash, every named escape, other control bytes, `DEL`,
//! non-ASCII). Logs exported by `grade10 demo --export-logs` must keep
//! reading, and a new writer must keep writing the same bytes. A line that
//! does not decode is an `InvalidData` error naming the line and the byte.
//!
//! Bless with `UPDATE_GOLDENS=1 cargo test --test events_json_pin`.

use std::fs;
use std::path::PathBuf;

use grade10::core::parse::{read_events_json, write_events_json, RawEvent, RawEventKind, RawPath};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/events_v1.jsonl")
}

fn path(segments: &[(&str, u32)]) -> RawPath {
    segments.iter().map(|&(name, key)| (name.to_string(), key)).collect()
}

fn ev(time: u64, machine: u16, thread: u16, kind: RawEventKind) -> RawEvent {
    RawEvent {
        time,
        machine,
        thread,
        kind,
    }
}

/// The events the fixture holds, in file order.
fn events() -> Vec<RawEvent> {
    let job = path(&[("job", 0)]);
    let step = path(&[("job", 0), ("superstep", 3)]);
    let task = path(&[("job", 0), ("superstep", 3), ("wörker \"α\"", 12)]);
    let deep = path(&[
        ("job", 0),
        ("superstep", 3),
        ("tab\there", 7),
        ("back\\slash\u{1}", u32::MAX),
    ]);
    let block = |resource: &str| resource.to_string();
    vec![
        ev(0, 0, 0, RawEventKind::PhaseStart { path: job.clone() }),
        ev(10, 0, 0, RawEventKind::PhaseStart { path: step.clone() }),
        ev(12, 1, 2, RawEventKind::PhaseStart { path: task.clone() }),
        ev(13, 1, 2, RawEventKind::PhaseStart { path: deep.clone() }),
        ev(14, 1, 2, RawEventKind::BlockStart { resource: block("msgq") }),
        ev(15, 1, 2, RawEventKind::BlockEnd { resource: block("msgq") }),
        ev(
            16,
            1,
            2,
            RawEventKind::BlockStart {
                resource: block("gc \"young\" \\ tab\t nl\n cr\r bs\u{8} ff\u{c}"),
            },
        ),
        ev(
            17,
            1,
            2,
            RawEventKind::BlockEnd {
                resource: block("ctl \u{0}\u{1}\u{1f} del\u{7f} é ☃ 😀"),
            },
        ),
        ev(18, 1, 2, RawEventKind::PhaseEnd { path: deep }),
        ev(19, 1, 2, RawEventKind::PhaseEnd { path: task }),
        ev(25, u16::MAX, u16::MAX, RawEventKind::BlockStart { resource: String::new() }),
        ev(26, 0, 0, RawEventKind::PhaseEnd { path: step }),
        ev(u64::MAX, 0, 0, RawEventKind::PhaseEnd { path: job }),
    ]
}

#[test]
fn writer_reproduces_the_fixture_byte_for_byte() {
    let mut written = Vec::new();
    write_events_json(&events(), &mut written).unwrap();
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        fs::write(fixture_path(), &written).unwrap();
        return;
    }
    let fixture = fs::read(fixture_path()).unwrap();
    assert!(
        written == fixture,
        "events.jsonl drifted from the fixture\n--- expected ---\n{}\n--- actual ---\n{}",
        String::from_utf8_lossy(&fixture),
        String::from_utf8_lossy(&written)
    );
}

#[test]
fn reader_returns_the_fixture_events() {
    let fixture = fs::read(fixture_path()).unwrap();
    assert_eq!(read_events_json(fixture.as_slice()).unwrap(), events());
}

#[test]
fn a_damaged_line_is_named_by_its_number_and_byte() {
    let mut text = fs::read_to_string(fixture_path()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let damaged = lines[3].replacen(',', " ", 1);
    text = [&lines[..3], &[damaged.as_str()], &lines[4..]].concat().join("\n");
    let e = read_events_json(text.as_bytes()).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(e.to_string(), "line 4: expected `,` or `}` at byte 11");
}
