//! Property tests for the binary trace container.
//!
//! Two contracts, each driven by seeded ChaCha8 generators so failures
//! reproduce from the printed seed:
//!
//! 1. **Round trip**: any generated event stream (with or without
//!    monitoring data) encodes, writes, memory-maps, and decodes back to
//!    exactly the structures that went in — floats included, because they
//!    travel as raw bits.
//! 2. **Damage never panics**: truncation at every prefix length, random
//!    single-byte flips, wrong magic/version, zero-length sections — every
//!    corruption either decodes to the original (a flip in unreferenced
//!    padding cannot be detected, but there is none) or returns a
//!    classified `Grade10Error`. The decoder must never panic and never
//!    silently return different data, mirroring the journal-damage
//!    quarantine tests in `tests/campaign.rs`.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use grade10::core::parse::{RawEvent, RawEventKind, RawPath};
use grade10::core::trace::binary::{
    decode_trace, encode_trace, read_trace_file, write_trace_file, FORMAT_VERSION, MAGIC,
};
use grade10::core::trace::{Measurement, ResourceIdx, ResourceInstance, ResourceTrace};
use grade10::core::Grade10Error;

fn gen_path(rng: &mut ChaCha8Rng) -> RawPath {
    let names = ["job", "superstep", "compute", "communicate", "barrier"];
    let depth = rng.gen_range(1..=4);
    (0..depth)
        .map(|d| (names[d % names.len()].to_string(), rng.gen_range(0..8u32)))
        .collect()
}

fn gen_events(rng: &mut ChaCha8Rng) -> Vec<RawEvent> {
    let resources = ["msgq", "barrier", "gc"];
    let n = rng.gen_range(0..200);
    (0..n)
        .map(|_| {
            let kind = match rng.gen_range(0..4) {
                0 => RawEventKind::PhaseStart {
                    path: gen_path(rng),
                },
                1 => RawEventKind::PhaseEnd {
                    path: gen_path(rng),
                },
                2 => RawEventKind::BlockStart {
                    resource: resources[rng.gen_range(0..resources.len())].to_string(),
                },
                _ => RawEventKind::BlockEnd {
                    resource: resources[rng.gen_range(0..resources.len())].to_string(),
                },
            };
            RawEvent {
                time: rng.gen_range(0..10_000_000_000u64),
                machine: rng.gen_range(0..16),
                thread: rng.gen_range(0..8),
                kind,
            }
        })
        .collect()
}

fn gen_resources(rng: &mut ChaCha8Rng) -> ResourceTrace {
    let kinds = ["cpu", "net-in", "net-out", "disk"];
    let mut rt = ResourceTrace::new();
    for (i, kind) in kinds.iter().enumerate().take(rng.gen_range(1..=4)) {
        let idx = rt.add_resource(ResourceInstance {
            kind: kind.to_string(),
            machine: if rng.gen_bool(0.8) {
                Some(i as u16)
            } else {
                None
            },
            // Includes awkward magnitudes: subnormal-adjacent fractions and
            // nanosecond-scale totals must both survive the bit round trip.
            capacity: [0.125, 4.0, 1e-9, 1.25e11][rng.gen_range(0..4)],
        });
        let mut t = rng.gen_range(0..1_000_000u64);
        for _ in 0..rng.gen_range(0..50) {
            let dur = rng.gen_range(1..20_000_000u64);
            rt.add_measurement(
                idx,
                Measurement {
                    start: t,
                    end: t + dur,
                    avg: rng.gen::<f64>() * 4.0,
                },
            );
            t += dur + rng.gen_range(0..1_000_000u64);
        }
    }
    rt
}

fn assert_traces_equal(a_events: &[RawEvent], a_rt: Option<&ResourceTrace>, bytes: &[u8]) {
    let back = decode_trace(bytes).expect("round trip decodes");
    assert_eq!(back.events, a_events);
    match (a_rt, back.resources) {
        (None, None) => {}
        (Some(rt), Some(brt)) => {
            assert_eq!(brt.instances(), rt.instances());
            for r in 0..rt.instances().len() {
                let idx = ResourceIdx(r as u32);
                assert_eq!(brt.measurements(idx), rt.measurements(idx), "resource {r}");
            }
        }
        (a, b) => panic!(
            "resources presence diverged: {:?} vs {:?}",
            a.is_some(),
            b.is_some()
        ),
    }
}

/// Contract 1: encode → decode is the identity, for events alone and for
/// events + monitoring, across 40 seeded cases.
#[test]
fn round_trip_random_traces() {
    for case in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB17_0000 + case);
        let events = gen_events(&mut rng);
        let rt = rng.gen_bool(0.7).then(|| gen_resources(&mut rng));
        let bytes = encode_trace(&events, rt.as_ref());
        assert_traces_equal(&events, rt.as_ref(), &bytes);
    }
}

/// Contract 1 through the file layer: write → read → decode is also the
/// identity. One seeded case suffices here; the in-memory sweep above
/// covers the combinatorics and the file layer adds only I/O. (The test's
/// name dates from when the reader mapped the file; it is a plain read.)
#[test]
fn round_trip_via_mmap_file() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17_F11E);
    let events = gen_events(&mut rng);
    let rt = gen_resources(&mut rng);
    let dir = std::env::temp_dir().join(format!("grade10-binfmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.g10t");
    write_trace_file(&path, &events, Some(&rt)).unwrap();
    let back = read_trace_file(&path).expect("file read decodes");
    assert_eq!(back.events, events);
    let brt = back.resources.expect("resources section present");
    assert_eq!(brt.instances(), rt.instances());
    std::fs::remove_dir_all(&dir).ok();
}

/// Encoding is deterministic: the same input yields the same bytes, so
/// content-hash caching of binary traces is sound.
#[test]
fn encoding_is_deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17_DE7E);
    let events = gen_events(&mut rng);
    let rt = gen_resources(&mut rng);
    let a = encode_trace(&events, Some(&rt));
    let b = encode_trace(&events, Some(&rt));
    assert_eq!(a, b);
}

/// Contract 2a: every truncation of a valid trace is rejected with an
/// error — never a panic, never a silent partial decode.
#[test]
fn every_truncation_errors_recoverably() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17_0100);
    let events = gen_events(&mut rng);
    let rt = gen_resources(&mut rng);
    let bytes = encode_trace(&events, Some(&rt));
    for keep in 0..bytes.len() {
        match decode_trace(&bytes[..keep]) {
            Err(Grade10Error::Serialization(_)) => {}
            Err(other) => panic!("prefix {keep}: unexpected error class {other:?}"),
            Ok(_) => panic!("prefix {keep}: truncated trace decoded successfully"),
        }
    }
}

/// Contract 2b: random single-byte flips anywhere in the file either
/// fail with a classified error or (never observed, but permitted only
/// if) decode to the exact original. Panics and silent corruption are
/// the two forbidden outcomes.
#[test]
fn random_byte_flips_never_panic_or_corrupt() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17_0200);
    let events = gen_events(&mut rng);
    let rt = gen_resources(&mut rng);
    let bytes = encode_trace(&events, Some(&rt));
    for case in 0..300 {
        let mut damaged = bytes.clone();
        let pos = rng.gen_range(0..damaged.len());
        let bit = 1u8 << rng.gen_range(0..8);
        damaged[pos] ^= bit;
        match decode_trace(&damaged) {
            Err(_) => {}
            Ok(back) => {
                // FNV-1a is not cryptographic; a flip that survives all
                // checksums must still decode to identical data.
                assert_eq!(
                    back.events, events,
                    "case {case}: flip at byte {pos} silently changed events"
                );
            }
        }
    }
}

/// Contract 2c: the specific header-damage taxonomy from the format
/// spec — wrong magic, unsupported version, flipped table checksum,
/// flipped section checksum, zero-length section, absurd section count.
#[test]
fn header_damage_taxonomy() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17_0300);
    let events = gen_events(&mut rng);
    let bytes = encode_trace(&events, None);

    let expect_err = |mutation: &dyn Fn(&mut Vec<u8>), what: &str| {
        let mut damaged = bytes.clone();
        mutation(&mut damaged);
        let err = decode_trace(&damaged).expect_err(what);
        assert!(
            matches!(err, Grade10Error::Serialization(_)),
            "{what}: wrong error class {err:?}"
        );
        err.to_string()
    };

    let msg = expect_err(&|b| b[0] = b'X', "wrong magic accepted");
    assert!(msg.contains("magic"), "{msg}");

    let msg = expect_err(
        &|b| b[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes()),
        "future version accepted",
    );
    assert!(msg.contains("version"), "{msg}");

    let msg = expect_err(&|b| b[16] ^= 0xFF, "flipped table checksum accepted");
    assert!(msg.contains("checksum"), "{msg}");

    // Flip one byte inside the first section's payload: its checksum must
    // catch it. The first section starts right after the table.
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let payload_start = 24 + count * 32;
    let msg = expect_err(&|b| b[payload_start] ^= 0x01, "payload flip accepted");
    assert!(msg.contains("checksum"), "{msg}");

    // Zero out the first section's length (offset 16 within its entry) and
    // re-seal the table checksum, so the *zero-length* check itself fires
    // rather than the checksum shortcut.
    let msg = expect_err(
        &|b| {
            b[24 + 16..24 + 24].copy_from_slice(&0u64.to_le_bytes());
            let table = b[24..24 + count * 32].to_vec();
            let crc = grade10::core::hash::fnv1a(&table);
            b[16..24].copy_from_slice(&crc.to_le_bytes());
        },
        "zero-length section accepted",
    );
    assert!(msg.contains("zero length"), "{msg}");

    let msg = expect_err(
        &|b| {
            b[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        },
        "absurd section count accepted",
    );
    assert!(msg.contains("section"), "{msg}");

    // Empty file and bare header are both short reads, not panics.
    assert!(decode_trace(&[]).is_err());
    assert!(decode_trace(&bytes[..24]).is_err());
    // Sanity: MAGIC is what the spec says, so external tooling can probe.
    assert_eq!(&bytes[..8], &MAGIC);
}
