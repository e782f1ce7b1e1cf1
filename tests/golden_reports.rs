//! Golden-snapshot tests of the text reports: the rendered tables for
//! deterministic demo scenarios are diffed byte-for-byte against
//! checked-in goldens under `tests/goldens/`.
//!
//! Re-bless after an intentional report change with:
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test --test golden_reports
//! ```
//!
//! Simulated workloads are deterministic (seeded simulation time, not wall
//! time), so most goldens compare exactly. The live self-profile table is
//! the exception — its numbers are wall-clock measurements of this very
//! test run — so volatile fields (anything numeric, and the width-dependent
//! separator rules) are normalized away and only the structure is pinned.

use std::fs;
use std::path::PathBuf;

use grade10::cluster::{FaultClass, FaultPlan};
use grade10::core::attribution::Parallelism;
use grade10::core::obs::{MetaTrace, SpanRecord, Stage};
use grade10::core::pipeline::{
    characterize_events, characterize_meta, characterize_self, CharacterizationConfig,
};
use grade10::core::report::{
    blocked_time_table, coverage_table, incident_table, ingest_table, machine_table,
    self_profile_table, usage_table,
};
use grade10::core::supervise::characterize_events_supervised;
use grade10::core::trace::{ingest_monitoring, IngestConfig, IngestReport, MILLIS};
use grade10::engines::bridge::{collected_streams, to_raw_events, to_raw_series};
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Diffs `actual` against the checked-in golden, or re-blesses it when
/// `UPDATE_GOLDENS=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless it with UPDATE_GOLDENS=1"));
    if expected != actual {
        // A labeled side-by-side beats assert_eq!'s escaped one-liner.
        panic!(
            "report drifted from golden {name}; re-bless with UPDATE_GOLDENS=1 \
             if intentional\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
        );
    }
}

/// Strips everything volatile from a rendered table: numeric tokens become
/// `#` (wall-clock cells change every run, and with them the unit suffix
/// and column widths), separator rules collapse to one dash, space runs to
/// one space. What survives is the structure: headers, row labels, row
/// count, column count.
fn normalize_volatile(rendered: &str) -> String {
    let mut out = String::new();
    for line in rendered.lines() {
        let tokens: Vec<String> = line
            .split_whitespace()
            .map(|tok| {
                if tok.chars().any(|c| c.is_ascii_digit()) {
                    "#".to_string()
                } else if tok.chars().all(|c| c == '-') {
                    "-".to_string()
                } else {
                    tok.to_string()
                }
            })
            .collect();
        out.push_str(&tokens.join(" "));
        out.push('\n');
    }
    out
}

/// The demo scenario every golden derives from: a deterministic simulated
/// PageRank run on a Giraph-like engine.
fn demo_run() -> WorkloadRun {
    run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 8, seed: 3 },
        algorithm: Algorithm::PageRank { iterations: 2 },
        engine: EngineKind::Giraph(PregelConfig {
            machines: 2,
            threads: 2,
            cores: 2.0,
            ..Default::default()
        }),
    })
}

fn demo_config(lenient: bool) -> CharacterizationConfig {
    CharacterizationConfig::new(lenient, 10 * MILLIS, None)
}

/// Summary tables of the clean demo run: per-type usage, per-resource
/// utilization, blocked time, and the issue summary. All derived from
/// simulated time — byte-stable across runs and machines.
#[test]
fn golden_summary_report() {
    let run = demo_run();
    let events = to_raw_events(&run.sim.logs);
    let monitoring = to_raw_series(&run.sim.series, 8);
    let result = characterize_events(
        &run.model,
        &run.rules_tuned,
        &events,
        &monitoring,
        &demo_config(false),
    )
    .expect("clean demo stream");

    let mut out = String::new();
    out.push_str("== attributed usage by phase type ==\n");
    out.push_str(&usage_table(&result.profile, &run.model, &run.trace).render());
    out.push_str("\n== resource utilization ==\n");
    out.push_str(&machine_table(&result.profile).render());
    out.push_str("\n== blocked time ==\n");
    out.push_str(&blocked_time_table(&run.trace).render());
    out.push_str("\n== issues ==\n");
    for line in result.summary(&run.model) {
        out.push_str(&line);
        out.push('\n');
    }
    check_golden("summary_pagerank_giraph.txt", &out);
}

/// The ingest damage table for the demo run corrupted by every fault class
/// at once. Injection and repair are seeded and deterministic, and the
/// table reads only integer repair counters, so this compares exactly.
#[test]
fn golden_ingest_damage_report() {
    let run = demo_run();
    let plan = FaultPlan::all(42);
    let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
    let result = characterize_events(
        &run.model,
        &run.rules_tuned,
        &events,
        &monitoring,
        &demo_config(true),
    )
    .expect("lenient mode repairs every fault class");
    assert!(!result.ingest.is_clean());

    let out = ingest_table(&result.ingest).render();
    check_golden("ingest_damage_all_faults.txt", &out);
}

/// The incidents and coverage tables for the demo run under the hostile
/// fault pair (machine-missing + timestamp-bomb) in supervised lenient
/// mode. Per-machine units run on the worker pool, but results merge in
/// stable unit-key order; injection is seeded and incident details carry
/// only deterministic counts — so this compares exactly at any width.
#[test]
fn golden_supervision_incident_report() {
    let run = demo_run();
    let mut plan = FaultPlan::clean(7);
    plan.enable(FaultClass::MachineMissing);
    plan.enable(FaultClass::TimestampBomb);
    let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
    let p = characterize_events_supervised(
        &run.model,
        &run.rules_tuned,
        &events,
        &monitoring,
        &demo_config(true),
    )
    .expect("supervised lenient mode absorbs the hostile faults");
    assert!(!p.is_complete());

    let mut out = String::new();
    out.push_str("== incidents ==\n");
    out.push_str(&incident_table(&p.incidents).render());
    out.push_str("\n== coverage ==\n");
    out.push_str(&coverage_table(&p.coverage).render());
    check_golden("supervision_machine_missing_timestamp_bomb.txt", &out);
}

/// The self-profile table over a hand-built meta-trace with fixed span
/// timings: pins the exact rendering — units, shares, totals — without any
/// wall-clock in the loop.
#[test]
fn golden_self_profile_fixed_trace() {
    let span = |stage, start: u64, end: u64| SpanRecord {
        stage,
        thread: 0,
        start,
        end,
        allocs: 0,
        alloc_bytes: 0,
    };
    let raw = MetaTrace {
        spans: vec![
            span(Stage::Ingest, 0, 400_000),
            span(Stage::Demand, 400_000, 1_000_000),
            span(Stage::Upsample, 1_000_000, 4_200_000),
            span(Stage::Attribute, 4_200_000, 5_000_000),
            span(Stage::Bottleneck, 5_000_000, 6_600_000),
            span(Stage::Report, 6_600_000, 7_000_000),
        ],
        end: 7_000_000,
    };
    let meta = characterize_meta(&raw).expect("meta characterization");
    check_golden(
        "self_profile_fixed_trace.txt",
        &self_profile_table(&meta).render(),
    );
}

/// The binary-ingest damage table: one row per corruption class applied to
/// a deterministic binary trace, with the exact classified error message
/// the reader reports. Encoding is deterministic and the messages carry
/// only content-derived numbers (offsets, checksums of fixed bytes), so
/// this compares exactly — any drift in the damage taxonomy or its
/// wording shows up as a diff here.
#[test]
fn golden_binary_ingest_damage_table() {
    use grade10::core::hash::fnv1a;
    use grade10::core::trace::{decode_trace, encode_trace};

    let run = demo_run();
    let events = to_raw_events(&run.sim.logs);
    let bytes = encode_trace(&events, None);
    let section_count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let payload_start = 24 + section_count * 32;

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty file", Vec::new()),
        ("header only", bytes[..24].to_vec()),
        ("bad magic", {
            let mut b = bytes.clone();
            b[0] = b'X';
            b
        }),
        ("future version", {
            let mut b = bytes.clone();
            b[8..12].copy_from_slice(&99u32.to_le_bytes());
            b
        }),
        ("flipped table checksum", {
            let mut b = bytes.clone();
            b[16] ^= 0xFF;
            b
        }),
        ("truncated tail", bytes[..bytes.len() - 7].to_vec()),
        ("flipped payload byte", {
            let mut b = bytes.clone();
            b[payload_start] ^= 0x01;
            b
        }),
        ("zero-length section", {
            let mut b = bytes.clone();
            b[24 + 16..24 + 24].copy_from_slice(&0u64.to_le_bytes());
            let table = b[24..24 + section_count * 32].to_vec();
            let crc = fnv1a(&table);
            b[16..24].copy_from_slice(&crc.to_le_bytes());
            b
        }),
        ("absurd section count", {
            let mut b = bytes.clone();
            b[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
            b
        }),
    ];

    let mut t = grade10::core::report::Table::new(&["damage", "reader verdict"]);
    for (name, damaged) in &cases {
        let verdict = match decode_trace(damaged) {
            Ok(_) => "ACCEPTED (bug: damage not detected)".to_string(),
            Err(e) => e.to_string(),
        };
        t.row(&[name.to_string(), verdict]);
    }
    check_golden("binary_ingest_damage_table.txt", &t.render());
}

/// The live self-profile table from an actual recorded pipeline run, with
/// volatile fields normalized: pins which stages appear, in what order,
/// under which headers — a stage disappearing from its own profile (e.g. a
/// lost obs span) fails here.
#[test]
fn golden_self_profile_live_structure() {
    let run = demo_run();
    let mut report = IngestReport::default();
    let resources = ingest_monitoring(
        &to_raw_series(&run.sim.series, 8),
        &IngestConfig::default(),
        &mut report,
    )
    .expect("clean monitoring");
    let mut cfg = demo_config(false);
    // Single-threaded so the recorded stage set is machine-independent.
    cfg.profile.parallelism = Parallelism::Never;
    let sc = characterize_self(&run.model, &run.rules_tuned, &run.trace, &resources, &cfg)
        .expect("self-characterization");
    let out = normalize_volatile(&self_profile_table(&sc.meta).render());
    check_golden("self_profile_live_structure.txt", &out);
}
