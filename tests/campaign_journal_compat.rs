//! Backwards compatibility of the campaign journal: version-2 readers
//! over version-1 files.
//!
//! The committed fixture `tests/fixtures/journal_v1.jsonl` is a real
//! format-version-1 journal as the pre-lease scheduler would have left it
//! after dying mid-campaign: two mixes finished, one permanently failed,
//! one in flight, two never started. A v2 build must (a) replay it to
//! exactly that state, (b) `--resume` over it unchanged — store-authority
//! semantics included — and (c) refuse journals from *future* format
//! versions with a clear, non-recoverable error instead of misreading
//! them.
//!
//! The fixture's hashes are `MixSpec::content_hash` over the same 6-mix
//! spec `tests/campaign.rs` uses (`code_version: "t1"`). If the content
//! hash recipe ever changes intentionally, regenerate the fixture:
//! replay `spec()` below through a v1-era build (or recompute the FNV-1a
//! content strings `v=t1;alg=..;ds=rmat:6;eng=giraph;m=..;seed=46;
//! fault=none` and the per-line checksums) — the hash-stability assertion
//! here will point at the drift first.

use std::path::{Path, PathBuf};

use grade10::core::campaign::{
    run_campaign, CampaignOptions, CampaignSpec, Journal, MixAttempt, MixOutcome, MixSpec,
};
use grade10::core::error::Grade10Error;
use grade10::core::hash::fnv1a;

/// The same 6-mix matrix as `tests/campaign.rs`: 3 algorithms × 2
/// machine counts, pinned `code_version` so content hashes are stable.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "chaos".into(),
        code_version: "t1".into(),
        algorithms: vec!["pr".into(), "bfs".into(), "wcc".into()],
        datasets: vec!["rmat:6".into()],
        engines: vec!["giraph".into()],
        machines: vec![2, 4],
        seeds: vec![46],
        faults: vec!["none".into()],
    }
}

fn opts(name: &str) -> CampaignOptions {
    let dir = std::env::temp_dir().join(format!("g10-v1compat-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CampaignOptions::new(dir)
}

fn fake_runner(mix: &MixSpec, _a: MixAttempt) -> Result<MixOutcome, Grade10Error> {
    Ok(MixOutcome {
        mix: mix.clone(),
        hash: 0,
        makespan_ns: 500_000_000 * u64::from(mix.machines) + mix.algorithm.len() as u64,
        classes: vec![format!("bottleneck:{}", mix.algorithm)],
        incidents: 0,
        degraded: false,
        attempts: 0,
        mode: String::new(),
    })
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_v1.jsonl")
}

fn install_fixture(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let dst = dir.join("journal.jsonl");
    std::fs::copy(fixture_path(), &dst).expect("copy committed v1 fixture");
    dst
}

fn hash_of(mixes: &[MixSpec], alg: &str, machines: u32) -> u64 {
    mixes
        .iter()
        .find(|m| m.algorithm == alg && m.machines == machines)
        .unwrap()
        .content_hash("t1")
}

/// The fixture replays to exactly the state the v1 writer recorded:
/// finished, failed (with the kind defaulted for v1's kindless records),
/// and in-flight sets — nothing quarantined, nothing misread.
#[test]
fn v1_fixture_replays_with_the_v2_reader() {
    let o = opts("replay");
    let path = install_fixture(&o.dir);
    let mixes = spec().expand();

    // Hash-stability tripwire: the fixture was generated from these exact
    // content strings. If this fails, the hash recipe drifted — fix that
    // (or regenerate the fixture if the drift is intentional).
    assert_eq!(
        hash_of(&mixes, "pr", 2),
        fnv1a(b"v=t1;alg=pr;ds=rmat:6;eng=giraph;m=2;seed=46;fault=none"),
        "content-hash recipe drifted from the committed fixture"
    );

    let (_journal, replay) = Journal::open_join(&path).expect("v1 journal opens under v2");
    assert_eq!(replay.quarantined, 0, "every v1 record parses cleanly");
    assert_eq!(replay.finished.len(), 2);
    assert!(replay.finished.contains(&hash_of(&mixes, "pr", 2)));
    assert!(replay.finished.contains(&hash_of(&mixes, "pr", 4)));
    let failed = replay
        .failed
        .get(&hash_of(&mixes, "bfs", 2))
        .expect("v1 failed record replayed");
    assert_eq!(failed.error, "telemetry always rotten");
    assert_eq!(failed.attempts, 3);
    assert_eq!(
        failed.kind, "error",
        "v1 failed records carry no kind; replay defaults it"
    );
    assert!(
        replay.interrupted().contains(&hash_of(&mixes, "bfs", 4)),
        "the in-flight mix is visible as interrupted"
    );
    assert!(replay.claims.is_empty(), "v1 journals predate leases");
    let _ = std::fs::remove_dir_all(&o.dir);
}

/// `--resume` over a v1 journal behaves exactly as it always did: the
/// store is the outcome authority, so with the store populated every mix
/// is served from cache, and with it empty everything (the v1-failed mix
/// included) re-runs. Either way the ranked report is byte-identical to
/// an uninterrupted v2 run.
#[test]
fn resume_on_a_v1_journal_works_unchanged() {
    // Ground truth + a fully populated store from an uninterrupted run.
    let mut o = opts("resume");
    let reference = run_campaign(&spec(), &o, fake_runner).expect("reference run");
    assert!(reference.is_clean());

    // Empty store: v1 finished markers alone don't resurrect outcomes —
    // store authority, same as v1.
    let mut empty = opts("resume-empty");
    install_fixture(&empty.dir);
    empty.resume = true;
    let rerun = run_campaign(&spec(), &empty, fake_runner).expect("resume over v1, empty store");
    assert_eq!(rerun.executed, 6, "no artifacts → everything re-runs");
    assert_eq!(rerun.cached, 0);
    assert_eq!(rerun.report_text, reference.report_text);
    assert_eq!(rerun.report_json, reference.report_json);

    // Populated store: swap the v2 journal for the v1 fixture and resume
    // in place — every outcome is served from the store, nothing re-runs.
    std::fs::remove_file(o.dir.join("journal.jsonl")).unwrap();
    install_fixture(&o.dir);
    o.resume = true;
    let resumed = run_campaign(&spec(), &o, |_mix, _a| {
        panic!("resume over a v1 journal with a full store must not recompute")
    })
    .expect("resume over v1, populated store");
    assert_eq!(resumed.cached, 6);
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.report_text, reference.report_text);
    assert_eq!(resumed.report_json, reference.report_json);

    let _ = std::fs::remove_dir_all(&o.dir);
    let _ = std::fs::remove_dir_all(&empty.dir);
}

/// A journal written by a *newer* build is refused outright with a
/// dedicated, non-recoverable error naming both versions — not replayed
/// on a best-effort basis.
#[test]
fn future_version_journals_are_refused_with_a_clear_error() {
    let o = opts("future");
    std::fs::create_dir_all(&o.dir).unwrap();
    // Craft a checksum-valid header claiming format version 3; the crc
    // scheme (trailing FNV-1a of the compact-JSON payload) is part of the
    // format and stable across versions.
    let payload = r#"{"record":"header","version":3,"campaign":"chaos"}"#;
    let line = format!(
        "{},\"crc\":{}}}\n",
        &payload[..payload.len() - 1],
        fnv1a(payload.as_bytes())
    );
    let path = o.dir.join("journal.jsonl");
    std::fs::write(&path, line).unwrap();

    let err = Journal::open_join(&path).expect_err("v3 journal must be refused");
    match &err {
        Grade10Error::UnsupportedVersion(detail) => {
            assert!(
                detail.contains("format version 3"),
                "error names the journal's version: {detail}"
            );
            assert!(
                detail.contains('2'),
                "error names what this build reads: {detail}"
            );
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert!(!err.is_recoverable(), "wrong-version journals are not retryable");

    let mut ro = opts("future-resume");
    std::fs::create_dir_all(&ro.dir).unwrap();
    std::fs::copy(&path, ro.dir.join("journal.jsonl")).unwrap();
    ro.resume = true;
    let run_err = run_campaign(&spec(), &ro, fake_runner)
        .expect_err("--resume over a future-version journal must refuse, not rerun");
    assert!(matches!(run_err, Grade10Error::UnsupportedVersion(_)));

    let _ = std::fs::remove_dir_all(&o.dir);
    let _ = std::fs::remove_dir_all(&ro.dir);
}
