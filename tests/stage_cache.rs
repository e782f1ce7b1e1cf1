//! The stage cache: one record per campaign-mix ladder rung, holding the
//! rung's result.
//!
//! A rung that runs under `--cache` stores its outcome, or the error it
//! returned, keyed by the mix identity the result store hashes
//! (`MixSpec::content_string` under the campaign's code version) plus the
//! rung, and a later rung with that key is answered from the record
//! without simulating or characterizing anything. These tests pin what
//! makes that trustworthy, through the `grade10 campaign` binary wherever
//! the behaviour lives in `run_mix`:
//!
//! * (a) a warm campaign is all hits, stores nothing, simulates nothing,
//!   and its reports are byte-identical to the cold run's and to those of
//!   a run without `--cache`, which keeps no cache at all; the cache holds
//!   one outcome record per mix and nothing else;
//! * (b) streams damaged by every fault class round-trip a binary trace
//!   bit-exactly, so every ladder rung sees the same result from the
//!   decoded streams as from the collected ones, and `convert --trace`
//!   refuses to write NaN samples as JSON; the same fault matrix renders
//!   one report cold, warm and uncached, and warm it neither misses nor
//!   simulates;
//! * (c) a mix that walks the ladder simulates once, with or without a
//!   cache;
//! * (d) a different code version is a miss;
//! * (e) a strict campaign and a `--lenient` one share a cache without
//!   taking each other's rungs;
//! * (f) a truncated, bit-flipped or colliding record is a quarantined
//!   miss that recomputes by simulation to the same report;
//! * (g) a bit-flipped stored error is a quarantined miss, and its rung
//!   recomputes the same error.

use std::path::{Path, PathBuf};
use std::process::Command;

use grade10::cluster::{FaultClass, FaultPlan};
use grade10::core::cache::StageCacheStats;
use grade10::core::campaign::{CampaignSpec, MixAttempt, MixMode};
use grade10::core::error::Grade10Error;
use grade10::core::hash::fnv1a;
use grade10::core::parse::RawEvent;
use grade10::core::pipeline::{characterize_events, CharacterizationConfig};
use grade10::core::supervise::characterize_events_supervised;
use grade10::core::trace::{decode_trace, encode_trace, RawSeries, ResourceTrace, MILLIS};
use grade10::engines::bridge::collected_streams;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_mix, run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

fn tdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("g10-stagecache-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

/// Writes a TOML spec of `pr`/`bfs` on `rmat:6` over the given axes.
fn write_spec(root: &Path, file: &str, algorithms: &str, seeds: &str, extra: &str) -> PathBuf {
    let path = root.join(file);
    let spec = format!(
        "name = \"stage-cache\"\nalgorithms = [{algorithms}]\ndatasets = [\"rmat:6\"]\n\
         machines = [2]\nseeds = [{seeds}]\n{extra}\n"
    );
    std::fs::write(&path, spec).expect("write spec");
    path
}

/// What one `grade10 campaign` run left behind.
struct Campaign {
    stdout: Vec<u8>,
    report_txt: Vec<u8>,
    report_json: Vec<u8>,
    /// The `stage cache:` stderr line, `None` without `--cache`.
    stats: Option<StageCacheStats>,
    stderr: String,
}

/// Runs `grade10 campaign --spec SPEC --dir DIR --threads 1`, with
/// `--cache CACHE` when given one, requiring a clean exit. A run without
/// `--cache` must leave no stage cache behind.
fn campaign(spec: &Path, dir: &Path, cache: Option<&Path>) -> Campaign {
    campaign_with(spec, dir, cache, &[])
}

/// [`campaign`] with `extra` flags.
fn campaign_with(spec: &Path, dir: &Path, cache: Option<&Path>, extra: &[&str]) -> Campaign {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_grade10"));
    cmd.arg("campaign")
        .arg("--spec")
        .arg(spec)
        .arg("--dir")
        .arg(dir);
    cmd.args(["--threads", "1"]).args(extra);
    if let Some(c) = cache {
        cmd.arg("--cache").arg(c);
    }
    let out = cmd.output().expect("run grade10 campaign");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "campaign into {}: {stderr}",
        dir.display()
    );
    let stats = stderr.lines().find_map(|l| {
        let counts: Vec<u64> = l
            .strip_prefix("stage cache: ")?
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|w| w.parse().ok())
            .collect();
        Some(StageCacheStats {
            hits: counts[0],
            misses: counts[1],
            stores: counts[2],
        })
    });
    assert_eq!(
        stats.is_some(),
        cache.is_some(),
        "stage cache line: {stderr}"
    );
    if cache.is_none() {
        assert!(
            !dir.join("stage-cache").exists(),
            "a run without --cache keeps no stage cache"
        );
    }
    Campaign {
        stdout: out.stdout,
        report_txt: std::fs::read(dir.join("report.txt")).expect("report.txt"),
        report_json: std::fs::read(dir.join("report.json")).expect("report.json"),
        stats,
        stderr,
    }
}

fn counts(c: &Campaign) -> (u64, u64, u64) {
    let s = c.stats.expect("cached run");
    (s.hits, s.misses, s.stores)
}

fn assert_same_reports(a: &Campaign, b: &Campaign, what: &str) {
    assert_eq!(a.stdout, b.stdout, "{what}: stdout diverged");
    assert_eq!(a.report_txt, b.report_txt, "{what}: report.txt diverged");
    assert_eq!(a.report_json, b.report_json, "{what}: report.json diverged");
}

/// The key `run_mix` stores the record of the `i`-th mix of `spec` at the
/// strict rung under.
fn strict_key(spec: &Path, i: usize) -> String {
    let spec = CampaignSpec::load(spec).expect("load spec");
    format!(
        "{};rung=strict",
        spec.expand()[i].content_string(&spec.code_version)
    )
}

/// Where the record of the `i`-th mix of `spec` at the strict rung lives
/// in `cache`: the file name grammar of docs/FORMATS.md, from the key
/// `run_mix` uses.
fn record_path(cache: &Path, spec: &Path, i: usize) -> PathBuf {
    let key = strict_key(spec, i);
    cache.join(format!("outcome-{:016x}.json", fnv1a(key.as_bytes())))
}

/// The files in `cache` whose names start with `prefix`.
fn records(cache: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(cache)
        .expect("read cache")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with(prefix) && !name.ends_with(".quarantined")
        })
        .collect();
    found.sort();
    found
}

/// (a) A second campaign into a fresh directory (so the mix-level store
/// cannot shortcut it) sharing `--cache` is one hit per mix, stores nothing
/// and simulates nothing; cold, warm and uncached reports are
/// byte-identical, and the cache holds the four outcome records alone.
#[test]
fn warm_campaign_rerun_hits_fully_and_reproduces_the_report() {
    let root = tdir("warm");
    let spec = write_spec(&root, "spec.toml", "\"pr\", \"bfs\"", "1, 2", "");
    let cache = root.join("cache");

    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(counts(&cold), (0, 4, 4), "4 mixes, all cold");
    let warm = campaign(&spec, &root.join("warm"), Some(&cache));
    assert_eq!(counts(&warm), (4, 0, 0), "4 mixes, all served from cache");
    assert!(
        warm.stderr
            .contains("substrate: 0 graphs generated for 0 simulated mixes"),
        "{}",
        warm.stderr
    );
    let plain = campaign(&spec, &root.join("plain"), None);
    let files: Vec<String> = std::fs::read_dir(&cache)
        .expect("read cache")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        files.len() == 4
            && files
                .iter()
                .all(|f| f.starts_with("outcome-") && f.ends_with(".json")),
        "{files:?}"
    );

    assert_same_reports(&cold, &warm, "warm vs cold");
    assert_same_reports(&cold, &plain, "uncached vs cold");
    let _ = std::fs::remove_dir_all(&root);
}

/// A cache stripped to its outcome records still answers a warm campaign
/// in full: every mix is an outcome hit, no graph is generated and the
/// report matches the cold one.
#[test]
fn outcome_records_alone_answer_a_warm_campaign() {
    let root = tdir("outcomes");
    let spec = write_spec(&root, "spec.toml", "\"pr\", \"bfs\"", "1, 2", "");
    let cache = root.join("cache");
    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(counts(&cold), (0, 4, 4));
    assert_eq!(records(&cache, "outcome-").len(), 4, "one outcome per mix");
    for entry in std::fs::read_dir(&cache).expect("read cache") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !name.starts_with("outcome-") {
            std::fs::remove_file(&path).expect("remove non-outcome record");
        }
    }
    let warm = campaign(&spec, &root.join("warm"), Some(&cache));
    assert_eq!(counts(&warm), (4, 0, 0), "4 mixes, all outcome hits");
    assert!(
        warm.stderr
            .contains("substrate: 0 graphs generated for 0 simulated mixes"),
        "{}",
        warm.stderr
    );
    assert_same_reports(&cold, &warm, "outcomes only vs cold");
    let _ = std::fs::remove_dir_all(&root);
}

/// What `run_mix` reduces one rung's result to, or the rung's error.
type RungOutcome = Result<(u64, Vec<String>, usize, bool), Grade10Error>;

/// The three ladder rungs over one pair of streams, as `run_mix` runs them.
fn ladder_outcomes(
    expert: &grade10::engines::ExpertInput,
    events: &[RawEvent],
    monitoring: &[RawSeries],
) -> [RungOutcome; 3] {
    let cfg = |lenient: bool| CharacterizationConfig::new(lenient, 10 * MILLIS, None);
    let plain = |lenient: bool| -> RungOutcome {
        characterize_events(
            &expert.model,
            &expert.rules_tuned,
            events,
            monitoring,
            &cfg(lenient),
        )
        .map(|c| (c.base_makespan, c.issue_classes(&expert.model), 0, false))
    };
    let partial = characterize_events_supervised(
        &expert.model,
        &expert.rules_tuned,
        events,
        monitoring,
        &cfg(true),
    )
    .map(|p| {
        let c = &p.characterization;
        (
            c.base_makespan,
            c.issue_classes(&expert.model),
            p.incidents.len(),
            !p.is_complete(),
        )
    });
    [plain(false), plain(true), partial]
}

/// One line per series with every float as its bit pattern, so NaN
/// samples compare equal to themselves and `-0.0` differs from `0.0`.
fn series_bits(series: &[RawSeries]) -> Vec<String> {
    series
        .iter()
        .map(|s| {
            let windows: Vec<(u64, u64, u64)> = s
                .measurements
                .iter()
                .map(|m| (m.start, m.end, m.avg.to_bits()))
                .collect();
            let inst = &s.instance;
            format!(
                "{} {:?} {:x} {windows:?}",
                inst.kind,
                inst.machine,
                inst.capacity.to_bits()
            )
        })
        .collect()
}

/// (b) Streams damaged by each stream fault class — dropped, duplicated,
/// reordered and truncated records, NaN / negative / out-of-order
/// monitoring, a machine with no log stream — round-trip a binary trace
/// bit-exactly: `decode_trace` reads the same streams back, they encode to
/// the same bytes again, and every ladder rung reports the same result
/// from them as from the collected ones. `convert --trace` refuses to
/// write the NaN samples as JSON. Through the binary, the same fault
/// matrix renders one report cold, warm and uncached, and the warm run
/// neither misses nor simulates.
#[test]
fn damaged_streams_round_trip_and_every_rung_sees_the_same_outcome() {
    let root = tdir("faults");
    let workload = WorkloadSpec {
        dataset: Dataset::Rmat { scale: 6, seed: 46 },
        algorithm: Algorithm::PageRank { iterations: 2 },
        engine: EngineKind::Giraph(PregelConfig {
            machines: 2,
            ..Default::default()
        }),
    };
    let run = run_workload(&workload);
    let expert = workload.engine.expert_input();
    let classes = [
        FaultClass::Drop,
        FaultClass::Duplicate,
        FaultClass::Reorder,
        FaultClass::Truncate,
        FaultClass::Monitoring,
        FaultClass::MachineMissing,
    ];
    for class in classes {
        let plan = FaultPlan::single(class, 46);
        let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
        let bytes = encode_trace(
            &events,
            Some(&ResourceTrace::from_series(monitoring.clone())),
        );
        let trace = decode_trace(&bytes).expect("a trace");
        assert_eq!(trace.events, events, "{}: decoded events", class.name());
        let resources = trace.resources.expect("a RESOURCES section");
        let back_monitoring = RawSeries::from_trace(&resources);
        assert_eq!(
            series_bits(&back_monitoring),
            series_bits(&monitoring),
            "{}: decoded monitoring",
            class.name()
        );
        assert!(
            encode_trace(&trace.events, Some(&resources)) == bytes,
            "{}: the decoded streams encode to the same bytes",
            class.name()
        );
        assert_eq!(
            ladder_outcomes(&expert, &trace.events, &back_monitoring),
            ladder_outcomes(&expert, &events, &monitoring),
            "{}: a rung's result changed across the round trip",
            class.name()
        );

        if class == FaultClass::Monitoring {
            let path = root.join("monitoring.g10t");
            std::fs::write(&path, &bytes).expect("write trace");
            let out = Command::new(env!("CARGO_BIN_EXE_grade10"))
                .args(["convert", "--trace"])
                .arg(&path)
                .arg("--out-dir")
                .arg(root.join("text"))
                .output()
                .expect("run grade10 convert");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{stderr}");
            assert!(
                stderr.contains("serialization: resource '")
                    && stderr.contains("sample NaN in window [")
                    && stderr.contains("JSON cannot carry it"),
                "{stderr}"
            );
            assert!(!root.join("text").exists(), "nothing written");
        }
    }

    let spec = write_spec(
        &root,
        "spec.toml",
        "\"pr\"",
        "46",
        "faults = [\"drop\", \"duplicate\", \"reorder\", \"truncate\", \"monitoring\", \"machine-missing\"]",
    );
    let shared = root.join("cache");
    let cold = campaign(&spec, &root.join("cold"), Some(&shared));
    let warm = campaign(&spec, &root.join("warm"), Some(&shared));
    let plain = campaign(&spec, &root.join("plain"), None);
    assert_eq!(counts(&warm).1, 0, "warm fault matrix must not miss");
    assert_eq!(counts(&warm).0, counts(&cold).2, "one hit per stored rung");
    assert!(
        warm.stderr
            .contains("substrate: 0 graphs generated for 0 simulated mixes"),
        "failing rungs are answered by their stored errors: {}",
        warm.stderr
    );
    assert_same_reports(&cold, &warm, "fault matrix, warm vs cold");
    assert_same_reports(&cold, &plain, "fault matrix, uncached vs cold");
    let _ = std::fs::remove_dir_all(&root);
}

/// (c) A mix whose duplicated records fail the strict rung and pass the
/// lenient one simulates once, with or without a cache: the failed strict
/// rung hands its streams to the lenient one in memory. Under `--cache`
/// each rung misses and stores its result, the strict one its error.
#[test]
fn a_mix_that_walks_the_ladder_simulates_once() {
    let root = tdir("ladder");
    let spec = write_spec(
        &root,
        "spec.toml",
        "\"pr\"",
        "46",
        "faults = [\"duplicate\"]",
    );
    let cached = campaign(&spec, &root.join("cached"), Some(&root.join("cache")));
    let plain = campaign(&spec, &root.join("plain"), None);
    for run in [&cached, &plain] {
        let report = String::from_utf8_lossy(&run.report_json).into_owned();
        assert!(
            report.contains("\"mode\":\"lenient\"") || report.contains("\"mode\": \"lenient\""),
            "the mix must end on the lenient rung: {report}"
        );
        assert!(
            run.stderr
                .contains("substrate: 1 graphs generated for 1 simulated mixes"),
            "one simulation for two attempts: {}",
            run.stderr
        );
    }
    assert_eq!(
        counts(&cached),
        (0, 2, 2),
        "two rungs, each looked up and stored"
    );
    assert_same_reports(&cached, &plain, "ladder, uncached vs cached");
    let _ = std::fs::remove_dir_all(&root);
}

/// (d) The code version is part of the key: the same matrix under another
/// version shares no record with the first.
#[test]
fn a_different_code_version_is_a_miss() {
    let root = tdir("version");
    let cache = root.join("cache");
    let v1 = write_spec(&root, "v1.toml", "\"pr\"", "1, 2", "code_version = \"t1\"");
    let v2 = write_spec(&root, "v2.toml", "\"pr\"", "1, 2", "code_version = \"t2\"");
    assert_eq!(
        counts(&campaign(&v1, &root.join("a"), Some(&cache))),
        (0, 2, 2)
    );
    assert_eq!(records(&cache, "outcome-").len(), 2, "one outcome per mix");
    let b = campaign(&v2, &root.join("b"), Some(&cache));
    assert_eq!(counts(&b), (0, 2, 2), "no outcome hit either");
    assert!(
        b.stderr.contains("for 2 simulated mixes"),
        "t2 simulates both mixes: {}",
        b.stderr
    );
    assert_eq!(records(&cache, "outcome-").len(), 4, "t2 shares no outcome");
    assert_eq!(
        counts(&campaign(&v1, &root.join("c"), Some(&cache))),
        (2, 0, 0)
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// (e) The rung is part of a record's key. A mix with duplicated records
/// fails strict and passes lenient; a `--lenient` campaign runs it lenient
/// from the first attempt. Whichever campaign fills the cache, the other
/// one over it reports what it reports without a cache.
#[test]
fn strict_and_lenient_campaigns_share_a_cache_without_sharing_rungs() {
    let root = tdir("rungs");
    let spec = write_spec(
        &root,
        "spec.toml",
        "\"pr\"",
        "46",
        "faults = [\"none\", \"duplicate\"]",
    );
    let (strict, lenient): (&[&str], &[&str]) = (&[], &["--lenient"]);
    for (tag, first, then) in [
        ("strict-first", strict, lenient),
        ("lenient-first", lenient, strict),
    ] {
        let cache = root.join(format!("{tag}-cache"));
        let run = |step: &str, cache: Option<&Path>, flags: &[&str]| {
            campaign_with(&spec, &root.join(format!("{tag}-{step}")), cache, flags)
        };
        run("fill", Some(&cache), first);
        let over = run("over", Some(&cache), then);
        let plain = run("plain", None, then);
        assert_same_reports(&over, &plain, &format!("{tag}: cached vs uncached"));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// (f) Damaged records never answer a rung. A truncated record, one with
/// a bit flipped inside a number (still valid JSON) and one sitting under
/// another key's file name (a 64-bit name collision) are each a miss, are
/// moved aside, and their mixes recompute by simulation to the cold
/// report; the rewritten records answer the next run.
#[test]
fn damaged_and_colliding_outcome_records_are_quarantined_misses() {
    let root = tdir("damage");
    let spec = write_spec(&root, "spec.toml", "\"pr\", \"bfs\"", "1, 2, 3", "");
    let cache = root.join("cache");
    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(counts(&cold), (0, 6, 6));

    let truncated = record_path(&cache, &spec, 0);
    let bytes = std::fs::read(&truncated).expect("record 0");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("truncate record 0");
    // A digit's low bit flipped is another digit: the JSON still parses.
    let flipped = record_path(&cache, &spec, 1);
    let mut bytes = std::fs::read(&flipped).expect("record 1");
    let field = b"\"makespan_ns\":";
    let at = bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("a makespan")
        + field.len();
    assert!(bytes[at].is_ascii_digit());
    bytes[at] ^= 0x01;
    std::fs::write(&flipped, &bytes).expect("flip record 1");
    // Mix 2's intact record under mix 3's name: mix 3 finds a foreign key,
    // mix 2 finds nothing.
    let collided = record_path(&cache, &spec, 3);
    std::fs::rename(record_path(&cache, &spec, 2), &collided).expect("collide records 2 and 3");

    let repaired = campaign(&spec, &root.join("repaired"), Some(&cache));
    assert_eq!(
        counts(&repaired),
        (2, 4, 4),
        "the intact records hit; the damaged four recompute and are stored again"
    );
    assert!(
        repaired.stderr.contains("for 4 simulated mixes"),
        "{}",
        repaired.stderr
    );
    assert_same_reports(&cold, &repaired, "recomputed vs cold");
    for bad in [&truncated, &flipped, &collided] {
        let mut aside = bad.clone().into_os_string();
        aside.push(".quarantined");
        assert!(
            Path::new(&aside).exists(),
            "{} must be quarantined",
            bad.display()
        );
    }

    let again = campaign(&spec, &root.join("again"), Some(&cache));
    assert_eq!(
        counts(&again),
        (6, 0, 0),
        "a quarantined miss does not poison the slot"
    );
    assert_same_reports(&cold, &again, "rewritten records vs cold");
    let _ = std::fs::remove_dir_all(&root);
}

/// (g) A stored error is the error the rung returns, and is checksummed
/// like an outcome. The strict rung's record holds exactly what `run_mix`
/// returns for that rung without a cache. With one letter of that
/// rejection flipped (still valid JSON), the rung misses, its record is
/// moved aside, and the mix simulates once to recompute the same error,
/// which is stored again byte for byte; the lenient rung behind it is
/// still answered by its own record.
#[test]
fn a_flipped_stored_error_is_quarantined_and_recomputed() {
    let root = tdir("error-damage");
    let spec = write_spec(
        &root,
        "spec.toml",
        "\"pr\"",
        "46",
        "faults = [\"duplicate\"]",
    );
    let cache = root.join("cache");
    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(
        counts(&cold),
        (0, 2, 2),
        "a strict error and a lenient outcome"
    );

    let loaded = CampaignSpec::load(&spec).expect("load spec");
    let strict = MixAttempt {
        index: 0,
        mode: MixMode::Strict,
    };
    let err = run_mix(&loaded.expand()[0], &loaded.code_version, strict, None)
        .expect_err("duplicated records fail the strict rung");
    let record = record_path(&cache, &spec, 0);
    let stored = std::fs::read(&record).expect("the strict rung's record");
    let want = format!(
        "\"result\":{{\"Error\":{}}}",
        serde_json::to_string(&err).expect("an error serializes")
    );
    let at = stored
        .windows(want.len())
        .position(|w| w == want.as_bytes())
        .unwrap_or_else(|| panic!("{want} in {}", String::from_utf8_lossy(&stored)));
    let at = at
        + want.find(err.detail()).expect("the detail")
        + err
            .detail()
            .find(|c: char| c.is_ascii_alphabetic())
            .expect("a letter");
    let mut flipped = stored.clone();
    flipped[at] ^= 0x20;
    std::fs::write(&record, &flipped).expect("flip the stored error");

    let warm = campaign(&spec, &root.join("warm"), Some(&cache));
    assert_eq!(
        counts(&warm),
        (1, 1, 1),
        "the strict rung recomputes, the lenient one hits"
    );
    assert!(
        warm.stderr
            .contains("substrate: 1 graphs generated for 1 simulated mixes"),
        "{}",
        warm.stderr
    );
    let mut aside = record.clone().into_os_string();
    aside.push(".quarantined");
    assert!(
        Path::new(&aside).exists(),
        "the flipped record is moved aside"
    );
    assert!(
        std::fs::read(&record).expect("stored again") == stored,
        "the recomputed error is the one stored before"
    );
    assert_same_reports(&cold, &warm, "recomputed error vs cold");
    let _ = std::fs::remove_dir_all(&root);
}
