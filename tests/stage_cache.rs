//! The stage cache: one streams record per campaign mix, and one outcome
//! record per ladder rung that succeeded.
//!
//! The cache persists a mix's collected streams — the simulation's output
//! after fault injection and bridging, i.e. exactly what `run_mix` hands
//! the pipeline — keyed by the mix identity the result store hashes
//! (`MixSpec::content_string` under the campaign's code version). A streams
//! hit skips the simulation. A rung that succeeds also stores its outcome
//! under that key plus the rung, and an outcome hit skips the decode and
//! the pipeline as well. These tests pin what makes that trustworthy,
//! through the `grade10 campaign` binary wherever the behaviour lives in
//! `run_mix`:
//!
//! * (a) a warm campaign is all hits, stores nothing, and its reports are
//!   byte-identical to the cold run's and to those of a run without
//!   `--cache`, which keeps no cache at all;
//! * (b) streams damaged by every fault class round-trip bit-exactly, so
//!   every ladder rung sees the same outcome with and without the cache,
//!   the stream a store returns is the one its record decodes to, and a
//!   record is a binary trace that decodes to the same streams;
//! * (c) a mix that walks the ladder simulates once, with or without a
//!   cache;
//! * (d) a truncated, bit-flipped or colliding record is a quarantined
//!   miss that recomputes to the same report;
//! * (e) a different code version is a miss;
//! * (f) outcome records alone answer a warm campaign, which then neither
//!   simulates nor characterizes and still renders the cold report;
//! * (g) a strict campaign and a `--lenient` one share a cache without
//!   taking each other's rungs;
//! * (h) a truncated, bit-flipped or colliding outcome record is a
//!   quarantined miss that falls through to the streams.

use std::path::{Path, PathBuf};
use std::process::Command;

use grade10::cluster::{FaultClass, FaultPlan};
use grade10::core::cache::{StageCache, StageCacheStats};
use grade10::core::campaign::CampaignSpec;
use grade10::core::error::Grade10Error;
use grade10::core::hash::fnv1a;
use grade10::core::parse::RawEvent;
use grade10::core::pipeline::{characterize_events, CharacterizationConfig};
use grade10::core::supervise::characterize_events_supervised;
use grade10::core::trace::{decode_trace, RawSeries, MILLIS};
use grade10::engines::bridge::collected_streams;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

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

/// The key `run_mix` stores the streams of the `i`-th mix of `spec` under.
fn mix_key(spec: &Path, i: usize) -> String {
    let spec = CampaignSpec::load(spec).expect("load spec");
    spec.expand()[i].content_string(&spec.code_version)
}

/// Where the record of the `i`-th mix of `spec` lives in `cache`: the file
/// name grammar of docs/FORMATS.md, from the key `run_mix` uses.
fn record_path(cache: &Path, spec: &Path, i: usize) -> PathBuf {
    let key = mix_key(spec, i);
    cache.join(format!("streams-{:016x}.g10c", fnv1a(key.as_bytes())))
}

/// Where the outcome record of the `i`-th mix of `spec` at the strict rung
/// lives in `cache`.
fn outcome_path(cache: &Path, spec: &Path, i: usize) -> PathBuf {
    let key = format!("{};rung=strict", mix_key(spec, i));
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

/// Removes every outcome record from `cache`, so the next campaign reads
/// the streams records.
fn remove_outcomes(cache: &Path) {
    for path in records(cache, "outcome-") {
        std::fs::remove_file(path).expect("remove outcome record");
    }
}

/// (a) A second campaign into a fresh directory (so the mix-level store
/// cannot shortcut it) sharing `--cache` is one hit per mix and stores
/// nothing; cold, warm and uncached reports are byte-identical.
#[test]
fn warm_campaign_rerun_hits_fully_and_reproduces_the_report() {
    let root = tdir("warm");
    let spec = write_spec(&root, "spec.toml", "\"pr\", \"bfs\"", "1, 2", "");
    let cache = root.join("cache");

    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(counts(&cold), (0, 4, 4), "4 mixes, all cold");
    let warm = campaign(&spec, &root.join("warm"), Some(&cache));
    assert_eq!(counts(&warm), (4, 0, 0), "4 mixes, all served from cache");
    let plain = campaign(&spec, &root.join("plain"), None);

    assert_same_reports(&cold, &warm, "warm vs cold");
    assert_same_reports(&cold, &plain, "uncached vs cold");
    let _ = std::fs::remove_dir_all(&root);
}

/// What `run_mix` reduces one rung's result to, or the class of the rung's
/// error (which of several unended phases a strict rejection names first
/// varies between two calls on the same stream).
type RungOutcome = Result<(u64, Vec<String>, usize, bool), std::mem::Discriminant<Grade10Error>>;

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
        .map_err(|e| std::mem::discriminant(&e))
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
    })
    .map_err(|e| std::mem::discriminant(&e));
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
/// monitoring, a machine with no log stream — round-trip the record
/// bit-exactly, and every ladder rung reports the same outcome from the
/// stored streams as from the collected ones. Each record is a binary
/// trace: `decode_trace` reads the same streams from it, and `convert
/// --trace` refuses to write the NaN samples as JSON. Through the binary,
/// the same fault matrix renders one report cold, warm and uncached.
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
    let cache = StageCache::open(&root.join("records")).expect("open cache");
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
        let key = format!("fault={}", class.name());
        let stored = cache.store_streams(&key, &events, &monitoring);
        let (back_stream, back_monitoring) = cache
            .lookup_streams(&key)
            .unwrap_or_else(|| panic!("{}: stored record must hit", class.name()));
        // A cold mix characterizes the stream the store interned, a warm
        // one the stream the record decodes to: they are one stream.
        assert_eq!(back_stream, stored, "{}: stream", class.name());
        let back_events = back_stream.to_events();
        assert_eq!(back_events, events, "{}: events", class.name());
        assert_eq!(
            series_bits(&back_monitoring),
            series_bits(&monitoring),
            "{}: monitoring",
            class.name()
        );
        assert_eq!(
            ladder_outcomes(&expert, &back_events, &back_monitoring),
            ladder_outcomes(&expert, &events, &monitoring),
            "{}: a rung's outcome changed across the cache",
            class.name()
        );

        let record = root
            .join("records")
            .join(format!("streams-{:016x}.g10c", fnv1a(key.as_bytes())));
        let trace = decode_trace(&std::fs::read(&record).expect("record")).expect("a trace");
        assert_eq!(trace.events, events, "{}: decoded events", class.name());
        let resources = trace.resources.expect("a RESOURCES section");
        assert_eq!(
            series_bits(&RawSeries::from_trace(&resources)),
            series_bits(&monitoring),
            "{}: decoded monitoring",
            class.name()
        );
        if class == FaultClass::Monitoring {
            let out = Command::new(env!("CARGO_BIN_EXE_grade10"))
                .args(["convert", "--trace"])
                .arg(&record)
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
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.stores), (6, 0, 6));

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
    assert_same_reports(&cold, &warm, "fault matrix, warm vs cold");
    assert_same_reports(&cold, &plain, "fault matrix, uncached vs cold");
    let _ = std::fs::remove_dir_all(&root);
}

/// (c) A mix whose duplicated records fail the strict rung and pass the
/// lenient one simulates once, with or without a cache: the failed strict
/// rung hands its streams to the lenient one in memory. Under `--cache` the
/// strict attempt misses and stores, and the lenient one never asks.
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
        (0, 1, 1),
        "the memo serves the lenient rung"
    );
    assert_same_reports(&cached, &plain, "ladder, uncached vs cached");
    let _ = std::fs::remove_dir_all(&root);
}

/// (d) Damaged records never decode into an answer. A truncated record, a
/// bit-flipped one, one sitting under another key's file name (a 64-bit
/// name collision) and one in the older `G10CACHE` container are each a
/// miss, are moved aside, and the mixes recompute to the cold report; the
/// next run hits on the rewritten records. The outcome records, which a
/// warm run would read before any streams record, are removed before each
/// warm run.
#[test]
fn damaged_and_colliding_records_are_quarantined_misses() {
    let root = tdir("damage");
    let spec = write_spec(&root, "spec.toml", "\"pr\", \"bfs\"", "1, 2, 3", "");
    let cache = root.join("cache");
    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(counts(&cold), (0, 6, 6));

    let truncated = record_path(&cache, &spec, 0);
    let bytes = std::fs::read(&truncated).expect("record 0");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("truncate record 0");
    let flipped = record_path(&cache, &spec, 1);
    let mut bytes = std::fs::read(&flipped).expect("record 1");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&flipped, &bytes).expect("flip record 1");
    // Mix 2's intact record under mix 3's name: mix 3 finds a foreign key,
    // mix 2 finds nothing.
    let collided = record_path(&cache, &spec, 3);
    std::fs::rename(record_path(&cache, &spec, 2), &collided).expect("collide records 2 and 3");
    let older = record_path(&cache, &spec, 4);
    let mut bytes = std::fs::read(&older).expect("record 4");
    bytes[..8].copy_from_slice(b"G10CACHE");
    std::fs::write(&older, &bytes).expect("relabel record 4");

    remove_outcomes(&cache);
    let repaired = campaign(&spec, &root.join("repaired"), Some(&cache));
    assert_eq!(
        counts(&repaired),
        (1, 5, 5),
        "the intact record hits; the damaged five recompute and are stored again"
    );
    assert_same_reports(&cold, &repaired, "recomputed vs cold");
    for bad in [&truncated, &flipped, &collided, &older] {
        let mut aside = bad.clone().into_os_string();
        aside.push(".quarantined");
        assert!(
            Path::new(&aside).exists(),
            "{} must be quarantined",
            bad.display()
        );
    }

    remove_outcomes(&cache);
    let again = campaign(&spec, &root.join("again"), Some(&cache));
    assert_eq!(
        counts(&again),
        (6, 0, 0),
        "a quarantined miss does not poison the slot"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// (e) The code version is part of the key: the same matrix under another
/// version shares no record with the first, streams or outcome.
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

/// (f) With every streams record deleted, the outcome records alone answer
/// a warm campaign into a fresh directory: one hit per mix, no simulation,
/// and the cold run's stdout and reports byte for byte.
#[test]
fn outcome_records_alone_answer_a_warm_campaign() {
    let root = tdir("outcomes");
    let spec = write_spec(&root, "spec.toml", "\"pr\", \"bfs\"", "1, 2", "");
    let cache = root.join("cache");
    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(counts(&cold), (0, 4, 4));
    assert_eq!(records(&cache, "outcome-").len(), 4, "one outcome per mix");
    for path in records(&cache, "streams-") {
        std::fs::remove_file(path).expect("remove streams record");
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

/// (g) The rung is part of an outcome's key. A mix with duplicated records
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

/// (h) Damaged outcome records never answer a rung. A truncated record, one
/// with a bit flipped inside a number (still valid JSON) and one sitting
/// under another key's file name are each a miss, are moved aside, and
/// their mixes recompute from the streams records to the cold report; the
/// rewritten outcome records answer the next run with no streams left.
#[test]
fn damaged_and_colliding_outcome_records_are_quarantined_misses() {
    let root = tdir("outcome-damage");
    let spec = write_spec(&root, "spec.toml", "\"pr\", \"bfs\"", "1, 2, 3", "");
    let cache = root.join("cache");
    let cold = campaign(&spec, &root.join("cold"), Some(&cache));
    assert_eq!(counts(&cold), (0, 6, 6));

    let truncated = outcome_path(&cache, &spec, 0);
    let bytes = std::fs::read(&truncated).expect("outcome 0");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("truncate outcome 0");
    // A digit's low bit flipped is another digit: the JSON still parses.
    let flipped = outcome_path(&cache, &spec, 1);
    let mut bytes = std::fs::read(&flipped).expect("outcome 1");
    let field = b"\"makespan_ns\":";
    let at = bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("a makespan")
        + field.len();
    assert!(bytes[at].is_ascii_digit());
    bytes[at] ^= 0x01;
    std::fs::write(&flipped, &bytes).expect("flip outcome 1");
    // Mix 2's intact outcome under mix 3's name.
    let collided = outcome_path(&cache, &spec, 3);
    std::fs::rename(outcome_path(&cache, &spec, 2), &collided).expect("collide outcomes 2 and 3");

    let repaired = campaign(&spec, &root.join("repaired"), Some(&cache));
    assert_eq!(
        counts(&repaired),
        (6, 0, 0),
        "two outcome hits; four streams hits behind the damaged outcomes"
    );
    assert!(
        repaired.stderr.contains("for 0 simulated mixes"),
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

    for path in records(&cache, "streams-") {
        std::fs::remove_file(path).expect("remove streams record");
    }
    let again = campaign(&spec, &root.join("again"), Some(&cache));
    assert_eq!(counts(&again), (6, 0, 0), "the outcomes were stored again");
    assert_same_reports(&cold, &again, "rewritten outcomes vs cold");
    let _ = std::fs::remove_dir_all(&root);
}
