//! The offline workflow end to end: serialize a monitored run's artifacts
//! (events as JSON lines, monitoring as JSON, expert input as a bundle),
//! read everything back, and verify the characterization is identical to
//! analyzing the live objects — the guarantee behind `grade10 demo
//! --export-logs` + `grade10 analyze`. The `cli_*` tests drive the binary
//! over a `demo --dataset rmat:10` export and pin what `analyze` prints for
//! it against goldens under `tests/goldens/` (re-bless an intentional
//! change with `UPDATE_GOLDENS=1`), and check that a reader that closes
//! stdout early ends a run with an error, not a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use grade10::core::model::ModelBundle;
use grade10::core::parse::{build_execution_trace, read_events_json, write_events_json};
use grade10::core::pipeline::{characterize, CharacterizationConfig};
use grade10::core::trace::{RawSeries, ResourceTrace};
use grade10::engines::bridge::to_raw_events;
use grade10::engines::models::pregel_resource_model;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

#[test]
fn serialized_artifacts_reproduce_the_characterization() {
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 10, seed: 7 },
        algorithm: Algorithm::PageRank { iterations: 3 },
        engine: EngineKind::Giraph(PregelConfig {
            machines: 2,
            threads: 2,
            cores: 2.0,
            ..Default::default()
        }),
    });

    // --- Ship: events.jsonl, resources.json, bundle.json (in memory) ---
    let events = to_raw_events(&run.sim.logs);
    let mut events_file = Vec::new();
    write_events_json(&events, &mut events_file).unwrap();

    let resources = run.resource_trace(8);
    let resources_file = serde_json::to_vec(&resources).unwrap();

    let bundle = ModelBundle {
        framework: "giraph".into(),
        notes: String::new(),
        execution: run.model.clone(),
        resources: pregel_resource_model(),
        rules: run.rules_tuned.clone(),
    };
    let bundle_file = bundle.to_json();

    // --- Analyze from the shipped bytes only ---
    let bundle2 = ModelBundle::from_json(&bundle_file).unwrap();
    let events2 = read_events_json(events_file.as_slice()).unwrap();
    let trace2 = build_execution_trace(&bundle2.execution, &events2).unwrap();
    let resources2: ResourceTrace = serde_json::from_slice(&resources_file).unwrap();

    let cfg = CharacterizationConfig::default();
    let live = characterize(&run.model, &run.rules_tuned, &run.trace, &resources, &cfg);
    let shipped = characterize(&bundle2.execution, &bundle2.rules, &trace2, &resources2, &cfg);

    // Bit-identical pipeline outputs.
    assert_eq!(live.base_makespan, shipped.base_makespan);
    assert_eq!(live.profile.consumption, shipped.profile.consumption);
    assert_eq!(live.issues.len(), shipped.issues.len());
    for (a, b) in live.issues.iter().zip(&shipped.issues) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.optimistic_makespan, b.optimistic_makespan);
    }
    // And the traces agree structurally.
    assert_eq!(run.trace.instances().len(), trace2.instances().len());
    assert_eq!(run.trace.blocking().len(), trace2.blocking().len());
}

#[test]
fn shipped_rules_lint_clean_after_round_trip() {
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 9, seed: 7 },
        algorithm: Algorithm::Bfs { root: 0 },
        engine: EngineKind::Giraph(PregelConfig {
            machines: 2,
            threads: 2,
            cores: 2.0,
            ..Default::default()
        }),
    });
    let bundle = ModelBundle {
        framework: "giraph".into(),
        notes: String::new(),
        execution: run.model.clone(),
        resources: pregel_resource_model(),
        rules: run.rules_tuned.clone(),
    };
    let back = ModelBundle::from_json(&bundle.to_json()).unwrap();
    assert!(back.rules.lint(&back.execution, &back.resources).is_empty());
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless it with UPDATE_GOLDENS=1"));
    if expected != actual {
        panic!(
            "analyze output drifted from golden {name}; re-bless with UPDATE_GOLDENS=1 \
             if intentional\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
        );
    }
}

/// Runs the `grade10` binary in `dir`.
fn grade10(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grade10"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run grade10")
}

fn succeed(dir: &Path, args: &[&str]) -> String {
    let out = grade10(dir, args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh directory holding `demo --dataset rmat:10`'s exported text pair
/// under `logs/` and the giraph model bundle as `bundle.json`.
fn export_demo(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("g10-offline-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    succeed(&dir, &["demo", "--dataset", "rmat:10", "--export-logs", "logs"]);
    succeed(&dir, &["export-model", "--engine", "giraph", "-o", "bundle.json"]);
    dir
}

/// Damages the monitoring in `from` three ways and writes it to `to`: a
/// negative `cpu@0` sample, a `net_out@0` window moved to overlap its
/// predecessor, and two `net_in@0` windows swapped out of order.
fn damage_monitoring(from: &Path, to: &Path) {
    let rt: ResourceTrace = serde_json::from_slice(&fs::read(from).unwrap()).unwrap();
    let mut series = RawSeries::from_trace(&rt);
    series[0].measurements[1].avg = -5.0;
    series[1].measurements[2].start = series[1].measurements[1].start + 100_000_000;
    series[2].measurements.swap(1, 2);
    let (instances, measurements): (Vec<_>, Vec<_>) = series
        .into_iter()
        .map(|s| (s.instance, s.measurements))
        .unzip();
    let json = format!(
        "{{\"instances\":{},\"measurements\":{}}}",
        serde_json::to_string(&instances).unwrap(),
        serde_json::to_string(&measurements).unwrap()
    );
    fs::write(to, json).unwrap();
}

/// `analyze` prints the same report for the exported text pair and for the
/// `.g10t` that `convert` packs from it.
#[test]
fn cli_analyze_reads_the_text_pair_and_its_binary_alike() {
    let dir = export_demo("clean");
    let text_pair = ["--events", "logs/events.jsonl", "--resources", "logs/resources.json"];
    succeed(&dir, &[&["convert"], &text_pair[..], &["-o", "trace.g10t"]].concat());
    let analyze =
        |input: &[&str]| succeed(&dir, &[&["analyze", "--model", "bundle.json"], input].concat());
    let text = analyze(&text_pair);
    assert_eq!(analyze(&["--trace", "trace.g10t"]), text);
    check_golden("analyze_rmat10.txt", &text);
    let _ = fs::remove_dir_all(&dir);
}

/// `analyze --lenient` repairs a text pair whose monitoring carries a
/// negative sample, an overlapping window and an out-of-order window, and
/// prints the same report for the `.g10t` that `convert` packs from it:
/// the binary decoder hands ingestion the monitoring as written. Strict,
/// both forms fail alike on the one-line cause.
#[test]
fn cli_lenient_analyze_repairs_damaged_monitoring() {
    let dir = export_demo("damaged");
    damage_monitoring(&dir.join("logs/resources.json"), &dir.join("damaged.json"));
    let text = ["--events", "logs/events.jsonl", "--resources", "damaged.json"];
    let binary = ["--trace", "damaged.g10t"];
    succeed(&dir, &[&["convert"], &text[..], &["-o", "damaged.g10t"]].concat());
    let analyze = |input: &[&str], mode: &[&str]| {
        grade10(&dir, &[&["analyze", "--model", "bundle.json"], input, mode].concat())
    };

    let lenient = [analyze(&text, &["--lenient"]), analyze(&binary, &["--lenient"])];
    for out in &lenient {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    check_golden(
        "analyze_rmat10_damaged_lenient.txt",
        &String::from_utf8_lossy(&lenient[0].stdout),
    );
    assert_eq!(lenient[1].stdout, lenient[0].stdout, "binary --lenient");

    let strict = [analyze(&text, &[]), analyze(&binary, &[])];
    let stderr = String::from_utf8_lossy(&strict[0].stderr);
    for out in &strict {
        assert_eq!(out.status.code(), Some(1), "{stderr}");
    }
    assert_eq!(strict[1].stderr, strict[0].stderr, "strict stderr");
    assert!(
        stderr.contains("negative sample -5 on 'cpu@0'")
            && stderr.contains("retry with --lenient")
            && !stderr.contains("usage:"),
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `grade10 analyze … | head -1`: a stdout whose reader is gone before the
/// first write fails the run on a one-line error with exit code 1, not a
/// panic with a backtrace (exit 101). `export-model` writes its bundle to
/// the same writer.
#[test]
fn cli_output_into_a_closed_stdout_is_an_error_not_a_panic() {
    let dir = export_demo("closed-stdout");
    let text_pair = ["--events", "logs/events.jsonl", "--resources", "logs/resources.json"];
    let analyze = [&["analyze", "--model", "bundle.json"], &text_pair[..]].concat();
    for args in [analyze, vec!["export-model", "--engine", "giraph"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_grade10"))
            .current_dir(&dir)
            .args(&args)
            .stdout(writer)
            .output()
            .expect("run grade10");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: writing to stdout: "),
            "{args:?}: {stderr}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
