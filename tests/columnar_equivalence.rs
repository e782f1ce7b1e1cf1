//! Behavioral pin of the columnar attribution core.
//!
//! The columnar core restructures attribution around contiguous
//! struct-of-arrays grids, scratch-buffer reuse, and a participant-major
//! attribution sweep. While the cell-major reference implementation was
//! still selectable (`AttributionBackend::Legacy`, retired after one PR
//! as scheduled), this suite proved both paths byte-identical over the
//! full fault matrix. The legacy path is gone; the same dumps now pin the
//! columnar output against **committed golden hashes**, so any bit-level
//! drift in the attribution core — demand estimation, upsampling,
//! attribution, merging — still fails loudly.
//!
//! The suite drives the 13-combination fault matrix through the
//! *supervised* pipeline — ingest repair, per-machine isolation,
//! estimate-missing hole filling, profile merging — at worker-pool widths
//! 1, 2, and 8, asserting (a) the complete characterization (incidents,
//! coverage, every profile float, every per-instance usage row) is
//! identical across widths, and (b) its FNV-1a hash per mask matches the
//! checked-in golden. Debug formatting round-trips `f64` exactly, so
//! string (and hence hash) equality is bit equality.
//!
//! Bless with `UPDATE_GOLDENS=1 cargo test --test columnar_equivalence`.
//!
//! Lives in its own integration-test binary because `GRADE10_THREADS` is
//! process-global.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use grade10::cluster::{FaultClass, FaultPlan, SimOutput};
use grade10::core::hash::fnv1a;
use grade10::core::model::{ExecutionModel, RuleSet};
use grade10::core::parse::EventStream;
use grade10::core::pipeline::{characterize_stream, CharacterizationConfig};
use grade10::core::supervise::{
    characterize_events_supervised, ChaosMode, ChaosPoint, PartialCharacterization,
};
use grade10::core::trace::{
    decode_trace, encode_trace, read_trace_streams, IngestConfig, RawSeries, MILLIS,
};
use grade10::engines::bridge::{
    collected_streams, to_raw_events, to_raw_series, to_resource_trace,
};
use grade10::engines::dataflow::{
    dataflow_model, dataflow_rules_tuned, run_dataflow, DataflowConfig, JobSpec,
};
use grade10::engines::gas::GasConfig;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};
use grade10::graph::partition::EdgeCutPartition;

fn tiny_run() -> &'static WorkloadRun {
    static RUN: OnceLock<WorkloadRun> = OnceLock::new();
    RUN.get_or_init(|| {
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
    })
}

fn supervised_config() -> CharacterizationConfig {
    // Any multi-unit run fans out, so even this 3-unit workload exercises
    // concurrent units at every width of the matrix.
    CharacterizationConfig::new(true, 10 * MILLIS, None)
}

/// The same 13 fault combinations the supervision matrix uses: every
/// single class, then five multi-class mixtures up to all-eight.
fn fault_masks() -> Vec<u8> {
    (0..8)
        .map(|b| 1u8 << b)
        .chain([0b0011_1111, 0b1100_0000, 0b1010_1010, 0b0101_0101, 0xFF])
        .collect()
}

fn plan_for(mask: u8, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::clean(seed);
    for (bit, &class) in FaultClass::ALL.iter().enumerate() {
        if mask & (1 << bit) != 0 {
            plan.enable(class);
        }
    }
    plan
}

/// Exhaustive textual dump of a partial characterization: every incident,
/// the coverage ledgers, and every float the profile holds — the same
/// dump `supervision_determinism` pins across pool widths.
fn dump(p: &PartialCharacterization) -> String {
    let mut s = String::new();
    for i in &p.incidents {
        writeln!(s, "incident={i:?}").unwrap();
    }
    writeln!(s, "coverage={:?}", p.coverage).unwrap();
    let profile = &p.characterization.profile;
    writeln!(
        s,
        "slices={} resources={:?}",
        profile.grid.num_slices(),
        profile.resources
    )
    .unwrap();
    writeln!(s, "consumption={:?}", profile.consumption).unwrap();
    writeln!(s, "demand_exact={:?}", profile.demand_exact).unwrap();
    writeln!(s, "demand_variable={:?}", profile.demand_variable).unwrap();
    writeln!(s, "unattributed={:?}", profile.unattributed).unwrap();
    writeln!(s, "overflow={:?}", profile.overflow).unwrap();
    writeln!(s, "estimated={:?}", profile.estimated).unwrap();
    for u in &profile.usages {
        writeln!(s, "usage={u:?}").unwrap();
    }
    writeln!(s, "makespan={}", p.characterization.base_makespan).unwrap();
    writeln!(s, "ingest={:?}", p.characterization.ingest).unwrap();
    s
}

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
        panic!(
            "attribution output drifted from golden {name}; re-bless with \
             UPDATE_GOLDENS=1 if intentional\n--- expected ---\n{expected}\
             \n--- actual ---\n{actual}"
        );
    }
}

/// Runs the whole fault matrix at one pool width and returns one dump per
/// mask. The env var pins the width; the config's `threads: None` defers
/// to it.
fn matrix_at(threads: &str) -> Vec<String> {
    std::env::set_var("GRADE10_THREADS", threads);
    let run = tiny_run();
    let cfg = supervised_config();
    let out = fault_masks()
        .into_iter()
        .map(|mask| {
            let plan = plan_for(mask, 0x5D_0000 + mask as u64);
            let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
            let p = characterize_events_supervised(
                &run.model,
                &run.rules_tuned,
                &events,
                &monitoring,
                &cfg,
            )
            .unwrap_or_else(|e| panic!("mask {mask:#010b} failed: {e}"));
            dump(&p)
        })
        .collect();
    std::env::remove_var("GRADE10_THREADS");
    out
}

/// One golden line per fault mask: the FNV-1a hash of the complete
/// characterization dump. Full dumps are megabytes; the hash pins the
/// same bits in a reviewable file.
fn hash_lines(dumps: &[String]) -> String {
    let mut s = String::new();
    for (mask, d) in fault_masks().iter().zip(dumps) {
        writeln!(s, "mask={mask:#010b} fnv1a={:016x}", fnv1a(d.as_bytes())).unwrap();
    }
    s
}

/// The behavioral pin: at every pool width the supervised fault matrix
/// reproduces the committed golden hashes bit for bit, and the widths
/// agree with each other on the full dumps (a sharper diagnostic than two
/// differing hashes when a width-dependence sneaks in).
#[test]
fn columnar_matrix_matches_goldens_across_widths() {
    let baseline = matrix_at("1");
    assert!(
        baseline.iter().any(|d| d.contains("incident=")),
        "matrix produced no incidents; the fixture is too tame to prove anything"
    );
    for threads in ["2", "8"] {
        let wide = matrix_at(threads);
        for (mask, (b, w)) in fault_masks().iter().zip(baseline.iter().zip(&wide)) {
            assert_eq!(
                b, w,
                "mask {mask:#010b}: width {threads} diverged from width 1"
            );
        }
    }
    check_golden("columnar_equivalence_hashes.txt", &hash_lines(&baseline));
}

/// `CODE_VERSION` moves in lockstep with the attribution goldens. The
/// campaign store and the stage cache both key durable artifacts on
/// `CODE_VERSION`; if attribution output changes (re-blessed goldens)
/// without a version bump, stale stores from the previous build would be
/// silently reused. This pin makes that a CI failure: re-blessing the
/// goldens changes their hash, so the literal below must be re-derived —
/// and the paired version literal forces the bump decision into review.
#[test]
fn code_version_is_tied_to_the_attribution_goldens() {
    let goldens = fs::read_to_string(golden_path("columnar_equivalence_hashes.txt"))
        .expect("committed golden")
        + &fs::read_to_string(golden_path("columnar_unsupervised_hash.txt"))
            .expect("committed golden");
    let tie = format!(
        "{} fnv1a={:016x}",
        grade10::core::campaign::CODE_VERSION,
        fnv1a(goldens.as_bytes())
    );
    assert_eq!(
        tie, "g10c-2 fnv1a=b93bcf2b12bfb1e8",
        "attribution goldens and CODE_VERSION moved out of lockstep. If the \
         goldens were intentionally re-blessed, bump CODE_VERSION in \
         crates/core/src/config.rs (stored outcomes and stage-cache \
         records from the old build are stale) and update this pinned pair."
    );
}

fn four_machine_run() -> &'static WorkloadRun {
    static RUN: OnceLock<WorkloadRun> = OnceLock::new();
    RUN.get_or_init(|| {
        run_workload(&WorkloadSpec {
            dataset: Dataset::Rmat { scale: 8, seed: 5 },
            algorithm: Algorithm::PageRank { iterations: 2 },
            engine: EngineKind::Giraph(PregelConfig {
                machines: 4,
                threads: 2,
                cores: 2.0,
                ..Default::default()
            }),
        })
    })
}

/// The supervised attribute stage on a clean 4-machine run, pinned in the
/// three shapes its rows can take: every machine kept; a middle machine's
/// unit dropped by a panic, so the machines after it move up; and a grid
/// the budget guard coarsens. Each case runs at pool widths 1 and 2 with
/// the width set in the config, so the environment cannot change it.
#[test]
fn supervised_attribute_matches_golden() {
    let run = four_machine_run();
    let (events, monitoring) = collected_streams(&run.sim, None);
    let characterize = |cfg: &CharacterizationConfig| {
        characterize_events_supervised(&run.model, &run.rules_tuned, &events, &monitoring, cfg)
            .expect("clean 4-machine run")
    };
    let at_width = |width: usize| {
        let mut cfg = supervised_config();
        cfg.supervise.threads = Some(width);
        cfg.profile.threads = Some(width);
        cfg
    };
    let full = characterize(&at_width(1));
    assert!(full.incidents.is_empty(), "{:?}", full.incidents);
    assert!(full.coverage.machines_covered() >= 4);
    // Half the clean grid's cells: one coarsening rung fits it.
    let cap = full.characterization.profile.total_slices() / 2;
    let mut lines = String::new();
    for width in [1, 2] {
        let clean = at_width(width);
        let mut dropped = at_width(width);
        dropped.supervise.chaos.push(ChaosPoint {
            unit: "attribute/machine 1".to_string(),
            mode: ChaosMode::Panic,
        });
        let mut coarse = at_width(width);
        coarse.supervise.max_grid_cells = cap;
        for (case, cfg) in [
            ("clean", clean),
            ("dropped", dropped),
            ("coarsened", coarse),
        ] {
            let p = characterize(&cfg);
            let machines = p
                .characterization
                .profile
                .resources
                .iter()
                .map(|r| r.machine);
            match case {
                "dropped" => {
                    assert!(machines.clone().all(|m| m != Some(1)));
                    assert!(machines.clone().any(|m| m == Some(2)));
                }
                "coarsened" => {
                    let slice = p.characterization.profile.grid.slice_nanos();
                    assert_eq!(slice, 100 * MILLIS, "{:?}", p.incidents);
                }
                _ => {}
            }
            let hash = fnv1a(dump(&p).as_bytes());
            writeln!(lines, "case={case} width={width} fnv1a={hash:016x}").unwrap();
        }
    }
    check_golden("supervised_attribute_hashes.txt", &lines);
}

/// The unsupervised single-process pipeline is pinned too — it skips the
/// per-machine split/merge, so it exercises one big grid end to end.
#[test]
fn columnar_unsupervised_matches_golden() {
    let run = tiny_run();
    let mut cfg = CharacterizationConfig::default();
    cfg.profile.slice = 10 * MILLIS;
    cfg.ingest = IngestConfig::lenient();
    let events = to_raw_events(&run.sim.logs);
    let monitoring = to_raw_series(&run.sim.series, 8);
    let input = grade10::core::trace::ingest(&run.model, &events, &monitoring, &cfg.ingest)
        .expect("clean fixture ingests");
    let (trace, resources) = (&input.trace, &input.resources);
    let result =
        grade10::core::pipeline::characterize(&run.model, &run.rules_tuned, trace, resources, &cfg);
    let p = &result.profile;
    let dump = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{}\n{:?}",
        p.consumption,
        p.demand_exact,
        p.demand_variable,
        p.unattributed,
        p.overflow,
        result.base_makespan,
        result
            .profile
            .usages
            .iter()
            .map(|u| format!("{u:?}"))
            .collect::<Vec<_>>()
    );
    let line = format!("unsupervised fnv1a={:016x}\n", fnv1a(dump.as_bytes()));
    check_golden("columnar_unsupervised_hash.txt", &line);
}

/// The `trace_build_pin` fixtures: one simulated PageRank run per engine
/// family, with the model its events name and the tuned rules.
fn trace_build_fixtures() -> Vec<(&'static str, WorkloadRun)> {
    let run = |engine| {
        run_workload(&WorkloadSpec {
            dataset: Dataset::Rmat { scale: 8, seed: 46 },
            algorithm: Algorithm::PageRank { iterations: 3 },
            engine,
        })
    };
    let giraph = run(EngineKind::Giraph(PregelConfig {
        machines: 3,
        threads: 2,
        ..Default::default()
    }));
    let powergraph = run(EngineKind::PowerGraph(GasConfig {
        machines: 3,
        ..Default::default()
    }));
    vec![("giraph", giraph), ("powergraph", powergraph)]
}

/// The Spark-like `trace_build_pin` fixture: a dataflow job over the same
/// graph, as (model, rules, simulator output).
fn spark_fixture() -> (ExecutionModel, RuleSet, SimOutput) {
    let cfg = DataflowConfig {
        machines: 2,
        ..Default::default()
    };
    let graph = Dataset::Rmat { scale: 8, seed: 46 }.generate();
    let part = EdgeCutPartition::hash(&graph, cfg.machines * cfg.executors * 2);
    let work = Algorithm::PageRank { iterations: 3 }.run(&graph, &part);
    let job = JobSpec::from_work_profile(&work, 1.0e-4, 200.0, cfg.machines);
    let (model, phases) = dataflow_model();
    let rules = dataflow_rules_tuned(&phases, cfg.cores);
    (model, rules, run_dataflow(&job, &cfg))
}

/// The container of `sim`'s streams: events (damaged by `plan` when
/// given) and the clean monitoring.
fn container(sim: &SimOutput, plan: Option<&FaultPlan>) -> Vec<u8> {
    let events = match plan {
        None => to_raw_events(&sim.logs),
        Some(plan) => to_raw_events(&plan.inject_logs(&sim.logs)),
    };
    encode_trace(&events, Some(&to_resource_trace(&sim.series, 8)))
}

/// `characterize_events` on streams decoded from their `G10TRACE`
/// encoding, for every `trace_build_pin` fixture: the clean stream strict
/// and the `FaultPlan::all` stream lenient, each inline and supervised at
/// pool widths 1 and 2 (set in the config). One FNV-1a line per run pins
/// the full [`dump`], so a decoder that hands ingest another
/// representation must leave every characterization bit unchanged.
///
/// Each run takes two legs against the same golden: the events
/// `decode_trace` materializes, and the stream `analyze --trace` reads —
/// the container written to a file, read back by `read_trace_streams` and
/// handed over as it is with its series as written.
#[test]
fn decoded_streams_characterize_as_pinned() {
    let mut fixtures: Vec<(&str, ExecutionModel, RuleSet, SimOutput)> = trace_build_fixtures()
        .into_iter()
        .map(|(name, run)| (name, run.model, run.rules_tuned, run.sim))
        .collect();
    let (model, rules, sim) = spark_fixture();
    fixtures.push(("spark", model, rules, sim));
    let plan = FaultPlan::all(46);
    let dir = std::env::temp_dir().join(format!("g10-stream-pin-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let (mut raw_lines, mut stream_lines) = (String::new(), String::new());
    for (name, model, rules, sim) in &fixtures {
        for (mode, lenient, plan) in [("strict", false, None), ("lenient", true, Some(&plan))] {
            let bytes = container(sim, plan);
            let decoded = decode_trace(&bytes).expect("a fresh container decodes");
            let resources = decoded.resources.expect("monitoring section written");
            let events = EventStream::from_events(&decoded.events);
            let monitoring = RawSeries::from_trace(&resources);
            let file = dir.join(format!("{name}-{mode}.g10"));
            fs::write(&file, &bytes).unwrap();
            let (stream, series) = read_trace_streams(&file).expect("a fresh container reads");
            let series = series.expect("monitoring section written");
            let policies = [
                ("inline", false, 1),
                ("supervised", true, 1),
                ("supervised", true, 2),
            ];
            for (policy, supervised, width) in policies {
                let cfg = CharacterizationConfig::new(lenient, 10 * MILLIS, Some(width));
                let run = format!("{name} {mode} {policy} w{width}");
                let p = characterize_stream(supervised, model, rules, &events, &monitoring, &cfg)
                    .unwrap_or_else(|e| panic!("{run}: {e}"));
                let hash = fnv1a(dump(&p).as_bytes());
                writeln!(raw_lines, "{run} fnv1a={hash:016x}").unwrap();
                let p = characterize_stream(supervised, model, rules, &stream, &series, &cfg)
                    .unwrap_or_else(|e| panic!("{run} (stream): {e}"));
                let hash = fnv1a(dump(&p).as_bytes());
                writeln!(stream_lines, "{run} fnv1a={hash:016x}").unwrap();
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    check_golden("stream_characterize_hashes.txt", &raw_lines);
    check_golden("stream_characterize_hashes.txt", &stream_lines);
}
