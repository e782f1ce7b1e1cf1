//! Bit-level pin of §III-E's bottleneck report and §III-F's what-if sweep.
//!
//! The text report rounds every reduction to 0.1 %, and the columnar
//! hashes stop at the baseline makespan, so neither notices a what-if that
//! moves by a nanosecond. This pin does. Per fixture it records:
//!
//! * the FNV-1a of every consumable bottleneck — instance, resource, cause
//!   and each bottlenecked slice, expanded one by one — and of every
//!   blocking bottleneck (instance, resource, blocked seconds bit for bit,
//!   event count);
//! * every candidate of the sweep, in the order the sweep ranks them:
//!   its kind, optimistic makespan, affected instances and the bits of its
//!   reduction. The reporting threshold is `-∞`, so candidates the report
//!   would drop are pinned too.
//!
//! Fixtures: the `analyze` shape (Giraph PageRank, rmat:10, 8 machines ×
//! 8 threads, 1 ms slices, tuned `Exact` rules); PowerGraph and Spark at
//! 10 ms; and the three engines' `FaultPlan::all` streams at seeds 3, 11
//! and 46, repaired leniently, at 10 ms.
//!
//! Bless with `UPDATE_GOLDENS=1 cargo test --test issues_pin`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use grade10::cluster::{FaultPlan, SimOutput};
use grade10::core::hash::{fnv1a, fnv1a_extend};
use grade10::core::model::{ExecutionModel, RuleSet};
use grade10::core::parse::RawEvent;
use grade10::core::pipeline::{characterize_events, Characterization, CharacterizationConfig};
use grade10::core::trace::{RawSeries, MILLIS};
use grade10::engines::bridge::{collected_streams, to_raw_events, to_raw_series};
use grade10::engines::dataflow::{
    dataflow_model, dataflow_rules_tuned, run_dataflow, DataflowConfig, JobSpec,
};
use grade10::engines::gas::GasConfig;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};
use grade10::graph::partition::EdgeCutPartition;

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
            "bottleneck report or what-if sweep drifted from golden {name}; \
             re-bless with UPDATE_GOLDENS=1 only together with a CODE_VERSION \
             bump\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
        );
    }
}

/// One characterization input.
struct Fixture {
    name: String,
    model: ExecutionModel,
    rules: RuleSet,
    events: Vec<RawEvent>,
    monitoring: Vec<RawSeries>,
    slice_ms: u64,
    lenient: bool,
}

/// The per-engine runs the 10 ms fixtures are cut from.
fn engine_runs() -> Vec<(&'static str, ExecutionModel, RuleSet, SimOutput)> {
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
    let cfg = DataflowConfig {
        machines: 2,
        ..Default::default()
    };
    let graph = Dataset::Rmat { scale: 8, seed: 46 }.generate();
    let part = EdgeCutPartition::hash(&graph, cfg.machines * cfg.executors * 2);
    let work = Algorithm::PageRank { iterations: 3 }.run(&graph, &part);
    let job = JobSpec::from_work_profile(&work, 1.0e-4, 200.0, cfg.machines);
    let (spark_model, phases) = dataflow_model();
    vec![
        ("giraph", giraph.model, giraph.rules_tuned, giraph.sim),
        (
            "powergraph",
            powergraph.model,
            powergraph.rules_tuned,
            powergraph.sim,
        ),
        (
            "spark",
            spark_model,
            dataflow_rules_tuned(&phases, cfg.cores),
            run_dataflow(&job, &cfg),
        ),
    ]
}

fn fixtures() -> Vec<Fixture> {
    let analyze = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 10, seed: 7 },
        algorithm: Algorithm::PageRank { iterations: 8 },
        engine: EngineKind::Giraph(PregelConfig {
            machines: 8,
            threads: 8,
            ..Default::default()
        }),
    });
    let mut out = vec![Fixture {
        name: "analyze giraph rmat:10 8x8 1ms".into(),
        events: to_raw_events(&analyze.sim.logs),
        monitoring: to_raw_series(&analyze.sim.series, 8),
        model: analyze.model,
        rules: analyze.rules_tuned,
        slice_ms: 1,
        lenient: false,
    }];
    for (name, model, rules, sim) in engine_runs() {
        if name != "giraph" {
            out.push(Fixture {
                name: format!("{name} 10ms"),
                model: model.clone(),
                rules: rules.clone(),
                events: to_raw_events(&sim.logs),
                monitoring: to_raw_series(&sim.series, 8),
                slice_ms: 10,
                lenient: false,
            });
        }
        for seed in [3, 11, 46] {
            let (events, monitoring) = collected_streams(&sim, Some(&FaultPlan::all(seed)));
            out.push(Fixture {
                name: format!("{name} lenient all seed={seed} 10ms"),
                model: model.clone(),
                rules: rules.clone(),
                events,
                monitoring,
                slice_ms: 10,
                lenient: true,
            });
        }
    }
    out
}

fn characterize(f: &Fixture) -> Characterization {
    let mut cfg = CharacterizationConfig::new(f.lenient, f.slice_ms * MILLIS, None);
    cfg.issues.min_reduction = f64::NEG_INFINITY;
    characterize_events(&f.model, &f.rules, &f.events, &f.monitoring, &cfg)
        .unwrap_or_else(|e| panic!("{}: characterization failed: {e}", f.name))
}

/// The pinned lines of one characterization.
fn dump(out: &mut String, name: &str, c: &Characterization) {
    let report = &c.bottlenecks;
    let (mut consumable, mut slices) = (fnv1a(&[]), 0usize);
    for b in &report.consumable {
        consumable = fnv1a_extend(consumable, &b.instance.0.to_le_bytes());
        consumable = fnv1a_extend(consumable, &b.resource.0.to_le_bytes());
        consumable = fnv1a_extend(consumable, format!("{:?}", b.cause).as_bytes());
        let expanded: Vec<usize> = b.slices().collect();
        consumable = fnv1a_extend(consumable, &(expanded.len() as u64).to_le_bytes());
        for s in expanded {
            consumable = fnv1a_extend(consumable, &(s as u64).to_le_bytes());
            slices += 1;
        }
    }
    let mut blocking = fnv1a(&[]);
    for b in &report.blocking {
        blocking = fnv1a_extend(blocking, &b.instance.0.to_le_bytes());
        blocking = fnv1a_extend(blocking, &(b.resource.len() as u64).to_le_bytes());
        blocking = fnv1a_extend(blocking, b.resource.as_bytes());
        blocking = fnv1a_extend(blocking, &b.blocked_secs.to_bits().to_le_bytes());
        blocking = fnv1a_extend(blocking, &(b.events as u64).to_le_bytes());
    }
    writeln!(
        out,
        "{name} consumable={} slices={slices} fnv1a={consumable:016x} blocking={} fnv1a={blocking:016x} \
         base_makespan={}",
        report.consumable.len(),
        report.blocking.len(),
        c.base_makespan
    )
    .unwrap();
    for i in &c.issues {
        writeln!(
            out,
            "{name}   {:?} optimistic={} affected={} reduction_bits={:016x}",
            i.kind,
            i.optimistic_makespan,
            i.affected_instances,
            i.reduction.to_bits()
        )
        .unwrap();
    }
}

#[test]
fn bottleneck_report_and_what_if_sweep_are_pinned() {
    let mut out = String::new();
    for f in fixtures() {
        let c = characterize(&f);
        assert!(
            !c.issues.is_empty(),
            "{}: the sweep ran no candidate",
            f.name
        );
        dump(&mut out, &f.name, &c);
    }
    check_golden("issues_pin.txt", &out);
}
