//! Self-characterization acceptance: when Grade10 profiles its own
//! pipeline, the CPU it attributes to its stages must account for the
//! recorded run — the meta-characterization is held to the same
//! conservation standard as any characterization.

use grade10::core::attribution::Parallelism;
use grade10::core::model::{AttributionRule, ExecutionModelBuilder, Repeat, RuleSet};
use grade10::core::obs::{self, Stage};
use grade10::core::pipeline::{characterize_meta, characterize_self, CharacterizationConfig};
use grade10::core::report::{self_profile_table, usage_by_type};
use grade10::core::supervise::characterize_events_supervised;
use grade10::core::trace::{ExecutionTrace, ResourceInstance, ResourceTrace, TraceBuilder, MILLIS};
use grade10::core::ExecutionModel;
use grade10::engines::bridge::{to_raw_events, to_raw_series};
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

/// A BSP workload big enough that the pipeline runs for tens of
/// milliseconds — per-stage work must dominate the nanosecond-scale gaps
/// between stage spans for the 5% accounting check to be meaningful.
fn workload(steps: usize) -> (ExecutionModel, RuleSet, ExecutionTrace, ResourceTrace) {
    let machines = 4usize;
    let threads = 8usize;
    let mut b = ExecutionModelBuilder::new("job");
    let root = b.root();
    let step = b.child(root, "step", Repeat::Sequential);
    let task = b.child(step, "task", Repeat::Parallel);
    let model = b.build();
    let rules = RuleSet::new().rule(task, "cpu", AttributionRule::Variable(1.0));

    let mut tb = TraceBuilder::new(&model);
    let step_ms = 100u64;
    let total = steps as u64 * step_ms;
    tb.add_phase(&[("job", 0)], 0, total * MILLIS, None, None)
        .unwrap();
    for s in 0..steps {
        let t0 = s as u64 * step_ms;
        tb.add_phase(
            &[("job", 0), ("step", s as u32)],
            t0 * MILLIS,
            (t0 + step_ms) * MILLIS,
            None,
            None,
        )
        .unwrap();
        for t in 0..machines * threads {
            let d = step_ms - (t as u64 % 7) * 5;
            tb.add_phase(
                &[("job", 0), ("step", s as u32), ("task", t as u32)],
                t0 * MILLIS,
                (t0 + d) * MILLIS,
                Some((t / threads) as u16),
                Some((t % threads) as u16),
            )
            .unwrap();
        }
    }
    let trace = tb.build().unwrap();

    let mut rt = ResourceTrace::new();
    for m in 0..machines {
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(m as u16),
            capacity: 8.0,
        });
        let samples: Vec<f64> = (0..total / 400).map(|i| 4.0 + (i % 4) as f64).collect();
        rt.add_series(cpu, 0, 400 * MILLIS, &samples);
    }
    (model, rules, trace, rt)
}

#[test]
fn attributed_stage_cpu_accounts_for_recorded_wall_time() {
    let (model, rules, trace, rt) = workload(150);
    // Single-threaded pipeline: every stage runs on the recorder thread, so
    // attributed CPU-seconds are directly comparable to wall-clock time.
    let mut cfg = CharacterizationConfig::default();
    cfg.profile.parallelism = Parallelism::Never;

    let sc = characterize_self(&model, &rules, &trace, &rt, &cfg).expect("self-characterization");
    let meta = &sc.meta;

    // The recorder emits strict-clean streams by construction.
    assert!(
        meta.result.ingest.is_clean(),
        "meta ingestion repaired something: {:?}",
        meta.result.ingest
    );

    // One characterization: the bottleneck, replay and issues rows each
    // record exactly one span of their own stage. No worker spans.
    for stage in [Stage::Bottleneck, Stage::Replay, Stage::Issues] {
        let spans = meta.raw.spans.iter().filter(|s| s.stage == stage).count();
        assert_eq!(spans, 1, "stage {stage:?} recorded {spans} spans");
    }
    let stages_seen: Vec<Stage> = Stage::ALL
        .into_iter()
        .filter(|&s| meta.raw.spans.iter().any(|sp| sp.stage == s))
        .collect();
    assert!(
        !stages_seen.contains(&Stage::Worker),
        "worker spans recorded despite Parallelism::Never"
    );

    // Acceptance criterion: attributed CPU per stage sums to within 5% of
    // the total recorded pipeline wall time.
    let usage = usage_by_type(&meta.result.profile, &meta.trace);
    let total_cpu: f64 = Stage::ALL
        .iter()
        .filter_map(|s| meta.model.find_by_name(s.name()))
        .filter_map(|ty| usage.get(&(ty, "cpu".to_string())))
        .sum();
    let wall_secs = meta.raw.end as f64 / 1e9;
    assert!(wall_secs > 0.0, "empty recording");
    let rel = (total_cpu - wall_secs).abs() / wall_secs;
    assert!(
        rel <= 0.05,
        "attributed stage CPU {total_cpu:.6}s vs recorded wall {wall_secs:.6}s \
         ({:.2}% apart, budget 5%)",
        rel * 100.0
    );

    // The report table renders one row per recorded stage plus a total.
    let table = self_profile_table(meta);
    let rendered = table.render();
    assert!(rendered.contains("total"), "{rendered}");
    assert_eq!(table.len(), stages_seen.len() + 1, "{rendered}");

    // The subject characterization is unaffected by being recorded: its
    // summary matches a plain run's.
    let plain = grade10::core::pipeline::characterize(&model, &rules, &trace, &rt, &cfg);
    assert_eq!(sc.summary, plain.summary(&model));
}

#[test]
fn worker_spans_appear_under_parallel_upsampling() {
    let (model, rules, trace, rt) = workload(40);
    let mut cfg = CharacterizationConfig::default();
    cfg.profile.parallelism = Parallelism::Always;
    // Two workers whatever the host's core count: width 1 runs inline.
    cfg.profile.threads = Some(2);

    let sc = characterize_self(&model, &rules, &trace, &rt, &cfg).expect("self-characterization");
    let meta = &sc.meta;
    assert!(
        meta.raw.spans.iter().any(|s| s.stage == Stage::Worker),
        "no worker spans recorded under Parallelism::Always"
    );
    // Worker spans live on their own recorder threads.
    assert!(meta.raw.num_threads() > 1, "workers share the main thread");
    // Strict meta ingestion still passes with nested worker phases.
    assert!(meta.result.ingest.is_clean());
}

/// Supervised per-machine units run on pool workers. Every stage the
/// self-profile lists must be one the meta characterization attributes
/// CPU to: a pool worker's time shows up in the spans of the stages it
/// ran, never as a `worker` row outside any upsampling.
#[test]
fn supervised_pool_workers_are_attributed() {
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 8, seed: 3 },
        algorithm: Algorithm::PageRank { iterations: 2 },
        engine: EngineKind::Giraph(PregelConfig {
            machines: 4,
            threads: 2,
            cores: 2.0,
            ..Default::default()
        }),
    });
    let events = to_raw_events(&run.sim.logs);
    let monitoring = to_raw_series(&run.sim.series, 8);
    let mut cfg = CharacterizationConfig::default();
    cfg.supervise.threads = Some(2);

    let rec = obs::start();
    let p =
        characterize_events_supervised(&run.model, &run.rules_tuned, &events, &monitoring, &cfg)
            .expect("supervised run");
    let raw = rec.finish();
    assert!(p.is_complete(), "{:?}", p.incidents);
    assert!(raw.num_threads() > 1, "units never left the main thread");

    let meta = characterize_meta(&raw).expect("meta characterization");
    let usage = usage_by_type(&meta.result.profile, &meta.trace);
    for stage in Stage::ALL {
        let wall: u64 = raw
            .spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.end - s.start)
            .sum();
        if wall == 0 {
            continue;
        }
        let cpu = meta
            .model
            .find_by_name(stage.name())
            .and_then(|ty| usage.get(&(ty, "cpu".to_string())))
            .copied()
            .unwrap_or(0.0);
        assert!(
            cpu > 0.0,
            "stage {stage:?} recorded {wall} ns but was attributed no CPU"
        );
    }
}
