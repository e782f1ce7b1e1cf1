//! End-to-end integration: graph → algorithm → Giraph-like engine → logs →
//! Grade10 pipeline, asserting cross-crate invariants on real (simulated)
//! executions.

use grade10::cluster::GcConfig;
use grade10::core::attribution::UpsampleMode;
use grade10::core::bottleneck::{BottleneckConfig, BottleneckReport};
use grade10::core::pipeline::{characterize, CharacterizationConfig};
use grade10::core::issues::{
    detect_bottleneck_issues, detect_imbalance_issues, detect_issues, IssueConfig,
};
use grade10::core::replay::{replay_original, Baseline, ReplayConfig};
use grade10::core::{IssueKind, PerformanceIssue};
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

const SLICE: u64 = 10_000_000;

fn small_config() -> PregelConfig {
    PregelConfig {
        machines: 2,
        threads: 2,
        cores: 2.0,
        net_bps: 2.0e6,
        queue_bytes: 2.0e5,
        gc: Some(GcConfig {
            heap_bytes: 1.2e8,
            trigger_fraction: 0.8,
            pause_per_byte: 0.3 / 1e9,
            min_pause_secs: 0.045,
            live_fraction: 0.25,
        }),
        ..Default::default()
    }
}

fn run() -> WorkloadRun {
    run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 10, seed: 7 },
        algorithm: Algorithm::PageRank { iterations: 4 },
        engine: EngineKind::Giraph(small_config()),
    })
}

#[test]
fn trace_structure_matches_engine() {
    let run = run();
    // One root, one execute, per-machine load/output, per-superstep
    // containers.
    let root_ty = run.model.root();
    assert_eq!(run.trace.instances_of_type(root_ty).count(), 1);
    let superstep = run.model.find_by_name("superstep").unwrap();
    assert_eq!(run.trace.instances_of_type(superstep).count(), 4);
    let thread = run.model.find_by_name("thread").unwrap();
    assert_eq!(run.trace.instances_of_type(thread).count(), 4 * 4);
    // Supersteps are disjoint in time and ordered by key.
    let mut steps: Vec<_> = run.trace.instances_of_type(superstep).collect();
    steps.sort_by_key(|s| s.key);
    for w in steps.windows(2) {
        assert!(w[0].end <= w[1].start, "supersteps overlap");
    }
}

#[test]
fn profile_conserves_consumption() {
    let run = run();
    for downsample in [2usize, 8] {
        let profile = run.build_profile(
            &run.rules_tuned,
            downsample,
            SLICE,
            UpsampleMode::DemandGuided,
        );
        let rt = run.resource_trace(downsample);
        for r in 0..profile.resources.len() {
            let ridx = grade10::core::trace::ResourceIdx(r as u32);
            let measured = rt.total_consumption(ridx);
            let upsampled: f64 =
                profile.consumption[r].iter().sum::<f64>() * profile.grid.slice_secs();
            assert!(
                (measured - upsampled - profile.overflow[r]).abs() < 1e-6 + measured * 1e-9,
                "resource {} not conserved: measured {measured}, upsampled {upsampled}",
                profile.resources[r].label()
            );
            // Attribution + unattributed == consumption, per slice.
            for s in 0..profile.grid.num_slices() {
                let attributed: f64 = profile
                    .usages
                    .iter()
                    .filter(|u| u.resource == ridx)
                    .map(|u| u.usage_at(s))
                    .sum();
                let total = attributed + profile.unattributed[r][s];
                assert!(
                    (total - profile.consumption[r][s]).abs() < 1e-6,
                    "slice {s} of {} not conserved",
                    profile.resources[r].label()
                );
            }
        }
    }
}

#[test]
fn consumption_never_exceeds_capacity() {
    let run = run();
    let profile = run.build_profile(&run.rules_tuned, 8, SLICE, UpsampleMode::DemandGuided);
    for (r, res) in profile.resources.iter().enumerate() {
        for (s, &c) in profile.consumption[r].iter().enumerate() {
            assert!(
                c <= res.capacity * (1.0 + 1e-9),
                "{} exceeds capacity at slice {s}: {c} > {}",
                res.label(),
                res.capacity
            );
        }
    }
}

#[test]
fn gc_and_queue_blocking_reach_the_report() {
    let run = run();
    assert!(!run.sim.stats.gc_pauses.is_empty(), "engine must GC");
    let profile = run.build_profile(&run.rules_tuned, 8, SLICE, UpsampleMode::DemandGuided);
    let report = BottleneckReport::build(&run.trace, &profile, &BottleneckConfig::default());
    let kinds: std::collections::BTreeSet<&str> = report
        .blocking
        .iter()
        .map(|b| b.resource.as_str())
        .collect();
    assert!(kinds.contains("gc"), "gc blocking missing: {kinds:?}");
    assert!(kinds.contains("msgq"), "msgq blocking missing: {kinds:?}");
    // Blocking attaches to compute threads (the phases the resources halt).
    let thread_ty = run.model.find_by_name("thread").unwrap();
    assert!(report
        .blocking
        .iter()
        .filter(|b| b.resource == "gc")
        .all(|b| run.trace.instance(b.instance).type_id == thread_ty));
}

#[test]
fn replay_baseline_close_to_observed_makespan() {
    let run = run();
    let base = replay_original(&run.model, &run.trace, &ReplayConfig::default());
    let observed = run.trace.makespan_end() - run.trace.origin();
    // Replay removes scheduling gaps, so it can only be faster — but on a
    // barrier-synchronized BSP trace it should be close.
    assert!(base.makespan <= observed);
    assert!(
        base.makespan as f64 >= 0.80 * observed as f64,
        "replay {} too far below observed {}",
        base.makespan,
        observed
    );
}

#[test]
fn full_characterization_finds_cpu_gc_and_queue_issues() {
    let run = run();
    let resources = run.resource_trace(8);
    let result = characterize(
        &run.model,
        &run.rules_tuned,
        &run.trace,
        &resources,
        &CharacterizationConfig::default(),
    );
    let has = |pred: &dyn Fn(&IssueKind) -> bool| result.issues.iter().any(|i| pred(&i.kind));
    assert!(
        has(&|k| matches!(k, IssueKind::ConsumableBottleneck { resource_kind } if resource_kind == "cpu")),
        "cpu issue missing"
    );
    assert!(
        has(&|k| matches!(k, IssueKind::BlockingBottleneck { resource_kind } if resource_kind == "gc")),
        "gc issue missing"
    );
    assert!(
        has(&|k| matches!(k, IssueKind::BlockingBottleneck { resource_kind } if resource_kind == "msgq")),
        "msgq issue missing"
    );
    for i in &result.issues {
        assert!(i.reduction > 0.0 && i.reduction < 1.0);
        assert!(i.optimistic_makespan <= i.base_makespan);
    }
}

/// `detect_issues` shares one replay plan between all candidates; the two
/// per-class sweeps each build their own. Same issues, same order.
#[test]
fn one_plan_sweep_equals_the_two_per_class_sweeps() {
    let run = run();
    let profile = run.build_profile(&run.rules_tuned, 8, SLICE, UpsampleMode::DemandGuided);
    let report = BottleneckReport::build(&run.trace, &profile, &BottleneckConfig::default());
    let (rcfg, icfg) = (ReplayConfig::default(), IssueConfig::default());
    let mut split =
        detect_bottleneck_issues(&run.model, &run.trace, &profile, &report, &rcfg, &icfg);
    split.extend(detect_imbalance_issues(&run.model, &run.trace, &rcfg, &icfg));
    split.sort_by(|a, b| b.reduction.total_cmp(&a.reduction));
    let merged = detect_issues(
        &run.model,
        &run.trace,
        &profile,
        &report,
        Baseline::new(&run.model, &run.trace, &rcfg),
        &icfg,
    );
    let key = |i: &PerformanceIssue| {
        (
            i.kind.clone(),
            i.base_makespan,
            i.optimistic_makespan,
            i.affected_instances,
        )
    };
    assert!(merged.len() >= 3, "{merged:?}");
    assert_eq!(
        merged.iter().map(key).collect::<Vec<_>>(),
        split.iter().map(key).collect::<Vec<_>>()
    );
}

#[test]
fn pipeline_is_deterministic() {
    let (a, b) = (run(), run());
    assert_eq!(a.sim.end_time, b.sim.end_time);
    assert_eq!(a.trace.instances().len(), b.trace.instances().len());
    let pa = a.build_profile(&a.rules_tuned, 8, SLICE, UpsampleMode::DemandGuided);
    let pb = b.build_profile(&b.rules_tuned, 8, SLICE, UpsampleMode::DemandGuided);
    assert_eq!(pa.consumption, pb.consumption);
}
