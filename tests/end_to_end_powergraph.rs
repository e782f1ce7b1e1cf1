//! End-to-end integration for the PowerGraph-like engine: architectural
//! contrasts with Giraph (§IV-C), imbalance analysis, and the
//! synchronization bug (§IV-D).

use grade10::core::attribution::UpsampleMode;
use grade10::core::bottleneck::{BottleneckConfig, BottleneckReport};
use grade10::core::issues::imbalance::{imbalance_groups, imbalance_issue};
use grade10::core::issues::{
    detect_bottleneck_issues, detect_imbalance_issues, detect_issues, IssueConfig,
};
use grade10::core::replay::{Baseline, ReplayConfig};
use grade10::core::PerformanceIssue;
use grade10::engines::gas::{GasConfig, SyncBugConfig};
use grade10::engines::workload::EnginePhases;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

const SLICE: u64 = 10_000_000;

fn small_config(bug: Option<SyncBugConfig>) -> GasConfig {
    GasConfig {
        machines: 2,
        threads: 4,
        cores: 4.0,
        sync_bug: bug,
        ..Default::default()
    }
}

fn run(bug: Option<SyncBugConfig>) -> WorkloadRun {
    run_workload(&WorkloadSpec {
        dataset: Dataset::Social {
            vertices: 3000,
            seed: 11,
        },
        algorithm: Algorithm::Cdlp { iterations: 6 },
        engine: EngineKind::PowerGraph(small_config(bug)),
    })
}

fn gas_phases(run: &WorkloadRun) -> grade10::engines::models::GasPhases {
    match run.phases {
        EnginePhases::Gas(p) => p,
        _ => unreachable!(),
    }
}

#[test]
fn architectural_contrast_no_gc_no_queue() {
    let run = run(None);
    assert!(run.sim.stats.gc_pauses.is_empty());
    assert_eq!(
        run.sim.stats.queue_stall_time,
        grade10::cluster::SimDuration::ZERO
    );
    let profile = run.build_profile(&run.rules_tuned, 8, SLICE, UpsampleMode::DemandGuided);
    let report = BottleneckReport::build(&run.trace, &profile, &BottleneckConfig::default());
    assert!(report
        .blocking
        .iter()
        .all(|b| b.resource != "gc" && b.resource != "msgq"));
}

#[test]
fn gas_stages_are_ordered_within_workers() {
    let run = run(None);
    let p = gas_phases(&run);
    // Within every (iteration, worker): gather ends before apply starts,
    // apply before scatter, scatter before exchange.
    let worker_ty = p.worker;
    for worker in run.trace.instances_of_type(worker_ty) {
        let child = |ty| {
            run.trace
                .children_of(worker.id)
                .iter()
                .map(|&c| run.trace.instance(c))
                .find(|i| i.type_id == ty)
        };
        let (g, a, s, e) = (
            child(p.gather).unwrap(),
            child(p.apply).unwrap(),
            child(p.scatter).unwrap(),
            child(p.exchange).unwrap(),
        );
        assert!(g.end <= a.start, "gather must precede apply");
        assert!(a.end <= s.start, "apply must precede scatter");
        assert!(s.end <= e.start, "scatter must precede exchange");
    }
}

#[test]
fn vertex_cut_sync_traffic_exists() {
    // CDLP updates labels; masters must push them to mirrors: the work
    // profile carries sync messages and the network sees traffic.
    let run = run(None);
    assert!(run.work.grand_total().sync_messages > 0);
    let net: f64 = run
        .sim
        .series
        .iter()
        .filter(|s| s.spec.kind.name() != "cpu")
        .map(|s| s.total_consumption())
        .sum();
    assert!(net > 0.0, "expected network traffic from replica sync");
}

#[test]
fn sync_bug_slows_affected_steps_and_whole_run() {
    let bug = SyncBugConfig {
        probability: 1.0,
        extra_min: 1.0,
        extra_max: 1.5,
    };
    let buggy = run(Some(bug));
    let fixed = run(None);
    assert!(!buggy.injected_bugs.is_empty());
    assert!(
        buggy.sim.end_time > fixed.sim.end_time,
        "bug must slow the run: {} vs {}",
        buggy.sim.end_time,
        fixed.sim.end_time
    );
    // Grade10's imbalance analysis must estimate a larger gather-balance
    // win on the buggy run.
    let pb = gas_phases(&buggy);
    let pf = gas_phases(&fixed);
    let rb = imbalance_issue(&buggy.model, &buggy.trace, pb.gather_thread, &ReplayConfig::default());
    let rf = imbalance_issue(&fixed.model, &fixed.trace, pf.gather_thread, &ReplayConfig::default());
    assert!(
        rb.reduction > rf.reduction,
        "buggy imbalance {} !> fixed imbalance {}",
        rb.reduction,
        rf.reduction
    );
}

#[test]
fn outlier_analysis_locates_injected_victims() {
    let bug = SyncBugConfig {
        probability: 1.0,
        extra_min: 2.0,
        extra_max: 2.5,
    };
    let mut cfg = small_config(Some(bug));
    cfg.jitter_sigma = 0.05; // keep organic noise far below the injections
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Social {
            vertices: 3000,
            seed: 11,
        },
        algorithm: Algorithm::Cdlp { iterations: 6 },
        engine: EngineKind::PowerGraph(cfg),
    });
    let p = gas_phases(&run);
    let groups = imbalance_groups(&run.model, &run.trace, p.gather_thread);
    for bug in &run.injected_bugs {
        let group = groups
            .iter()
            .find(|g| run.trace.instance(g.scope).key == bug.iteration as u32)
            .expect("group for iteration");
        let rep = group.outliers(2.0);
        assert!(
            rep.outliers
                .iter()
                .any(|&(_, m, _)| m == Some(bug.machine as u16)),
            "iteration {}: injected victim on machine {} not found in {:?}",
            bug.iteration,
            bug.machine,
            rep.outliers
        );
    }
}

#[test]
fn work_profile_drives_phase_durations() {
    // Iterations with more label churn (early CDLP) must produce longer
    // apply phases than converged iterations (late).
    let run = run(None);
    let p = gas_phases(&run);
    let early_sync = run.work.iterations.first().unwrap().total().sync_messages;
    let late_sync = run.work.iterations.last().unwrap().total().sync_messages;
    assert!(early_sync > late_sync, "CDLP must converge");
    let gather_total_per_iter: Vec<u64> = {
        let groups = imbalance_groups(&run.model, &run.trace, p.gather_thread);
        groups
            .iter()
            .map(|g| g.members.iter().map(|&(_, _, d)| d).sum())
            .collect()
    };
    // Gather work is edge-proportional for CDLP: roughly constant.
    let first = gather_total_per_iter.first().copied().unwrap() as f64;
    let last = gather_total_per_iter.last().copied().unwrap() as f64;
    assert!(
        (first / last) < 2.0 && (last / first) < 2.0,
        "CDLP gather work should be stable: {gather_total_per_iter:?}"
    );
}

/// `detect_issues` shares one replay plan between all candidates; the two
/// per-class sweeps each build their own. Same issues, same order.
#[test]
fn one_plan_sweep_equals_the_two_per_class_sweeps() {
    let run = run(Some(SyncBugConfig::default()));
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
