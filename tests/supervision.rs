//! End-to-end supervision: the hostile fault classes (`machine-missing`,
//! `timestamp-bomb`) and injected unit failures (panics, deadline
//! overruns) must degrade the characterization, never abort it. The
//! supervised pipeline always returns either a partial characterization
//! with incidents and coverage, or a classified recoverable error.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use grade10::cluster::{FaultClass, FaultPlan};
use grade10::core::pipeline::CharacterizationConfig;
use grade10::core::supervise::{
    characterize_events_supervised, ChaosMode, ChaosPoint, IncidentKind, UnitStatus,
};
use grade10::core::trace::MILLIS;
use grade10::engines::bridge::{collected_streams, to_raw_events, to_raw_series};
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

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

fn lenient_config() -> CharacterizationConfig {
    CharacterizationConfig::new(true, 10 * MILLIS, None)
}

/// The CLI acceptance scenario: machine-missing + timestamp-bomb under
/// lenient supervised mode completes with per-machine coverage and at
/// least one incident attributable to each injected class.
#[test]
fn hostile_faults_yield_partial_characterization_with_incidents() {
    let run = tiny_run();
    let mut plan = FaultPlan::clean(7);
    plan.enable(FaultClass::MachineMissing);
    plan.enable(FaultClass::TimestampBomb);
    let (events, monitoring) = collected_streams(&run.sim, Some(&plan));

    let p = characterize_events_supervised(
        &run.model,
        &run.rules_tuned,
        &events,
        &monitoring,
        &lenient_config(),
    )
    .expect("supervised lenient mode must absorb hostile faults");

    assert!(!p.is_complete(), "hostile faults must surface as incidents");
    // machine-missing: the silenced machine is covered from monitoring only.
    assert!(
        p.incidents.iter().any(|i| i.kind == IncidentKind::MissingData),
        "no missing-data incident for machine-missing: {:?}",
        p.incidents
    );
    // timestamp-bomb: the bombed monitoring interval is quarantined and the
    // bombed log timestamp trips the grid budget guard.
    assert!(
        p.incidents.iter().any(|i| {
            i.kind == IncidentKind::Quarantine || i.kind == IncidentKind::Budget
        }),
        "no quarantine/budget incident for timestamp-bomb: {:?}",
        p.incidents
    );
    // Per-machine coverage over both machines, none dropped: every unit
    // recovered under degradation.
    let machines: Vec<Option<u16>> = p.coverage.machines.iter().map(|m| m.machine).collect();
    assert!(machines.contains(&Some(0)) && machines.contains(&Some(1)));
    assert_eq!(p.coverage.machines_covered(), p.coverage.machines.len());
    // The characterization is real: a profile with resources and a makespan.
    assert!(!p.characterization.profile.resources.is_empty());
    assert!(p.characterization.base_makespan > 0);
}

/// Robustness sweep (the "never panics" property): every single fault
/// class, plus adversarial combinations including all eight at once, under
/// lenient supervised mode. Each run must return a characterization or a
/// recoverable error — no panic, no abort, and coverage must stay
/// well-formed.
#[test]
fn any_fault_combination_is_absorbed_or_classified() {
    let run = tiny_run();
    // Bitmask over FaultClass::ALL: all singles, the stream-damage set, the
    // hostile pair, alternating mixes, and everything at once.
    let masks: Vec<u8> = (0..8)
        .map(|b| 1u8 << b)
        .chain([0b0011_1111, 0b1100_0000, 0b1010_1010, 0b0101_0101, 0xFF])
        .collect();
    for (case, mask) in masks.into_iter().enumerate() {
        let mut plan = FaultPlan::clean(1000 + case as u64);
        for (bit, class) in FaultClass::ALL.into_iter().enumerate() {
            if mask & (1 << bit) != 0 {
                plan.enable(class);
            }
        }
        let (events, monitoring) = collected_streams(&run.sim, Some(&plan));
        match characterize_events_supervised(
            &run.model,
            &run.rules_tuned,
            &events,
            &monitoring,
            &lenient_config(),
        ) {
            Ok(p) => {
                assert_eq!(
                    p.coverage.stages.len(),
                    5,
                    "case {case} (mask {mask:#010b}): malformed stage coverage"
                );
                assert!(
                    !p.coverage.machines.is_empty(),
                    "case {case} (mask {mask:#010b}): no machine coverage"
                );
            }
            Err(e) => assert!(
                e.is_recoverable(),
                "case {case} (mask {mask:#010b}): fatal error {e}"
            ),
        }
    }
}

/// An injected panic in one machine's attribution unit must not abort the
/// pipeline or lose the other machine's results.
#[test]
fn panic_in_one_unit_spares_other_units_results() {
    let run = tiny_run();
    let events = to_raw_events(&run.sim.logs);
    let monitoring = to_raw_series(&run.sim.series, 8);
    let mut cfg = lenient_config();
    cfg.supervise.max_retries = 1;
    cfg.supervise.chaos.push(ChaosPoint {
        unit: "attribute/machine 0".to_string(),
        mode: ChaosMode::Panic,
    });

    let p = characterize_events_supervised(
        &run.model,
        &run.rules_tuned,
        &events,
        &monitoring,
        &cfg,
    )
    .expect("a panicking unit must not abort the pipeline");

    let inc = p
        .incidents
        .iter()
        .find(|i| i.stage == "attribute" && i.unit == "machine 0")
        .expect("panic incident for the sabotaged unit");
    assert_eq!(inc.kind, IncidentKind::Panic);
    // Machine 1's resources survived in full; machine 0's are gone.
    assert!(p
        .characterization
        .profile
        .resources
        .iter()
        .all(|r| r.machine != Some(0)));
    assert!(p
        .characterization
        .profile
        .resources
        .iter()
        .any(|r| r.machine == Some(1)));
    let m0 = p
        .coverage
        .machines
        .iter()
        .find(|m| m.machine == Some(0))
        .expect("machine 0 coverage row");
    assert_eq!(m0.status, UnitStatus::Dropped);
    // Downstream stages still produced results from the surviving data.
    assert!(p.characterization.base_makespan > 0);
}

/// A deadline overrun in one whole-pipeline stage stops within a bounded
/// slack of the deadline and falls back, leaving every per-machine result
/// intact and no thread behind.
#[test]
fn deadline_overrun_in_one_stage_is_isolated() {
    let run = tiny_run();
    let events = to_raw_events(&run.sim.logs);
    let monitoring = to_raw_series(&run.sim.series, 8);
    let mut cfg = lenient_config();
    let deadline = Duration::from_millis(2000);
    cfg.supervise.deadline = Some(deadline);
    cfg.supervise.max_retries = 0;
    cfg.supervise.chaos.push(ChaosPoint {
        unit: "issues".to_string(),
        mode: ChaosMode::Stall(Duration::from_secs(30)),
    });

    let t0 = Instant::now();
    let p = characterize_events_supervised(
        &run.model,
        &run.rules_tuned,
        &events,
        &monitoring,
        &cfg,
    )
    .expect("a stalled stage must not abort the pipeline");
    let took = t0.elapsed();
    assert!(
        took < deadline + Duration::from_millis(500),
        "the overrun was reported {took:?} after the call began"
    );
    // The stalled attempt stopped itself: no worker is left running it.
    #[cfg(target_os = "linux")]
    {
        let tasks = std::fs::read_dir("/proc/self/task").expect("list threads");
        for task in tasks {
            let comm = std::fs::read_to_string(task.expect("thread").path().join("comm"));
            // A thread that exits while we list is gone: nothing to check.
            let comm = comm.unwrap_or_default();
            assert!(!comm.starts_with("grade10-"), "thread {comm:?} outlived the run");
        }
    }

    let inc = p
        .incidents
        .iter()
        .find(|i| i.stage == "issues")
        .expect("deadline incident for the stalled stage");
    assert_eq!(inc.kind, IncidentKind::Deadline);
    // The stage fell back to "no issues"; everything upstream is intact.
    assert!(p.characterization.issues.is_empty());
    assert!(!p.characterization.profile.resources.is_empty());
    assert!(p.characterization.base_makespan > 0);
    assert_eq!(p.coverage.machines_covered(), p.coverage.machines.len());
}
