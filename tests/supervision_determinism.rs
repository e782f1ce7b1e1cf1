//! Determinism of *supervised* execution across worker-pool widths.
//!
//! The supervision layer fans per-machine ingest and attribution units out
//! over a bounded worker pool, but merges everything order-sensitive —
//! incidents, coverage, repaired events, profile rows — in stable unit-key
//! order. This test drives the full 13-combination fault matrix through
//! the supervised pipeline under `GRADE10_THREADS` ∈ {1, 2, 8} and asserts
//! the `PartialCharacterization` is identical byte for byte: same
//! incidents, same coverage, same profile floats (Debug formatting
//! round-trips f64 exactly). Lives in its own integration-test binary
//! because the env var is process-global.

use std::fmt::Write as _;
use std::sync::OnceLock;

use grade10::cluster::{FaultClass, FaultPlan};
use grade10::core::pipeline::CharacterizationConfig;
use grade10::core::supervise::{characterize_events_supervised, PartialCharacterization};
use grade10::core::trace::MILLIS;
use grade10::engines::bridge::collected_streams;
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
/// the coverage ledgers, and every float the profile holds.
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

#[test]
fn supervised_matrix_is_identical_across_pool_widths() {
    let one = matrix_at("1");
    let two = matrix_at("2");
    let eight = matrix_at("8");
    assert!(
        one.iter().any(|d| d.contains("incident=")),
        "matrix produced no incidents; the fixture is too tame to prove anything"
    );
    for ((mask, a), (b, c)) in fault_masks().iter().zip(&one).zip(two.iter().zip(&eight)) {
        assert_eq!(a, b, "mask {mask:#010b}: width 1 vs 2 diverged");
        assert_eq!(b, c, "mask {mask:#010b}: width 2 vs 8 diverged");
    }
}
