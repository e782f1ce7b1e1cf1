//! Scaling sweep: how the bottleneck profile shifts as the cluster grows.
//!
//! Not a paper figure — it extends §IV-C along the cluster-size axis. With
//! a fixed input graph, adding machines shrinks each worker's compute share
//! while the *fraction* of messages that must cross the network grows
//! (under hash partitioning, `(M−1)/M` of cross-partition traffic is
//! machine-remote). Grade10's what-if estimates should show the CPU impact
//! falling while communication-side impacts (message-queue stalls) emerge —
//! the classic compute→communication crossover of scaling out a fixed-size
//! problem.

use std::time::{Duration, Instant};

use grade10_bench::{reduction_for, DEFAULT_DOWNSAMPLE, SLICE_NS};
use grade10_core::attribution::UpsampleMode;
use grade10_core::bottleneck::{BottleneckConfig, BottleneckReport};
use grade10_core::config::Parallelism;
use grade10_core::issues::{detect_bottleneck_issues, IssueConfig};
use grade10_core::pipeline::CharacterizationConfig;
use grade10_core::replay::ReplayConfig;
use grade10_core::report::Table;
use grade10_core::supervise::{characterize_events_supervised, ChaosMode, ChaosPoint};
use grade10_core::trace::{IngestConfig, MILLIS};
use grade10_engines::bridge::{to_raw_events, to_raw_series};
use grade10_engines::pregel::PregelConfig;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

fn main() {
    supervised_pool_sweep();
    println!("=== Scaling sweep: PageRank on the Giraph-like engine, fixed input ===\n");
    let mut table = Table::new(&[
        "machines",
        "runtime",
        "cpu impact",
        "msgq impact",
        "queue stall (thread-s)",
        "remote msg fraction",
    ]);

    for machines in [2usize, 4, 8] {
        let cfg = PregelConfig {
            machines,
            ..Default::default()
        };
        let remote_frac = cfg.machine_remote_fraction();
        let spec = WorkloadSpec {
            dataset: Dataset::Rmat { scale: 12, seed: 46 },
            algorithm: Algorithm::PageRank { iterations: 8 },
            engine: EngineKind::Giraph(cfg),
        };
        let run = run_workload(&spec);
        let profile = run.build_profile(
            &run.rules_tuned,
            DEFAULT_DOWNSAMPLE,
            SLICE_NS,
            UpsampleMode::DemandGuided,
        );
        let report = BottleneckReport::build(&run.trace, &profile, &BottleneckConfig::default());
        let issues = detect_bottleneck_issues(
            &run.model,
            &run.trace,
            &profile,
            &report,
            &ReplayConfig::default(),
            &IssueConfig {
                floor_factor: 0.25,
                min_reduction: 0.0,
            },
        );
        table.row(&[
            format!("{machines}"),
            format!("{:.2}s", run.sim.end_time.as_secs_f64()),
            format!("{:.1}%", 100.0 * reduction_for(&issues, "cpu")),
            format!("{:.1}%", 100.0 * reduction_for(&issues, "msgq")),
            format!("{:.1}", run.sim.stats.queue_stall_time.as_secs_f64()),
            format!("{:.0}%", 100.0 * remote_frac),
        ]);
        println!("finished {machines} machines");
    }
    println!("\n{}", table.render());
    println!(
        "Expected crossover: scaling out a fixed input shifts the limiter from \
         compute toward communication — CPU impact falls monotonically with machine \
         count, and message-queue bottlenecks appear once per-worker message \
         production outruns the fixed per-machine NIC (here between 2 and 4 \
         machines). At still larger clusters both shares shrink in absolute terms \
         as the fixed input is spread ever thinner."
    );
}

/// Supervised pool scaling: an 8-machine run whose per-machine attribution
/// units each stall 60 ms (chaos injection standing in for the slow,
/// latency-bound units real degraded collections produce). No deadline is
/// set, so every stall runs in full on the worker that claimed its unit.
/// Sequential supervision pays the stalls end to end; the worker pool
/// overlaps them, so wall-clock falls roughly
/// as `ceil(units / width) × stall` even on a single core. Acceptance:
/// ≥ 1.5× at 4 threads.
fn supervised_pool_sweep() {
    println!("=== Supervised pool scaling: 8 machines, 60 ms per-unit stalls ===\n");
    let machines = 8usize;
    let spec = WorkloadSpec {
        dataset: Dataset::Rmat { scale: 9, seed: 46 },
        algorithm: Algorithm::PageRank { iterations: 2 },
        engine: EngineKind::Giraph(PregelConfig {
            machines,
            threads: 2,
            cores: 2.0,
            ..Default::default()
        }),
    };
    let run = run_workload(&spec);
    let events = to_raw_events(&run.sim.logs);
    let monitoring = to_raw_series(&run.sim.series, 8);

    let mut base = CharacterizationConfig::default();
    base.profile.slice = 10 * MILLIS;
    base.ingest = IngestConfig::lenient();
    base.supervise.parallelism = Parallelism::Always;
    for m in 0..machines as u16 {
        base.supervise.chaos.push(ChaosPoint {
            unit: format!("attribute/machine {m}"),
            mode: ChaosMode::Stall(Duration::from_millis(60)),
        });
    }

    let mut table = Table::new(&["pool width", "wall clock", "speedup vs 1", "incidents"]);
    let mut baseline = None;
    let mut speedup_at_4 = 0.0;
    for width in [1usize, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.supervise.threads = Some(width);
        cfg.profile.threads = Some(width);
        let t0 = Instant::now();
        let p = characterize_events_supervised(
            &run.model,
            &run.rules_tuned,
            &events,
            &monitoring,
            &cfg,
        )
        .expect("supervised run");
        let dt = t0.elapsed().as_secs_f64();
        let base_dt = *baseline.get_or_insert(dt);
        let speedup = base_dt / dt;
        if width == 4 {
            speedup_at_4 = speedup;
        }
        table.row(&[
            format!("{width}"),
            format!("{:.0} ms", dt * 1e3),
            format!("{speedup:.2}x"),
            format!("{}", p.incidents.len()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Stalled units overlap on the pool instead of serializing the supervisor: \
         at width 4 the 8 × 60 ms of injected latency costs ~2 rounds, not 8. \
         Speedup at 4 threads: {speedup_at_4:.2}x (acceptance floor 1.5x). \
         Output is byte-identical at every width (merge order is unit-key order; \
         see tests/supervision_determinism.rs).\n"
    );
}
