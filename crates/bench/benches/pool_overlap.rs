//! Supervised pool scaling: an 8-machine run whose per-machine attribution
//! units each stall 60 ms (chaos injection standing in for the slow,
//! latency-bound units real degraded collections produce). No deadline is
//! set, so every stall runs in full on the worker that claimed its unit.
//! Sequential supervision pays the stalls end to end; the worker pool
//! overlaps them, so wall-clock falls roughly as
//! `ceil(units / width) × stall` even on a single core.
//!
//! Acceptance: ≥ 1.5× at 4 threads. The bench exits non-zero below that
//! floor, the way `obs_overhead` enforces its budget. Output is
//! byte-identical at every width (merge order is unit-key order; see
//! `tests/supervision_determinism.rs`).

use std::time::{Duration, Instant};

use grade10_core::pipeline::CharacterizationConfig;
use grade10_core::report::Table;
use grade10_core::supervise::{characterize_events_supervised, ChaosMode, ChaosPoint};
use grade10_core::trace::{IngestConfig, MILLIS};
use grade10_engines::bridge::{to_raw_events, to_raw_series};
use grade10_engines::pregel::PregelConfig;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

/// The acceptance floor: speedup at pool width 4 over width 1.
const FLOOR_AT_4: f64 = 1.5;

fn main() {
    println!("=== Supervised pool scaling: 8 machines, 60 ms per-unit stalls ===\n");
    let machines = 8usize;
    let cfg = PregelConfig { machines, threads: 2, cores: 2.0, ..Default::default() };
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 9, seed: 46 },
        algorithm: Algorithm::PageRank { iterations: 2 },
        engine: EngineKind::Giraph(cfg),
    });
    let events = to_raw_events(&run.sim.logs);
    let monitoring = to_raw_series(&run.sim.series, 8);

    let mut base = CharacterizationConfig::default();
    base.profile.slice = 10 * MILLIS;
    base.ingest = IngestConfig::lenient();
    for m in 0..machines as u16 {
        let stall = ChaosMode::Stall(Duration::from_millis(60));
        let unit = format!("attribute/machine {m}");
        base.supervise.chaos.push(ChaosPoint { unit, mode: stall });
    }

    let mut table = Table::new(&["pool width", "wall clock", "speedup vs 1", "incidents"]);
    let (mut baseline, mut speedup_at_4) = (None, 0.0);
    for width in [1usize, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.supervise.threads = Some(width);
        cfg.profile.threads = Some(width);
        let t0 = Instant::now();
        let (model, rules) = (&run.model, &run.rules_tuned);
        let p = characterize_events_supervised(model, rules, &events, &monitoring, &cfg);
        let dt = t0.elapsed().as_secs_f64();
        let incidents = p.expect("supervised run").incidents.len().to_string();
        let speedup = *baseline.get_or_insert(dt) / dt;
        if width == 4 {
            speedup_at_4 = speedup;
        }
        let ms = format!("{:.0} ms", dt * 1e3);
        table.row(&[width.to_string(), ms, format!("{speedup:.2}x"), incidents]);
    }
    println!("{}", table.render());
    if speedup_at_4 < FLOOR_AT_4 {
        eprintln!("FAIL: speedup at 4 threads {speedup_at_4:.2}x is below the {FLOOR_AT_4}x floor");
        std::process::exit(1);
    }
    println!("OK: speedup at 4 threads {speedup_at_4:.2}x (floor {FLOOR_AT_4}x)");
}
