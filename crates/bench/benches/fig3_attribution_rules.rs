//! Figure 3 — impact of attribution rules on resource attribution.
//!
//! Runs PageRank on the Giraph-like engine and analyzes one worker's
//! Compute phase (the sum over its compute threads), with and without
//! tuned attribution rules, reproducing the paper's three observations:
//!
//! * region ① (steady compute): with *no* rules Grade10 overestimates CPU
//!   demand far above the thread count and rarely flags a CPU bottleneck;
//!   with tuned rules (one core per active thread, `Exact`) demand never
//!   exceeds the thread count and threads are CPU-bottlenecked whenever
//!   not blocked;
//! * region ② (GC pause): demand collapses while the collector runs;
//! * region ③ (full message queues): short bursts of compute activity as
//!   the queue drains.

use grade10_bench::{giraph_fig3_config, DEFAULT_DOWNSAMPLE, SLICE_NS};
use grade10_core::attribution::{PerformanceProfile, UpsampleMode};
use grade10_core::bottleneck::{consumable_bottlenecks, BottleneckConfig};
use grade10_core::model::RuleSet;
use grade10_core::report::{render_presence, render_series};
use grade10_core::trace::ResourceIdx;
use grade10_engines::models::PregelPhases;
use grade10_engines::workload::EnginePhases;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

const MACHINE: u16 = 0;
const CHART_WIDTH: usize = 100;

struct Analysis {
    usage: Vec<f64>,
    demand: Vec<f64>,
    bottleneck: Vec<bool>,
    active: Vec<bool>,
}

/// Aggregates the Compute phase of `MACHINE` over all supersteps.
fn analyze(run: &WorkloadRun, phases: &PregelPhases, rules: &RuleSet) -> Analysis {
    let profile: PerformanceProfile =
        run.build_profile(rules, DEFAULT_DOWNSAMPLE, SLICE_NS, UpsampleMode::DemandGuided);
    let cpu = profile
        .resources
        .iter()
        .position(|r| r.kind == "cpu" && r.machine == Some(MACHINE))
        .map(|i| ResourceIdx(i as u32))
        .expect("cpu resource");
    let capacity = profile.resources[cpu.0 as usize].capacity;
    let ns = profile.grid.num_slices();
    let (mut usage, mut demand, mut active) = (vec![0.0; ns], vec![0.0; ns], vec![false; ns]);

    // All compute containers on the chosen machine.
    let computes: Vec<_> = run
        .trace
        .instances_of_type(phases.compute)
        .filter(|i| i.machine == Some(MACHINE))
        .map(|i| i.id)
        .collect();
    for &c in &computes {
        let u = profile.aggregate_usage(&run.trace, c, cpu);
        let (exact, var) = profile.aggregate_demand(&run.trace, c, cpu);
        for s in 0..ns {
            usage[s] += u[s];
            // A Variable phase demands "as much as possible": its nominal
            // demand is the full capacity, weighted.
            demand[s] += exact[s] + var[s] * capacity;
            if exact[s] + var[s] > 0.0 {
                active[s] = true;
            }
        }
    }

    // Bottleneck presence: any compute thread of this machine bottlenecked
    // on its CPU in the slice.
    let bns = consumable_bottlenecks(&profile, &BottleneckConfig::default());
    let thread_ids: std::collections::HashSet<_> = computes
        .iter()
        .flat_map(|&c| run.trace.children_of(c).iter().copied())
        .collect();
    let mut bottleneck = vec![false; ns];
    for b in &bns {
        if b.resource == cpu && thread_ids.contains(&b.instance) {
            for run in &b.runs {
                bottleneck[run.clone()].fill(true);
            }
        }
    }
    Analysis {
        usage,
        demand,
        bottleneck,
        active,
    }
}

fn report(label: &str, a: &Analysis, threads: usize, cores: f64) {
    let peak_demand = a.demand.iter().cloned().fold(0.0, f64::max);
    let active_slices = a.active.iter().filter(|&&x| x).count().max(1);
    let bottlenecked = a.bottleneck.iter().filter(|&&x| x).count();
    println!("--- {label} ---");
    println!(
        "peak estimated CPU demand: {peak_demand:.1} cores \
         (threads: {threads}, machine capacity: {cores} cores)"
    );
    println!(
        "CPU-bottlenecked during {:.1}% of the Compute phase's active slices",
        100.0 * bottlenecked as f64 / active_slices as f64
    );
    println!(
        "{}",
        render_series(
            &["usage (cores)", "demand (cores)"],
            &[&a.usage, &a.demand],
            (threads as f64).max(peak_demand.min(4.0 * cores)),
            CHART_WIDTH,
        )
    );
    println!("{}", render_presence("cpu-bottlenecked", &a.bottleneck, CHART_WIDTH));
}

fn main() {
    let cfg = giraph_fig3_config();
    let threads = cfg.threads;
    let cores = cfg.cores;
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 12, seed: 46 },
        algorithm: Algorithm::PageRank { iterations: 8 },
        engine: EngineKind::Giraph(cfg),
    });
    let phases = match run.phases {
        EnginePhases::Pregel(p) => p,
        _ => unreachable!(),
    };

    println!(
        "=== Figure 3: attributed CPU usage and demand of worker {MACHINE}'s \
         Compute phase ===\n"
    );
    println!(
        "GC pauses: {}; message-queue stall time: {}\n",
        run.sim.stats.gc_pauses.len(),
        run.sim.stats.queue_stall_time
    );

    let untuned = analyze(&run, &phases, &run.rules_untuned.clone());
    report("(a) no attribution rules (implicit Variable 1x)", &untuned, threads, cores);
    let tuned = analyze(&run, &phases, &run.rules_tuned.clone());
    report("(b) tuned attribution rules (Exact: one core per thread)", &tuned, threads, cores);

    let peak_untuned = untuned.demand.iter().cloned().fold(0.0, f64::max);
    let peak_tuned = tuned.demand.iter().cloned().fold(0.0, f64::max);
    println!("Conclusions (paper shape):");
    println!(
        "  untuned demand overestimates: peak {peak_untuned:.1} cores > {threads} threads: {}",
        peak_untuned > threads as f64
    );
    println!(
        "  tuned demand bounded by thread count: peak {peak_tuned:.1} <= {threads}: {}",
        peak_tuned <= threads as f64 + 1e-6
    );
    let frac = |a: &Analysis| {
        let act = a.active.iter().filter(|&&x| x).count().max(1);
        a.bottleneck.iter().filter(|&&x| x).count() as f64 / act as f64
    };
    println!(
        "  tuned finds CPU bottlenecks where untuned misses them: {:.1}% vs {:.1}% of \
         active slices",
        100.0 * frac(&tuned),
        100.0 * frac(&untuned)
    );
}
