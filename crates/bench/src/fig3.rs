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

use std::collections::HashSet;

use grade10_core::attribution::UpsampleMode;
use grade10_core::bottleneck::{consumable_bottlenecks, BottleneckConfig};
use grade10_core::model::RuleSet;
use grade10_core::report::{render_presence, render_series};
use grade10_core::trace::ResourceIdx;
use grade10_engines::models::PregelPhases;
use grade10_engines::workload::EnginePhases;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

use crate::{claims_table, giraph_fig3_config, tick, DEFAULT_DOWNSAMPLE, SLICE_NS};

const MACHINE: u16 = 0;
const CHART_WIDTH: usize = 100;

/// The paper's observations, with its values.
const CLAIMS: [(&str, &str); 5] = [
    ("Untuned peak CPU demand vs thread count", "> 23 threads' worth"),
    ("Tuned peak CPU demand bounded by thread count", "never exceeds"),
    ("CPU-bottleneck detection (tuned vs untuned)", "tuned: whenever not blocked; untuned: rarely"),
    ("② GC pause visible as demand collapse", "yes"),
    ("③ bursty compute under full message queues", "yes"),
];

/// Worker 0's Compute phase under one rule set, per slice.
pub struct Fig3Panel {
    /// Attributed CPU usage, in cores.
    pub usage: Vec<f64>,
    /// Estimated CPU demand, in cores.
    pub demand: Vec<f64>,
    /// Whether any compute thread of the worker is CPU-bottlenecked.
    pub bottleneck: Vec<bool>,
    /// Whether any compute thread of the worker has demand.
    pub active: Vec<bool>,
}

impl Fig3Panel {
    /// The largest per-slice demand, in cores.
    pub fn peak_demand(&self) -> f64 {
        self.demand.iter().cloned().fold(0.0, f64::max)
    }

    /// Share of the active slices in which the phase is CPU-bottlenecked.
    pub fn bottleneck_share(&self) -> f64 {
        let active = self.active.iter().filter(|&&x| x).count().max(1);
        self.bottleneck.iter().filter(|&&x| x).count() as f64 / active as f64
    }
}

/// Figure 3: the untuned and tuned panels plus the run's GC and queue
/// activity.
pub struct Fig3 {
    /// The workload's name.
    pub workload: String,
    /// Compute threads per worker.
    pub threads: usize,
    /// Cores per machine.
    pub cores: f64,
    /// GC pauses over the run.
    pub gc_pauses: usize,
    /// Total message-queue stall time, in thread-seconds.
    pub queue_stall_s: f64,
    /// (a) No attribution rules (implicit Variable 1×).
    pub untuned: Fig3Panel,
    /// (b) Tuned rules (Exact: one core per thread).
    pub tuned: Fig3Panel,
}

/// Aggregates the Compute phase of `MACHINE` over all supersteps.
fn analyze(run: &WorkloadRun, phases: &PregelPhases, rules: &RuleSet) -> Fig3Panel {
    let profile =
        run.build_profile(rules, DEFAULT_DOWNSAMPLE, SLICE_NS, UpsampleMode::DemandGuided);
    let cpu = profile.resources.iter().position(|r| r.kind == "cpu" && r.machine == Some(MACHINE));
    let cpu = ResourceIdx(cpu.expect("cpu resource") as u32);
    let capacity = profile.resources[cpu.0 as usize].capacity;
    let ns = profile.grid.num_slices();
    let (mut usage, mut demand, mut active) = (vec![0.0; ns], vec![0.0; ns], vec![false; ns]);

    // All compute containers on the chosen machine.
    let computes = run.trace.instances_of_type(phases.compute);
    let computes: Vec<_> = computes.filter(|i| i.machine == Some(MACHINE)).map(|i| i.id).collect();
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
    let threads = computes.iter().flat_map(|&c| run.trace.children_of(c).iter().copied());
    let thread_ids: HashSet<_> = threads.collect();
    let mut bottleneck = vec![false; ns];
    for b in &bns {
        if b.resource == cpu && thread_ids.contains(&b.instance) {
            for run in &b.runs {
                bottleneck[run.clone()].fill(true);
            }
        }
    }
    Fig3Panel { usage, demand, bottleneck, active }
}

/// Regenerates Figure 3.
pub fn fig3() -> Fig3 {
    let cfg = giraph_fig3_config();
    let (threads, cores) = (cfg.threads, cfg.cores);
    let run = run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 12, seed: 46 },
        algorithm: Algorithm::PageRank { iterations: 8 },
        engine: EngineKind::Giraph(cfg),
    });
    let EnginePhases::Pregel(phases) = run.phases else { unreachable!("a Giraph run") };
    Fig3 {
        workload: run.spec.name(),
        threads,
        cores,
        gc_pauses: run.sim.stats.gc_pauses.len(),
        queue_stall_s: run.sim.stats.queue_stall_time.as_secs_f64(),
        untuned: analyze(&run, &phases, &run.rules_untuned),
        tuned: analyze(&run, &phases, &run.rules_tuned),
    }
}

impl Fig3 {
    /// The section's markdown block: the observation table, then both
    /// panels' usage, demand and bottleneck series.
    pub fn markdown(&self) -> String {
        let (untuned, tuned, threads) = (&self.untuned, &self.tuned, self.threads);
        let (peak_untuned, peak_tuned) = (untuned.peak_demand(), tuned.peak_demand());
        let (share_untuned, share_tuned) = (untuned.bottleneck_share(), tuned.bottleneck_share());
        let mut out = format!(
            "({}, worker {MACHINE}'s Compute phase; {threads} threads on {} cores)\n\n",
            self.workload, self.cores
        );
        let overshoots = tick(peak_untuned > threads as f64);
        let bounded = tick(peak_tuned <= threads as f64 + 1e-6);
        let tuned_finds_more = tick(share_tuned > share_untuned);
        let (stall, stalled) = (self.queue_stall_s, tick(self.queue_stall_s > 0.0));
        out += &claims_table(&CLAIMS, [
            format!("{peak_untuned:.1} cores vs {threads} threads {overshoots}"),
            format!("{peak_tuned:.1} ≤ {threads} {bounded}"),
            format!(
                "{:.1} % vs {:.1} % of active slices {tuned_finds_more}",
                100.0 * share_tuned,
                100.0 * share_untuned,
            ),
            format!("{} ({} GC pauses)", tick(self.gc_pauses > 0), self.gc_pauses),
            format!("{stalled} ({stall:.1} s total stall, burst pattern in the series below)"),
        ]);
        out += "\n```text\n";
        for (label, panel) in [
            ("(a) no attribution rules (implicit Variable 1x)", untuned),
            ("(b) tuned attribution rules (Exact: one core per thread)", tuned),
        ] {
            let scale = (threads as f64).max(panel.peak_demand().min(4.0 * self.cores));
            let labels = ["usage (cores)", "demand (cores)"];
            let series = [&panel.usage, &panel.demand];
            out += &format!("{label}\n");
            out += &render_series(&labels, &series.map(Vec::as_slice), scale, CHART_WIDTH);
            out += &render_presence("cpu-bottlenecked", &panel.bottleneck, CHART_WIDTH);
        }
        out + "```\n"
    }
}
