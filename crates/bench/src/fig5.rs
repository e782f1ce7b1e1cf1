//! Figure 5 — estimated impact of workload imbalance in PowerGraph
//! (§IV-D, first half).
//!
//! Runs the eight PowerGraph workloads and, for each, simulates perfectly
//! balancing the concurrent phases of five key phase types — gather, apply
//! and scatter worker threads, the exchange step, and graph loading —
//! keeping the optimistic makespan reduction per type.

use grade10_core::issues::imbalance::imbalance_issue;
use grade10_core::replay::ReplayConfig;
use grade10_engines::run_workload;
use grade10_engines::workload::EnginePhases;

use crate::{markdown_table, pct, powergraph_matrix};

/// One workload's reductions from perfect balance, as fractions.
pub struct Fig5Row {
    /// The workload's name.
    pub workload: String,
    /// Reduction per phase type: gather, apply, scatter, exchange, load.
    pub reductions: [f64; 5],
    /// Simulated runtime, in seconds.
    pub runtime_s: f64,
}

impl Fig5Row {
    /// Whether this row is a CDLP workload.
    pub fn is_cdlp(&self) -> bool {
        self.workload.starts_with("cdlp")
    }
}

/// Figure 5: one row per PowerGraph workload.
pub struct Fig5 {
    /// One row per workload.
    pub rows: Vec<Fig5Row>,
}

/// Regenerates Figure 5.
pub fn fig5() -> Fig5 {
    let mut rows = Vec::new();
    for spec in powergraph_matrix() {
        let run = run_workload(&spec);
        let EnginePhases::Gas(p) = run.phases else { unreachable!("a PowerGraph run") };
        let types = [p.gather_thread, p.apply_thread, p.scatter_thread, p.exchange, p.load];
        let cfg = ReplayConfig::default();
        let reduction = |ty| imbalance_issue(&run.model, &run.trace, ty, &cfg).reduction;
        let (reductions, runtime_s) = (types.map(reduction), run.sim.end_time.as_secs_f64());
        rows.push(Fig5Row { workload: spec.name(), reductions, runtime_s });
    }
    Fig5 { rows }
}

impl Fig5 {
    /// The largest cell of the figure.
    pub fn largest(&self) -> f64 {
        self.rows.iter().flat_map(|r| r.reductions).fold(f64::NEG_INFINITY, f64::max)
    }

    /// The section's markdown block, CDLP gather in bold.
    pub fn markdown(&self) -> String {
        let mut rows = Vec::new();
        for r in &self.rows {
            let mut row = row![r.workload];
            row.extend(r.reductions.map(pct));
            if r.is_cdlp() {
                row[1] = format!("**{}**", row[1]);
            }
            row.push(format!("{:.1} s", r.runtime_s));
            rows.push(row);
        }
        let headers = ["Workload", "gather", "apply", "scatter", "exchange", "load", "runtime"];
        markdown_table(&headers, &rows)
    }
}
