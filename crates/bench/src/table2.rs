//! Table II — accuracy of the upsampling process.
//!
//! Runs PageRank on both simulated engines with 50 ms ground-truth
//! monitoring, downsamples the monitoring data by factors 2×–64×
//! (100 ms – 3200 ms), upsamples it back to 50 ms timeslices with three
//! configurations — the constant strawman, Grade10 with untuned rules, and
//! Grade10 with tuned rules — and measures the relative sampling error of
//! CPU usage against the ground truth, exactly the paper's Table II metric.
//!
//! Error convention: a zero-truth, nonzero-upsample comparison scores
//! `inf` rather than a flattering 0 (phantom mass is unboundedly wrong) —
//! it cannot occur here because PageRank burns CPU in every window, but a
//! workload with genuinely idle ground truth would show it honestly.

use grade10_core::attribution::UpsampleMode::{Constant, DemandGuided};
use grade10_engines::gas::GasConfig;
use grade10_engines::pregel::PregelConfig;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

use crate::{cpu_sampling_error, markdown_table, GROUND_TRUTH_NS};

/// The error columns, in the order of [`Table2Row::errors`].
pub const TABLE2_COLUMNS: [&str; 4] =
    ["Strawman (constant)", "Giraph untuned", "Giraph tuned", "PowerGraph tuned"];

/// One downsampling ratio.
pub struct Table2Row {
    /// Downsampling factor against the 50 ms ground truth.
    pub factor: usize,
    /// CPU sampling error of each configuration of [`TABLE2_COLUMNS`], in %.
    pub errors: [f64; 4],
}

/// Table II: one row per downsampling factor, 2× to 64×.
pub struct Table2 {
    /// The dataset PageRank ran on.
    pub dataset: String,
    /// Rows in increasing ratio.
    pub rows: Vec<Table2Row>,
}

/// Regenerates Table II.
pub fn table2() -> Table2 {
    let dataset = Dataset::Rmat { scale: 12, seed: 46 };
    let algorithm = Algorithm::PageRank { iterations: 8 };
    let run = |engine| run_workload(&WorkloadSpec { dataset, algorithm, engine });
    let giraph = run(EngineKind::Giraph(PregelConfig::default()));
    let powergraph = run(EngineKind::PowerGraph(GasConfig::default()));

    let mut rows = Vec::new();
    for factor in [2usize, 4, 8, 16, 32, 64] {
        let err = |w: &WorkloadRun, tuned: bool, mode| {
            let rules = if tuned { &w.rules_tuned } else { &w.rules_untuned };
            let profile = w.build_profile(rules, factor, GROUND_TRUTH_NS, mode);
            100.0 * cpu_sampling_error(&profile, w.ground_truth())
        };
        let errors = [
            err(&giraph, true, Constant),
            err(&giraph, false, DemandGuided),
            err(&giraph, true, DemandGuided),
            err(&powergraph, true, DemandGuided),
        ];
        rows.push(Table2Row { factor, errors });
    }
    Table2 { dataset: dataset.name(), rows }
}

impl Table2 {
    /// The section's markdown block. The samples/s column is the
    /// monitoring-overhead side of the accuracy trade-off (R4).
    pub fn markdown(&self) -> String {
        let ms = GROUND_TRUTH_NS / 1_000_000;
        let mut rows = Vec::new();
        for r in &self.rows {
            let window = ms * r.factor as u64;
            let mut row = row![format!("{window} ms"), format!("{}×", r.factor)];
            row.push(format!("{:.1}", 1000.0 / window as f64));
            row.extend(r.errors.iter().map(|e| format!("{e:.1}")));
            rows.push(row);
        }
        let mut headers = vec!["Granularity", "Ratio", "Samples/s/resource"];
        headers.extend(TABLE2_COLUMNS);
        let caption = format!(
            "(PageRank on {}, relative sampling error of CPU usage vs {ms} ms ground truth, %)",
            self.dataset
        );
        format!("{caption}\n\n{}", markdown_table(&headers, &rows))
    }
}
