//! Figure 4 — estimated impact of resource bottlenecks across the
//! evaluation matrix (§IV-C).
//!
//! For each of the 16 workloads (2 datasets × 4 algorithms × 2 systems)
//! this runs the full Grade10 pipeline — tuned profile, bottleneck report,
//! what-if replay — and keeps the optimistic makespan reduction from
//! removing all bottlenecks on each resource kind.

use grade10_engines::{run_workload, EngineKind};

use crate::{bottleneck_issues, giraph_matrix, markdown_table, pct, powergraph_matrix};
use crate::reduction_for;

/// One workload's optimistic makespan reductions, as fractions.
pub struct Fig4Row {
    /// The workload's name.
    pub workload: String,
    /// Whether it ran on the Giraph-like engine.
    pub giraph: bool,
    /// Removing CPU bottlenecks.
    pub cpu: f64,
    /// Removing network bottlenecks, the larger of the two directions.
    pub network: f64,
    /// Removing disk bottlenecks.
    pub disk: f64,
    /// Removing GC pauses.
    pub gc: f64,
    /// Removing message-queue stalls.
    pub msgq: f64,
    /// Simulated makespan, in seconds.
    pub makespan_s: f64,
}

/// Figure 4: eight Giraph rows, then eight PowerGraph rows.
pub struct Fig4 {
    /// One row per workload.
    pub rows: Vec<Fig4Row>,
}

/// Regenerates Figure 4.
pub fn fig4() -> Fig4 {
    let mut rows = Vec::new();
    for spec in giraph_matrix().into_iter().chain(powergraph_matrix()) {
        let run = run_workload(&spec);
        let issues = bottleneck_issues(&run);
        let impact = |kind| reduction_for(&issues, kind);
        rows.push(Fig4Row {
            workload: spec.name(),
            giraph: matches!(spec.engine, EngineKind::Giraph(_)),
            cpu: impact("cpu"),
            network: impact("net_out").max(impact("net_in")),
            disk: impact("disk"),
            gc: impact("gc"),
            msgq: impact("msgq"),
            makespan_s: run.sim.end_time.as_secs_f64(),
        });
    }
    Fig4 { rows }
}

impl Fig4 {
    /// The rows of one system.
    pub fn system(&self, giraph: bool) -> impl Iterator<Item = &Fig4Row> {
        self.rows.iter().filter(move |r| r.giraph == giraph)
    }

    /// The section's markdown block.
    pub fn markdown(&self) -> String {
        let mut rows = Vec::new();
        for r in &self.rows {
            let mut row = row![r.workload];
            row.extend([r.cpu, r.network, r.disk, r.gc, r.msgq].map(pct));
            row.push(format!("{:.1} s", r.makespan_s));
            rows.push(row);
        }
        let headers = ["Workload", "cpu", "network", "disk", "gc", "msg queues", "makespan"];
        markdown_table(&headers, &rows)
    }
}
