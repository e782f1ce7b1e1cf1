//! Ablation: how the partitioning strategy and message combiners shape the
//! bottleneck and imbalance profile.
//!
//! Not a paper figure — this isolates one design choice per engine that the
//! paper's evaluation holds fixed:
//!
//! * Giraph-like: hash partitioning (balances vertices, not edges) vs
//!   range-by-edges partitioning (balances edges). The compute-thread
//!   imbalance Grade10 estimates should shrink under the edge-balanced
//!   partitioner.
//! * PowerGraph-like: greedy vertex-cut vs random edge placement. Random
//!   placement inflates the replication factor and hence replica-sync
//!   traffic and runtime.
//! * Giraph-like: message combiners on/off. Combiners shrink the remote
//!   message volume, which empties the bounded queues — the lever the
//!   paper's conclusion points at for Giraph's communication subsystem.

use grade10_cluster::LogRecord;
use grade10_core::issues::imbalance::imbalance_issue;
use grade10_core::model::{ExecutionModel, PhaseTypeId};
use grade10_core::parse::build_execution_trace;
use grade10_core::replay::ReplayConfig;
use grade10_engines::bridge::to_raw_events;
use grade10_engines::gas::{run_gas, GasConfig};
use grade10_engines::models::{gas_model, pregel_model};
use grade10_engines::pregel::{run_pregel, PregelConfig};
use grade10_engines::{Algorithm, Dataset};
use grade10_graph::partition::{EdgeCutPartition, VertexCutPartition};

use crate::{markdown_table, pct};

/// One partitioning strategy's outcome.
pub struct PartitionRow {
    /// The strategy.
    pub strategy: &'static str,
    /// Edge balance (max/mean) for edge cuts, replication factor for
    /// vertex cuts.
    pub balance: f64,
    /// Estimated impact of the thread imbalance (compute threads for edge
    /// cuts, gather threads for vertex cuts), as a fraction.
    pub imbalance: f64,
    /// Simulated runtime, in seconds.
    pub runtime_s: f64,
}

/// One message-combiner setting's outcome.
pub struct CombinerRow {
    /// The setting.
    pub setting: &'static str,
    /// Remote message volume relative to no combiners.
    pub volume: f64,
    /// Total message-queue stall time, in thread-seconds.
    pub queue_stall_s: f64,
    /// Simulated runtime, in seconds.
    pub runtime_s: f64,
}

/// The three ablations, default configuration first in each.
pub struct Ablation {
    /// The dataset PageRank ran on.
    pub dataset: String,
    /// Giraph-like: hash vs range-by-edges.
    pub edge_cut: Vec<PartitionRow>,
    /// PowerGraph-like: greedy vs random vertex cut.
    pub vertex_cut: Vec<PartitionRow>,
    /// Giraph-like: combiners off vs on.
    pub combiners: Vec<CombinerRow>,
}

/// Runs the partitioning and combiner ablations.
pub fn ablation() -> Ablation {
    let dataset = Dataset::Rmat { scale: 12, seed: 46 };
    let graph = dataset.generate();
    let algorithm = Algorithm::PageRank { iterations: 6 };
    let imbalance = |model: &ExecutionModel, logs: &[LogRecord], ty: PhaseTypeId| {
        let trace = build_execution_trace(model, &to_raw_events(logs)).expect("simulator logs nest");
        imbalance_issue(model, &trace, ty, &ReplayConfig::default()).reduction
    };

    let pcfg = PregelConfig::default();
    let (model, phases) = pregel_model();
    let mut edge_cut = Vec::new();
    for (strategy, part) in [
        ("hash (Giraph default)", EdgeCutPartition::hash(&graph, pcfg.num_parts())),
        ("range-by-edges", EdgeCutPartition::range_by_edges(&graph, pcfg.num_parts())),
    ] {
        let work = algorithm.run(&graph, &part);
        let sim = run_pregel(&work, graph.num_vertices(), graph.num_edges(), &pcfg);
        let (balance, runtime_s) = (part.edge_balance(&graph), sim.end_time.as_secs_f64());
        let imbalance = imbalance(&model, &sim.logs, phases.thread);
        edge_cut.push(PartitionRow { strategy, balance, imbalance, runtime_s });
    }

    let gcfg = GasConfig {
        sync_bug: None, // isolate the partitioning effect
        ..Default::default()
    };
    let (gmodel, gphases) = gas_model();
    let mut vertex_cut = Vec::new();
    for (strategy, part) in [
        ("greedy (PowerGraph)", VertexCutPartition::greedy(&graph, gcfg.num_parts())),
        ("random placement", VertexCutPartition::random(&graph, gcfg.num_parts(), 99)),
    ] {
        let work = algorithm.run(&graph, &part);
        let sim = run_gas(&work, graph.num_edges(), &gcfg).sim;
        let (balance, runtime_s) = (part.replication_factor(), sim.end_time.as_secs_f64());
        let imbalance = imbalance(&gmodel, &sim.logs, gphases.gather_thread);
        vertex_cut.push(PartitionRow { strategy, balance, imbalance, runtime_s });
    }

    let mut combiners = Vec::new();
    for (setting, volume) in [("off (Giraph default)", 1.0), ("on (0.3× volume)", 0.3)] {
        let cfg = PregelConfig { combiner_ratio: volume, ..Default::default() };
        let part = EdgeCutPartition::hash(&graph, cfg.num_parts());
        let work = algorithm.run(&graph, &part);
        let sim = run_pregel(&work, graph.num_vertices(), graph.num_edges(), &cfg);
        let queue_stall_s = sim.stats.queue_stall_time.as_secs_f64();
        let runtime_s = sim.end_time.as_secs_f64();
        combiners.push(CombinerRow { setting, volume, queue_stall_s, runtime_s });
    }
    Ablation { dataset: dataset.name(), edge_cut, vertex_cut, combiners }
}

impl Ablation {
    /// The partitioning section's markdown block: one table per engine.
    pub fn partitioning_markdown(&self) -> String {
        let mut out = format!("(PageRank on {})\n", self.dataset);
        let edge = ["Edge-cut strategy", "Edge balance (max/mean)", "Thread-imbalance impact"];
        let vertex = ["Vertex-cut strategy", "Replication factor", "Gather-imbalance impact"];
        let tables = [(&self.edge_cut, edge), (&self.vertex_cut, vertex)];
        for (rows, header) in tables {
            let mut cells = Vec::new();
            for r in rows {
                let (balance, impact) = (format!("{:.2}", r.balance), pct(r.imbalance) + " %");
                cells.push(row![r.strategy, balance, impact, format!("{:.2} s", r.runtime_s)]);
            }
            let headers = [header[0], header[1], header[2], "Runtime"];
            out += &format!("\n{}", markdown_table(&headers, &cells));
        }
        out
    }

    /// The combiner section's markdown block.
    pub fn combiners_markdown(&self) -> String {
        let mut rows = Vec::new();
        for r in &self.combiners {
            let volume = format!("{:.0} %", 100.0 * r.volume);
            let stall = format!("{:.2}", r.queue_stall_s);
            rows.push(row![r.setting, volume, stall, format!("{:.2} s", r.runtime_s)]);
        }
        let headers = ["Combiners", "Remote volume", "Queue stall time (thread-s)", "Runtime"];
        format!(
            "(PageRank on {}, Giraph-like engine)\n\n{}",
            self.dataset,
            markdown_table(&headers, &rows)
        )
    }
}
