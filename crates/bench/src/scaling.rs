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

use grade10_engines::pregel::PregelConfig;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

use crate::{bottleneck_issues, markdown_table, pct, reduction_for};

/// One cluster size's outcome.
pub struct ScalingRow {
    /// Machines in the cluster.
    pub machines: usize,
    /// Simulated runtime, in seconds.
    pub runtime_s: f64,
    /// Optimistic makespan reduction from removing CPU bottlenecks.
    pub cpu: f64,
    /// Optimistic makespan reduction from removing message-queue stalls.
    pub msgq: f64,
    /// Total message-queue stall time, in thread-seconds.
    pub queue_stall_s: f64,
    /// Fraction of cross-partition messages that are machine-remote.
    pub remote_fraction: f64,
}

/// The sweep over 2, 4 and 8 machines.
pub struct Scaling {
    /// The workload's name at every size.
    pub workload: String,
    /// One row per cluster size, in increasing size.
    pub rows: Vec<ScalingRow>,
}

/// Runs the scaling sweep.
pub fn scaling() -> Scaling {
    let mut sweep = Scaling { workload: String::new(), rows: Vec::new() };
    for machines in [2usize, 4, 8] {
        let cfg = PregelConfig { machines, ..Default::default() };
        let remote_fraction = cfg.machine_remote_fraction();
        let run = run_workload(&WorkloadSpec {
            dataset: Dataset::Rmat { scale: 12, seed: 46 },
            algorithm: Algorithm::PageRank { iterations: 8 },
            engine: EngineKind::Giraph(cfg),
        });
        let issues = bottleneck_issues(&run);
        sweep.workload = run.spec.name();
        sweep.rows.push(ScalingRow {
            machines,
            runtime_s: run.sim.end_time.as_secs_f64(),
            cpu: reduction_for(&issues, "cpu"),
            msgq: reduction_for(&issues, "msgq"),
            queue_stall_s: run.sim.stats.queue_stall_time.as_secs_f64(),
            remote_fraction,
        });
    }
    sweep
}

impl Scaling {
    /// The section's markdown block.
    pub fn markdown(&self) -> String {
        let mut rows = Vec::new();
        for r in &self.rows {
            let runtime = format!("{:.2} s", r.runtime_s);
            let stall = format!("{:.1}", r.queue_stall_s);
            let (cpu, msgq) = (pct(r.cpu) + " %", pct(r.msgq) + " %");
            let remote = format!("{:.0} %", 100.0 * r.remote_fraction);
            rows.push(row![r.machines, runtime, cpu, msgq, stall, remote]);
        }
        let headers = [
            "Machines",
            "Runtime",
            "CPU impact",
            "msgq impact",
            "Queue stall (thread-s)",
            "Remote msg fraction",
        ];
        format!("({}, fixed input)\n\n{}", self.workload, markdown_table(&headers, &rows))
    }
}
