//! Fleet screening — the methodology that found the bug (§IV-D).
//!
//! "Grade10 is especially useful in identifying this bug, because
//! Grade10's low overhead and automated process make it feasible to
//! characterize the performance of many jobs, and thus find performance
//! issues that occur only sporadically." This does exactly that: it
//! screens a fleet of CDLP jobs (different seeds — different days of
//! production), runs only the cheap imbalance/outlier analysis on each,
//! and surfaces the jobs worth a human's attention. What the analysis
//! costs is measured by the pipeline ledger (`BENCH_pipeline.json`); every
//! number here is simulated, so it is exact.

use grade10_core::issues::imbalance::imbalance_groups;
use grade10_engines::gas::GasConfig;
use grade10_engines::workload::EnginePhases;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

use crate::{markdown_table, straggler_screen};

/// One screened job.
pub struct FleetJob {
    /// The job's graph and engine seed.
    pub seed: u64,
    /// Non-trivial gather steps.
    pub steps: usize,
    /// Steps that outlier threads extend.
    pub affected: usize,
    /// The worst outlier-induced step slowdown, 1.0 if none.
    pub worst: f64,
    /// Sync-bug events the engine injected (ground truth).
    pub injected: usize,
}

/// The screened fleet.
pub struct Fleet {
    /// One entry per job.
    pub jobs: Vec<FleetJob>,
    /// Total simulated execution time of the fleet, in seconds.
    pub simulated_s: f64,
}

/// Screens a fleet of eight CDLP jobs.
pub fn fleet() -> Fleet {
    let mut fleet = Fleet { jobs: Vec::new(), simulated_s: 0.0 };
    for job in 0..8u64 {
        let seed = 100 + job * 17;
        let run = run_workload(&WorkloadSpec {
            dataset: Dataset::Social { vertices: 4000, seed },
            algorithm: Algorithm::Cdlp { iterations: 10 },
            engine: EngineKind::PowerGraph(GasConfig { seed, ..GasConfig::default() }),
        });
        fleet.simulated_s += run.sim.end_time.as_secs_f64();
        let EnginePhases::Gas(phases) = run.phases else { unreachable!("a PowerGraph run") };
        let groups = imbalance_groups(&run.model, &run.trace, phases.gather_thread);
        let (steps, slowdowns) = straggler_screen(&groups);
        let (affected, worst) = (slowdowns.len(), slowdowns.last().copied().unwrap_or(1.0));
        let injected = run.injected_bugs.len();
        fleet.jobs.push(FleetJob { seed, steps, affected, worst, injected });
    }
    fleet
}

impl Fleet {
    /// The section's markdown block: one row per job, then the totals.
    pub fn markdown(&self) -> String {
        let mut rows = Vec::new();
        for j in &self.jobs {
            let worst = if j.affected > 0 { format!("{:.2}×", j.worst) } else { "-".to_string() };
            rows.push(row![format!("cdlp-{}", j.seed), j.steps, j.affected, worst, j.injected]);
        }
        let headers =
            ["Job", "Gather steps", "Affected steps", "Worst slowdown", "Injected (ground truth)"];
        let affected = self.jobs.iter().filter(|j| j.affected > 0);
        let affected: Vec<f64> = affected.map(|j| j.worst).collect();
        let injected: usize = self.jobs.iter().map(|j| j.injected).sum();
        format!(
            "{}\n{} of {} jobs show sporadic gather stragglers ({injected} sync-bug events \
             injected across the fleet; worst step slowdowns {:.2}–{:.2}×) in {:.0} s of \
             simulated execution.\n",
            markdown_table(&headers, &rows),
            affected.len(),
            self.jobs.len(),
            affected.iter().cloned().fold(f64::INFINITY, f64::min),
            affected.iter().cloned().fold(0.0, f64::max),
            self.simulated_s
        )
    }
}
