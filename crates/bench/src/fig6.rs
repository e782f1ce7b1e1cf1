//! Figure 6 — discovery of the PowerGraph synchronization bug (§IV-D).
//!
//! Runs CDLP on the PowerGraph-like engine with the synchronization bug
//! enabled, then uses Grade10's imbalance tooling the way the paper's
//! authors did: per-worker gather-thread durations for an affected Gather
//! step, outlier detection against each worker's peers, and the estimated
//! step slowdown caused by the outliers. As validation, the injected bug
//! schedule is compared against what the analysis recovers.

use grade10_core::issues::imbalance::{imbalance_groups, GroupDetail};
use grade10_engines::gas::{GasConfig, SyncBugConfig};
use grade10_engines::workload::EnginePhases;
use grade10_engines::{run_workload, Algorithm, Dataset, EngineKind, WorkloadSpec};

use crate::{claims_table, markdown_table, straggler_screen, NON_TRIVIAL_NS, OUTLIER_FACTOR};

/// The paper's observations, with its values.
const CLAIMS: [(&str, &str); 6] = [
    ("Per-worker thread durations differ (distribution skew)", "medians 6.4–20.5 s"),
    ("One thread far above its worker's peers", "2.88× worker mean"),
    ("Step slowdown caused by outliers", "20.5 → 48.7 s = 2.38×"),
    ("Validation: injections recovered", "n/a"),
    ("Steps affected by outliers", "~20 % of non-trivial steps"),
    ("Slowdown range across affected steps", "1.10–2.50×"),
];

/// Figure 6: the detail step, the statistics over all gather steps, and
/// the injected ground truth.
pub struct Fig6 {
    /// The workload's name.
    pub workload: String,
    /// Iteration of the detail step: the one with the largest outlier
    /// slowdown.
    pub detail_iteration: u32,
    /// Detail step: each worker's sorted gather-thread durations, in s.
    pub detail_threads: Vec<(u16, Vec<f64>)>,
    /// Detail step: outlier threads.
    pub detail_outliers: usize,
    /// Detail step: the first outlier over the mean thread of its worker.
    pub outlier_vs_worker_mean: f64,
    /// Detail step duration without and with the outliers, in s.
    pub detail_step_s: (f64, f64),
    /// Detail step slowdown caused by the outliers.
    pub detail_slowdown: f64,
    /// Gather steps at least as long as the non-trivial threshold.
    pub non_trivial_steps: usize,
    /// Outlier-induced slowdown of each affected non-trivial step, sorted.
    pub affected_slowdowns: Vec<f64>,
    /// Iteration of each injected sync-bug event.
    pub injected: Vec<u32>,
    /// Injections the outlier analysis recovers.
    pub recovered: usize,
}

/// Regenerates Figure 6.
pub fn fig6() -> Fig6 {
    let spec = WorkloadSpec {
        dataset: Dataset::Social { vertices: 5000, seed: 46 },
        algorithm: Algorithm::Cdlp { iterations: 15 },
        engine: EngineKind::PowerGraph(GasConfig {
            // More pronounced injections for the detailed view: the paper's
            // example outlier ran 2.88x the mean thread of its worker.
            sync_bug: Some(SyncBugConfig { probability: 0.2, extra_min: 0.5, extra_max: 2.2 }),
            ..GasConfig::default()
        }),
    };
    let run = run_workload(&spec);
    let EnginePhases::Gas(phases) = run.phases else { unreachable!("a PowerGraph run") };
    let groups = imbalance_groups(&run.model, &run.trace, phases.gather_thread);
    let outliers = |g: &GroupDetail| g.outliers(OUTLIER_FACTOR);

    // The gather step with the largest outlier slowdown is the detailed
    // view (the paper shows one such step).
    let detailed = groups
        .iter()
        .max_by(|a, b| outliers(a).slowdown.total_cmp(&outliers(b).slowdown))
        .expect("at least one gather step");
    let rep = outliers(detailed);
    let durations_on = |machine: Option<u16>| -> Vec<f64> {
        let on = detailed.members.iter().filter(|&&(_, m, _)| m == machine);
        let mut ds: Vec<f64> = on.map(|&(_, _, d)| d as f64 / 1e9).collect();
        ds.sort_by(f64::total_cmp);
        ds
    };
    let outlier_vs_worker_mean = rep.outliers.first().map_or(0.0, |&(_, machine, dur)| {
        let ds = durations_on(machine);
        dur as f64 / 1e9 / (ds.iter().sum::<f64>() / ds.len() as f64)
    });
    let mut machines: Vec<Option<u16>> = detailed.members.iter().map(|&(_, m, _)| m).collect();
    machines.sort_unstable();
    machines.dedup();
    let (non_trivial_steps, affected_slowdowns) = straggler_screen(&groups);

    // Validation against the injected ground truth.
    let found = |iteration: u32, machine: u16| {
        groups.iter().any(|g| {
            run.trace.instance(g.scope).key == iteration
                && outliers(g).outliers.iter().any(|&(_, m, _)| m == Some(machine))
        })
    };
    let bugs = &run.injected_bugs;
    Fig6 {
        workload: spec.name(),
        detail_iteration: run.trace.instance(detailed.scope).key,
        detail_threads: machines.into_iter().map(|m| (m.unwrap_or(0), durations_on(m))).collect(),
        detail_outliers: rep.outliers.len(),
        outlier_vs_worker_mean,
        detail_step_s: (rep.max_without_outliers as f64 / 1e9, rep.max_duration as f64 / 1e9),
        detail_slowdown: rep.slowdown,
        non_trivial_steps,
        affected_slowdowns,
        injected: bugs.iter().map(|b| b.iteration as u32).collect(),
        recovered: bugs.iter().filter(|b| found(b.iteration as u32, b.machine as u16)).count(),
    }
}

impl Fig6 {
    /// Median gather-thread duration of each worker in the detail step.
    fn worker_medians(&self) -> Vec<f64> {
        self.detail_threads.iter().map(|(_, ds)| ds[ds.len() / 2]).collect()
    }

    /// The section's markdown block: the observation table, then the detail
    /// step's per-worker thread durations.
    pub fn markdown(&self) -> String {
        let medians = self.worker_medians();
        let lo = medians.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = medians.iter().cloned().fold(0.0, f64::max);
        let (affected, slowdowns) = (self.affected_slowdowns.len(), &self.affected_slowdowns);
        let share = 100.0 * affected as f64 / self.non_trivial_steps.max(1) as f64;
        let ((without, with), outliers) = (self.detail_step_s, self.detail_outliers);
        let (injected, iteration) = (&self.injected, self.detail_iteration);
        let mut out = format!(
            "({}; outlier threshold {OUTLIER_FACTOR}× the worker's peers' median; non-trivial \
             steps ≥ {:.1} s)\n\n",
            self.workload,
            NON_TRIVIAL_NS as f64 / 1e9
        );
        out += &claims_table(&CLAIMS, [
            format!("medians {lo:.2}–{hi:.2} s across workers (scaled)"),
            format!("{:.2}× worker mean (detail step)", self.outlier_vs_worker_mean),
            format!(
                "{without:.2} → {with:.2} s = {:.2}× (detail step, {outliers} outliers)",
                self.detail_slowdown
            ),
            format!("{} of {} (iterations {injected:?})", self.recovered, injected.len()),
            format!("{affected} of {} ({share:.0} %)", self.non_trivial_steps),
            match (slowdowns.first(), slowdowns.last()) {
                (Some(lo), Some(hi)) => format!("{lo:.2}–{hi:.2}×"),
                _ => "-".to_string(),
            },
        ]);
        let mut rows = Vec::new();
        for ((worker, ds), median) in self.detail_threads.iter().zip(&medians) {
            let durations: Vec<String> = ds.iter().map(|d| format!("{d:.2}")).collect();
            rows.push(row![worker, durations.join(" "), format!("{median:.2}")]);
        }
        out += &format!("\nDetail step (iteration {iteration}): gather-thread durations\n\n");
        out + &markdown_table(&["Worker", "Thread durations (s)", "Median (s)"], &rows)
    }
}
