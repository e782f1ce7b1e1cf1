//! The paper's evaluation (§IV) as functions.
//!
//! Each function regenerates one section of `EXPERIMENTS.md` — a table or
//! figure of the Grade10 paper, or one of the extra experiments — and
//! returns a typed value holding every number that section shows. The
//! value renders to the section's markdown block; `tests/paper_figures.rs`
//! asserts the section's shape claims on the value and checks the block
//! byte for byte against `EXPERIMENTS.md` (`UPDATE_GOLDENS=1` rewrites
//! it). `DESIGN.md` §4 is the index. This module holds what the sections
//! share: the evaluation workload matrix, the error metrics and the
//! markdown-table helpers.

use grade10_core::attribution::{relative_sampling_error, PerformanceProfile, UpsampleMode};
use grade10_core::bottleneck::{BottleneckConfig, BottleneckReport};
use grade10_core::issues::imbalance::GroupDetail;
use grade10_core::issues::{detect_bottleneck_issues, IssueConfig, IssueKind, PerformanceIssue};
use grade10_core::replay::ReplayConfig;
use grade10_engines::gas::GasConfig;
use grade10_engines::pregel::PregelConfig;
use grade10_engines::{Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};

/// One markdown-table row: every cell through `Display`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

mod ablation;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fleet;
mod rule_inference;
mod scaling;
mod table2;

pub use ablation::{ablation, Ablation, CombinerRow, PartitionRow};
pub use fig2::{fig2, Fig2};
pub use fig3::{fig3, Fig3, Fig3Panel};
pub use fig4::{fig4, Fig4, Fig4Row};
pub use fig5::{fig5, Fig5, Fig5Row};
pub use fig6::{fig6, Fig6};
pub use fleet::{fleet, Fleet, FleetJob};
pub use rule_inference::{rule_inference, RuleInference};
pub use scaling::{scaling, Scaling, ScalingRow};
pub use table2::{table2, Table2, Table2Row, TABLE2_COLUMNS};

/// Ground-truth monitoring interval (the paper's 50 ms), in nanoseconds.
const GROUND_TRUTH_NS: u64 = 50 * 1_000_000;

/// The downsampling factor the paper recommends (8× → 400 ms monitoring).
const DEFAULT_DOWNSAMPLE: usize = 8;

/// Timeslice used by the analyses that do not study upsampling accuracy.
const SLICE_NS: u64 = 10 * 1_000_000;

/// Outlier threshold of the sync-bug analyses (Fig. 6, fleet screening): a
/// thread counts as an outlier at 2.2× its peers' median, comfortably above
/// the engine's organic per-thread jitter.
const OUTLIER_FACTOR: f64 = 2.2;

/// Steps shorter than this are "trivial" and excluded from the sync-bug
/// statistics (the paper uses > 1 s at testbed scale; our simulated steps
/// are smaller).
const NON_TRIVIAL_NS: u64 = 200 * 1_000_000;

/// The sync-bug screen over one phase type's groups (Fig. 6, fleet
/// screening): the number of non-trivial steps, and the outlier-induced
/// slowdown of each step its outliers extend, sorted. A step counts as
/// affected only when its outliers actually extend it — an outlier that is
/// not the step's critical thread costs nothing.
fn straggler_screen(groups: &[GroupDetail]) -> (usize, Vec<f64>) {
    let non_trivial: Vec<_> = groups.iter().filter(|g| g.max() >= NON_TRIVIAL_NS).collect();
    let reports = non_trivial.iter().map(|g| g.outliers(OUTLIER_FACTOR));
    let affected = reports.filter(|rep| !rep.outliers.is_empty() && rep.slowdown > 1.05);
    let mut slowdowns: Vec<f64> = affected.map(|rep| rep.slowdown).collect();
    slowdowns.sort_by(f64::total_cmp);
    (non_trivial.len(), slowdowns)
}

/// Giraph configuration for Fig. 3: threads < cores so the CPU is never
/// saturated and the *exact-limit* bottleneck (one core per thread) is what
/// tuned rules reveal.
fn giraph_fig3_config() -> PregelConfig {
    PregelConfig {
        threads: 6,
        cores: 8.0,
        // Slower NIC than the default so message production outpaces the
        // drain and region ③ (bursty queue stalls) appears.
        net_bps: 7.0e6,
        ..PregelConfig::default()
    }
}

/// The eight Giraph workloads (2 datasets × 4 algorithms), on the default
/// Giraph-like configuration: 4 workers, 8 threads on 8 cores, a NIC slow
/// enough that PageRank-class message volumes stall the bounded queue, and
/// a heap small enough for several GC pauses per run — the bottleneck mix
/// §IV-C reports for Giraph.
fn giraph_matrix() -> Vec<WorkloadSpec> {
    matrix(|| EngineKind::Giraph(PregelConfig::default()))
}

/// The eight PowerGraph workloads, on the default PowerGraph-like
/// configuration: same cluster, no GC, no bounded queue, generous NIC
/// (network impact stays small, §IV-C).
fn powergraph_matrix() -> Vec<WorkloadSpec> {
    matrix(|| EngineKind::PowerGraph(GasConfig::default()))
}

/// The two evaluation datasets, scaled to run the whole matrix in minutes,
/// × the four Graphalytics algorithms of the paper.
fn matrix(engine: impl Fn() -> EngineKind) -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    for dataset in [
        Dataset::Rmat { scale: 12, seed: 46 },
        Dataset::Social { vertices: 5000, seed: 46 },
    ] {
        for algorithm in [
            Algorithm::Bfs { root: 0 },
            Algorithm::PageRank { iterations: 8 },
            Algorithm::Wcc,
            Algorithm::Cdlp { iterations: 8 },
        ] {
            specs.push(WorkloadSpec { dataset, algorithm, engine: engine() });
        }
    }
    specs
}

/// Table II error metric: relative sampling error of CPU usage, aggregated
/// over all machines — the sum of absolute differences between the
/// upsampled consumption and the 50 ms ground truth, as a fraction of total
/// CPU consumption. `profile` must have been built with a 50 ms slice.
/// Degenerate inputs follow `relative_sampling_error`'s convention: a
/// zero-truth, nonzero-upsample comparison scores `inf` (phantom mass is
/// not a perfect match), zero-vs-zero scores 0.
fn cpu_sampling_error(
    profile: &PerformanceProfile,
    ground_truth: &[grade10_cluster::ResourceSeries],
) -> f64 {
    let mut upsampled_all = Vec::new();
    let mut truth_all = Vec::new();
    for (r, res) in profile.resources.iter().enumerate() {
        if res.kind != "cpu" {
            continue;
        }
        let truth = ground_truth
            .iter()
            .find(|s| s.spec.kind.name() == "cpu" && Some(s.spec.machine) == res.machine)
            .expect("ground truth series for cpu");
        let n = profile.consumption[r].len().min(truth.samples.len());
        upsampled_all.extend_from_slice(&profile.consumption[r][..n]);
        truth_all.extend_from_slice(&truth.samples[..n]);
    }
    relative_sampling_error(&upsampled_all, &truth_all)
}

/// The full pipeline on one run — tuned profile at the recommended
/// monitoring granularity, bottleneck report, what-if replay — returning
/// every bottleneck issue, however small.
fn bottleneck_issues(run: &WorkloadRun) -> Vec<PerformanceIssue> {
    let mode = UpsampleMode::DemandGuided;
    let profile = run.build_profile(&run.rules_tuned, DEFAULT_DOWNSAMPLE, SLICE_NS, mode);
    let report = BottleneckReport::build(&run.trace, &profile, &BottleneckConfig::default());
    // A slice never shrinks below 4× its speed: removing one resource's
    // bottleneck exposes unmodeled limits (memory bandwidth, scheduling
    // overheads) long before a 20× speedup — this caps the optimism of the
    // what-if, like the paper's "until another resource becomes
    // bottlenecked". Everything is reported; the figures show which
    // impacts are insignificant.
    let cfg = IssueConfig { floor_factor: 0.25, min_reduction: 0.0 };
    let replay = ReplayConfig::default();
    detect_bottleneck_issues(&run.model, &run.trace, &profile, &report, &replay, &cfg)
}

/// Looks up the reduction a sweep reported for one resource kind, 0 if
/// below threshold.
fn reduction_for(issues: &[PerformanceIssue], kind_name: &str) -> f64 {
    issues
        .iter()
        .find(|i| match &i.kind {
            IssueKind::ConsumableBottleneck { resource_kind }
            | IssueKind::BlockingBottleneck { resource_kind } => resource_kind == kind_name,
            IssueKind::Imbalance { .. } => false,
        })
        .map(|i| i.reduction)
        .unwrap_or(0.0)
}

/// Renders a markdown table: the header row, the `|---|` separator, then
/// one line per row. Every section's block is built from these.
fn markdown_table<H: AsRef<str>>(headers: &[H], rows: &[Vec<String>]) -> String {
    let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(headers.iter().map(AsRef::as_ref).collect());
    out += &"|---".repeat(headers.len());
    out += "|\n";
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width must match the header");
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// The "Quantity | Paper | Measured" table of a section: each claim with
/// the paper's value, next to what was measured.
fn claims_table<const N: usize>(claims: &[(&str, &str); N], measured: [String; N]) -> String {
    let rows: Vec<_> = claims.iter().zip(measured).map(|(&(q, p), m)| row![q, p, m]).collect();
    markdown_table(&["Quantity", "Paper", "Measured"], &rows)
}

/// A fraction as a percentage with one decimal, without the sign: 0.437 →
/// "43.7".
fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// The mark a claim cell carries: ✓ when it holds, ✗ when it does not.
fn tick(holds: bool) -> &'static str {
    if holds { "✓" } else { "✗" }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_have_eight_workloads() {
        assert_eq!(giraph_matrix().len(), 8);
        assert_eq!(powergraph_matrix().len(), 8);
        let names: std::collections::BTreeSet<String> =
            giraph_matrix().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 8, "workload names must be distinct");
    }

    #[test]
    fn fig3_config_leaves_cpu_headroom() {
        let cfg = giraph_fig3_config();
        assert!((cfg.threads as f64) < cfg.cores);
    }

    #[test]
    fn markdown_table_layout() {
        let t = markdown_table(&["a", "b"], &[row![1, 2], row!["3", 4]]);
        assert_eq!(t, "| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n");
    }
}
