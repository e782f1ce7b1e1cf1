//! Performance-issue detection (§III-F).
//!
//! For each candidate issue Grade10 computes how fixing it would change
//! specific phase durations, replays the trace with the adjusted durations,
//! and reports the reduction in makespan if it clears a threshold. Two issue
//! classes are implemented, matching the paper:
//!
//! * [`bottleneck_impact`] — *extensive resource bottlenecks*: remove all
//!   bottlenecks on one resource kind (consumable or blocking) and see how
//!   much faster the application could run before the next resource binds;
//! * [`imbalance`] — *imbalanced execution*: give every group of concurrent
//!   same-type phases its mean duration (work is interchangeable within one
//!   iteration, never across iterations) and re-simulate.
//!
//! Every candidate is a patch over the trace's own durations, evaluated
//! against one shared [`ReplayPlan`](crate::replay::ReplayPlan):
//! [`detect_issues`] takes the [`Baseline`] the pipeline's replay stage
//! built, so the plan is built and the baseline replayed once, however many
//! candidates follow. The per-class entry points and
//! [`imbalance_issue`](imbalance::imbalance_issue) build a plan of their
//! own and are otherwise the same code.

pub mod bottleneck_impact;
pub mod imbalance;

pub use bottleneck_impact::detect_bottleneck_issues;
pub use imbalance::{detect_imbalance_issues, imbalance_groups, GroupDetail, OutlierReport};

use crate::attribution::PerformanceProfile;
use crate::bottleneck::BottleneckReport;
use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::replay::{Baseline, ReplayConfig};
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::timeslice::Nanos;

/// Thresholds and knobs for issue detection.
#[derive(Clone, Debug)]
pub struct IssueConfig {
    /// Minimum makespan reduction (fraction of baseline) to report an issue.
    pub min_reduction: f64,
    /// Lower bound on the per-slice shrink factor when simulating a removed
    /// consumable bottleneck: a slice never shrinks below this fraction of
    /// itself (prevents unbounded speedups when no other resource is
    /// visible).
    pub floor_factor: f64,
}

impl Default for IssueConfig {
    fn default() -> Self {
        IssueConfig {
            min_reduction: 0.01,
            floor_factor: 0.05,
        }
    }
}

/// What kind of issue a report describes.
#[derive(Clone, Debug, PartialEq)]
pub enum IssueKind {
    /// Removing all bottlenecks on a consumable resource kind.
    ConsumableBottleneck {
        /// The consumable resource kind whose bottlenecks are removed.
        resource_kind: String,
    },
    /// Removing all blocking on a blocking resource kind.
    BlockingBottleneck {
        /// The blocking resource kind whose events are removed.
        resource_kind: String,
    },
    /// Perfectly balancing concurrent same-type phases of one type.
    Imbalance {
        /// The phase type whose concurrent groups are evened out.
        phase_type: PhaseTypeId,
    },
}

/// One detected performance issue with its estimated maximal impact.
#[derive(Clone, Debug)]
pub struct PerformanceIssue {
    /// What fixing this issue means.
    pub kind: IssueKind,
    /// Baseline makespan (replay of the original durations), ns.
    pub base_makespan: Nanos,
    /// Optimistic makespan with the issue fixed, ns.
    pub optimistic_makespan: Nanos,
    /// `1 − optimistic / base`: upper bound on the achievable reduction.
    pub reduction: f64,
    /// Number of phase instances whose duration the fix changed.
    pub affected_instances: usize,
}

impl PerformanceIssue {
    pub(crate) fn from_makespans(
        kind: IssueKind,
        base: Nanos,
        optimistic: Nanos,
        affected: usize,
    ) -> Self {
        let reduction = if base == 0 {
            0.0
        } else {
            1.0 - optimistic as f64 / base as f64
        };
        PerformanceIssue {
            kind,
            base_makespan: base,
            optimistic_makespan: optimistic,
            reduction,
            affected_instances: affected,
        }
    }
}

/// The what-if engine: a trace's [`Baseline`] replay, whose duration vector
/// candidates patch.
pub(crate) struct WhatIf<'a> {
    pub(crate) model: &'a ExecutionModel,
    pub(crate) trace: &'a ExecutionTrace,
    /// `durations` are the trace's own, except while a candidate is
    /// evaluated.
    base: Baseline,
}

impl<'a> WhatIf<'a> {
    /// Builds the plan and replays the original durations.
    pub(crate) fn new(
        model: &'a ExecutionModel,
        trace: &'a ExecutionTrace,
        replay_cfg: &ReplayConfig,
    ) -> Self {
        WhatIf {
            model,
            trace,
            base: Baseline::new(model, trace, replay_cfg),
        }
    }

    /// Replays with the instances in `patch` given their new durations and
    /// everything else as traced.
    pub(crate) fn evaluate(
        &mut self,
        kind: IssueKind,
        patch: &[(InstanceId, Nanos)],
        affected: usize,
    ) -> PerformanceIssue {
        let base = &mut self.base;
        for &(id, duration) in patch {
            base.durations[id.0 as usize] = duration;
        }
        let optimistic = base.plan.makespan(&base.durations);
        for &(id, _) in patch {
            base.durations[id.0 as usize] = self.trace.instance(id).duration();
        }
        PerformanceIssue::from_makespans(kind, base.makespan, optimistic, affected)
    }
}

/// Drops candidates below the reporting threshold and orders the rest most
/// impactful first (ties keep candidate order).
fn rank(mut issues: Vec<PerformanceIssue>, cfg: &IssueConfig) -> Vec<PerformanceIssue> {
    issues.retain(|i| i.reduction >= cfg.min_reduction);
    issues.sort_by(|a, b| b.reduction.total_cmp(&a.reduction));
    issues
}

/// The full sweep of §III-F over one shared replay plan — `base`, which the
/// pipeline's replay stage built: one what-if per consumable and per
/// blocking resource kind in the bottleneck report, one per leaf phase type
/// that shows concurrency; returns the issues above the reporting
/// threshold, most impactful first.
pub fn detect_issues(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    profile: &PerformanceProfile,
    bottlenecks: &BottleneckReport,
    base: Baseline,
    cfg: &IssueConfig,
) -> Vec<PerformanceIssue> {
    let mut engine = WhatIf { model, trace, base };
    let mut issues = engine.bottleneck_candidates(profile, bottlenecks, cfg);
    issues.extend(engine.imbalance_candidates());
    rank(issues, cfg)
}
