//! Impact estimation of imbalanced execution (§III-F, Figures 5 and 6).
//!
//! Concurrent phases of the same type within one iteration are assumed to
//! carry interchangeable work: absent the imbalance each would take the
//! group's mean duration and the total work is preserved. The replay of the
//! evened-out durations bounds the gain from perfect load balancing.
//!
//! [`imbalance_groups`] additionally exposes the per-group durations and an
//! outlier analysis — the tooling that surfaced the PowerGraph
//! synchronization bug in §IV-D.

use std::collections::BTreeMap;

use crate::issues::{rank, IssueConfig, IssueKind, PerformanceIssue, WhatIf};
use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::replay::ReplayConfig;
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::timeslice::Nanos;

/// One group of interchangeable concurrent phases.
#[derive(Clone, Debug)]
pub struct GroupDetail {
    /// The phase type the group members share.
    pub phase_type: PhaseTypeId,
    /// The iteration-scope ancestor instance the group belongs to.
    pub scope: InstanceId,
    /// `(instance, machine, duration)` per member.
    pub members: Vec<(InstanceId, Option<u16>, Nanos)>,
}

impl GroupDetail {
    /// Mean member duration.
    pub fn mean(&self) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        self.members.iter().map(|&(_, _, d)| d as f64).sum::<f64>() / self.members.len() as f64
    }

    /// Longest member duration.
    pub fn max(&self) -> Nanos {
        self.members.iter().map(|&(_, _, d)| d).max().unwrap_or(0)
    }

    /// Median duration of the members on one machine.
    pub fn machine_median(&self, machine: Option<u16>) -> Option<Nanos> {
        let mut ds: Vec<Nanos> = self
            .members
            .iter()
            .filter(|&&(_, m, _)| m == machine)
            .map(|&(_, _, d)| d)
            .collect();
        if ds.is_empty() {
            return None;
        }
        ds.sort_unstable();
        Some(ds[ds.len() / 2])
    }

    /// Outlier analysis: members slower than `factor` × the median of their
    /// *peers* — the other members on the same machine (falling back to the
    /// rest of the group for machines with a single member). The
    /// leave-one-out median keeps a straggler from masking itself on
    /// machines with few threads. This is the signature of the PowerGraph
    /// sync bug — one thread left draining messages while its peers idle at
    /// the barrier.
    pub fn outliers(&self, factor: f64) -> OutlierReport {
        let mut outliers = Vec::new();
        let mut max_without = 0u64;
        for &(id, machine, d) in &self.members {
            let mut peers: Vec<Nanos> = self
                .members
                .iter()
                .filter(|&&(pid, m, _)| pid != id && m == machine)
                .map(|&(_, _, pd)| pd)
                .collect();
            if peers.is_empty() {
                peers = self
                    .members
                    .iter()
                    .filter(|&&(pid, _, _)| pid != id)
                    .map(|&(_, _, pd)| pd)
                    .collect();
            }
            peers.sort_unstable();
            let median = peers.get(peers.len() / 2).copied().unwrap_or(0);
            if median > 0 && d as f64 > factor * median as f64 {
                outliers.push((id, machine, d));
            } else {
                max_without = max_without.max(d);
            }
        }
        let max_with = self.max();
        let slowdown = if max_without > 0 && !outliers.is_empty() {
            max_with as f64 / max_without as f64
        } else {
            1.0
        };
        OutlierReport {
            outliers,
            max_duration: max_with,
            max_without_outliers: max_without,
            slowdown,
        }
    }
}

/// Result of [`GroupDetail::outliers`].
#[derive(Clone, Debug)]
pub struct OutlierReport {
    /// `(instance, machine, duration)` of each outlier.
    pub outliers: Vec<(InstanceId, Option<u16>, Nanos)>,
    /// Group duration as executed (slowest member).
    pub max_duration: Nanos,
    /// Group duration had the outliers matched their peers.
    pub max_without_outliers: Nanos,
    /// `max_duration / max_without_outliers` — the step slowdown the
    /// outliers caused (1.0 when there are none).
    pub slowdown: f64,
}

/// Collects the groups of concurrent same-type leaf phases for `phase_type`,
/// scoped to its nearest Sequential ancestor (iteration).
pub fn imbalance_groups(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    phase_type: PhaseTypeId,
) -> Vec<GroupDetail> {
    groups_by_type(model, trace, |ty| ty == phase_type)
}

/// [`imbalance_groups`] of every phase type `wanted` accepts, in one pass
/// over the instances: by type, then by scope; members in instance order.
fn groups_by_type(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    wanted: impl Fn(PhaseTypeId) -> bool,
) -> Vec<GroupDetail> {
    let scope_types: Vec<Option<PhaseTypeId>> = (0..model.num_types() as u32)
        .map(PhaseTypeId)
        .map(|ty| wanted(ty).then(|| model.grouping_scope(ty)))
        .collect();
    let mut groups: BTreeMap<(PhaseTypeId, InstanceId), Vec<_>> = BTreeMap::new();
    for inst in trace.instances() {
        if let Some(scope_type) = scope_types[inst.type_id.0 as usize] {
            let scope = trace
                .ancestor_of_type(inst.id, scope_type)
                .unwrap_or(InstanceId(0));
            groups.entry((inst.type_id, scope)).or_default().push((
                inst.id,
                inst.machine,
                inst.duration(),
            ));
        }
    }
    groups
        .into_iter()
        .map(|((phase_type, scope), members)| GroupDetail {
            phase_type,
            scope,
            members,
        })
        .collect()
}

impl WhatIf<'_> {
    /// Perfectly balancing `groups`, the groups of `phase_type`: every
    /// member of a group of two or more takes the group's mean duration.
    fn imbalance(&mut self, phase_type: PhaseTypeId, groups: &[GroupDetail]) -> PerformanceIssue {
        let mut patch: Vec<(InstanceId, Nanos)> = Vec::new();
        let mut affected = 0usize;
        for g in groups {
            if g.members.len() < 2 {
                continue;
            }
            let mean = g.mean() as Nanos;
            for &(id, _, d) in &g.members {
                if d != mean {
                    affected += 1;
                }
                patch.push((id, mean));
            }
        }
        self.evaluate(IssueKind::Imbalance { phase_type }, &patch, affected)
    }

    /// One candidate per leaf phase type that shows concurrency, in type
    /// order, from one grouping pass over the instances.
    pub(crate) fn imbalance_candidates(&mut self) -> Vec<PerformanceIssue> {
        let model = self.model;
        groups_by_type(model, self.trace, |ty| model.is_leaf(ty))
            .chunk_by(|a, b| a.phase_type == b.phase_type)
            .filter(|groups| groups.iter().any(|g| g.members.len() >= 2))
            .map(|groups| self.imbalance(groups[0].phase_type, groups))
            .collect()
    }
}

/// Simulates perfectly balancing all groups of `phase_type`.
pub fn imbalance_issue(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    phase_type: PhaseTypeId,
    replay_cfg: &ReplayConfig,
) -> PerformanceIssue {
    let groups = imbalance_groups(model, trace, phase_type);
    WhatIf::new(model, trace, replay_cfg).imbalance(phase_type, &groups)
}

/// Sweeps every leaf phase type that shows concurrency and reports the
/// imbalance issues above threshold, most impactful first.
pub fn detect_imbalance_issues(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    replay_cfg: &ReplayConfig,
    cfg: &IssueConfig,
) -> Vec<PerformanceIssue> {
    let issues = WhatIf::new(model, trace, replay_cfg).imbalance_candidates();
    rank(issues, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::timeslice::MILLIS;

    /// job -> iteration(seq) -> worker(par) -> gather(once, leaf)
    fn model() -> ExecutionModel {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let it = b.child(r, "iteration", Repeat::Sequential);
        let w = b.child(it, "worker", Repeat::Parallel);
        let _g = b.child(w, "gather", Repeat::Parallel);
        b.build()
    }

    /// Two iterations, two workers, two gather threads each; durations in
    /// ms given per iteration/worker/thread.
    fn build(durs: [[[u64; 2]; 2]; 2]) -> (ExecutionModel, ExecutionTrace) {
        let m = model();
        let trace = build_trace(&m, durs);
        (m, trace)
    }

    fn build_trace(m: &ExecutionModel, durs: [[[u64; 2]; 2]; 2]) -> ExecutionTrace {
        let mut tb = TraceBuilder::new(m);
        let mut t0 = 0u64;
        let iter_lens: Vec<u64> = durs
            .iter()
            .map(|it| it.iter().flatten().copied().max().unwrap())
            .collect();
        let total: u64 = iter_lens.iter().sum();
        tb.add_phase(&[("job", 0)], 0, total * MILLIS, None, None)
            .unwrap();
        for (i, it) in durs.iter().enumerate() {
            let ilen = iter_lens[i];
            tb.add_phase(
                &[("job", 0), ("iteration", i as u32)],
                t0 * MILLIS,
                (t0 + ilen) * MILLIS,
                None,
                None,
            )
            .unwrap();
            for (w, threads) in it.iter().enumerate() {
                let wlen = *threads.iter().max().unwrap();
                tb.add_phase(
                    &[("job", 0), ("iteration", i as u32), ("worker", w as u32)],
                    t0 * MILLIS,
                    (t0 + wlen) * MILLIS,
                    Some(w as u16),
                    None,
                )
                .unwrap();
                for (k, &d) in threads.iter().enumerate() {
                    tb.add_phase(
                        &[
                            ("job", 0),
                            ("iteration", i as u32),
                            ("worker", w as u32),
                            ("gather", k as u32),
                        ],
                        t0 * MILLIS,
                        (t0 + d) * MILLIS,
                        Some(w as u16),
                        Some(k as u16),
                    )
                    .unwrap();
                }
            }
            t0 += ilen;
        }
        tb.build().unwrap()
    }

    #[test]
    fn groups_scope_to_iterations_across_workers() {
        let (m, trace) = build([[[10, 20], [30, 40]], [[50, 60], [70, 80]]]);
        let g_ty = m.find_by_name("gather").unwrap();
        let groups = imbalance_groups(&m, &trace, g_ty);
        assert_eq!(groups.len(), 2, "one group per iteration");
        assert!(groups.iter().all(|g| g.members.len() == 4));
    }

    #[test]
    fn balancing_reduces_makespan() {
        // Iteration 0: durations 10,20,30,40 (max 40, mean 25).
        // Iteration 1: 50,60,70,80 (max 80, mean 65).
        let (m, trace) = build([[[10, 20], [30, 40]], [[50, 60], [70, 80]]]);
        let g_ty = m.find_by_name("gather").unwrap();
        let issue = imbalance_issue(&m, &trace, g_ty, &ReplayConfig::default());
        assert_eq!(issue.base_makespan, 120 * MILLIS);
        assert_eq!(issue.optimistic_makespan, 90 * MILLIS);
        assert!((issue.reduction - 0.25).abs() < 1e-9);
        assert_eq!(issue.affected_instances, 8);
    }

    #[test]
    fn balanced_trace_reports_no_issue() {
        let (m, trace) = build([[[30, 30], [30, 30]], [[40, 40], [40, 40]]]);
        let issues = detect_imbalance_issues(
            &m,
            &trace,
            &ReplayConfig::default(),
            &IssueConfig::default(),
        );
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn outlier_detection_finds_straggler() {
        // Worker 0 threads: 20, 21; worker 1: 20, 58 (the straggler).
        let (m, trace) = build([[[20, 21], [20, 58]], [[10, 10], [10, 10]]]);
        let g_ty = m.find_by_name("gather").unwrap();
        let groups = imbalance_groups(&m, &trace, g_ty);
        let rep = groups[0].outliers(2.0);
        assert_eq!(rep.outliers.len(), 1);
        assert_eq!(rep.outliers[0].1, Some(1));
        assert_eq!(rep.max_duration, 58 * MILLIS);
        assert_eq!(rep.max_without_outliers, 21 * MILLIS);
        assert!((rep.slowdown - 58.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn no_outliers_in_tight_group() {
        let (m, trace) = build([[[20, 21], [22, 23]], [[10, 10], [10, 10]]]);
        let g_ty = m.find_by_name("gather").unwrap();
        let groups = imbalance_groups(&m, &trace, g_ty);
        let rep = groups[0].outliers(2.0);
        assert!(rep.outliers.is_empty());
        assert_eq!(rep.slowdown, 1.0);
    }

    #[test]
    fn detect_sweep_finds_gather_imbalance() {
        let (m, trace) = build([[[10, 20], [30, 40]], [[50, 60], [70, 80]]]);
        let issues = detect_imbalance_issues(
            &m,
            &trace,
            &ReplayConfig::default(),
            &IssueConfig::default(),
        );
        assert_eq!(issues.len(), 1);
        let g_ty = m.find_by_name("gather").unwrap();
        assert_eq!(issues[0].kind, IssueKind::Imbalance { phase_type: g_ty });
    }
}
