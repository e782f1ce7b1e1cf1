//! Impact estimation of extensive resource bottlenecks (§III-F).
//!
//! To simulate removing a bottleneck on resource kind `K`, every slice in
//! which a phase was bottlenecked on `K` shrinks until the *next* resource
//! binds: the shrink factor is the highest utilization fraction the phase
//! shows on any other resource in that slice (its usage relative to its own
//! Exact limit, or to the resource's capacity for Variable rules). Blocking
//! bottlenecks are simpler — the blocked time just disappears.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::attribution::{InstanceUsage, PerformanceProfile};
use crate::bottleneck::BottleneckReport;
use crate::issues::{rank, IssueConfig, IssueKind, PerformanceIssue, WhatIf};
use crate::model::execution::ExecutionModel;
use crate::model::rules::AttributionRule;
use crate::replay::ReplayConfig;
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::resource::ResourceInstance;
use crate::trace::timeslice::Nanos;

/// `profile.usages` grouped by instance (in profile order), so a what-if
/// looks at the resources of the instance it shrinks and nothing else.
type UsagesByInstance<'p> = HashMap<InstanceId, Vec<&'p InstanceUsage>>;

fn usages_by_instance(profile: &PerformanceProfile) -> UsagesByInstance<'_> {
    let mut by_instance = UsagesByInstance::new();
    for u in &profile.usages {
        by_instance.entry(u.instance).or_default().push(u);
    }
    by_instance
}

impl WhatIf<'_> {
    /// Removing all bottlenecks on the consumable resource kind
    /// `resource_kind`.
    fn consumable(
        &mut self,
        profile: &PerformanceProfile,
        usages: &UsagesByInstance<'_>,
        report: &BottleneckReport,
        resource_kind: &str,
        cfg: &IssueConfig,
    ) -> PerformanceIssue {
        // Bottlenecked slices per instance, restricted to the target kind.
        let mut slices_per_instance: BTreeMap<InstanceId, BTreeSet<usize>> = BTreeMap::new();
        for b in &report.consumable {
            if profile.resources[b.resource.0 as usize].kind == resource_kind {
                slices_per_instance
                    .entry(b.instance)
                    .or_default()
                    .extend(b.slices.iter().copied());
            }
        }

        let slice_ns = profile.grid.slice_nanos();
        let patch: Vec<(InstanceId, Nanos)> = slices_per_instance
            .iter()
            .map(|(&id, slices)| {
                let own = usages.get(&id).map_or(&[][..], Vec::as_slice);
                let mut saved = 0.0f64;
                for &s in slices {
                    let factor = next_limit_fraction(&profile.resources, own, resource_kind, s)
                        .max(cfg.floor_factor);
                    saved += (1.0 - factor.min(1.0)) * slice_ns as f64;
                }
                let orig = self.trace.instance(id).duration();
                (id, (orig as f64 - saved).max(0.0) as Nanos)
            })
            .collect();
        self.evaluate(
            IssueKind::ConsumableBottleneck {
                resource_kind: resource_kind.to_string(),
            },
            &patch,
            patch.len(),
        )
    }

    /// Removing all blocking on the blocking resource kind `resource_kind`:
    /// each affected phase shortens by its blocked time.
    fn blocking(&mut self, report: &BottleneckReport, resource_kind: &str) -> PerformanceIssue {
        let mut saved: BTreeMap<InstanceId, Nanos> = BTreeMap::new();
        for b in &report.blocking {
            if b.resource == resource_kind {
                *saved.entry(b.instance).or_insert(0) += (b.blocked_secs * 1e9) as Nanos;
            }
        }
        let patch: Vec<(InstanceId, Nanos)> = saved
            .into_iter()
            .map(|(id, ns)| (id, self.trace.instance(id).duration().saturating_sub(ns)))
            .collect();
        self.evaluate(
            IssueKind::BlockingBottleneck {
                resource_kind: resource_kind.to_string(),
            },
            &patch,
            patch.len(),
        )
    }

    /// One candidate per resource kind seen in the bottleneck report:
    /// consumable kinds, then blocking kinds, each in name order.
    pub(crate) fn bottleneck_candidates(
        &mut self,
        profile: &PerformanceProfile,
        report: &BottleneckReport,
        cfg: &IssueConfig,
    ) -> Vec<PerformanceIssue> {
        let mut issues = Vec::new();

        let consumable_kinds: BTreeSet<&str> = report
            .consumable
            .iter()
            .map(|b| profile.resources[b.resource.0 as usize].kind.as_str())
            .collect();
        let usages = usages_by_instance(profile);
        for kind in consumable_kinds {
            issues.push(self.consumable(profile, &usages, report, kind, cfg));
        }

        let blocking_kinds: BTreeSet<&str> = report
            .blocking
            .iter()
            .map(|b| b.resource.as_str())
            .collect();
        for kind in blocking_kinds {
            issues.push(self.blocking(report, kind));
        }
        issues
    }
}

/// Simulates removing all bottlenecks on the consumable resource kind
/// `resource_kind`.
pub fn consumable_issue(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    profile: &PerformanceProfile,
    report: &BottleneckReport,
    resource_kind: &str,
    replay_cfg: &ReplayConfig,
    cfg: &IssueConfig,
) -> PerformanceIssue {
    WhatIf::new(model, trace, replay_cfg).consumable(
        profile,
        &usages_by_instance(profile),
        report,
        resource_kind,
        cfg,
    )
}

/// The highest utilization fraction an instance shows on any resource other
/// than `removed_kind` in slice `s` — the point at which the next resource
/// becomes the bottleneck. `own` holds that instance's usages only.
fn next_limit_fraction(
    resources: &[ResourceInstance],
    own: &[&InstanceUsage],
    removed_kind: &str,
    s: usize,
) -> f64 {
    let mut max_frac = 0.0f64;
    for u in own {
        let res = &resources[u.resource.0 as usize];
        if res.kind == removed_kind {
            continue;
        }
        let usage = u.usage_at(s);
        let limit = match u.rule {
            AttributionRule::Exact(_) => u.demand_at(s).max(1e-12),
            _ => res.capacity,
        };
        max_frac = max_frac.max(usage / limit);
    }
    max_frac
}

/// Simulates removing all blocking on the blocking resource kind
/// `resource_kind` (e.g. "gc", "msgq"): each affected phase shortens by its
/// blocked time.
pub fn blocking_issue(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    report: &BottleneckReport,
    resource_kind: &str,
    replay_cfg: &ReplayConfig,
) -> PerformanceIssue {
    WhatIf::new(model, trace, replay_cfg).blocking(report, resource_kind)
}

/// Runs the sweep over the bottleneck report alone: one what-if per
/// resource kind seen in it, returning issues above the reporting
/// threshold, most impactful first. [`detect_issues`](super::detect_issues)
/// runs the same candidates, and the imbalance ones, on one replay plan.
pub fn detect_bottleneck_issues(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    profile: &PerformanceProfile,
    report: &BottleneckReport,
    replay_cfg: &ReplayConfig,
    cfg: &IssueConfig,
) -> Vec<PerformanceIssue> {
    let issues = WhatIf::new(model, trace, replay_cfg).bottleneck_candidates(profile, report, cfg);
    rank(issues, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::{build_profile, ProfileConfig};
    use crate::bottleneck::BottleneckConfig;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::model::rules::RuleSet;
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::{ResourceInstance, ResourceTrace};
    use crate::trace::timeslice::MILLIS;

    /// One long CPU-saturated phase plus GC blocking on a second phase.
    fn setup() -> (
        ExecutionModel,
        ExecutionTrace,
        ResourceTrace,
    ) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let a = b.child(r, "a", Repeat::Once);
        let c = b.child(r, "b", Repeat::Once);
        b.edge(a, c);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 200 * MILLIS, None, None).unwrap();
        tb.add_phase(&[("job", 0), ("a", 0)], 0, 100 * MILLIS, Some(0), Some(0))
            .unwrap();
        let bb = tb
            .add_phase(
                &[("job", 0), ("b", 0)],
                100 * MILLIS,
                200 * MILLIS,
                Some(0),
                Some(0),
            )
            .unwrap();
        // b is GC-blocked for 40 of its 100 ms.
        tb.add_blocking(bb, "gc", 120 * MILLIS, 160 * MILLIS);
        let trace = tb.build().unwrap();
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        // a saturates the CPU; b uses little.
        let mut samples = vec![4.0; 10];
        samples.extend(vec![0.4; 10]);
        rt.add_series(cpu, 0, 10 * MILLIS, &samples);
        (model, trace, rt)
    }

    #[test]
    fn cpu_bottleneck_issue_reports_reduction() {
        let (model, trace, rt) = setup();
        let prof = build_profile(&model, &RuleSet::new(), &trace, &rt, &ProfileConfig::default());
        let report = BottleneckReport::build(&trace, &prof, &BottleneckConfig::default());
        let issues = detect_bottleneck_issues(
            &model,
            &trace,
            &prof,
            &report,
            &ReplayConfig::default(),
            &IssueConfig::default(),
        );
        let cpu_issue = issues
            .iter()
            .find(|i| {
                matches!(&i.kind, IssueKind::ConsumableBottleneck { resource_kind } if resource_kind == "cpu")
            })
            .expect("cpu issue expected");
        // Phase a (100 ms, fully saturated) shrinks dramatically; the job is
        // 200 ms total, so reduction should be large but below 50 %+.
        assert!(
            cpu_issue.reduction > 0.3,
            "reduction {}",
            cpu_issue.reduction
        );
        assert!(cpu_issue.base_makespan == 200 * MILLIS);
        assert_eq!(cpu_issue.affected_instances, 1);
    }

    #[test]
    fn gc_blocking_issue_saves_blocked_time() {
        let (model, trace, rt) = setup();
        let prof = build_profile(&model, &RuleSet::new(), &trace, &rt, &ProfileConfig::default());
        let report = BottleneckReport::build(&trace, &prof, &BottleneckConfig::default());
        let issue = blocking_issue(&model, &trace, &report, "gc", &ReplayConfig::default());
        // Removing 40 ms of GC from a 200 ms job: exactly 20 %.
        assert!(
            (issue.reduction - 0.2).abs() < 0.01,
            "reduction {}",
            issue.reduction
        );
        assert_eq!(issue.optimistic_makespan, 160 * MILLIS);
    }

    #[test]
    fn threshold_filters_small_issues() {
        let (model, trace, rt) = setup();
        let prof = build_profile(&model, &RuleSet::new(), &trace, &rt, &ProfileConfig::default());
        let report = BottleneckReport::build(&trace, &prof, &BottleneckConfig::default());
        let strict = IssueConfig {
            min_reduction: 0.99,
            ..Default::default()
        };
        let issues = detect_bottleneck_issues(
            &model,
            &trace,
            &prof,
            &report,
            &ReplayConfig::default(),
            &strict,
        );
        assert!(issues.is_empty());
    }

    #[test]
    fn floor_factor_bounds_speedup() {
        let (model, trace, rt) = setup();
        let prof = build_profile(&model, &RuleSet::new(), &trace, &rt, &ProfileConfig::default());
        let report = BottleneckReport::build(&trace, &prof, &BottleneckConfig::default());
        let gentle = IssueConfig {
            floor_factor: 0.9, // slices shrink at most 10 %
            ..Default::default()
        };
        let issue = consumable_issue(
            &model,
            &trace,
            &prof,
            &report,
            "cpu",
            &ReplayConfig::default(),
            &gentle,
        );
        // Phase a is 100 of 200 ms; 10 % of it is 5 % of the makespan.
        assert!(issue.reduction <= 0.051, "reduction {}", issue.reduction);
    }

    #[test]
    fn a_what_if_reads_only_the_usages_of_the_instance_it_shrinks() {
        let (model, trace, rt) = setup();
        let mut prof = build_profile(&model, &RuleSet::new(), &trace, &rt, &ProfileConfig::default());
        let report = BottleneckReport::build(&trace, &prof, &BottleneckConfig::default());
        let cpu_issue = |prof: &PerformanceProfile| {
            consumable_issue(
                &model,
                &trace,
                prof,
                &report,
                "cpu",
                &ReplayConfig::default(),
                &IssueConfig::default(),
            )
        };
        let before = cpu_issue(&prof);
        let a = report.consumable[0].instance;
        let own = usages_by_instance(&prof)[&a].len();

        // A second resource kind, saturated over the whole run by ten
        // times as many usages as the profile holds, none of them `a`'s.
        prof.resources.push(ResourceInstance {
            kind: "net".into(),
            machine: Some(0),
            capacity: 1.0,
        });
        let net = crate::trace::ResourceIdx(prof.resources.len() as u32 - 1);
        let slices = prof.grid.num_slices();
        let saturating = |instance: InstanceId| InstanceUsage {
            instance,
            resource: net,
            rule: AttributionRule::Variable(1.0),
            first_slice: 0,
            demand: vec![1.0; slices],
            usage: vec![1.0; slices],
        };
        let unrelated = 10 * prof.usages.len() as u32;
        prof.usages
            .extend((0..unrelated).map(|k| saturating(InstanceId(1000 + k))));
        assert_eq!(usages_by_instance(&prof)[&a].len(), own);
        let after = cpu_issue(&prof);
        assert_eq!(after.optimistic_makespan, before.optimistic_makespan);
        assert_eq!(after.affected_instances, before.affected_instances);

        // The same usage on `a` itself is read: the network now binds.
        prof.usages.push(saturating(a));
        assert_eq!(usages_by_instance(&prof)[&a].len(), own + 1);
        assert_eq!(cpu_issue(&prof).optimistic_makespan, before.base_makespan);
    }
}
