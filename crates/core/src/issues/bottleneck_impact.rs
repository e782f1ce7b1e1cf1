//! Impact estimation of extensive resource bottlenecks (§III-F).
//!
//! To simulate removing a bottleneck on resource kind `K`, every slice in
//! which a phase was bottlenecked on `K` shrinks until the *next* resource
//! binds: the shrink factor is the highest utilization fraction the phase
//! shows on any other resource in that slice (its usage relative to its own
//! Exact limit, or to the resource's capacity for Variable rules). Blocking
//! bottlenecks are simpler — the blocked time just disappears.

use std::collections::{BTreeMap, BTreeSet};

use crate::attribution::{InstanceUsage, PerformanceProfile};
use crate::bottleneck::BottleneckReport;
use crate::issues::{rank, IssueConfig, IssueKind, PerformanceIssue, WhatIf};
use crate::model::execution::ExecutionModel;
use crate::model::rules::AttributionRule;
use crate::replay::ReplayConfig;
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::timeslice::Nanos;

/// Nanoseconds each instance bottlenecked on a `removed` resource saves
/// when those bottlenecks go, in instance order: every slice in the union
/// of its runs shrinks to the highest fraction the instance shows on any
/// other resource (floored at `floor_factor`), summed in ascending slice
/// order.
fn consumable_savings(
    profile: &PerformanceProfile,
    usages: &[&InstanceUsage],
    report: &BottleneckReport,
    removed: &[bool],
    floor_factor: f64,
) -> Vec<(InstanceId, f64)> {
    let mut runs: Vec<(InstanceId, usize, usize)> = report
        .consumable
        .iter()
        .filter(|b| removed[b.resource.0 as usize])
        .flat_map(|b| b.runs.iter().map(move |r| (b.instance, r.start, r.end)))
        .collect();
    runs.sort_unstable();

    let slice_ns = profile.grid.slice_nanos() as f64;
    let mut others = Vec::new();
    let mut out = Vec::new();
    for group in runs.chunk_by(|a, b| a.0 == b.0) {
        let id = group[0].0;
        // The instance's resources that stay, each with its limit: `None`
        // for its own demand (an `Exact` rule), else the capacity.
        let own = &usages[usages.partition_point(|u| u.instance < id)..];
        others.clear();
        others.extend(
            own.iter()
                .take_while(|u| u.instance == id)
                .filter(|u| !removed[u.resource.0 as usize])
                .map(|&u| match u.rule {
                    AttributionRule::Exact(_) => (u, None),
                    _ => (u, Some(profile.resources[u.resource.0 as usize].capacity)),
                }),
        );
        let (mut saved, mut next) = (0.0f64, 0);
        for &(_, start, end) in group {
            for s in start.max(next)..end {
                let factor = others
                    .iter()
                    .fold(0.0f64, |m, &(u, capacity)| {
                        m.max(u.usage_at(s) / capacity.unwrap_or(u.demand_at(s).max(1e-12)))
                    })
                    .max(floor_factor);
                saved += (1.0 - factor.min(1.0)) * slice_ns;
            }
            next = next.max(end);
        }
        out.push((id, saved));
    }
    out
}

/// `profile.usages` sorted by instance id, in profile order within one
/// instance, so a what-if looks at the resources of the instance it shrinks
/// and nothing else.
fn usages_by_instance(profile: &PerformanceProfile) -> Vec<&InstanceUsage> {
    let mut usages: Vec<&InstanceUsage> = profile.usages.iter().collect();
    usages.sort_by_key(|u| u.instance);
    usages
}

impl WhatIf<'_> {
    /// Removing all bottlenecks on the consumable resource kind
    /// `resource_kind`.
    fn consumable(
        &mut self,
        profile: &PerformanceProfile,
        usages: &[&InstanceUsage],
        report: &BottleneckReport,
        resource_kind: &str,
        cfg: &IssueConfig,
    ) -> PerformanceIssue {
        let removed: Vec<bool> = profile
            .resources
            .iter()
            .map(|r| r.kind == resource_kind)
            .collect();
        let patch: Vec<(InstanceId, Nanos)> =
            consumable_savings(profile, usages, report, &removed, cfg.floor_factor)
                .into_iter()
                .map(|(id, saved)| {
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
        let consumable_kinds: BTreeSet<&str> = report
            .consumable
            .iter()
            .map(|b| profile.resources[b.resource.0 as usize].kind.as_str())
            .collect();
        let blocking_kinds: BTreeSet<&str> = report
            .blocking
            .iter()
            .map(|b| b.resource.as_str())
            .collect();
        let usages = usages_by_instance(profile);
        let mut issues: Vec<PerformanceIssue> = consumable_kinds
            .into_iter()
            .map(|kind| self.consumable(profile, &usages, report, kind, cfg))
            .collect();
        issues.extend(
            blocking_kinds
                .into_iter()
                .map(|kind| self.blocking(report, kind)),
        );
        issues
    }
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
    use crate::bottleneck::consumable::tests::{per_slice_oracle, random_profile};
    use crate::bottleneck::BottleneckConfig;
    use crate::bottleneck::{consumable_bottlenecks, BottleneckCause};
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::model::rules::RuleSet;
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::{ResourceInstance, ResourceTrace};
    use crate::trace::timeslice::MILLIS;
    use crate::trace::ResourceIdx;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    /// Removing all bottlenecks on `resource_kind`, on an engine of its own.
    fn consumable_issue(
        model: &ExecutionModel,
        trace: &ExecutionTrace,
        profile: &PerformanceProfile,
        report: &BottleneckReport,
        resource_kind: &str,
        replay_cfg: &ReplayConfig,
        cfg: &IssueConfig,
    ) -> PerformanceIssue {
        let usages = usages_by_instance(profile);
        WhatIf::new(model, trace, replay_cfg).consumable(
            profile,
            &usages,
            report,
            resource_kind,
            cfg,
        )
    }

    /// One long CPU-saturated phase plus GC blocking on a second phase.
    fn setup() -> (ExecutionModel, ExecutionTrace, ResourceTrace) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let a = b.child(r, "a", Repeat::Once);
        let c = b.child(r, "b", Repeat::Once);
        b.edge(a, c);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 200 * MILLIS, None, None)
            .unwrap();
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
        let prof = build_profile(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &ProfileConfig::default(),
        );
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
        let prof = build_profile(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &ProfileConfig::default(),
        );
        let report = BottleneckReport::build(&trace, &prof, &BottleneckConfig::default());
        let issue = WhatIf::new(&model, &trace, &ReplayConfig::default()).blocking(&report, "gc");
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
        let prof = build_profile(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &ProfileConfig::default(),
        );
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
        let prof = build_profile(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &ProfileConfig::default(),
        );
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
        let mut prof = build_profile(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &ProfileConfig::default(),
        );
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
        // `a`'s usages, found in the sorted index the way the sweep finds them.
        let own_of = |prof: &PerformanceProfile| {
            let usages = usages_by_instance(prof);
            let lo = usages.partition_point(|u| u.instance < a);
            usages[lo..].iter().take_while(|u| u.instance == a).count()
        };
        let own = own_of(&prof);

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
        assert_eq!(own_of(&prof), own);
        let after = cpu_issue(&prof);
        assert_eq!(after.optimistic_makespan, before.optimistic_makespan);
        assert_eq!(after.affected_instances, before.affected_instances);

        // The same usage on `a` itself is read: the network now binds.
        prof.usages.push(saturating(a));
        assert_eq!(own_of(&prof), own + 1);
        assert_eq!(cpu_issue(&prof).optimistic_makespan, before.base_makespan);
    }

    /// The highest utilization fraction an instance shows on any resource
    /// other than `removed_kind` in slice `s`: the per-slice scan the
    /// precomputed [`NextLimit`]s replaced, kept as their oracle.
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

    /// The per-slice sweep the runs replaced, kept as their oracle: every
    /// bottlenecked slice of `resource_kind` into one set per instance,
    /// the usages found through a map rebuilt per call.
    fn savings_oracle(
        profile: &PerformanceProfile,
        bottlenecks: &[(InstanceId, ResourceIdx, BottleneckCause, Vec<usize>)],
        resource_kind: &str,
        floor_factor: f64,
    ) -> Vec<(InstanceId, f64)> {
        let mut usages: HashMap<InstanceId, Vec<&InstanceUsage>> = HashMap::new();
        for u in &profile.usages {
            usages.entry(u.instance).or_default().push(u);
        }
        let mut slices_per_instance: BTreeMap<InstanceId, BTreeSet<usize>> = BTreeMap::new();
        for (instance, resource, _, slices) in bottlenecks {
            if profile.resources[resource.0 as usize].kind == resource_kind {
                slices_per_instance
                    .entry(*instance)
                    .or_default()
                    .extend(slices.iter().copied());
            }
        }
        let slice_ns = profile.grid.slice_nanos();
        slices_per_instance
            .iter()
            .map(|(&id, slices)| {
                let own = usages.get(&id).map_or(&[][..], Vec::as_slice);
                let mut saved = 0.0f64;
                for &s in slices {
                    let factor = next_limit_fraction(&profile.resources, own, resource_kind, s)
                        .max(floor_factor);
                    saved += (1.0 - factor.min(1.0)) * slice_ns as f64;
                }
                (id, saved)
            })
            .collect()
    }

    #[test]
    fn run_sweep_matches_the_per_slice_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        // Instances whose runs of one kind overlap across two resources;
        // savings that are not a whole number of slices.
        let (mut overlapping, mut partial) = (0, 0);
        for _ in 0..2000 {
            let profile = random_profile(&mut rng);
            let cfg = BottleneckConfig {
                min_saturation_slices: rng.gen_range(1..4),
                ..Default::default()
            };
            let report = BottleneckReport {
                blocking: Vec::new(),
                consumable: consumable_bottlenecks(&profile, &cfg),
            };
            let oracle_report = per_slice_oracle(&profile, &cfg);
            let floor_factor = [0.05, 0.0, 0.9][rng.gen_range(0..3)];
            let usages = usages_by_instance(&profile);
            for kind in ["cpu", "net", "disk"] {
                let removed: Vec<bool> = profile.resources.iter().map(|r| r.kind == kind).collect();
                let bits = |v: Vec<(InstanceId, f64)>| -> Vec<(InstanceId, u64)> {
                    v.into_iter()
                        .map(|(id, saved)| (id, saved.to_bits()))
                        .collect()
                };
                let savings =
                    consumable_savings(&profile, &usages, &report, &removed, floor_factor);
                partial += savings.iter().filter(|(_, s)| s.fract() != 0.0).count();
                assert_eq!(
                    bits(savings),
                    bits(savings_oracle(&profile, &oracle_report, kind, floor_factor))
                );
                let mut of_kind: Vec<_> = report
                    .consumable
                    .iter()
                    .filter(|b| removed[b.resource.0 as usize])
                    .collect();
                of_kind.sort_by_key(|b| b.instance);
                overlapping += of_kind
                    .windows(2)
                    .filter(|w| w[0].instance == w[1].instance && w[0].resource != w[1].resource)
                    .count();
            }
        }
        assert!(overlapping > 0 && partial > 0, "{overlapping} {partial}");
    }
}
