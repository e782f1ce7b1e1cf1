//! Consumable-resource bottlenecks (§III-E).
//!
//! Two situations produce one:
//!
//! * **Saturation** — the resource is at (approximately) full utilization
//!   for an extended period; every active phase depending on it is
//!   bottlenecked.
//! * **Exact-limit** — a phase with an `Exact` rule consumes as much as its
//!   own demand ceiling allows, even though the resource has headroom.
//!   The paper calls this out as the least understood case: the phase would
//!   go faster if it were *configured* to use more, not if the machine had
//!   more.

use std::ops::Range;

use crate::attribution::PerformanceProfile;
use crate::model::rules::AttributionRule;
use crate::trace::execution::InstanceId;
use crate::trace::resource::ResourceIdx;

/// Why a phase/resource pair is bottlenecked in a slice range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BottleneckCause {
    /// The resource itself was saturated.
    Saturation,
    /// The phase hit its own Exact demand ceiling.
    ExactLimit,
}

/// Detection thresholds.
#[derive(Clone, Debug)]
pub struct BottleneckConfig {
    /// Utilization fraction at or above which a resource counts as
    /// saturated.
    pub saturation_fraction: f64,
    /// Minimum consecutive saturated slices before saturation counts as a
    /// bottleneck ("extended periods" in the paper).
    pub min_saturation_slices: usize,
    /// Fraction of a phase's Exact demand that its usage must reach to
    /// count as an exact-limit bottleneck.
    pub exact_limit_fraction: f64,
}

impl Default for BottleneckConfig {
    fn default() -> Self {
        BottleneckConfig {
            saturation_fraction: 0.97,
            min_saturation_slices: 2,
            exact_limit_fraction: 0.97,
        }
    }
}

/// The slices in which one phase instance was bottlenecked on one resource
/// instance for one cause, as runs of consecutive slices.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsumableBottleneck {
    /// The bottlenecked phase instance.
    pub instance: InstanceId,
    /// The limiting resource instance.
    pub resource: ResourceIdx,
    /// Saturation or exact-limit.
    pub cause: BottleneckCause,
    /// Bottlenecked slices (global indices) as sorted, disjoint, non-empty
    /// runs; two runs never touch, so the runs of a slice set are unique.
    pub runs: Vec<Range<usize>>,
}

impl ConsumableBottleneck {
    /// The bottlenecked slices, ascending.
    pub fn slices(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(Range::clone)
    }

    /// Number of bottlenecked slices.
    pub fn num_slices(&self) -> usize {
        self.runs.iter().map(ExactSizeIterator::len).sum()
    }
}

/// Appends slice `s` to `runs`, whose last run ends at or before `s`.
fn push_slice(runs: &mut Vec<Range<usize>>, s: usize) {
    match runs.last_mut() {
        Some(last) if last.end == s => last.end += 1,
        _ => runs.push(s..s + 1),
    }
}

/// Scans the profile for consumable bottlenecks.
pub fn consumable_bottlenecks(
    profile: &PerformanceProfile,
    cfg: &BottleneckConfig,
) -> Vec<ConsumableBottleneck> {
    let nr = profile.resources.len();
    let ns = profile.grid.num_slices();

    // `saturated[r * ns + s]`: slice `s` of resource `r` lies inside a
    // saturated run of sufficient length.
    let mut saturated = vec![false; nr * ns];
    for r in 0..nr {
        let threshold = cfg.saturation_fraction * profile.resources[r].capacity;
        let mut run_start = 0;
        for s in 0..=ns {
            if s < ns && profile.consumption[r][s] >= threshold {
                continue;
            }
            if s - run_start >= cfg.min_saturation_slices {
                saturated[r * ns + run_start..r * ns + s].fill(true);
            }
            run_start = s + 1;
        }
    }

    let mut out = Vec::new();
    for u in &profile.usages {
        let r = u.resource.0 as usize;
        let row = &saturated[r * ns..(r + 1) * ns];
        let exact = matches!(u.rule, AttributionRule::Exact(_));
        let (mut sat, mut limit) = (Vec::new(), Vec::new());
        for (k, (&demand, &usage)) in u.demand.iter().zip(&u.usage).enumerate() {
            let s = u.first_slice + k;
            // A phase only counts as bottlenecked while it actually
            // participates (non-zero demand — i.e. active and dependent).
            if demand <= 0.0 {
                continue;
            }
            if row[s] {
                push_slice(&mut sat, s);
            } else if exact && usage >= cfg.exact_limit_fraction * demand {
                push_slice(&mut limit, s);
            }
        }
        for (cause, runs) in [
            (BottleneckCause::Saturation, sat),
            (BottleneckCause::ExactLimit, limit),
        ] {
            if !runs.is_empty() {
                out.push(ConsumableBottleneck {
                    instance: u.instance,
                    resource: u.resource,
                    cause,
                    runs,
                });
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::attribution::InstanceUsage;
    use crate::attribution::{build_profile, ProfileConfig};
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::model::rules::RuleSet;
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::{ResourceInstance, ResourceTrace};
    use crate::trace::timeslice::{MetricGrid, TimesliceGrid, MILLIS};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// One phase using one 4-core CPU, measured saturated in the middle.
    fn saturated_profile() -> (PerformanceProfile, InstanceId) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        b.child(r, "p", Repeat::Once);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 60 * MILLIS, None, None)
            .unwrap();
        let p = tb
            .add_phase(&[("job", 0), ("p", 0)], 0, 60 * MILLIS, Some(0), Some(0))
            .unwrap();
        let trace = tb.build().unwrap();
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        // Slices: 2 low, 3 saturated, 1 low (10 ms measurements = 1 slice).
        rt.add_series(cpu, 0, 10 * MILLIS, &[1.0, 1.0, 4.0, 4.0, 4.0, 1.0]);
        let prof = build_profile(
            &model,
            &RuleSet::new(),
            &trace,
            &rt,
            &ProfileConfig::default(),
        );
        (prof, p)
    }

    #[test]
    fn saturation_detected_with_min_run() {
        let (prof, p) = saturated_profile();
        let found = consumable_bottlenecks(&prof, &BottleneckConfig::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].instance, p);
        assert_eq!(found[0].cause, BottleneckCause::Saturation);
        assert_eq!(found[0].runs, vec![2..5]);
        assert_eq!(found[0].slices().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn short_saturation_spike_ignored() {
        let (prof, _) = saturated_profile();
        let cfg = BottleneckConfig {
            min_saturation_slices: 4, // longer than the 3-slice run
            ..Default::default()
        };
        assert!(consumable_bottlenecks(&prof, &cfg).is_empty());
    }

    #[test]
    fn exact_limit_detected_without_saturation() {
        // Phase limited to 25 % of the CPU, using exactly that, while the
        // machine sits at 50 % overall.
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let p_ty = b.child(r, "p", Repeat::Once);
        let q_ty = b.child(r, "q", Repeat::Once);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 40 * MILLIS, None, None)
            .unwrap();
        let p = tb
            .add_phase(&[("job", 0), ("p", 0)], 0, 40 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_phase(&[("job", 0), ("q", 0)], 0, 40 * MILLIS, Some(0), Some(1))
            .unwrap();
        let trace = tb.build().unwrap();
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        rt.add_series(cpu, 0, 10 * MILLIS, &[2.0, 2.0, 2.0, 2.0]);
        let rules = RuleSet::new().rule(p_ty, "cpu", AttributionRule::Exact(0.25));
        let _ = q_ty;
        let prof = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let found = consumable_bottlenecks(&prof, &BottleneckConfig::default());
        let exact: Vec<_> = found
            .iter()
            .filter(|b| b.cause == BottleneckCause::ExactLimit)
            .collect();
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].instance, p);
        assert_eq!(exact[0].runs, vec![0..4]);
        assert_eq!(exact[0].num_slices(), 4);
    }

    #[test]
    fn underused_exact_phase_not_bottlenecked() {
        // Same setup but consumption below the exact demand: no bottleneck.
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let p_ty = b.child(r, "p", Repeat::Once);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 40 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("p", 0)], 0, 40 * MILLIS, Some(0), Some(0))
            .unwrap();
        let trace = tb.build().unwrap();
        let mut rt = ResourceTrace::new();
        let _ = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        rt.add_series(ResourceIdx(0), 0, 10 * MILLIS, &[0.2, 0.2, 0.2, 0.2]);
        let rules = RuleSet::new().rule(p_ty, "cpu", AttributionRule::Exact(0.25));
        let prof = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        assert!(consumable_bottlenecks(&prof, &BottleneckConfig::default()).is_empty());
    }

    /// The per-slice detector the runs replaced, kept as their oracle: one
    /// `(instance, resource, cause, slices)` per record, slices listed one
    /// by one.
    pub(crate) fn per_slice_oracle(
        profile: &PerformanceProfile,
        cfg: &BottleneckConfig,
    ) -> Vec<(InstanceId, ResourceIdx, BottleneckCause, Vec<usize>)> {
        let nr = profile.resources.len();
        let ns = profile.grid.num_slices();
        let mut saturated = vec![vec![false; ns]; nr];
        for r in 0..nr {
            let cap = profile.resources[r].capacity;
            let mut run_start = None;
            for s in 0..=ns {
                let is_sat = s < ns && profile.consumption[r][s] >= cfg.saturation_fraction * cap;
                match (run_start, is_sat) {
                    (None, true) => run_start = Some(s),
                    (Some(st), false) => {
                        if s - st >= cfg.min_saturation_slices {
                            for x in st..s {
                                saturated[r][x] = true;
                            }
                        }
                        run_start = None;
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        for u in &profile.usages {
            let r = u.resource.0 as usize;
            let mut sat_slices = Vec::new();
            let mut exact_slices = Vec::new();
            for k in 0..u.usage.len() {
                let s = u.first_slice + k;
                if u.demand[k] <= 0.0 {
                    continue;
                }
                if saturated[r][s] {
                    sat_slices.push(s);
                } else if matches!(u.rule, AttributionRule::Exact(_))
                    && u.usage[k] >= cfg.exact_limit_fraction * u.demand[k]
                {
                    exact_slices.push(s);
                }
            }
            if !sat_slices.is_empty() {
                out.push((
                    u.instance,
                    u.resource,
                    BottleneckCause::Saturation,
                    sat_slices,
                ));
            }
            if !exact_slices.is_empty() {
                out.push((
                    u.instance,
                    u.resource,
                    BottleneckCause::ExactLimit,
                    exact_slices,
                ));
            }
        }
        out
    }

    /// A sample that is sometimes exactly `at`, sometimes NaN or ∞, and
    /// otherwise anywhere in `[0, 1.2 · at]`.
    fn sample(rng: &mut ChaCha8Rng, at: f64) -> f64 {
        match rng.gen_range(0..20) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2..=7 => at,
            _ => 1.2 * at * rng.gen::<f64>(),
        }
    }

    /// A random profile over 1–60 slices: up to five resources whose kinds
    /// repeat (so an instance often uses two resources of one kind),
    /// consumption that saturates in runs and carries NaN and ∞ samples,
    /// and up to six instances whose `Exact` and `Variable` usages start
    /// and end anywhere, sometimes with zero, NaN or ∞ demand.
    pub(crate) fn random_profile(rng: &mut ChaCha8Rng) -> PerformanceProfile {
        const KINDS: [&str; 3] = ["cpu", "net", "disk"];
        let ns = rng.gen_range(1..61usize);
        let mut p = PerformanceProfile::empty(MILLIS);
        p.grid = TimesliceGrid::covering(0, ns as u64 * MILLIS, MILLIS);
        let nr = rng.gen_range(1..6usize);
        let mut rows = Vec::new();
        for _ in 0..nr {
            let capacity = [4.0, 4.0, 1.0, 0.0][rng.gen_range(0..4)];
            p.resources.push(ResourceInstance {
                kind: KINDS[rng.gen_range(0..KINDS.len())].into(),
                machine: Some(0),
                capacity,
            });
            let mut row = Vec::with_capacity(ns);
            while row.len() < ns {
                // Runs of one regime, so saturation lasts several slices.
                let level = sample(rng, capacity);
                for _ in 0..rng.gen_range(1..8) {
                    row.push(if rng.gen_range(0..4) == 0 {
                        sample(rng, capacity)
                    } else {
                        level
                    });
                }
            }
            row.truncate(ns);
            rows.push(row);
        }
        p.consumption = MetricGrid::from_rows(rows);
        for i in 0..rng.gen_range(1..7u32) {
            for r in 0..nr {
                if rng.gen_range(0..10) < 3 {
                    continue;
                }
                let first_slice = rng.gen_range(0..ns);
                let len = rng.gen_range(1..=ns - first_slice);
                let exact = rng.gen_range(0..2) == 0;
                let level = if exact && rng.gen_range(0..5) == 0 {
                    0.0
                } else {
                    sample(rng, 1.0)
                };
                let demand: Vec<f64> = (0..len)
                    .map(|_| {
                        if rng.gen_range(0..3) == 0 {
                            sample(rng, level)
                        } else {
                            level
                        }
                    })
                    .collect();
                let usage = demand
                    .iter()
                    .map(|&d| {
                        if rng.gen_range(0..2) == 0 {
                            d
                        } else {
                            sample(rng, d)
                        }
                    })
                    .collect();
                p.usages.push(InstanceUsage {
                    instance: InstanceId(i),
                    resource: ResourceIdx(r as u32),
                    rule: if exact {
                        AttributionRule::Exact(0.25)
                    } else {
                        AttributionRule::Variable(1.0)
                    },
                    first_slice,
                    demand,
                    usage,
                });
            }
        }
        p
    }

    #[test]
    fn runs_match_the_per_slice_oracle() {
        use std::collections::BTreeSet;
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        // Saturation and exact-limit records of one instance; runs that
        // hold more than one slice.
        let (mut both_causes, mut long_runs) = (0, 0);
        for _ in 0..2000 {
            let profile = random_profile(&mut rng);
            let cfg = BottleneckConfig {
                min_saturation_slices: rng.gen_range(1..4),
                ..Default::default()
            };
            let found = consumable_bottlenecks(&profile, &cfg);
            let expanded: Vec<_> = found
                .iter()
                .map(|b| {
                    (
                        b.instance,
                        b.resource,
                        b.cause,
                        b.slices().collect::<Vec<_>>(),
                    )
                })
                .collect();
            assert_eq!(expanded, per_slice_oracle(&profile, &cfg));
            for b in &found {
                assert_eq!(b.num_slices(), b.slices().count());
                assert!(b.runs.iter().all(|r| !r.is_empty()));
                assert!(b.runs.windows(2).all(|w| w[0].end < w[1].start));
                long_runs += b.runs.iter().filter(|r| r.len() > 1).count();
            }
            let by_cause = |cause| -> BTreeSet<InstanceId> {
                found
                    .iter()
                    .filter(|b| b.cause == cause)
                    .map(|b| b.instance)
                    .collect()
            };
            both_causes += by_cause(BottleneckCause::Saturation)
                .intersection(&by_cause(BottleneckCause::ExactLimit))
                .count();
        }
        assert!(
            both_causes > 0 && long_runs > 0,
            "{both_causes} {long_runs}"
        );
    }
}
