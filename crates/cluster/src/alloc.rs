//! Max–min fair allocation by progressive filling.
//!
//! The simulator divides machine CPU among runnable threads, NIC link
//! capacity among active flows and disk bandwidth among I/O threads with
//! it. Progressive filling raises all unfrozen rates uniformly, freezing a
//! consumer when it reaches its demand and every consumer on a link when
//! the link saturates; it terminates in at most one iteration per consumer
//! and produces the exact max–min fair allocation.
//!
//! The allocation is a pure function of the demands, the links and the
//! capacities, and the simulator relies on that: `FairShare` solves on
//! buffers it keeps between calls, so the per-quantum solves allocate
//! nothing, and a machine whose CPU or disk demand vector is bit-equal to
//! the one it solved last reuses that solution instead of solving again.
//! [`max_min_fair`] and [`fair_share_single`] are one-shot wrappers over
//! the same body.

/// A consumer with a demand, attached to one or more capacity-limited links.
#[derive(Clone, Debug)]
pub struct Consumer {
    /// Upper bound on the rate this consumer can use.
    pub demand: f64,
    /// Indices of the links this consumer's rate is charged against.
    pub links: Vec<usize>,
}

/// The progressive-filling solver with its working buffers, which are
/// reused from one `solve` to the next.
#[derive(Debug, Default)]
pub(crate) struct FairShare {
    rate: Vec<f64>,
    remaining: Vec<f64>,
    frozen: Vec<bool>,
    counts: Vec<usize>,
}

impl FairShare {
    /// Computes the max–min fair rates of consumers `0..demands.len()`
    /// over links with the given `capacities`, where consumer `i` wants
    /// `demands[i]` and is charged against the links `links(i)`. Returns
    /// one rate per consumer, `0 ≤ rate ≤ demand`, valid until the next
    /// call.
    pub(crate) fn solve<'a>(
        &mut self,
        demands: &[f64],
        links: impl Fn(usize) -> &'a [usize],
        capacities: &[f64],
    ) -> &[f64] {
        let n = demands.len();
        let FairShare {
            rate,
            remaining,
            frozen,
            counts,
        } = self;
        rate.clear();
        rate.resize(n, 0.0);
        if n == 0 {
            return rate;
        }
        for (i, d) in demands.iter().enumerate() {
            debug_assert!(*d >= 0.0 && d.is_finite());
            for &l in links(i) {
                debug_assert!(l < capacities.len(), "link {l} out of range");
            }
        }
        remaining.clear();
        remaining.extend_from_slice(capacities);
        // Consumers with zero demand or no links are trivially frozen.
        frozen.clear();
        frozen.extend((0..n).map(|i| demands[i] <= 0.0 || links(i).is_empty()));

        const EPS: f64 = 1e-12;
        loop {
            // Count active consumers per link.
            counts.clear();
            counts.resize(capacities.len(), 0);
            let mut any_active = false;
            for i in 0..n {
                if !frozen[i] {
                    any_active = true;
                    for &l in links(i) {
                        counts[l] += 1;
                    }
                }
            }
            if !any_active {
                break;
            }
            // Largest uniform increment before a demand or a link binds.
            let mut delta = f64::INFINITY;
            for i in 0..n {
                if !frozen[i] {
                    delta = delta.min(demands[i] - rate[i]);
                }
            }
            for (l, &cnt) in counts.iter().enumerate() {
                if cnt > 0 {
                    delta = delta.min(remaining[l] / cnt as f64);
                }
            }
            let delta = delta.max(0.0);
            for i in 0..n {
                if !frozen[i] {
                    rate[i] += delta;
                    for &l in links(i) {
                        remaining[l] -= delta;
                    }
                }
            }
            // Freeze satisfied consumers and consumers on saturated links.
            let mut progressed = false;
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                let satisfied = rate[i] >= demands[i] - EPS;
                let saturated = links(i).iter().any(|&l| remaining[l] <= EPS);
                if satisfied || saturated {
                    frozen[i] = true;
                    progressed = true;
                }
            }
            if !progressed {
                // Numerically stuck (delta ~ 0 without freezing); stop rather
                // than loop forever. Rates remain a valid (under-)allocation.
                break;
            }
        }
        rate
    }
}

/// Computes the max–min fair rates for `consumers` over links with the given
/// `capacities`. Returns one rate per consumer, `0 ≤ rate ≤ demand`.
pub fn max_min_fair(consumers: &[Consumer], capacities: &[f64]) -> Vec<f64> {
    let demands: Vec<f64> = consumers.iter().map(|c| c.demand).collect();
    FairShare::default()
        .solve(&demands, |i| &consumers[i].links, capacities)
        .to_vec()
}

/// Convenience for the single-link case (CPU on one machine): demands share
/// one capacity.
pub fn fair_share_single(demands: &[f64], capacity: f64) -> Vec<f64> {
    FairShare::default()
        .solve(demands, |_| &[0], &[capacity])
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The allocating body the solver replaced, kept as its oracle: every
    /// rate must match it bit for bit.
    fn max_min_fair_allocating(consumers: &[Consumer], capacities: &[f64]) -> Vec<f64> {
        let n = consumers.len();
        let mut rate = vec![0.0f64; n];
        if n == 0 {
            return rate;
        }
        let mut remaining: Vec<f64> = capacities.to_vec();
        let mut frozen = vec![false; n];
        for (i, c) in consumers.iter().enumerate() {
            if c.demand <= 0.0 || c.links.is_empty() {
                frozen[i] = true;
            }
        }
        const EPS: f64 = 1e-12;
        loop {
            let mut counts = vec![0usize; capacities.len()];
            let mut any_active = false;
            for (i, c) in consumers.iter().enumerate() {
                if !frozen[i] {
                    any_active = true;
                    for &l in &c.links {
                        counts[l] += 1;
                    }
                }
            }
            if !any_active {
                break;
            }
            let mut delta = f64::INFINITY;
            for (i, c) in consumers.iter().enumerate() {
                if !frozen[i] {
                    delta = delta.min(c.demand - rate[i]);
                }
            }
            for (l, &cnt) in counts.iter().enumerate() {
                if cnt > 0 {
                    delta = delta.min(remaining[l] / cnt as f64);
                }
            }
            let delta = delta.max(0.0);
            for (i, c) in consumers.iter().enumerate() {
                if !frozen[i] {
                    rate[i] += delta;
                    for &l in &c.links {
                        remaining[l] -= delta;
                    }
                }
            }
            let mut progressed = false;
            for (i, c) in consumers.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let satisfied = rate[i] >= c.demand - EPS;
                let saturated = c.links.iter().any(|&l| remaining[l] <= EPS);
                if satisfied || saturated {
                    frozen[i] = true;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        rate
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    #[test]
    fn solver_matches_allocating_oracle_bit_for_bit() {
        // One solver across every case, so stale buffer contents from a
        // larger earlier case would show.
        let mut solver = FairShare::default();
        for case in 0..400u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xFA1B_0000 + case);
            let num_links = rng.gen_range(1..7usize);
            // Small capacities against large demands saturate links.
            let capacities: Vec<f64> = (0..num_links)
                .map(|_| match rng.gen_range(0..3) {
                    0 => rng.gen_range(0.01..1.0),
                    _ => rng.gen_range(1.0..50.0),
                })
                .collect();
            let consumers: Vec<Consumer> = (0..rng.gen_range(0..16usize))
                .map(|_| Consumer {
                    demand: match rng.gen_range(0..4) {
                        0 => 0.0,
                        _ => rng.gen_range(0.0..30.0),
                    },
                    links: (0..rng.gen_range(1..=3usize))
                        .map(|_| rng.gen_range(0..num_links))
                        .collect(),
                })
                .collect();
            let expected = bits(&max_min_fair_allocating(&consumers, &capacities));
            let demands: Vec<f64> = consumers.iter().map(|c| c.demand).collect();
            let solved = solver.solve(&demands, |i| &consumers[i].links, &capacities);
            assert_eq!(bits(solved), expected, "case {case}");
            assert_eq!(
                bits(&max_min_fair(&consumers, &capacities)),
                expected,
                "case {case}"
            );
            let single = fair_share_single(&demands, capacities[0]);
            let one_link: Vec<Consumer> = demands
                .iter()
                .map(|&demand| Consumer {
                    demand,
                    links: vec![0],
                })
                .collect();
            assert_eq!(
                bits(&single),
                bits(&max_min_fair_allocating(&one_link, &capacities[..1])),
                "case {case}"
            );
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn under_subscribed_gets_full_demand() {
        let r = fair_share_single(&[1.0, 2.0], 8.0);
        assert!(close(r[0], 1.0) && close(r[1], 2.0));
    }

    #[test]
    fn over_subscribed_splits_evenly() {
        let r = fair_share_single(&[4.0, 4.0, 4.0], 6.0);
        for x in r {
            assert!(close(x, 2.0));
        }
    }

    #[test]
    fn small_demand_frozen_first_rest_share_leftover() {
        // Max-min: consumer 0 gets its 1.0, others split the remaining 5.0.
        let r = fair_share_single(&[1.0, 4.0, 4.0], 6.0);
        assert!(close(r[0], 1.0));
        assert!(close(r[1], 2.5) && close(r[2], 2.5));
    }

    #[test]
    fn capacity_never_exceeded() {
        let r = fair_share_single(&[3.0, 5.0, 7.0, 11.0], 10.0);
        let sum: f64 = r.iter().sum();
        assert!(sum <= 10.0 + 1e-9, "sum {sum}");
    }

    #[test]
    fn zero_demand_and_empty_input() {
        assert!(fair_share_single(&[], 10.0).is_empty());
        let r = fair_share_single(&[0.0, 5.0], 10.0);
        assert!(close(r[0], 0.0) && close(r[1], 5.0));
    }

    #[test]
    fn bipartite_flows_respect_both_links() {
        // Links: 0 = src A out (cap 10), 1 = src B out (cap 10),
        //        2 = dst C in (cap 10).
        // Flows: A->C and B->C, both with huge demand. Each is limited to 5
        // by the shared destination link.
        let consumers = vec![
            Consumer {
                demand: 100.0,
                links: vec![0, 2],
            },
            Consumer {
                demand: 100.0,
                links: vec![1, 2],
            },
        ];
        let r = max_min_fair(&consumers, &[10.0, 10.0, 10.0]);
        assert!(close(r[0], 5.0) && close(r[1], 5.0));
    }

    #[test]
    fn asymmetric_bipartite() {
        // A->C limited by A's small out link; B->C then takes the rest of C.
        let consumers = vec![
            Consumer {
                demand: 100.0,
                links: vec![0, 2],
            },
            Consumer {
                demand: 100.0,
                links: vec![1, 2],
            },
        ];
        let r = max_min_fair(&consumers, &[2.0, 50.0, 10.0]);
        assert!(close(r[0], 2.0), "r0 {}", r[0]);
        assert!(close(r[1], 8.0), "r1 {}", r[1]);
    }

    #[test]
    fn max_min_dominates_equal_split_for_unequal_demands() {
        let r = fair_share_single(&[1.0, 9.0], 8.0);
        assert!(close(r[0], 1.0));
        assert!(close(r[1], 7.0));
    }

    #[test]
    fn many_consumers_terminate() {
        let demands: Vec<f64> = (0..1000).map(|i| (i % 7) as f64 + 0.1).collect();
        let r = fair_share_single(&demands, 100.0);
        let sum: f64 = r.iter().sum();
        assert!(sum <= 100.0 + 1e-6);
    }
}
