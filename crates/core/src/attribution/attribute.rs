//! Step 3 of resource attribution: assigning per-slice consumption to
//! individual phase instances (§III-D3).
//!
//! Within one timeslice and one resource: phases with `Exact` rules receive
//! the consumption proportionally to (and never exceeding) their demand;
//! whatever remains is split over `Variable` phases proportionally to their
//! weights. Consumption that no active phase can absorb is recorded as
//! unattributed (system overhead outside the model).

use crate::attribution::demand::{DemandMatrix, ParticipantDemand};
use crate::model::rules::AttributionRule;
use crate::trace::timeslice::{MetricGrid, Rows, RowsMut};

/// Per-participant attributed usage, aligned with
/// [`DemandMatrix::participants`].
#[derive(Clone, Debug)]
pub struct AttributedUsage {
    /// Usage per slice, same offset/length as the participant's demand.
    pub usage: Vec<Vec<f64>>,
    /// Consumption no participant absorbed: `[resource][slice]`.
    pub unattributed: MetricGrid,
}

/// Cell-major reference implementation of [`attribute`]: for every
/// `(resource, slice)` cell it scans all participants of that resource.
/// Retired from the production pipeline (the participant-major kernel
/// below is bit-identical and asymptotically cheaper); kept as the
/// differential-testing oracle for `columnar_matches_reference_bitwise`.
#[cfg(test)]
fn attribute_reference(dm: &DemandMatrix, consumption: &MetricGrid) -> AttributedUsage {
    let nr = consumption.num_rows();
    let ns = consumption.num_slices();
    let mut usage: Vec<Vec<f64>> = dm
        .participants
        .iter()
        .map(|p| vec![0.0; p.demand.len()])
        .collect();
    let mut unattributed = MetricGrid::zeros(nr, ns);

    // Group participants per resource once.
    let mut by_resource: Vec<Vec<usize>> = vec![Vec::new(); nr];
    for (pi, p) in dm.participants.iter().enumerate() {
        by_resource[p.resource.0 as usize].push(pi);
    }

    for r in 0..nr {
        for s in 0..ns {
            let c = consumption[r][s];
            if c <= 0.0 {
                continue;
            }
            // Exact participants first, proportional to demand, capped by it.
            let exact_total = dm.exact[r][s];
            let var_total = dm.variable[r][s];
            let to_exact = c.min(exact_total);
            let mut remainder = c - to_exact;
            for &pi in &by_resource[r] {
                let p = &dm.participants[pi];
                if s < p.first_slice || s >= p.first_slice + p.demand.len() {
                    continue;
                }
                let d = p.demand[s - p.first_slice];
                if d <= 0.0 {
                    continue;
                }
                match p.rule {
                    AttributionRule::Exact(_) => {
                        usage[pi][s - p.first_slice] = to_exact * d / exact_total;
                    }
                    AttributionRule::Variable(_) => {
                        if var_total > 0.0 {
                            usage[pi][s - p.first_slice] = remainder * d / var_total;
                        }
                    }
                    AttributionRule::None => {}
                }
            }
            if var_total > 0.0 {
                remainder = 0.0;
            }
            unattributed[r][s] = remainder;
        }
    }
    AttributedUsage {
        usage,
        unattributed,
    }
}

/// Attributes the upsampled `consumption` (`[resource][slice]`) to the
/// participants of `dm`. Participant-major: instead of scanning every
/// participant of a resource for every cell — O(resources × slices ×
/// participants-per-resource) — it walks each participant's own demand
/// window once, O(cells + total demand entries).
///
/// Bit-identical to the cell-major reference above: each usage cell
/// depends only on the per-cell totals `consumption[r][s]`,
/// `exact[r][s]`, `variable[r][s]` (precomputed either way), each
/// participant owns its own output cell (plain assignment, never
/// accumulation), and the per-cell formula —
/// `c.min(exact_total) * d / exact_total` resp.
/// `(c - c.min(exact_total)) * d / var_total` — is evaluated with the
/// same operation order. `tests/columnar_equivalence.rs` pins the
/// end-to-end behavior against committed goldens.
pub fn attribute(dm: &DemandMatrix, consumption: &MetricGrid) -> AttributedUsage {
    let mut unattributed = MetricGrid::zeros(consumption.num_rows(), consumption.num_slices());
    let usage = attribute_rows(
        &dm.exact.view(),
        &dm.variable.view(),
        &dm.participants,
        &consumption.view(),
        &mut unattributed.view_mut(),
    );
    AttributedUsage {
        usage,
        unattributed,
    }
}

/// The body of [`attribute`]: writes the unattributed consumption into
/// `unattributed`, which holds one zeroed row per resource, and returns the
/// usage of each participant.
pub(crate) fn attribute_rows(
    exact: &Rows<'_, f64>,
    variable: &Rows<'_, f64>,
    participants: &[ParticipantDemand],
    consumption: &Rows<'_, f64>,
    unattributed: &mut RowsMut<'_, f64>,
) -> Vec<Vec<f64>> {
    let nr = consumption.num_rows();
    let ns = consumption.num_slices();

    // Unattributed pass: pure per-cell arithmetic over contiguous rows.
    for r in 0..nr {
        let c_row = &consumption[r];
        let e_row = &exact[r];
        let v_row = &variable[r];
        let u_row = &mut unattributed[r];
        for s in 0..ns {
            let c = c_row[s];
            if c <= 0.0 || v_row[s] > 0.0 {
                continue;
            }
            u_row[s] = c - c.min(e_row[s]);
        }
    }

    // Usage pass: one contiguous sweep per participant window.
    participants
        .iter()
        .map(|p| {
            let mut row = vec![0.0; p.demand.len()];
            let r = p.resource.0 as usize;
            let first = p.first_slice;
            let c_row = &consumption[r];
            let e_row = &exact[r];
            let v_row = &variable[r];
            for (k, &d) in p.demand.iter().enumerate() {
                let s = first + k;
                let c = c_row[s];
                if c <= 0.0 || d <= 0.0 {
                    continue;
                }
                match p.rule {
                    AttributionRule::Exact(_) => {
                        let exact_total = e_row[s];
                        row[k] = c.min(exact_total) * d / exact_total;
                    }
                    AttributionRule::Variable(_) => {
                        let var_total = v_row[s];
                        if var_total > 0.0 {
                            row[k] = (c - c.min(e_row[s])) * d / var_total;
                        }
                    }
                    AttributionRule::None => {}
                }
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::execution::InstanceId;
    use crate::trace::resource::ResourceIdx;

    fn participant(
        pi: u32,
        rule: AttributionRule,
        first: usize,
        demand: Vec<f64>,
    ) -> ParticipantDemand {
        ParticipantDemand {
            instance: InstanceId(pi),
            resource: ResourceIdx(0),
            rule,
            first_slice: first,
            demand,
        }
    }

    fn grid1(row: Vec<f64>) -> MetricGrid {
        MetricGrid::from_rows(vec![row])
    }

    /// The Figure 2(f) example at timeslice 3: consumption 65 %, exact
    /// phase P3 demands 50 %, variable phase P2 has weight 1 → P3 gets 50,
    /// P2 gets 15.
    #[test]
    fn figure2_attribution_example() {
        let dm = DemandMatrix {
            exact: grid1(vec![50.0]),
            variable: grid1(vec![1.0]),
            participants: vec![
                participant(0, AttributionRule::Exact(0.5), 0, vec![50.0]),
                participant(1, AttributionRule::Variable(1.0), 0, vec![1.0]),
            ],
        };
        let att = attribute(&dm, &grid1(vec![65.0]));
        assert!((att.usage[0][0] - 50.0).abs() < 1e-9);
        assert!((att.usage[1][0] - 15.0).abs() < 1e-9);
        assert!(att.unattributed[0][0] < 1e-12);
    }

    #[test]
    fn exact_capped_at_demand_when_consumption_low() {
        let dm = DemandMatrix {
            exact: grid1(vec![4.0]),
            variable: grid1(vec![0.0]),
            participants: vec![
                participant(0, AttributionRule::Exact(0.5), 0, vec![3.0]),
                participant(1, AttributionRule::Exact(0.5), 0, vec![1.0]),
            ],
        };
        // Only 2.0 consumed: split 3:1.
        let att = attribute(&dm, &grid1(vec![2.0]));
        assert!((att.usage[0][0] - 1.5).abs() < 1e-9);
        assert!((att.usage[1][0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn variable_split_by_weight() {
        let dm = DemandMatrix {
            exact: grid1(vec![0.0]),
            variable: grid1(vec![3.0]),
            participants: vec![
                participant(0, AttributionRule::Variable(1.0), 0, vec![1.0]),
                participant(1, AttributionRule::Variable(2.0), 0, vec![2.0]),
            ],
        };
        let att = attribute(&dm, &grid1(vec![6.0]));
        assert!((att.usage[0][0] - 2.0).abs() < 1e-9);
        assert!((att.usage[1][0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unattributed_when_no_active_phase() {
        let dm = DemandMatrix {
            exact: grid1(vec![0.0, 2.0]),
            variable: grid1(vec![0.0, 0.0]),
            participants: vec![participant(0, AttributionRule::Exact(0.5), 1, vec![2.0])],
        };
        let att = attribute(&dm, &grid1(vec![1.5, 3.0]));
        // Slice 0: nobody active — all 1.5 unattributed.
        assert!((att.unattributed[0][0] - 1.5).abs() < 1e-9);
        // Slice 1: exact takes its 2.0, the extra 1.0 has no variable
        // phase to go to.
        assert!((att.usage[0][0] - 2.0).abs() < 1e-9);
        assert!((att.unattributed[0][1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_per_slice() {
        let dm = DemandMatrix {
            exact: grid1(vec![2.0, 1.0]),
            variable: grid1(vec![1.0, 2.0]),
            participants: vec![
                participant(0, AttributionRule::Exact(0.25), 0, vec![2.0, 1.0]),
                participant(1, AttributionRule::Variable(1.0), 0, vec![1.0, 2.0]),
            ],
        };
        let consumption = grid1(vec![3.5, 2.5]);
        let att = attribute(&dm, &consumption);
        for s in 0..2 {
            let total: f64 = att.usage.iter().map(|u| u[s]).sum::<f64>() + att.unattributed[0][s];
            assert!(
                (total - consumption[0][s]).abs() < 1e-9,
                "slice {s}: {total} != {}",
                consumption[0][s]
            );
        }
    }

    /// The columnar path must agree bit-for-bit with the cell-major
    /// reference on a mixed Exact/Variable/None scenario with offset
    /// windows and idle cells.
    #[test]
    fn columnar_matches_reference_bitwise() {
        let dm = DemandMatrix {
            exact: MetricGrid::from_rows(vec![vec![2.0, 1.0, 0.0, 0.5], vec![0.0, 0.0, 3.0, 0.0]]),
            variable: MetricGrid::from_rows(vec![
                vec![1.0, 0.0, 2.0, 0.0],
                vec![0.0, 1.5, 0.0, 0.0],
            ]),
            participants: vec![
                participant(0, AttributionRule::Exact(0.25), 0, vec![2.0, 1.0]),
                participant(1, AttributionRule::Variable(1.0), 0, vec![1.0, 0.0, 2.0]),
                participant(2, AttributionRule::Exact(0.5), 3, vec![0.5]),
                participant(3, AttributionRule::None, 1, vec![1.0, 1.0]),
                ParticipantDemand {
                    instance: InstanceId(4),
                    resource: ResourceIdx(1),
                    rule: AttributionRule::Variable(1.5),
                    first_slice: 1,
                    demand: vec![1.5, 0.0],
                },
            ],
        };
        let consumption =
            MetricGrid::from_rows(vec![vec![3.5, 0.7, 1.9, 2.0], vec![0.4, 2.2, 1.0, 0.0]]);
        let a = attribute_reference(&dm, &consumption);
        let b = attribute(&dm, &consumption);
        assert_eq!(format!("{:?}", a.usage), format!("{:?}", b.usage));
        assert_eq!(a.unattributed, b.unattributed);
    }
}
