//! Step 1 of resource attribution: timeslice-granular demand estimation
//! (§III-D1).

use std::collections::HashMap;

use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::model::rules::{AttributionRule, RuleSet};
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::resource::{ResourceIdx, ResourceTrace};
use crate::trace::timeslice::{MetricGrid, RowsMut, TimesliceGrid};

/// Demand of one (leaf phase instance, resource instance) pair over the
/// slices the phase spans.
#[derive(Clone, Debug)]
pub struct ParticipantDemand {
    /// The demanding phase instance.
    pub instance: InstanceId,
    /// The demanded resource instance.
    pub resource: ResourceIdx,
    /// The rule that produced this demand.
    pub rule: AttributionRule,
    /// First slice of the `demand` array.
    pub first_slice: usize,
    /// Per-slice demand: absolute units for `Exact`, relative weight for
    /// `Variable`, both scaled by the phase's active fraction in the slice.
    pub demand: Vec<f64>,
}

/// Per-resource, per-slice demand totals, one contiguous
/// [`MetricGrid`] row per resource.
#[derive(Clone, Debug)]
pub struct DemandMatrix {
    /// Known (Exact) demand in absolute units: `[resource][slice]`.
    pub exact: MetricGrid,
    /// Variable demand weights: `[resource][slice]`.
    pub variable: MetricGrid,
    /// Per-participant demand detail, for the attribution step.
    pub participants: Vec<ParticipantDemand>,
}

/// Fraction of each slice in `[first, last)` during which `id` was actively
/// executing: present (between start and end) and not halted by a blocking
/// event. This implements the paper's "active (started, not ended, and not
/// interrupted by a blocking event)" at sub-slice resolution.
pub fn active_fractions(
    trace: &ExecutionTrace,
    id: InstanceId,
    grid: &TimesliceGrid,
) -> (usize, Vec<f64>) {
    let inst = trace.instance(id);
    let (first, last) = grid.slice_range(inst.start, inst.end);
    let mut af: Vec<f64> = (first..last)
        .map(|s| grid.overlap_fraction(s, inst.start, inst.end))
        .collect();
    for ev in trace.blocking_of(id) {
        let (bf, bl) = grid.slice_range(ev.start, ev.end);
        for s in bf.max(first)..bl.min(last) {
            af[s - first] = (af[s - first] - grid.overlap_fraction(s, ev.start, ev.end)).max(0.0);
        }
    }
    (first, af)
}

/// Builds the demand matrix for all (leaf instance × resource instance)
/// pairs whose machines match and whose rule is not `None`.
///
/// A resource instance scoped to machine `m` is demanded only by phases on
/// machine `m`; a global resource (machine `None`) is demanded by every
/// phase. Container phases (those with children in the trace) carry no
/// demand of their own — their usage is the sum of their leaves.
///
/// Columnar implementation: leaves-outer, resources-inner traversal with
/// the per-(leaf × resource) rule lookup served from a per-phase-type
/// **rule row** computed once, collapsing the string-keyed lookups from
/// (leaves × resources) to (types × resources). Behavior is pinned
/// against committed goldens by `tests/columnar_equivalence.rs` (the
/// per-cell reference implementation this replaced produced bit-identical
/// profiles).
pub fn estimate_demand(
    _model: &ExecutionModel,
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    grid: &TimesliceGrid,
) -> DemandMatrix {
    let nr = resources.instances().len();
    let ns = grid.num_slices();
    let mut exact = MetricGrid::zeros(nr, ns);
    let mut variable = MetricGrid::zeros(nr, ns);
    let participants = demand_rows(
        rules,
        trace,
        resources,
        grid,
        &mut exact.view_mut(),
        &mut variable.view_mut(),
    );
    DemandMatrix {
        exact,
        variable,
        participants,
    }
}

/// The body of [`estimate_demand`]: adds the demand totals into `exact` and
/// `variable`, which hold one zeroed row per resource of `resources`, and
/// returns the participants.
pub(crate) fn demand_rows(
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    grid: &TimesliceGrid,
    exact: &mut RowsMut<'_, f64>,
    variable: &mut RowsMut<'_, f64>,
) -> Vec<ParticipantDemand> {
    let mut participants = Vec::new();
    // The machines the resources are scoped to, or `None` when one of them
    // is global and so demanded by every leaf.
    let scoped: Option<Vec<u16>> = resources.instances().iter().map(|r| r.machine).collect();
    let owns_none = |machine: Option<u16>| {
        scoped
            .as_ref()
            .is_some_and(|scoped| !machine.is_some_and(|m| scoped.contains(&m)))
    };

    // One row of effective rules per phase type, filled on first
    // encounter. Leaves overwhelmingly share a handful of types, so the
    // string-keyed lookups collapse from (leaves × resources) to
    // (types × resources).
    let mut rule_rows: HashMap<PhaseTypeId, Vec<AttributionRule>> = HashMap::new();

    for inst in trace.leaves() {
        // A leaf demands none of the resources when none is on its machine.
        if owns_none(inst.machine) {
            continue;
        }
        let (first, af) = active_fractions(trace, inst.id, grid);
        if af.is_empty() {
            continue;
        }
        let rule_row = rule_rows.entry(inst.type_id).or_insert_with(|| {
            resources
                .instances()
                .iter()
                .map(|res| rules.get(inst.type_id, &res.kind))
                .collect()
        });
        for (ri, res) in resources.instances().iter().enumerate() {
            if let (Some(rm), Some(im)) = (res.machine, inst.machine) {
                if rm != im {
                    continue;
                }
            } else if res.machine.is_some() && inst.machine.is_none() {
                continue;
            }
            let rule = rule_row[ri];
            if rule.is_none() {
                continue;
            }
            let mut demand = Vec::with_capacity(af.len());
            match rule {
                AttributionRule::None => unreachable!(),
                AttributionRule::Exact(p) => {
                    let row = &mut exact[ri][first..first + af.len()];
                    // `(p * capacity) * a` preserves the legacy operation
                    // order, so hoisting the product is bit-identical.
                    let scale = p * res.capacity;
                    for (k, &a) in af.iter().enumerate() {
                        let d = scale * a;
                        demand.push(d);
                        row[k] += d;
                    }
                }
                AttributionRule::Variable(w) => {
                    let row = &mut variable[ri][first..first + af.len()];
                    for (k, &a) in af.iter().enumerate() {
                        let d = w * a;
                        demand.push(d);
                        row[k] += d;
                    }
                }
            }
            participants.push(ParticipantDemand {
                instance: inst.id,
                resource: ResourceIdx(ri as u32),
                rule,
                first_slice: first,
                demand,
            });
        }
    }
    participants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::ResourceInstance;
    use crate::trace::timeslice::MILLIS;

    fn setup() -> (ExecutionModel, ExecutionTrace, ResourceTrace, TimesliceGrid) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let _a = b.child(r, "a", Repeat::Once);
        let _c = b.child(r, "b", Repeat::Once);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 40 * MILLIS, None, None)
            .unwrap();
        // a: slices 0..2 on machine 0; b: slices 1..4 on machine 0.
        let a = tb
            .add_phase(&[("job", 0), ("a", 0)], 0, 20 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_phase(
            &[("job", 0), ("b", 0)],
            10 * MILLIS,
            40 * MILLIS,
            Some(0),
            Some(1),
        )
        .unwrap();
        // a is blocked for the whole of slice 1.
        tb.add_blocking(a, "gc", 10 * MILLIS, 20 * MILLIS);
        let trace = tb.build().unwrap();
        let mut rt = ResourceTrace::new();
        rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        let grid = TimesliceGrid::covering(0, 40 * MILLIS, 10 * MILLIS);
        (model, trace, rt, grid)
    }

    fn model_type(model: &ExecutionModel, name: &str) -> crate::model::execution::PhaseTypeId {
        model.find_by_name(name).unwrap()
    }

    #[test]
    fn active_fraction_subtracts_blocking() {
        let (model, trace, _rt, grid) = setup();
        let a_ty = model_type(&model, "a");
        let a = trace.instances_of_type(a_ty).next().unwrap().id;
        let (first, af) = active_fractions(&trace, a, &grid);
        assert_eq!(first, 0);
        assert_eq!(af.len(), 2);
        assert!((af[0] - 1.0).abs() < 1e-12);
        assert!(af[1].abs() < 1e-12, "blocked slice should be inactive");
    }

    #[test]
    fn default_rules_give_variable_weights() {
        let (model, trace, rt, grid) = setup();
        let rules = RuleSet::new(); // implicit Variable(1.0)
        let dm = estimate_demand(&model, &rules, &trace, &rt, &grid);
        // Leaves are a and b; job is a container and carries no demand.
        assert_eq!(dm.participants.len(), 2);
        // Slice 0: only a (weight 1). Slice 1: a blocked, b active (1).
        // Slices 2,3: only b.
        assert_eq!(dm.variable[0], vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(dm.exact[0], vec![0.0; 4]);
    }

    #[test]
    fn exact_rules_use_capacity_fraction() {
        let (model, trace, rt, grid) = setup();
        let a_ty = model_type(&model, "a");
        let rules = RuleSet::new().rule(a_ty, "cpu", AttributionRule::Exact(0.25));
        let dm = estimate_demand(&model, &rules, &trace, &rt, &grid);
        // a demands 0.25 * 4 cores = 1 core in slice 0; blocked in slice 1.
        assert!((dm.exact[0][0] - 1.0).abs() < 1e-12);
        assert!(dm.exact[0][1].abs() < 1e-12);
        // b keeps the default variable weight.
        assert_eq!(dm.variable[0], vec![0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn none_rule_removes_participant() {
        let (model, trace, rt, grid) = setup();
        let a_ty = model_type(&model, "a");
        let b_ty = model_type(&model, "b");
        let rules = RuleSet::new()
            .rule(a_ty, "cpu", AttributionRule::None)
            .rule(b_ty, "cpu", AttributionRule::None);
        let dm = estimate_demand(&model, &rules, &trace, &rt, &grid);
        assert!(dm.participants.is_empty());
    }

    #[test]
    fn machine_scope_respected() {
        let (model, trace, mut rt, grid) = setup();
        rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(7), // no phases live there
            capacity: 4.0,
        });
        let rules = RuleSet::new();
        let dm = estimate_demand(&model, &rules, &trace, &rt, &grid);
        assert!(dm.participants.iter().all(|p| p.resource == ResourceIdx(0)));
        assert_eq!(dm.variable[1], vec![0.0; 4]);
    }
}
