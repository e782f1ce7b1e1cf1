//! Indicator resources — lifting a §V limitation of the paper.
//!
//! The paper notes its resource model "does not support resources that do
//! not fit in its consumable or blocking resource archetypes, e.g., CPU
//! cache hit rates, or IPC counts". Such quantities are *indicators*: they
//! are monitored like consumable resources (a value per measurement window)
//! but they are neither capacity-limited nor attributable — dividing an IPC
//! among phases is meaningless. What an analyst wants instead is each
//! phase's *exposure*: the time-weighted average (and peak) of the
//! indicator while the phase ran.
//!
//! Feed indicator series into a [`ResourceTrace`] like any other resource
//! (capacity is only used as a plotting hint) and summarize them here; keep
//! them out of the attribution rule set (`None` rules) so the consumable
//! pipeline ignores them.

use std::collections::BTreeMap;

use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::resource::{ResourceIdx, ResourceTrace};

/// One phase instance's exposure to an indicator.
#[derive(Clone, Debug, PartialEq)]
pub struct IndicatorSummary {
    /// The phase instance.
    pub instance: InstanceId,
    /// The indicator resource instance.
    pub resource: ResourceIdx,
    /// Time-weighted mean of the indicator while the phase ran.
    pub mean: f64,
    /// Largest window value overlapping the phase.
    pub peak: f64,
    /// Fraction of the phase's lifetime covered by measurements (below 1.0
    /// means the monitor missed part of the phase).
    pub coverage: f64,
}

/// Summarizes indicator `r` over every leaf phase instance whose machine
/// matches the indicator's scope. Instances with no overlapping
/// measurements are omitted.
pub fn summarize_indicator(
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    r: ResourceIdx,
) -> Vec<IndicatorSummary> {
    let res = resources.instance(r);
    let measurements = resources.measurements(r);
    let mut out = Vec::new();
    for inst in trace.leaves() {
        if let (Some(rm), Some(im)) = (res.machine, inst.machine) {
            if rm != im {
                continue;
            }
        } else if res.machine.is_some() && inst.machine.is_none() {
            continue;
        }
        let (mut wsum, mut vsum, mut peak) = (0.0f64, 0.0f64, f64::NEG_INFINITY);
        for m in measurements {
            let lo = m.start.max(inst.start);
            let hi = m.end.min(inst.end);
            if hi <= lo {
                continue;
            }
            let w = (hi - lo) as f64;
            wsum += w;
            vsum += m.avg * w;
            peak = peak.max(m.avg);
        }
        if wsum <= 0.0 {
            continue;
        }
        let duration = inst.duration().max(1) as f64;
        out.push(IndicatorSummary {
            instance: inst.id,
            resource: r,
            mean: vsum / wsum,
            peak,
            coverage: (wsum / duration).min(1.0),
        });
    }
    out
}

/// Duration-weighted mean indicator per leaf phase *type* — the view that
/// answers "do gather phases run at worse IPC than apply phases?".
pub fn indicator_by_type(
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    r: ResourceIdx,
) -> BTreeMap<PhaseTypeId, f64> {
    let mut acc: BTreeMap<PhaseTypeId, (f64, f64)> = BTreeMap::new();
    for s in summarize_indicator(trace, resources, r) {
        let inst = trace.instance(s.instance);
        let w = inst.duration() as f64 * s.coverage;
        let e = acc.entry(inst.type_id).or_insert((0.0, 0.0));
        e.0 += s.mean * w;
        e.1 += w;
    }
    acc.into_iter()
        .filter(|(_, (_, w))| *w > 0.0)
        .map(|(ty, (vw, w))| (ty, vw / w))
        .collect()
}

/// Renders the per-type view as table rows `(type path, mean)`.
pub fn indicator_rows(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    r: ResourceIdx,
) -> Vec<(String, f64)> {
    indicator_by_type(trace, resources, r)
        .into_iter()
        .map(|(ty, v)| (model.type_path(ty), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::ResourceInstance;
    use crate::trace::timeslice::MILLIS;

    /// Two phases; a synthetic IPC indicator is high during the first and
    /// low during the second.
    fn setup() -> (ExecutionModel, ExecutionTrace, ResourceTrace, ResourceIdx) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let _a = b.child(r, "a", Repeat::Once);
        let _c = b.child(r, "b", Repeat::Once);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 200 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("a", 0)], 0, 100 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_phase(
            &[("job", 0), ("b", 0)],
            100 * MILLIS,
            200 * MILLIS,
            Some(0),
            Some(0),
        )
        .unwrap();
        let trace = tb.build().unwrap();
        let mut rt = ResourceTrace::new();
        let ipc = rt.add_resource(ResourceInstance {
            kind: "ipc".into(),
            machine: Some(0),
            capacity: 4.0, // plotting hint only
        });
        rt.add_series(ipc, 0, 50 * MILLIS, &[2.0, 2.0, 0.5, 0.7]);
        (model, trace, rt, ipc)
    }

    #[test]
    fn per_phase_exposure_recovered() {
        let (_model, trace, rt, ipc) = setup();
        let sums = summarize_indicator(&trace, &rt, ipc);
        assert_eq!(sums.len(), 2);
        assert!(
            (sums[0].mean - 2.0).abs() < 1e-9,
            "phase a: {}",
            sums[0].mean
        );
        assert!(
            (sums[1].mean - 0.6).abs() < 1e-9,
            "phase b: {}",
            sums[1].mean
        );
        assert_eq!(sums[0].peak, 2.0);
        assert_eq!(sums[1].peak, 0.7);
        assert!((sums[0].coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_coverage_reported() {
        let (_model, trace, mut rt, _) = setup();
        let cache = rt.add_resource(ResourceInstance {
            kind: "cache_hit".into(),
            machine: Some(0),
            capacity: 1.0,
        });
        // Only the first half of phase a is measured.
        rt.add_series(cache, 0, 50 * MILLIS, &[0.9]);
        let sums = summarize_indicator(&trace, &rt, cache);
        assert_eq!(sums.len(), 1, "phase b has no overlapping measurements");
        assert!((sums[0].coverage - 0.5).abs() < 1e-9);
        assert!((sums[0].mean - 0.9).abs() < 1e-9);
    }

    #[test]
    fn by_type_aggregates_and_labels() {
        let (model, trace, rt, ipc) = setup();
        let by_type = indicator_by_type(&trace, &rt, ipc);
        assert_eq!(by_type.len(), 2);
        let rows = indicator_rows(&model, &trace, &rt, ipc);
        assert!(rows
            .iter()
            .any(|(p, v)| p == "job.a" && (*v - 2.0).abs() < 1e-9));
        assert!(rows
            .iter()
            .any(|(p, v)| p == "job.b" && (*v - 0.6).abs() < 1e-9));
    }

    #[test]
    fn machine_scope_respected() {
        let (_model, trace, mut rt, _) = setup();
        let other = rt.add_resource(ResourceInstance {
            kind: "ipc".into(),
            machine: Some(9),
            capacity: 4.0,
        });
        rt.add_series(other, 0, 50 * MILLIS, &[1.0; 4]);
        assert!(summarize_indicator(&trace, &rt, other).is_empty());
    }

    #[test]
    fn straddling_measurement_weighted_correctly() {
        // One 100 ms window covering the back half of a and front half of b.
        let (_model, trace, mut rt, _) = setup();
        let x = rt.add_resource(ResourceInstance {
            kind: "x".into(),
            machine: Some(0),
            capacity: 1.0,
        });
        rt.add_series(x, 50 * MILLIS, 100 * MILLIS, &[3.0]);
        let sums = summarize_indicator(&trace, &rt, x);
        assert_eq!(sums.len(), 2);
        for s in &sums {
            assert!((s.mean - 3.0).abs() < 1e-9);
            assert!((s.coverage - 0.5).abs() < 1e-9);
        }
    }
}
