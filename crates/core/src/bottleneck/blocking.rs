//! Blocking-resource bottlenecks: straightforward per the paper — every
//! blocking event delays its phase, so the blocked time *is* the bottleneck
//! (the graph-processing analogue of blocked-time analysis).

use std::collections::BTreeMap;

use crate::trace::execution::{ExecutionTrace, InstanceId};

/// Total time one phase instance spent blocked on one blocking resource.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockingBottleneck {
    /// The blocked phase instance.
    pub instance: InstanceId,
    /// The blocking resource kind.
    pub resource: String,
    /// Total blocked time, seconds.
    pub blocked_secs: f64,
    /// Number of blocking events aggregated.
    pub events: usize,
}

/// Aggregates the trace's blocking events per (instance, resource).
pub fn blocking_bottlenecks(trace: &ExecutionTrace) -> Vec<BlockingBottleneck> {
    let mut agg: BTreeMap<(InstanceId, String), (f64, usize)> = BTreeMap::new();
    for ev in trace.blocking() {
        let secs = (ev.end - ev.start) as f64 / 1e9;
        let e = agg
            .entry((ev.instance, ev.resource.clone()))
            .or_insert((0.0, 0));
        e.0 += secs;
        e.1 += 1;
    }
    agg.into_iter()
        .map(
            |((instance, resource), (blocked_secs, events))| BlockingBottleneck {
                instance,
                resource,
                blocked_secs,
                events,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::timeslice::MILLIS;

    #[test]
    fn aggregates_per_instance_and_resource() {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        b.child(r, "p", Repeat::Parallel);
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 100 * MILLIS, None, None)
            .unwrap();
        let p0 = tb
            .add_phase(&[("job", 0), ("p", 0)], 0, 50 * MILLIS, Some(0), Some(0))
            .unwrap();
        let p1 = tb
            .add_phase(&[("job", 0), ("p", 1)], 0, 80 * MILLIS, Some(0), Some(1))
            .unwrap();
        tb.add_blocking(p0, "gc", 10 * MILLIS, 20 * MILLIS);
        tb.add_blocking(p0, "gc", 30 * MILLIS, 35 * MILLIS);
        tb.add_blocking(p0, "msgq", 40 * MILLIS, 45 * MILLIS);
        tb.add_blocking(p1, "gc", 10 * MILLIS, 20 * MILLIS);
        let trace = tb.build().unwrap();

        let bs = blocking_bottlenecks(&trace);
        assert_eq!(bs.len(), 3);
        let gc0 = bs
            .iter()
            .find(|b| b.instance == p0 && b.resource == "gc")
            .unwrap();
        assert!((gc0.blocked_secs - 0.015).abs() < 1e-9);
        assert_eq!(gc0.events, 2);
        let q0 = bs
            .iter()
            .find(|b| b.instance == p0 && b.resource == "msgq")
            .unwrap();
        assert!((q0.blocked_secs - 0.005).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_no_bottlenecks() {
        let model = ExecutionModelBuilder::new("job").build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 10, None, None).unwrap();
        let trace = tb.build().unwrap();
        assert!(blocking_bottlenecks(&trace).is_empty());
    }
}
