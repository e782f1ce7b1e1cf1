//! Resource-bottleneck identification (§III-E).
//!
//! Two resource archetypes, two detectors:
//!
//! * [`blocking`] — a phase halted by a blocking resource (GC, full queue,
//!   barrier) is bottlenecked on it for the duration of the event;
//! * [`consumable`] — a phase is bottlenecked on a consumable resource when
//!   the resource is *saturated* (≈100 % utilized for an extended period),
//!   or when the phase's attributed usage reaches its own `Exact` demand
//!   ceiling even though the resource itself has headroom — the paper's
//!   "least understood" case.

pub mod blocking;
pub mod consumable;

pub use blocking::{blocking_bottlenecks, BlockingBottleneck};
pub use consumable::{
    consumable_bottlenecks, BottleneckCause, BottleneckConfig, ConsumableBottleneck,
};

use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::trace::execution::ExecutionTrace;
use crate::trace::resource::ResourceIdx;

/// Combined bottleneck report for one profile.
#[derive(Clone, Debug, Default)]
pub struct BottleneckReport {
    /// Blocked time per (phase instance, blocking resource).
    pub blocking: Vec<BlockingBottleneck>,
    /// Consumable bottlenecks per (phase instance, resource).
    pub consumable: Vec<ConsumableBottleneck>,
}

impl BottleneckReport {
    /// Builds the full report.
    pub fn build(
        trace: &ExecutionTrace,
        profile: &crate::attribution::PerformanceProfile,
        cfg: &BottleneckConfig,
    ) -> Self {
        BottleneckReport {
            blocking: blocking_bottlenecks(trace),
            consumable: consumable_bottlenecks(profile, cfg),
        }
    }

    /// Total blocked seconds per (phase type, blocking resource kind),
    /// summed over instances — the per-workload aggregate of Fig. 4.
    pub fn blocked_time_by_type(
        &self,
        trace: &ExecutionTrace,
    ) -> std::collections::BTreeMap<(PhaseTypeId, String), f64> {
        let mut out = std::collections::BTreeMap::new();
        for b in &self.blocking {
            let ty = trace.instance(b.instance).type_id;
            *out.entry((ty, b.resource.clone())).or_insert(0.0) += b.blocked_secs;
        }
        out
    }

    /// Bottlenecked slice count per (phase type, resource instance).
    pub fn bottleneck_slices_by_type(
        &self,
        trace: &ExecutionTrace,
    ) -> std::collections::BTreeMap<(PhaseTypeId, ResourceIdx), usize> {
        let mut out = std::collections::BTreeMap::new();
        for c in &self.consumable {
            let ty = trace.instance(c.instance).type_id;
            *out.entry((ty, c.resource)).or_insert(0) += c.num_slices();
        }
        out
    }

    /// Human-oriented summary lines (phase type name, resource, magnitude).
    pub fn summary(&self, model: &ExecutionModel, trace: &ExecutionTrace) -> Vec<String> {
        let mut lines = Vec::new();
        for ((ty, res), secs) in self.blocked_time_by_type(trace) {
            lines.push(format!(
                "{} blocked on {res} for {secs:.3}s total",
                model.type_path(ty)
            ));
        }
        for ((ty, res), slices) in self.bottleneck_slices_by_type(trace) {
            lines.push(format!(
                "{} bottlenecked on resource #{} for {slices} slices",
                model.type_path(ty),
                res.0
            ));
        }
        lines
    }
}
