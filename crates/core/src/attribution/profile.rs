//! The fine-grained performance profile: output of the attribution pipeline.

use std::collections::HashMap;

use crate::attribution::attribute::attribute_rows;
use crate::attribution::demand::demand_rows;
use crate::attribution::upsample::{
    upsample_constant, upsample_measurement_scratch, UpsampleScratch,
};
use crate::config::pool_map;
use crate::model::execution::ExecutionModel;
use crate::model::rules::{AttributionRule, RuleSet};
use crate::obs::{self, Stage};
use crate::supervise::checkpoint;
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::resource::{ResourceIdx, ResourceInstance, ResourceTrace};
use crate::trace::timeslice::{BoolGrid, MetricGrid, Nanos, RowsMut, TimesliceGrid, MILLIS};

/// How coarse measurements are upsampled to timeslices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpsampleMode {
    /// Grade10's demand-guided upsampling (§III-D2).
    DemandGuided,
    /// The strawman: constant usage over each measurement window.
    Constant,
}

pub use crate::config::Parallelism;

/// Configuration of a profile build.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Timeslice duration in nanoseconds (paper default: 10 ms).
    pub slice: Nanos,
    /// Upsampling strategy for coarse measurements.
    pub upsample: UpsampleMode,
    /// Threading of the upsampling stage; the result is bit-identical
    /// either way.
    pub parallelism: Parallelism,
    /// Explicit worker-pool width for the upsampling fan-out. `None` (the
    /// default) defers to `GRADE10_THREADS`, then to the machine size —
    /// see [`crate::config::resolve_threads`]. A profile built on a pool
    /// worker (a supervised unit, a campaign mix) upsamples inline on that
    /// worker whatever the width: pools never nest.
    pub threads: Option<usize>,
    /// When monitoring does not cover a timeslice (crashed monitor,
    /// dropped windows), estimate its consumption from the modeled demand
    /// instead of treating it as idle: `min(capacity, exact + α ×
    /// variable)`, with α calibrated from the slices that *were* measured.
    /// Estimated slices are flagged in
    /// [`PerformanceProfile::estimated`] as low-confidence. Off by
    /// default: with clean input the flag changes nothing, and silence is
    /// the conservative reading of missing data.
    pub estimate_missing: bool,
    /// Overrides the grid's end time (normally derived from the trace and
    /// monitoring extents). Supervised execution attributes each machine in
    /// its own unit, filling that machine's rows of one profile; the
    /// supervisor costs that grid with one global end and pins it here.
    pub grid_end: Option<Nanos>,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            slice: 10 * MILLIS,
            upsample: UpsampleMode::DemandGuided,
            parallelism: Parallelism::Auto,
            threads: None,
            estimate_missing: false,
            grid_end: None,
        }
    }
}

/// Attributed usage of one (leaf instance, resource instance) pair.
#[derive(Clone, Debug)]
pub struct InstanceUsage {
    /// The phase instance.
    pub instance: InstanceId,
    /// The resource instance.
    pub resource: ResourceIdx,
    /// The rule that governed this pair.
    pub rule: AttributionRule,
    /// Slice index of `usage[0]` / `demand[0]`.
    pub first_slice: usize,
    /// Absolute demand per slice for `Exact` rules; weight × active
    /// fraction for `Variable` rules.
    pub demand: Vec<f64>,
    /// Attributed absolute usage per slice.
    pub usage: Vec<f64>,
}

impl InstanceUsage {
    /// Usage in slice `s` (global index), zero outside the phase's range.
    pub fn usage_at(&self, s: usize) -> f64 {
        if s < self.first_slice || s >= self.first_slice + self.usage.len() {
            0.0
        } else {
            self.usage[s - self.first_slice]
        }
    }

    /// Demand in slice `s` (global index).
    pub fn demand_at(&self, s: usize) -> f64 {
        if s < self.first_slice || s >= self.first_slice + self.demand.len() {
            0.0
        } else {
            self.demand[s - self.first_slice]
        }
    }
}

/// The 3-D performance profile: per phase instance, per resource instance,
/// per timeslice (§III-D, Figure 2(f)).
#[derive(Clone, Debug)]
pub struct PerformanceProfile {
    /// The timeslice grid all arrays are indexed by.
    pub grid: TimesliceGrid,
    /// The monitored resource instances (row index = `ResourceIdx`).
    pub resources: Vec<ResourceInstance>,
    /// Upsampled consumption: `[resource][slice]`, absolute units.
    pub consumption: MetricGrid,
    /// Known (Exact) demand totals: `[resource][slice]`.
    pub demand_exact: MetricGrid,
    /// Variable demand weight totals: `[resource][slice]`.
    pub demand_variable: MetricGrid,
    /// Consumption not attributable to any modeled phase.
    pub unattributed: MetricGrid,
    /// Measured consumption that exceeded capacity and was dropped, per
    /// resource, in unit-seconds (non-zero values indicate a mis-specified
    /// capacity).
    pub overflow: Vec<f64>,
    /// `[resource][slice]` flags marking slices whose consumption is a
    /// demand-derived *estimate* (no monitoring covered the slice) rather
    /// than a measurement. Always all-false unless
    /// [`ProfileConfig::estimate_missing`] is on. Treat flagged cells as
    /// low-confidence.
    pub estimated: BoolGrid,
    /// Per-(leaf instance, resource) usage and demand.
    pub usages: Vec<InstanceUsage>,
    index: HashMap<(InstanceId, ResourceIdx), usize>,
}

impl PerformanceProfile {
    /// Usage record of one (instance, resource) pair, if the instance
    /// participates in that resource.
    pub fn usage_of(&self, instance: InstanceId, resource: ResourceIdx) -> Option<&InstanceUsage> {
        self.index
            .get(&(instance, resource))
            .map(|&i| &self.usages[i])
    }

    /// Attributed usage of an instance *including all descendants* on one
    /// resource, per slice over the whole grid. This is how container
    /// phases (e.g. a worker's whole Compute phase) report usage: as the
    /// sum of their leaves.
    pub fn aggregate_usage(
        &self,
        trace: &ExecutionTrace,
        root: InstanceId,
        resource: ResourceIdx,
    ) -> Vec<f64> {
        let mut out = vec![0.0; self.grid.num_slices()];
        self.visit_leaves(trace, root, &mut |id| {
            if let Some(u) = self.usage_of(id, resource) {
                for (k, &v) in u.usage.iter().enumerate() {
                    out[u.first_slice + k] += v;
                }
            }
        });
        out
    }

    /// Same as [`aggregate_usage`](Self::aggregate_usage) but for demand
    /// (Exact absolute demand + Variable weights are reported separately).
    pub fn aggregate_demand(
        &self,
        trace: &ExecutionTrace,
        root: InstanceId,
        resource: ResourceIdx,
    ) -> (Vec<f64>, Vec<f64>) {
        let ns = self.grid.num_slices();
        let (mut exact, mut var) = (vec![0.0; ns], vec![0.0; ns]);
        self.visit_leaves(trace, root, &mut |id| {
            if let Some(u) = self.usage_of(id, resource) {
                let dst = match u.rule {
                    AttributionRule::Exact(_) => &mut exact,
                    _ => &mut var,
                };
                for (k, &v) in u.demand.iter().enumerate() {
                    dst[u.first_slice + k] += v;
                }
            }
        });
        (exact, var)
    }

    fn visit_leaves(
        &self,
        trace: &ExecutionTrace,
        root: InstanceId,
        f: &mut impl FnMut(InstanceId),
    ) {
        if trace.is_leaf(root) {
            f(root);
            return;
        }
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if trace.is_leaf(id) {
                f(id);
            } else {
                stack.extend_from_slice(trace.children_of(id));
            }
        }
    }

    /// Number of `(resource, slice)` cells whose consumption is a
    /// demand-derived estimate rather than a measurement.
    pub fn estimated_slices(&self) -> usize {
        self.estimated.count_set()
    }

    /// Total number of `(resource, slice)` cells in the profile.
    pub fn total_slices(&self) -> usize {
        self.resources.len() * self.grid.num_slices()
    }

    /// Utilization fraction (0..1) of a resource in a slice.
    pub fn utilization(&self, resource: ResourceIdx, slice: usize) -> f64 {
        let cap = self.resources[resource.0 as usize].capacity;
        self.consumption[resource.0 as usize][slice] / cap
    }

    /// A profile with no resources over a single-slice grid: the fallback a
    /// supervised run reports when *every* attribution unit was dropped.
    /// Downstream consumers see zero resources rather than a crash.
    pub fn empty(slice: Nanos) -> PerformanceProfile {
        let slice = slice.max(1);
        Self::zeroed(TimesliceGrid::covering(0, slice, slice), 0)
    }

    /// A profile over `grid` with `rows` zeroed resource rows and nothing
    /// else yet. Its grids are allocated here, once; [`Self::blocks`]
    /// hands out their rows to be filled in place, and [`Self::assemble`]
    /// completes the profile.
    pub(crate) fn zeroed(grid: TimesliceGrid, rows: usize) -> PerformanceProfile {
        let ns = grid.num_slices();
        PerformanceProfile {
            grid,
            resources: Vec::new(),
            consumption: MetricGrid::zeros(rows, ns),
            demand_exact: MetricGrid::zeros(rows, ns),
            demand_variable: MetricGrid::zeros(rows, ns),
            unattributed: MetricGrid::zeros(rows, ns),
            overflow: Vec::new(),
            estimated: BoolGrid::falses(rows, ns),
            usages: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Splits the rows of every grid into consecutive blocks of `sizes`
    /// rows, one per [`fill_rows`] call.
    pub(crate) fn blocks(&mut self, sizes: &[usize]) -> Vec<ProfileRows<'_>> {
        let grid = &self.grid;
        let sizes = || sizes.iter().copied();
        let consumption = self.consumption.blocks_mut(sizes());
        let demand_exact = self.demand_exact.blocks_mut(sizes());
        let demand_variable = self.demand_variable.blocks_mut(sizes());
        let unattributed = self.unattributed.blocks_mut(sizes());
        let estimated = self.estimated.blocks_mut(sizes());
        let blocks = consumption
            .into_iter()
            .zip(demand_exact)
            .zip(demand_variable);
        let blocks = blocks.zip(unattributed).zip(estimated);
        let block =
            |((((consumption, demand_exact), demand_variable), unattributed), estimated)| {
                ProfileRows {
                    grid,
                    consumption,
                    demand_exact,
                    demand_variable,
                    unattributed,
                    estimated,
                }
            };
        blocks.map(block).collect()
    }

    /// Completes a profile whose blocks were filled. `blocks` lists every
    /// block in row order with its resources and, unless its unit was
    /// dropped, its fill. A dropped block's rows are removed and the rows
    /// after it move up; each fill's usages are re-based onto the rows
    /// before its block, and the usage index is built once.
    pub(crate) fn assemble(&mut self, blocks: Vec<(&[ResourceInstance], Option<BlockFill>)>) {
        let fills = blocks.iter().filter_map(|(_, fill)| fill.as_ref());
        let total: usize = fills.map(|fill| fill.usages.len()).sum();
        let mut keep = Vec::new();
        for (resources, fill) in blocks {
            keep.extend(std::iter::repeat_n(fill.is_some(), resources.len()));
            let Some(BlockFill {
                overflow,
                mut usages,
            }) = fill
            else {
                continue;
            };
            let base = self.resources.len() as u32;
            self.resources.extend_from_slice(resources);
            self.overflow.extend(overflow);
            for u in &mut usages {
                u.resource = ResourceIdx(u.resource.0 + base);
            }
            if self.usages.is_empty() {
                self.usages = usages;
                self.usages.reserve_exact(total - self.usages.len());
            } else {
                self.usages.append(&mut usages);
            }
        }
        if keep.contains(&false) {
            self.consumption.retain_rows(|r| keep[r]);
            self.demand_exact.retain_rows(|r| keep[r]);
            self.demand_variable.retain_rows(|r| keep[r]);
            self.unattributed.retain_rows(|r| keep[r]);
            self.estimated.retain_rows(|r| keep[r]);
        }
        let keyed = self.usages.iter().enumerate();
        self.index = keyed.map(|(i, u)| ((u.instance, u.resource), i)).collect();
    }
}

/// One block of consecutive resource rows of a profile's grids: the whole
/// profile under the inline policy, one machine unit's rows under the
/// supervised one. [`fill_rows`] writes it in place.
pub(crate) struct ProfileRows<'g> {
    grid: &'g TimesliceGrid,
    consumption: RowsMut<'g, f64>,
    demand_exact: RowsMut<'g, f64>,
    demand_variable: RowsMut<'g, f64>,
    unattributed: RowsMut<'g, f64>,
    estimated: RowsMut<'g, bool>,
}

impl ProfileRows<'_> {
    /// Zeroes every cell again, for a retried attempt.
    pub(crate) fn clear(&mut self) {
        self.consumption.fill(0.0);
        self.demand_exact.fill(0.0);
        self.demand_variable.fill(0.0);
        self.unattributed.fill(0.0);
        self.estimated.fill(false);
    }
}

/// What [`fill_rows`] leaves besides the cells of its block.
pub(crate) struct BlockFill {
    /// Per row of the block, the measured consumption dropped over capacity.
    overflow: Vec<f64>,
    /// The block's usages; their `ResourceIdx` counts from its first row.
    usages: Vec<InstanceUsage>,
}

impl ProfileConfig {
    /// The grid a profile is built over: from 0 to the configured
    /// [`grid_end`](Self::grid_end), or else to the later of the trace's
    /// and the monitoring's end, at least one slice.
    pub(crate) fn grid_over(&self, trace: &ExecutionTrace, monitoring_end: Nanos) -> TimesliceGrid {
        let end = self
            .grid_end
            .unwrap_or_else(|| trace.makespan_end().max(monitoring_end));
        TimesliceGrid::covering(0, end.max(self.slice), self.slice)
    }
}

/// Runs the full attribution pipeline (§III-D): demand estimation,
/// upsampling, attribution.
pub fn build_profile(
    _model: &ExecutionModel,
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &ProfileConfig,
) -> PerformanceProfile {
    let demand_span = obs::span(Stage::Demand);
    let nr = resources.instances().len();
    let mut profile = PerformanceProfile::zeroed(cfg.grid_over(trace, resources.end()), nr);
    let mut rows = profile.blocks(&[nr]);
    let fill = fill_rows(rules, trace, resources, cfg, &mut rows[0], demand_span);
    drop(rows);
    let _attribute_span = obs::span(Stage::Attribute);
    profile.assemble(vec![(resources.instances(), Some(fill))]);
    profile
}

/// The body of [`build_profile`] for one block of rows, one per resource
/// of `resources`: demand estimation, upsampling and attribution, written
/// into `rows`, whose cells must be zero. `demand_span` is the open span of
/// the demand step; the other two steps open their own.
pub(crate) fn fill_rows(
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &ProfileConfig,
    rows: &mut ProfileRows<'_>,
    demand_span: obs::Span,
) -> BlockFill {
    let ProfileRows {
        grid,
        consumption,
        demand_exact: exact,
        demand_variable: variable,
        unattributed,
        estimated,
    } = rows;
    let grid: &TimesliceGrid = grid;
    let ns = grid.num_slices();
    let nr = resources.instances().len();

    let participants = demand_rows(rules, trace, resources, grid, exact, variable);
    let (exact, variable) = (exact.view(), variable.view());
    drop(demand_span);
    checkpoint();
    let upsample_span = obs::span(Stage::Upsample);

    // Upsampling is independent per resource instance, so the rows fan out
    // over the shared pool when the grid is large enough to amortize the
    // spawns (`Auto`). Each row is written by exactly one item, so every
    // cell is bit-identical at any width. On a pool thread `checkpoint()`
    // is a no-op; inline, it lets a supervised attempt stop between rows.
    let width = cfg
        .parallelism
        .width(cfg.threads, nr, nr >= 4 && ns * nr >= 64 * 1024);
    let items: Vec<_> = consumption.rows_mut().enumerate().collect();
    let overflow = pool_map(width, items, Some(Stage::Worker), |(r, row)| {
        checkpoint();
        let cap = resources.instances()[r].capacity;
        let mut scratch = UpsampleScratch::default();
        let mut over = 0.0;
        for m in resources.measurements(ResourceIdx(r as u32)) {
            match cfg.upsample {
                UpsampleMode::DemandGuided => {
                    // The measurement kernels report their residue in
                    // units x slices; normalize to unit-seconds so overflow
                    // is directly comparable with total consumption.
                    let rem = upsample_measurement_scratch(
                        m,
                        grid,
                        &exact[r],
                        &variable[r],
                        cap,
                        row,
                        &mut scratch,
                    );
                    over += rem * grid.slice_secs();
                }
                UpsampleMode::Constant => {
                    upsample_constant(m, grid, row);
                }
            }
        }
        over
    });

    // Graceful degradation: slices no monitoring window covers read as
    // zero consumption above, which attribution would interpret as "the
    // resource sat idle". When enabled, fill those holes with a
    // demand-derived estimate *before* attribution so per-slice
    // conservation (attributed + unattributed = consumption) still holds
    // for the estimated cells.
    if cfg.estimate_missing {
        for r in 0..nr {
            let cap = resources.instances()[r].capacity;
            let mut covered = vec![false; ns];
            for m in resources.measurements(ResourceIdx(r as u32)) {
                let (a, b) = grid.slice_range(m.start, m.end);
                for c in covered.iter_mut().take(b).skip(a) {
                    *c = true;
                }
            }
            // Calibrate how much consumption one unit of variable-demand
            // weight produced on the slices that *were* measured.
            let (mut num, mut den) = (0.0, 0.0);
            for s in 0..ns {
                if covered[s] && variable[r][s] > 0.0 {
                    num += (consumption[r][s] - exact[r][s]).max(0.0);
                    den += variable[r][s];
                }
            }
            let alpha = if den > 0.0 { num / den } else { 0.0 };
            for s in 0..ns {
                // Only slices where some phase demanded the resource are
                // estimates; uncovered idle slices stay zero and unflagged.
                if !covered[s] && (exact[r][s] > 0.0 || variable[r][s] > 0.0) {
                    consumption[r][s] = (exact[r][s] + alpha * variable[r][s]).min(cap);
                    estimated[r][s] = true;
                }
            }
        }
    }

    drop(upsample_span);
    checkpoint();
    let _attribute_span = obs::span(Stage::Attribute);
    let usage = attribute_rows(
        &exact,
        &variable,
        &participants,
        &consumption.view(),
        unattributed,
    );
    let usages = participants
        .into_iter()
        .zip(usage)
        .map(|(p, usage)| InstanceUsage {
            instance: p.instance,
            resource: p.resource,
            rule: p.rule,
            first_slice: p.first_slice,
            demand: p.demand,
            usage,
        });
    BlockFill {
        overflow,
        usages: usages.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::ResourceInstance;

    /// Builds the complete Figure 2 scenario: phases P1..P4, resources
    /// R1..R3 with the rule matrix of Figure 2(b), the execution trace of
    /// Figure 2(a), and the monitoring data of Figure 2(d). Slices are
    /// 10 ms; the figure's timeslices 1..6 map to indices 0..5.
    pub(crate) fn figure2() -> (ExecutionModel, RuleSet, ExecutionTrace, ResourceTrace) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let p1 = b.child(r, "P1", Repeat::Once);
        let p2 = b.child(r, "P2", Repeat::Once);
        let p3 = b.child(r, "P3", Repeat::Once);
        let p4 = b.child(r, "P4", Repeat::Once);
        let model = b.build();

        // Rule matrix (Figure 2b):
        //        P1      P2      P3       P4
        // R1     x(1)    2x      -        -
        // R2     -       y(1)    50%      -
        // R3     -       80%     z(1)     z(1)
        let rules = RuleSet::new()
            .with_default(AttributionRule::None)
            .rule(p1, "R1", AttributionRule::Variable(1.0))
            .rule(p2, "R1", AttributionRule::Variable(2.0))
            .rule(p2, "R2", AttributionRule::Variable(1.0))
            .rule(p3, "R2", AttributionRule::Exact(0.5))
            .rule(p2, "R3", AttributionRule::Exact(0.8))
            .rule(p3, "R3", AttributionRule::Variable(1.0))
            .rule(p4, "R3", AttributionRule::Variable(1.0));

        // Execution trace (Figure 2a): timeslices are 10 ms; measurement
        // windows cover two slices each ([0,2), [2,4), [4,6)).
        // P1: slices 0-1, P2: slices 2-3, P3: slices 3-4, P4: slices 4-5,
        // so window [2,4) sees P2's variable demand in both slices and
        // P3's Exact 50 % only in slice 3 — the paper's worked example.
        let ms = MILLIS;
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 60 * ms, None, None).unwrap();
        tb.add_phase(&[("job", 0), ("P1", 0)], 0, 20 * ms, Some(0), Some(0))
            .unwrap();
        tb.add_phase(&[("job", 0), ("P2", 0)], 20 * ms, 40 * ms, Some(0), Some(1))
            .unwrap();
        tb.add_phase(&[("job", 0), ("P3", 0)], 30 * ms, 50 * ms, Some(0), Some(2))
            .unwrap();
        tb.add_phase(&[("job", 0), ("P4", 0)], 40 * ms, 60 * ms, Some(0), Some(3))
            .unwrap();
        let trace = tb.build().unwrap();

        // Resource trace (Figure 2d): measurements over 2-slice quanta, in
        // percent (capacity 100).
        let mut rt = ResourceTrace::new();
        let r1 = rt.add_resource(ResourceInstance {
            kind: "R1".into(),
            machine: Some(0),
            capacity: 100.0,
        });
        let r2 = rt.add_resource(ResourceInstance {
            kind: "R2".into(),
            machine: Some(0),
            capacity: 100.0,
        });
        let r3 = rt.add_resource(ResourceInstance {
            kind: "R3".into(),
            machine: Some(0),
            capacity: 100.0,
        });
        rt.add_series(r1, 0, 20 * ms, &[60.0, 85.0, 30.0]);
        rt.add_series(r2, 0, 20 * ms, &[0.0, 40.0, 20.0]);
        rt.add_series(r3, 0, 20 * ms, &[40.0, 90.0, 50.0]);
        (model, rules, trace, rt)
    }

    fn inst(trace: &ExecutionTrace, model: &ExecutionModel, name: &str) -> InstanceId {
        let ty = model.find_by_name(name).unwrap();
        trace.instances_of_type(ty).next().unwrap().id
    }

    #[test]
    fn figure2_r2_upsampling_and_attribution() {
        let (model, rules, trace, rt) = figure2();
        let prof = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let r2 = rt.find("R2", Some(0)).unwrap();
        // Upsampled R2 (paper text): the 40 % measurement over the window
        // splits into 15 % (first slice, variable demand only) and 65 %
        // (second slice, 50 % Exact + variable) — indices 2 and 3 here.
        let c = &prof.consumption[r2.0 as usize];
        assert!((c[2] - 15.0).abs() < 1e-6, "first window slice = {}", c[2]);
        assert!((c[3] - 65.0).abs() < 1e-6, "second window slice = {}", c[3]);
        // Attribution in that slice: P3 gets its Exact 50, P2 the variable
        // remainder of 15 (Figure 2f).
        let p2 = inst(&trace, &model, "P2");
        let p3 = inst(&trace, &model, "P3");
        let u2 = prof.usage_of(p2, r2).unwrap();
        let u3 = prof.usage_of(p3, r2).unwrap();
        assert!(
            (u3.usage_at(3) - 50.0).abs() < 1e-6,
            "P3 {}",
            u3.usage_at(3)
        );
        assert!(
            (u2.usage_at(3) - 15.0).abs() < 1e-6,
            "P2 {}",
            u2.usage_at(3)
        );
    }

    #[test]
    fn figure2_conservation_everywhere() {
        let (model, rules, trace, rt) = figure2();
        let prof = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        // Upsampling conserves each measurement's total; attribution +
        // unattributed conserves each slice's consumption.
        for r in 0..3usize {
            let measured: f64 = rt.total_consumption(ResourceIdx(r as u32));
            let upsampled: f64 = prof.consumption[r].iter().sum::<f64>() * prof.grid.slice_secs();
            assert!(
                (measured - upsampled).abs() < 1e-6,
                "resource {r}: measured {measured} vs upsampled {upsampled}"
            );
            for s in 0..prof.grid.num_slices() {
                let attributed: f64 = prof
                    .usages
                    .iter()
                    .filter(|u| u.resource.0 as usize == r)
                    .map(|u| u.usage_at(s))
                    .sum();
                let total = attributed + prof.unattributed[r][s];
                assert!(
                    (total - prof.consumption[r][s]).abs() < 1e-6,
                    "resource {r} slice {s}: {total} vs {}",
                    prof.consumption[r][s]
                );
            }
        }
    }

    #[test]
    fn figure2_p2_exact_limit_on_r3() {
        // Figure 2(e)/§III-E: P2 uses its full 80 % Exact demand of R3
        // even though R3 is not saturated in that slice.
        let (model, rules, trace, rt) = figure2();
        let prof = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let r3 = rt.find("R3", Some(0)).unwrap();
        let p2 = inst(&trace, &model, "P2");
        let u = prof.usage_of(p2, r3).unwrap();
        assert!(
            (u.usage_at(2) - 80.0).abs() < 1e-6,
            "P2@R3 = {}",
            u.usage_at(2)
        );
        assert!((u.demand_at(2) - 80.0).abs() < 1e-6);
    }

    #[test]
    fn aggregate_usage_sums_children() {
        let (model, rules, trace, rt) = figure2();
        let prof = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let r1 = rt.find("R1", Some(0)).unwrap();
        let job = InstanceId(0); // root added first
        let agg = prof.aggregate_usage(&trace, job, r1);
        // Root aggregate equals total consumption minus unattributed.
        for s in 0..prof.grid.num_slices() {
            let expect = prof.consumption[r1.0 as usize][s] - prof.unattributed[r1.0 as usize][s];
            assert!((agg[s] - expect).abs() < 1e-6, "slice {s}");
        }
    }

    #[test]
    fn parallel_and_sequential_upsampling_agree_exactly() {
        let (model, rules, trace, rt) = figure2();
        let seq = build_profile(
            &model,
            &rules,
            &trace,
            &rt,
            &ProfileConfig {
                parallelism: Parallelism::Never,
                ..Default::default()
            },
        );
        let par = build_profile(
            &model,
            &rules,
            &trace,
            &rt,
            &ProfileConfig {
                parallelism: Parallelism::Always,
                ..Default::default()
            },
        );
        assert_eq!(seq.consumption, par.consumption);
        assert_eq!(seq.overflow, par.overflow);
        for (a, b) in seq.usages.iter().zip(&par.usages) {
            assert_eq!(a.usage, b.usage);
        }
    }

    #[test]
    fn constant_mode_flattens() {
        let (model, rules, trace, rt) = figure2();
        let cfg = ProfileConfig {
            upsample: UpsampleMode::Constant,
            ..Default::default()
        };
        let prof = build_profile(&model, &rules, &trace, &rt, &cfg);
        let r1 = rt.find("R1", Some(0)).unwrap().0 as usize;
        // Constant mode: both slices of each window carry the average.
        assert_eq!(prof.consumption[r1][0], prof.consumption[r1][1]);
        assert_eq!(prof.consumption[r1][2], prof.consumption[r1][3]);
    }

    /// Figure 2 with the last R2 monitoring window lost (monitor crashed):
    /// slices 4–5 of R2 are uncovered.
    fn figure2_truncated_r2() -> (ExecutionModel, RuleSet, ExecutionTrace, ResourceTrace) {
        let (model, rules, trace, rt_full) = figure2();
        let mut rt = ResourceTrace::new();
        for (r, inst) in rt_full.instances().iter().enumerate() {
            let idx = rt.add_resource(inst.clone());
            let keep = if inst.kind == "R2" { 2 } else { 3 };
            for m in rt_full
                .measurements(ResourceIdx(r as u32))
                .iter()
                .take(keep)
            {
                rt.add_measurement(idx, *m);
            }
        }
        // R2 now ends at 40 ms; the grid still spans 60 ms via the trace.
        assert_eq!(rt.measurements(rt.find("R2", Some(0)).unwrap()).len(), 2);
        (model, rules, trace, rt)
    }

    #[test]
    fn missing_monitoring_reads_idle_by_default() {
        let (model, rules, trace, rt) = figure2_truncated_r2();
        let prof = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let r2 = rt.find("R2", Some(0)).unwrap().0 as usize;
        assert_eq!(prof.consumption[r2][4], 0.0);
        assert_eq!(prof.estimated_slices(), 0);
    }

    #[test]
    fn estimate_missing_fills_uncovered_demanded_slices() {
        let (model, rules, trace, rt) = figure2_truncated_r2();
        let cfg = ProfileConfig {
            estimate_missing: true,
            ..Default::default()
        };
        let prof = build_profile(&model, &rules, &trace, &rt, &cfg);
        let r2 = rt.find("R2", Some(0)).unwrap().0 as usize;
        // P3 (Exact 50 % of R2) runs through slice 4, so the estimate must
        // recover at least its exact demand there, capped by capacity.
        assert!(
            prof.consumption[r2][4] >= 50.0 - 1e-9,
            "estimated consumption {}",
            prof.consumption[r2][4]
        );
        assert!(prof.consumption[r2][4] <= 100.0);
        assert!(prof.estimated[r2][4]);
        // Slice 5 has no phase demanding R2: stays zero and unflagged.
        assert_eq!(prof.consumption[r2][5], 0.0);
        assert!(!prof.estimated[r2][5]);
        assert!(prof.estimated_slices() >= 1);
        // Covered slices are untouched: the paper's golden numbers hold.
        assert!((prof.consumption[r2][2] - 15.0).abs() < 1e-6);
        assert!((prof.consumption[r2][3] - 65.0).abs() < 1e-6);
        // Conservation still holds on the estimated slice.
        let attributed: f64 = prof
            .usages
            .iter()
            .filter(|u| u.resource.0 as usize == r2)
            .map(|u| u.usage_at(4))
            .sum();
        let total = attributed + prof.unattributed[r2][4];
        assert!((total - prof.consumption[r2][4]).abs() < 1e-6);
    }

    #[test]
    fn estimate_missing_is_identity_on_full_coverage() {
        let (model, rules, trace, rt) = figure2();
        let base = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let est = build_profile(
            &model,
            &rules,
            &trace,
            &rt,
            &ProfileConfig {
                estimate_missing: true,
                ..Default::default()
            },
        );
        assert_eq!(base.consumption, est.consumption);
        assert_eq!(est.estimated_slices(), 0);
    }
}
