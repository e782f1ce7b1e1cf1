//! Attribution-rule inference — the paper's §V "ongoing work", implemented.
//!
//! Grade10 normally relies on an expert to write attribution rules (a week
//! of effort per framework, per the paper). This module learns them from
//! one *calibration run* monitored at fine granularity: with timeslice-level
//! measurements, the consumption of each resource kind is (approximately) a
//! linear function of how many instances of each phase type are active, and
//! the per-instance demands are the coefficients.
//!
//! For every resource kind we solve a non-negative least-squares fit
//!
//! ```text
//!   usage[machine, slice] ≈ Σ_T demand_T × active_T[machine, slice]
//! ```
//!
//! over all machines and slices, then translate the coefficients into
//! rules: a kind whose fit explains the data well yields `Exact` rules
//! (demand is a stable per-instance constant — e.g. one core per compute
//! thread); a kind with a poor fit yields `Variable` rules weighted by the
//! coefficients (demand exists but fluctuates — e.g. network usage); and
//! negligible coefficients yield `None`.

use std::collections::BTreeMap;

use crate::attribution::demand::active_fractions;
use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::model::rules::{AttributionRule, RuleSet};
use crate::trace::execution::ExecutionTrace;
use crate::trace::resource::{ResourceIdx, ResourceTrace};
use crate::trace::timeslice::{Nanos, TimesliceGrid, MILLIS};

/// Inference settings.
#[derive(Clone, Debug)]
pub struct InferenceConfig {
    /// Fitting grid slice; use the calibration run's monitoring interval.
    pub slice: Nanos,
    /// Coefficients below this fraction of capacity become `None` rules.
    pub min_fraction: f64,
    /// R² at or above which a resource kind's coefficients become `Exact`
    /// rules; below, `Variable` rules weighted by coefficient.
    pub exact_r2: f64,
    /// Blocking resources that disturb a whole machine: slices they
    /// overlap are excluded from the fit (a stop-the-world collector burns
    /// CPU while every modeled phase reads as inactive, which would wreck
    /// the regression without teaching it anything).
    pub exclude_disturbed_by: Vec<String>,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            slice: 50 * MILLIS,
            min_fraction: 0.01,
            exact_r2: 0.8,
            exclude_disturbed_by: vec!["gc".to_string()],
        }
    }
}

/// One fitted coefficient.
#[derive(Clone, Debug)]
pub struct InferredDemand {
    /// The phase type the coefficient belongs to.
    pub phase_type: PhaseTypeId,
    /// The resource kind the entry concerns.
    pub resource_kind: String,
    /// Estimated absolute demand per active instance.
    pub demand: f64,
    /// Demand as a fraction of the resource's capacity.
    pub fraction: f64,
}

/// Fit quality for one resource kind.
#[derive(Clone, Debug)]
pub struct KindFit {
    /// The resource kind the entry concerns.
    pub resource_kind: String,
    /// Coefficient of determination of the linear fit.
    pub r2: f64,
    /// Number of (machine, slice) observations used.
    pub observations: usize,
}

/// The inference output: coefficients plus per-kind fit quality.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Fitted per-(phase type, resource kind) coefficients.
    pub demands: Vec<InferredDemand>,
    /// Fit quality per resource kind.
    pub fits: Vec<KindFit>,
    config: InferenceConfig,
}

impl InferenceResult {
    /// Converts the fit into a rule set (see the module docs for the
    /// Exact/Variable/None policy).
    pub fn to_rule_set(&self) -> RuleSet {
        let mut rules = RuleSet::new().with_default(AttributionRule::None);
        for d in &self.demands {
            let Some(fit) = self
                .fits
                .iter()
                .find(|f| f.resource_kind == d.resource_kind)
            else {
                unreachable!("fits are built per resource kind from these demands");
            };
            if d.fraction < self.config.min_fraction {
                continue; // implicit None
            }
            let rule = if fit.r2 >= self.config.exact_r2 {
                AttributionRule::Exact(d.fraction.min(1.0))
            } else {
                AttributionRule::Variable(d.fraction.max(1e-6))
            };
            rules.set(d.phase_type, d.resource_kind.clone(), rule);
        }
        rules
    }

    /// The fitted demand for (phase type, kind), if any.
    pub fn demand_of(&self, phase_type: PhaseTypeId, kind: &str) -> Option<f64> {
        self.demands
            .iter()
            .find(|d| d.phase_type == phase_type && d.resource_kind == kind)
            .map(|d| d.demand)
    }
}

/// Infers attribution rules from a calibration run monitored at (or near)
/// timeslice granularity.
pub fn infer_rules(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &InferenceConfig,
) -> InferenceResult {
    let end = trace.makespan_end().max(resources.end()).max(cfg.slice);
    let grid = TimesliceGrid::covering(0, end, cfg.slice);
    let ns = grid.num_slices();

    // Leaf phase types present in the trace, in stable order.
    let mut leaf_types: Vec<PhaseTypeId> = Vec::new();
    for inst in trace.leaves() {
        if !leaf_types.contains(&inst.type_id) {
            leaf_types.push(inst.type_id);
        }
    }
    leaf_types.sort();

    // Active-count features per (machine, type, slice).
    let mut machines: Vec<u16> = trace
        .leaves()
        .filter_map(|i| i.machine)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    machines.sort_unstable();
    let tpos: BTreeMap<PhaseTypeId, usize> = leaf_types
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i))
        .collect();
    let mpos: BTreeMap<u16, usize> = machines.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    let nt = leaf_types.len();
    let mut active = vec![vec![0.0f64; ns * nt]; machines.len()];
    for inst in trace.leaves() {
        let (m, t) = match (
            inst.machine.and_then(|m| mpos.get(&m)),
            tpos.get(&inst.type_id),
        ) {
            (Some(&m), Some(&t)) => (m, t),
            _ => continue,
        };
        let (first, af) = active_fractions(trace, inst.id, &grid);
        for (k, &a) in af.iter().enumerate() {
            active[m][(first + k) * nt + t] += a;
        }
    }

    // Machine-wide disturbed slices (e.g. stop-the-world GC), excluded
    // from every fit.
    let mut disturbed = vec![vec![false; ns]; machines.len()];
    for ev in trace.blocking() {
        if !cfg.exclude_disturbed_by.contains(&ev.resource) {
            continue;
        }
        let inst = trace.instance(ev.instance);
        if let Some(&m) = inst.machine.and_then(|m| mpos.get(&m)) {
            let (bf, bl) = grid.slice_range(ev.start, ev.end);
            for s in bf..bl {
                disturbed[m][s] = true;
            }
        }
    }

    // Group resource instances by kind and fit each kind.
    let mut kinds: Vec<String> = resources
        .instances()
        .iter()
        .map(|r| r.kind.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    kinds.sort();

    let mut demands = Vec::new();
    let mut fits = Vec::new();
    for kind in kinds {
        // Observations: usage per slice per instance of this kind, from
        // the measurement series snapped onto the grid.
        let mut xtx = vec![vec![0.0f64; nt]; nt];
        let mut xty = vec![0.0f64; nt];
        let mut ys = Vec::new();
        let mut rows: Vec<(usize, Vec<f64>)> = Vec::new(); // (machine, x) per obs
        let mut capacity = 1.0f64;
        for (ri, res) in resources.instances().iter().enumerate() {
            if res.kind != kind {
                continue;
            }
            capacity = res.capacity;
            let m = match res.machine.and_then(|m| mpos.get(&m)) {
                Some(&m) => m,
                None => continue,
            };
            for meas in resources.measurements(ResourceIdx(ri as u32)) {
                let ws = grid.snap(meas.start);
                let we = grid.snap(meas.end).max(ws + 1).min(ns);
                // Use only single-slice (fine) measurements for fitting;
                // coarse windows would blur the features.
                if we - ws != 1 {
                    continue;
                }
                if disturbed[m][ws] {
                    continue;
                }
                let x: Vec<f64> = (0..nt).map(|t| active[m][ws * nt + t]).collect();
                for i in 0..nt {
                    for j in 0..nt {
                        xtx[i][j] += x[i] * x[j];
                    }
                    xty[i] += x[i] * meas.avg;
                }
                ys.push(meas.avg);
                rows.push((m, x));
            }
        }
        if ys.is_empty() {
            continue;
        }
        let coeffs = nnls(&mut xtx, &mut xty, nt);

        // Fit quality.
        let mean_y: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
        let (mut ss_res, mut ss_tot) = (0.0f64, 0.0f64);
        for ((_, x), &y) in rows.iter().zip(&ys) {
            let pred: f64 = x.iter().zip(&coeffs).map(|(a, c)| a * c).sum();
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - mean_y) * (y - mean_y);
        }
        let r2 = if ss_tot <= 1e-12 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        fits.push(KindFit {
            resource_kind: kind.clone(),
            r2,
            observations: ys.len(),
        });
        for (t, &c) in coeffs.iter().enumerate() {
            if c > 1e-12 {
                demands.push(InferredDemand {
                    phase_type: leaf_types[t],
                    resource_kind: kind.clone(),
                    demand: c,
                    fraction: c / capacity,
                });
            }
        }
        let _ = model;
    }
    InferenceResult {
        demands,
        fits,
        config: cfg.clone(),
    }
}

/// Non-negative least squares on precomputed normal equations, by the
/// active-set method: solve, zero out the most negative coefficient,
/// repeat. `xtx`/`xty` are consumed. A small ridge keeps singular systems
/// (phase types that always co-occur) solvable.
fn nnls(xtx: &mut [Vec<f64>], xty: &mut [f64], n: usize) -> Vec<f64> {
    let ridge = 1e-9 * (0..n).map(|i| xtx[i][i]).fold(0.0f64, f64::max).max(1e-12);
    for (i, row) in xtx.iter_mut().enumerate() {
        row[i] += ridge;
    }
    let mut excluded = vec![false; n];
    loop {
        let coeffs = solve_gaussian(xtx, xty, &excluded, n);
        let worst = (0..n)
            .filter(|&i| !excluded[i] && coeffs[i] < -1e-9)
            .min_by(|&a, &b| coeffs[a].total_cmp(&coeffs[b]));
        match worst {
            Some(i) => excluded[i] = true,
            None => {
                return coeffs.into_iter().map(|c| c.max(0.0)).collect();
            }
        }
    }
}

/// Solves `xtx · c = xty` restricted to non-excluded variables, Gaussian
/// elimination with partial pivoting. Excluded variables get 0.
fn solve_gaussian(xtx: &[Vec<f64>], xty: &[f64], excluded: &[bool], n: usize) -> Vec<f64> {
    let vars: Vec<usize> = (0..n).filter(|&i| !excluded[i]).collect();
    let k = vars.len();
    if k == 0 {
        return vec![0.0; n];
    }
    let mut a: Vec<Vec<f64>> = vars
        .iter()
        .map(|&i| {
            let mut row: Vec<f64> = vars.iter().map(|&j| xtx[i][j]).collect();
            row.push(xty[i]);
            row
        })
        .collect();
    for col in 0..k {
        // Partial pivot.
        let Some(pivot) = (col..k).max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
        else {
            unreachable!("col < k, so the pivot range is never empty");
        };
        a.swap(col, pivot);
        let p = a[col][col];
        if p.abs() < 1e-15 {
            continue; // singular direction; leave as zero
        }
        for row in 0..k {
            if row != col {
                let f = a[row][col] / p;
                for c in col..=k {
                    a[row][c] -= f * a[col][c];
                }
            }
        }
    }
    let mut out = vec![0.0; n];
    for (idx, &v) in vars.iter().enumerate() {
        let p = a[idx][idx];
        if p.abs() >= 1e-15 {
            out[v] = a[idx][k] / p;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::ResourceInstance;

    /// Two phase types with known demands (1 core and 2 cores per
    /// instance), staggered so the fit can separate them, on a 4-core
    /// machine monitored at slice granularity.
    fn calibration() -> (ExecutionModel, ExecutionTrace, ResourceTrace) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let _a = b.child(r, "a", Repeat::Parallel);
        let _c = b.child(r, "b", Repeat::Parallel);
        let model = b.build();
        let ms = MILLIS;
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 400 * ms, None, None)
            .unwrap();
        // a[0]: slices 0..4, a[1]: slices 2..6, b[0]: slices 4..8.
        tb.add_phase(&[("job", 0), ("a", 0)], 0, 200 * ms, Some(0), Some(0))
            .unwrap();
        tb.add_phase(
            &[("job", 0), ("a", 1)],
            100 * ms,
            300 * ms,
            Some(0),
            Some(1),
        )
        .unwrap();
        tb.add_phase(
            &[("job", 0), ("b", 0)],
            200 * ms,
            400 * ms,
            Some(0),
            Some(2),
        )
        .unwrap();
        let trace = tb.build().unwrap();
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        // usage = 1*active_a + 2*active_b per 50 ms slice:
        // slices: a-active 1,1,2,2,1,1,0,0; b-active 0,0,0,0,1,1,1,1.
        rt.add_series(cpu, 0, 50 * ms, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 2.0, 2.0]);
        (model, trace, rt)
    }

    #[test]
    fn recovers_exact_demands_from_clean_data() {
        let (model, trace, rt) = calibration();
        let result = infer_rules(&model, &trace, &rt, &InferenceConfig::default());
        let a = model.find_by_name("a").unwrap();
        let b = model.find_by_name("b").unwrap();
        let da = result.demand_of(a, "cpu").expect("demand for a");
        let db = result.demand_of(b, "cpu").expect("demand for b");
        assert!((da - 1.0).abs() < 0.05, "a: {da}");
        assert!((db - 2.0).abs() < 0.05, "b: {db}");
        let fit = &result.fits[0];
        assert!(fit.r2 > 0.99, "r2 {}", fit.r2);
        assert_eq!(fit.observations, 8);
    }

    #[test]
    fn clean_fit_yields_exact_rules() {
        let (model, trace, rt) = calibration();
        let result = infer_rules(&model, &trace, &rt, &InferenceConfig::default());
        let rules = result.to_rule_set();
        let a = model.find_by_name("a").unwrap();
        match rules.get(a, "cpu") {
            AttributionRule::Exact(p) => assert!((p - 0.25).abs() < 0.02, "p {p}"),
            other => panic!("expected Exact, got {other:?}"),
        }
    }

    #[test]
    fn noisy_fit_yields_variable_rules() {
        let (model, trace, _) = calibration();
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        // Usage uncorrelated with the phase structure.
        rt.add_series(
            cpu,
            0,
            50 * MILLIS,
            &[3.0, 0.2, 0.3, 3.5, 0.1, 3.9, 0.2, 3.1],
        );
        let result = infer_rules(&model, &trace, &rt, &InferenceConfig::default());
        assert!(result.fits[0].r2 < 0.8, "r2 {}", result.fits[0].r2);
        let rules = result.to_rule_set();
        let a = model.find_by_name("a").unwrap();
        assert!(
            !matches!(rules.get(a, "cpu"), AttributionRule::Exact(_)),
            "noisy data must not produce Exact rules"
        );
    }

    #[test]
    fn unused_resource_gets_no_rule() {
        let (model, trace, mut rt) = calibration();
        let disk = rt.add_resource(ResourceInstance {
            kind: "disk".into(),
            machine: Some(0),
            capacity: 100.0,
        });
        rt.add_series(disk, 0, 50 * MILLIS, &[0.0; 8]);
        let result = infer_rules(&model, &trace, &rt, &InferenceConfig::default());
        let rules = result.to_rule_set();
        let a = model.find_by_name("a").unwrap();
        assert!(rules.get(a, "disk").is_none());
    }

    #[test]
    fn coarse_measurements_are_ignored_for_fitting() {
        let (model, trace, mut rt) = calibration();
        // A second resource monitored coarsely (4-slice windows) only.
        let net = rt.add_resource(ResourceInstance {
            kind: "net".into(),
            machine: Some(0),
            capacity: 10.0,
        });
        rt.add_series(net, 0, 200 * MILLIS, &[5.0, 5.0]);
        let result = infer_rules(&model, &trace, &rt, &InferenceConfig::default());
        assert!(
            !result.fits.iter().any(|f| f.resource_kind == "net"),
            "coarse-only kinds must not be fitted"
        );
    }

    #[test]
    fn nnls_clamps_negative_directions() {
        // y = 2*x0 with a spurious second feature anti-correlated: plain
        // least squares would go negative on x1.
        let mut xtx = vec![vec![4.0, -2.0], vec![-2.0, 4.0]];
        let mut xty = vec![8.0, -4.0];
        let c = nnls(&mut xtx, &mut xty, 2);
        assert!(c[1] >= 0.0);
        assert!(c[0] > 0.0);
    }
}
