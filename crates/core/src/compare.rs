//! Comparing two executions of the same workload.
//!
//! The debugging loop the paper's §IV-D walks through ends with a fix —
//! and validating a fix means running again and asking *what changed,
//! where*. This module aligns two execution traces of the same execution
//! model by phase type and reports per-type duration totals, instance
//! counts, and blocked time, plus the end-to-end speedup.

use std::collections::BTreeMap;

use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::report::table::{pct, Table};
use crate::trace::execution::ExecutionTrace;
use crate::trace::timeslice::Nanos;

/// Per-phase-type change between two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeDelta {
    /// The phase type being compared.
    pub phase_type: PhaseTypeId,
    /// Total leaf duration in run A, ns.
    pub total_a: Nanos,
    /// Total leaf duration in run B, ns.
    pub total_b: Nanos,
    /// Instances in each run.
    pub count_a: usize,
    /// Instances in run B.
    pub count_b: usize,
    /// Total blocked time in each run, ns.
    pub blocked_a: Nanos,
    /// Total blocked time in run B, ns.
    pub blocked_b: Nanos,
}

impl TypeDelta {
    /// Relative change of total duration: `(b − a) / a` (0 when A is
    /// empty).
    pub fn relative_change(&self) -> f64 {
        if self.total_a == 0 {
            return 0.0;
        }
        (self.total_b as f64 - self.total_a as f64) / self.total_a as f64
    }
}

/// The comparison of two runs.
#[derive(Clone, Debug)]
pub struct RunComparison {
    /// Wall-clock extent of run A, ns.
    pub makespan_a: Nanos,
    /// Wall-clock extent of run B, ns.
    pub makespan_b: Nanos,
    /// Per-leaf-type deltas, largest absolute change first.
    pub deltas: Vec<TypeDelta>,
}

impl RunComparison {
    /// `makespan_a / makespan_b` — above 1.0 means B is faster.
    pub fn speedup(&self) -> f64 {
        if self.makespan_b == 0 {
            return 1.0;
        }
        self.makespan_a as f64 / self.makespan_b as f64
    }

    /// Renders the comparison as an aligned table.
    pub fn table(&self, model: &ExecutionModel) -> Table {
        let mut t = Table::new(&[
            "phase type",
            "total A (s)",
            "total B (s)",
            "change",
            "blocked A (s)",
            "blocked B (s)",
        ]);
        for d in &self.deltas {
            t.row(&[
                model.type_path(d.phase_type),
                format!("{:.2}", d.total_a as f64 / 1e9),
                format!("{:.2}", d.total_b as f64 / 1e9),
                pct(d.relative_change()),
                format!("{:.2}", d.blocked_a as f64 / 1e9),
                format!("{:.2}", d.blocked_b as f64 / 1e9),
            ]);
        }
        t
    }
}

/// Compares two traces of the same execution model (run A = baseline,
/// run B = candidate).
pub fn compare_traces(
    _model: &ExecutionModel,
    a: &ExecutionTrace,
    b: &ExecutionTrace,
) -> RunComparison {
    let mut acc: BTreeMap<PhaseTypeId, TypeDelta> = BTreeMap::new();
    let mut collect = |trace: &ExecutionTrace, is_a: bool| {
        for inst in trace.leaves() {
            let e = acc.entry(inst.type_id).or_insert(TypeDelta {
                phase_type: inst.type_id,
                total_a: 0,
                total_b: 0,
                count_a: 0,
                count_b: 0,
                blocked_a: 0,
                blocked_b: 0,
            });
            let blocked: Nanos = trace.blocking_of(inst.id).map(|ev| ev.end - ev.start).sum();
            if is_a {
                e.total_a += inst.duration();
                e.count_a += 1;
                e.blocked_a += blocked;
            } else {
                e.total_b += inst.duration();
                e.count_b += 1;
                e.blocked_b += blocked;
            }
        }
    };
    collect(a, true);
    collect(b, false);

    let mut deltas: Vec<TypeDelta> = acc.into_values().collect();
    deltas.sort_by(|x, y| {
        let dx = (x.total_b as i128 - x.total_a as i128).abs();
        let dy = (y.total_b as i128 - y.total_a as i128).abs();
        dy.cmp(&dx)
    });
    RunComparison {
        makespan_a: a.makespan_end() - a.origin(),
        makespan_b: b.makespan_end() - b.origin(),
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::timeslice::MILLIS;

    fn model() -> ExecutionModel {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let _x = b.child(r, "x", Repeat::Parallel);
        let _y = b.child(r, "y", Repeat::Parallel);
        b.build()
    }

    fn trace(model: &ExecutionModel, x_ms: u64, y_ms: u64, gc_ms: u64) -> ExecutionTrace {
        let total = x_ms.max(y_ms);
        let mut tb = TraceBuilder::new(model);
        tb.add_phase(&[("job", 0)], 0, total * MILLIS, None, None)
            .unwrap();
        let x = tb
            .add_phase(&[("job", 0), ("x", 0)], 0, x_ms * MILLIS, Some(0), Some(0))
            .unwrap();
        if gc_ms > 0 {
            tb.add_blocking(x, "gc", 0, gc_ms * MILLIS);
        }
        tb.add_phase(&[("job", 0), ("y", 0)], 0, y_ms * MILLIS, Some(0), Some(1))
            .unwrap();
        tb.build().unwrap()
    }

    #[test]
    fn detects_per_type_changes_and_speedup() {
        let m = model();
        let a = trace(&m, 100, 40, 20);
        let b = trace(&m, 60, 40, 0); // x got faster and lost its GC
        let cmp = compare_traces(&m, &a, &b);
        assert!((cmp.speedup() - 100.0 / 60.0).abs() < 1e-9);
        // Largest change first: x shrank by 40 ms, y unchanged.
        let x_ty = m.find_by_name("x").unwrap();
        assert_eq!(cmp.deltas[0].phase_type, x_ty);
        assert!((cmp.deltas[0].relative_change() + 0.4).abs() < 1e-9);
        assert_eq!(cmp.deltas[0].blocked_a, 20 * MILLIS);
        assert_eq!(cmp.deltas[0].blocked_b, 0);
        let y = &cmp.deltas[1];
        assert_eq!(y.relative_change(), 0.0);
    }

    #[test]
    fn table_renders_all_types() {
        let m = model();
        let a = trace(&m, 100, 40, 0);
        let b = trace(&m, 90, 45, 0);
        let out = compare_traces(&m, &a, &b).table(&m).render();
        assert!(out.contains("job.x"));
        assert!(out.contains("job.y"));
        assert!(out.contains("-10.0%"));
    }

    #[test]
    fn asymmetric_instance_counts_supported() {
        // Run B has an extra y instance (e.g. one more retry).
        let m = model();
        let a = trace(&m, 50, 50, 0);
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 50 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("y", 0)], 0, 50 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_phase(&[("job", 0), ("y", 1)], 0, 30 * MILLIS, Some(0), Some(1))
            .unwrap();
        let b = tb.build().unwrap();
        let cmp = compare_traces(&m, &a, &b);
        let y_ty = m.find_by_name("y").unwrap();
        let y = cmp.deltas.iter().find(|d| d.phase_type == y_ty).unwrap();
        assert_eq!(y.count_a, 1);
        assert_eq!(y.count_b, 2);
        let x_ty = m.find_by_name("x").unwrap();
        let x = cmp.deltas.iter().find(|d| d.phase_type == x_ty).unwrap();
        assert_eq!(x.count_b, 0);
    }
}
