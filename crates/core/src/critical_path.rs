//! Critical-path analysis on top of the replay model.
//!
//! The paper's related work treats critical-path analysis as a separate,
//! workload-level technique; Grade10's replay simulator already contains
//! everything needed to derive it. The critical path is the chain of leaf
//! phases whose durations determine the replayed makespan — shortening any
//! phase *off* the path cannot speed the job up at all, so the per-type
//! breakdown here tells an engineer where optimization effort can possibly
//! pay before running any what-if.

use std::collections::BTreeMap;

use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::replay::{replay_original, ReplayConfig, ReplayResult};
use crate::supervise::PartialCharacterization;
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::timeslice::Nanos;

/// One hop of the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalHop {
    /// The leaf phase instance on the path.
    pub instance: InstanceId,
    /// Its replayed start.
    pub start: Nanos,
    /// Its replayed end.
    pub end: Nanos,
}

/// The critical path and its aggregate view.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Leaf instances on the path, in execution order.
    pub hops: Vec<CriticalHop>,
    /// Replayed makespan (equals the last hop's end).
    pub makespan: Nanos,
    /// Time on the path per leaf phase type, ns.
    pub time_by_type: BTreeMap<PhaseTypeId, Nanos>,
}

impl CriticalPath {
    /// Fraction of the makespan spent in `ty` on the critical path.
    pub fn fraction_of(&self, ty: PhaseTypeId) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        *self.time_by_type.get(&ty).unwrap_or(&0) as f64 / self.makespan as f64
    }

    /// Human-readable per-type rows, largest first.
    pub fn rows(&self, model: &ExecutionModel) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .time_by_type
            .iter()
            .map(|(&ty, &ns)| (model.type_path(ty), ns as f64 / 1e9))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

/// Derives the critical path of the replayed trace.
///
/// Reconstruction is greedy-backward over the replay schedule: starting
/// from a leaf that finishes at the makespan, repeatedly step to a
/// predecessor-candidate leaf that finishes exactly when the current hop
/// could begin — either a model/sequential predecessor or, under
/// concurrency limits, the previous occupant of the hop's slot. No leaf is
/// stepped to twice, so the walk ends after at most one hop per leaf even
/// when zero-duration leaves end at the instant they start.
pub fn critical_path(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    cfg: &ReplayConfig,
) -> CriticalPath {
    let result = replay_original(model, trace, cfg);
    critical_path_of(model, trace, &result)
}

impl PartialCharacterization {
    /// The critical path of the replay the pipeline's replay stage ran,
    /// without replaying again; `None` when that stage fell back.
    pub fn critical_path(&self, model: &ExecutionModel) -> Option<CriticalPath> {
        let schedule = self.schedule.as_ref()?;
        let result = ReplayResult::scheduled(self.characterization.base_makespan, schedule);
        Some(critical_path_of(model, &self.trace, &result))
    }
}

/// Same, over an existing replay result.
pub fn critical_path_of(
    _model: &ExecutionModel,
    trace: &ExecutionTrace,
    result: &ReplayResult,
) -> CriticalPath {
    let end = |id: InstanceId| result.end[id.0 as usize];
    // Leaves by (replayed end, id), so the leaves ending at one instant are
    // one run, in id order.
    let mut by_end: Vec<InstanceId> = trace.leaves().map(|i| i.id).collect();
    by_end.sort_unstable_by_key(|&id| (end(id), id));
    let ending_at = |t: Nanos| {
        let from = by_end.partition_point(|&id| end(id) < t);
        let to = by_end.partition_point(|&id| end(id) <= t);
        &by_end[from..to]
    };
    let makespan = result.makespan;

    // Terminal hop: a leaf ending at the makespan.
    let mut current = ending_at(makespan).first().copied();
    let mut hops: Vec<CriticalHop> = Vec::new();
    let mut visited = vec![false; trace.instances().len()];

    while let Some(id) = current {
        visited[id.0 as usize] = true;
        let (s, e) = (result.start[id.0 as usize], end(id));
        hops.push(CriticalHop {
            instance: id,
            start: s,
            end: e,
        });
        if s == 0 {
            break;
        }
        // A predecessor leaf that ends exactly at (or after — slot waits —
        // no: at) this hop's start and is plausibly ordered before it:
        // any leaf with end == start of the current hop. If several
        // qualify, prefer one on the same machine (slot or local
        // dependency), then any; the lowest id within each.
        let machine = trace.instance(id).machine;
        let mut cands = ending_at(s)
            .iter()
            .copied()
            .filter(|&c| !visited[c.0 as usize]);
        current = cands
            .clone()
            .find(|&c| trace.instance(c).machine == machine)
            .or_else(|| cands.next());
    }
    hops.reverse();

    let mut time_by_type = BTreeMap::new();
    for h in &hops {
        let ty = trace.instance(h.instance).type_id;
        *time_by_type.entry(ty).or_insert(0) += h.end - h.start;
    }
    CriticalPath {
        hops,
        makespan,
        time_by_type,
    }
}

/// The walk `critical_path_of` replaced, which rescanned every leaf and
/// sorted a candidate list per hop; kept verbatim as the oracle of
/// `indexed_walk_matches_the_scan_on_the_pinned_giraph_trace`.
#[cfg(test)]
fn critical_hops_by_scan(trace: &ExecutionTrace, result: &ReplayResult) -> Vec<CriticalHop> {
    let leaves: Vec<InstanceId> = trace.leaves().map(|i| i.id).collect();
    let makespan = result.makespan;
    let mut current = leaves
        .iter()
        .copied()
        .find(|&id| result.end[id.0 as usize] == makespan);
    let mut hops: Vec<CriticalHop> = Vec::new();
    let mut visited = vec![false; trace.instances().len()];
    while let Some(id) = current {
        visited[id.0 as usize] = true;
        let (s, e) = (result.start[id.0 as usize], result.end[id.0 as usize]);
        hops.push(CriticalHop {
            instance: id,
            start: s,
            end: e,
        });
        if s == 0 {
            break;
        }
        let inst = trace.instance(id);
        let mut cands: Vec<InstanceId> = leaves
            .iter()
            .copied()
            .filter(|&c| !visited[c.0 as usize] && result.end[c.0 as usize] == s)
            .collect();
        cands.sort_by_key(|&c| {
            let ci = trace.instance(c);
            (ci.machine != inst.machine, c.0)
        });
        current = cands.first().copied();
    }
    hops.reverse();
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::model::persist::ModelBundle;
    use crate::parse::build_execution_trace;
    use crate::trace::binary::decode_trace;
    use crate::trace::execution::TraceBuilder;
    use crate::trace::timeslice::MILLIS;

    /// The Giraph-like stream `tests/trace_build_pin.rs` pins, under the
    /// model `grade10 export-model --engine giraph` writes.
    #[test]
    fn indexed_walk_matches_the_scan_on_the_pinned_giraph_trace() {
        let bundle = include_bytes!("../../../tests/goldens/export_model_giraph.json");
        let model = ModelBundle::load(&bundle[..]).unwrap().execution;
        let stream = include_bytes!("../../../tests/goldens/trace_build_giraph.g10t");
        let events = decode_trace(stream).unwrap().events;
        let trace = build_execution_trace(&model, &events).unwrap();
        let result = replay_original(&model, &trace, &ReplayConfig::default());
        let cp = critical_path_of(&model, &trace, &result);
        assert!(cp.hops.len() > 10, "{} hops", cp.hops.len());
        assert_eq!(cp.hops, critical_hops_by_scan(&trace, &result));
    }

    /// The critical path of the pipeline's own replay is the one a second
    /// replay of its trace gives, on the same pinned Giraph stream.
    #[test]
    fn the_pipelines_critical_path_is_its_traces() {
        let bundle = include_bytes!("../../../tests/goldens/export_model_giraph.json");
        let model = ModelBundle::load(&bundle[..]).unwrap().execution;
        let stream = include_bytes!("../../../tests/goldens/trace_build_giraph.g10t");
        let events = crate::parse::EventStream::from_events(&decode_trace(stream).unwrap().events);
        let rules = crate::model::RuleSet::new();
        let cfg = Default::default();
        let p = crate::pipeline::characterize_stream(false, &model, &rules, &events, &[], &cfg)
            .unwrap();
        let ours = p.critical_path(&model).expect("the replay stage ran");
        let fresh = critical_path(&model, &p.trace, &ReplayConfig::default());
        assert!(ours.hops.len() > 10, "{} hops", ours.hops.len());
        assert_eq!(ours.hops, fresh.hops);
        assert_eq!(ours.makespan, fresh.makespan);
        assert_eq!(ours.time_by_type, fresh.time_by_type);
    }

    /// job -> step(seq) -> task(par): two steps, two tasks each.
    fn setup(durs: [[u64; 2]; 2]) -> (ExecutionModel, ExecutionTrace) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let step = b.child(r, "step", Repeat::Sequential);
        let _ = b.child(step, "task", Repeat::Parallel);
        let model = b.build();
        let trace = build_trace(&model, durs);
        (model, trace)
    }

    fn build_trace(model: &ExecutionModel, durs: [[u64; 2]; 2]) -> ExecutionTrace {
        let mut tb = TraceBuilder::new(model);
        let s0 = durs[0].iter().max().unwrap();
        let s1 = durs[1].iter().max().unwrap();
        tb.add_phase(&[("job", 0)], 0, (s0 + s1) * MILLIS, None, None)
            .unwrap();
        let mut t0 = 0u64;
        for (si, d) in durs.iter().enumerate() {
            let len = *d.iter().max().unwrap();
            tb.add_phase(
                &[("job", 0), ("step", si as u32)],
                t0 * MILLIS,
                (t0 + len) * MILLIS,
                None,
                None,
            )
            .unwrap();
            for (k, &dk) in d.iter().enumerate() {
                tb.add_phase(
                    &[("job", 0), ("step", si as u32), ("task", k as u32)],
                    t0 * MILLIS,
                    (t0 + dk) * MILLIS,
                    Some(0),
                    Some(k as u16),
                )
                .unwrap();
            }
            t0 += len;
        }
        tb.build().unwrap()
    }

    #[test]
    fn path_picks_the_longest_task_of_each_step() {
        let (model, trace) = setup([[20, 50], [70, 10]]);
        let cp = critical_path(&model, &trace, &ReplayConfig::default());
        assert_eq!(cp.makespan, 120 * MILLIS);
        assert_eq!(cp.hops.len(), 2);
        // Hops are the 50 ms task of step 0 and the 70 ms task of step 1.
        let durs: Vec<u64> = cp.hops.iter().map(|h| (h.end - h.start) / MILLIS).collect();
        assert_eq!(durs, vec![50, 70]);
        // All path time is in `task` phases.
        let task = model.find_by_name("task").unwrap();
        assert_eq!(cp.time_by_type[&task], 120 * MILLIS);
        assert!((cp.fraction_of(task) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hops_are_ordered_and_contiguous() {
        let (model, trace) = setup([[30, 40], [25, 35]]);
        let cp = critical_path(&model, &trace, &ReplayConfig::default());
        for w in cp.hops.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        assert_eq!(cp.hops.last().unwrap().end, cp.makespan);
        assert_eq!(cp.hops.first().unwrap().start, 0);
    }

    #[test]
    fn rows_sorted_by_time() {
        let (model, trace) = setup([[20, 50], [70, 10]]);
        let cp = critical_path(&model, &trace, &ReplayConfig::default());
        let rows = cp.rows(&model);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "job.step.task");
        assert!((rows[0].1 - 0.12).abs() < 1e-9);
    }

    #[test]
    fn off_path_phases_do_not_contribute() {
        // The 20 ms task of step 0 is off the path; shrinking it must not
        // change the critical-path composition.
        let (model, trace) = setup([[20, 50], [70, 10]]);
        let cp = critical_path(&model, &trace, &ReplayConfig::default());
        let on_path: Vec<u32> = cp.hops.iter().map(|h| h.instance.0).collect();
        let task_ty = model.find_by_name("task").unwrap();
        let short = trace
            .instances_of_type(task_ty)
            .find(|i| i.duration() == 20 * MILLIS)
            .unwrap();
        assert!(!on_path.contains(&short.id.0));
    }

    #[test]
    fn zero_duration_leaves_do_not_trap_the_walk() {
        // z0 and z1 start and end at the instant `a` ends: each is a
        // predecessor candidate of the other, and both precede `a` in id
        // order, so the walk used to bounce between them forever.
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let [z0, z1, a, d] = ["z0", "z1", "a", "d"].map(|name| b.child(r, name, Repeat::Once));
        for after_a in [z0, z1, d] {
            b.edge(a, after_a);
        }
        let model = b.build();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 20 * MILLIS, None, None)
            .unwrap();
        for (name, start, end) in [("z0", 10, 10), ("z1", 10, 10), ("a", 0, 10), ("d", 10, 20)] {
            tb.add_phase(
                &[("job", 0), (name, 0)],
                start * MILLIS,
                end * MILLIS,
                Some(0),
                Some(0),
            )
            .unwrap();
        }
        let trace = tb.build().unwrap();
        let cp = critical_path(&model, &trace, &ReplayConfig::default());
        let at = |i: u32, start: u64, end: u64| CriticalHop {
            instance: InstanceId(i),
            start: start * MILLIS,
            end: end * MILLIS,
        };
        assert_eq!(
            cp.hops,
            vec![at(3, 0, 10), at(2, 10, 10), at(1, 10, 10), at(4, 10, 20)]
        );
        assert_eq!(cp.makespan, 20 * MILLIS);
    }
}
