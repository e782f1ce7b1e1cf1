//! Trace-replay simulation (§III-F).
//!
//! Grade10 estimates the impact of a performance issue by replaying the
//! execution trace under a simplified model: every leaf phase has a fixed
//! duration, there are no delays between phases, precedence follows the
//! execution model, and scheduling respects concurrency and locality — a
//! leaf runs on its original machine, and the number of same-type leaves a
//! machine runs concurrently never exceeds what the original trace shows
//! (compute tasks cannot migrate between machines).
//!
//! Replaying the *original* durations yields the baseline makespan;
//! replaying *adjusted* durations (a bottleneck removed, imbalance evened
//! out) yields the optimistic makespan; their difference bounds the gain
//! from fixing the issue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::model::execution::{ExecutionModel, PhaseTypeId, Repeat};
use crate::trace::execution::{ExecutionTrace, InstanceId};
use crate::trace::timeslice::Nanos;

/// Replay options.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Enforce per-(machine, phase type) concurrency limits derived from
    /// the original trace. Disabling yields the pure critical path.
    pub enforce_concurrency: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            enforce_concurrency: true,
        }
    }
}

/// Result of one replay.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Simulated completion time of the whole trace (relative, ns).
    pub makespan: Nanos,
    /// Simulated start per instance.
    pub start: Vec<Nanos>,
    /// Simulated end per instance.
    pub end: Vec<Nanos>,
}

impl ReplayResult {
    /// The result of a run that fired node `v` at `fire_time[v]`.
    pub(crate) fn scheduled(makespan: Nanos, fire_time: &[Nanos]) -> ReplayResult {
        ReplayResult {
            makespan,
            start: fire_time.iter().step_by(2).copied().collect(),
            end: fire_time.iter().skip(1).step_by(2).copied().collect(),
        }
    }
}

/// `ReplayPlan::slot_of` value of a container (only leaves run).
const CONTAINER: u32 = u32::MAX;
/// `ReplayPlan::slot_of` value of a leaf no concurrency limit applies to.
const UNLIMITED: u32 = u32::MAX - 1;

/// Everything about a replay that does not depend on the durations: the
/// precedence DAG and the concurrency slots of one (model, trace,
/// [`ReplayConfig`]). Build it once, then [`run`](Self::run) it against any
/// number of duration vectors — one per what-if candidate.
///
/// Instance `i` owns node `2i` (its start) and node `2i + 1` (its end).
pub struct ReplayPlan {
    /// CSR successor lists: node `v` precedes `succ[succ_off[v]..succ_off[v + 1]]`.
    succ_off: Vec<usize>,
    succ: Vec<u32>,
    /// Unmet predecessors per node before anything has fired. A leaf's end
    /// is reached only through its duration, so it carries one in-degree no
    /// edge ever releases.
    indeg: Vec<u32>,
    /// Per instance: its (machine, type) slot group, `UNLIMITED`, or
    /// `CONTAINER`.
    slot_of: Vec<u32>,
    /// Per slot group: the most same-type leaves the machine ran at once in
    /// the original trace.
    slot_cap: Vec<u32>,
    /// Original start per instance; waiting leaves get slots in this order.
    orig_start: Vec<Nanos>,
    scratch: Scratch,
}

/// Per-run state, kept between runs for its allocations only: every field
/// is reset at the top of [`ReplayPlan::makespan`].
#[derive(Default)]
struct Scratch {
    indeg: Vec<u32>,
    /// Latest predecessor completion seen per node; once fired, its time.
    fire_time: Vec<Nanos>,
    /// `(time, node)`: the node becomes fireable at that time. The order is
    /// total, so ties between simultaneous events break by node number.
    events: BinaryHeap<Reverse<(Nanos, u32)>>,
    free: Vec<u32>,
    /// Waiting leaves per slot group as `(original start, instance)`.
    waiting: Vec<BinaryHeap<Reverse<(Nanos, u32)>>>,
}

impl ReplayPlan {
    /// Builds the precedence DAG (containment, sequential sibling chains,
    /// model edges) and derives the concurrency slots.
    pub fn new(model: &ExecutionModel, trace: &ExecutionTrace, cfg: &ReplayConfig) -> Self {
        let n = trace.instances().len();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let start_of = |id: InstanceId| 2 * id.0;
        let end_of = |id: InstanceId| 2 * id.0 + 1;

        for inst in trace.instances() {
            if let Some(p) = inst.parent {
                edges.push((start_of(p), start_of(inst.id)));
                edges.push((end_of(inst.id), end_of(p)));
            }
        }
        // Per container: its children grouped by type, each group in key
        // order (ties in trace order).
        let mut sorted: Vec<InstanceId> = Vec::new();
        let mut groups: Vec<(PhaseTypeId, std::ops::Range<usize>)> = Vec::new();
        for inst in trace.instances() {
            let children = trace.children_of(inst.id);
            if children.is_empty() {
                continue;
            }
            sorted.clear();
            sorted.extend_from_slice(children);
            sorted.sort_by_key(|&c| {
                let c = trace.instance(c);
                (c.type_id, c.key)
            });
            groups.clear();
            for (i, &c) in sorted.iter().enumerate() {
                let ty = trace.instance(c).type_id;
                match groups.last_mut() {
                    Some((last, range)) if *last == ty => range.end = i + 1,
                    _ => groups.push((ty, i..i + 1)),
                }
            }
            let group = |ty: PhaseTypeId| {
                groups
                    .iter()
                    .find(|(t, _)| *t == ty)
                    .map(|(_, range)| &sorted[range.clone()])
            };
            for (ty, range) in &groups {
                if model.repeat(*ty) == Repeat::Sequential {
                    for w in sorted[range.clone()].windows(2) {
                        edges.push((end_of(w[0]), start_of(w[1])));
                    }
                }
            }
            for &(from_ty, to_ty) in model.edges(inst.type_id) {
                if let (Some(fs), Some(ts)) = (group(from_ty), group(to_ty)) {
                    for &f in fs {
                        for &t in ts {
                            edges.push((end_of(f), start_of(t)));
                        }
                    }
                }
            }
        }

        let mut indeg = vec![0u32; 2 * n];
        let mut succ_off = vec![0usize; 2 * n + 1];
        for &(a, b) in &edges {
            succ_off[a as usize + 1] += 1;
            indeg[b as usize] += 1;
        }
        for v in 0..2 * n {
            succ_off[v + 1] += succ_off[v];
        }
        let mut cursor = succ_off.clone();
        let mut succ = vec![0u32; edges.len()];
        for &(a, b) in &edges {
            succ[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
        }

        let mut slot_of = vec![CONTAINER; n];
        let slot_cap = if cfg.enforce_concurrency {
            derive_slots(trace, &mut slot_of)
        } else {
            Vec::new()
        };
        for inst in trace.leaves() {
            let i = inst.id.0 as usize;
            indeg[2 * i + 1] += 1;
            if !cfg.enforce_concurrency {
                slot_of[i] = UNLIMITED;
            }
        }

        ReplayPlan {
            succ_off,
            succ,
            indeg,
            slot_of,
            scratch: Scratch {
                waiting: slot_cap.iter().map(|_| BinaryHeap::new()).collect(),
                ..Scratch::default()
            },
            slot_cap,
            orig_start: trace.instances().iter().map(|i| i.start).collect(),
        }
    }

    /// Replays with `durations[i]` as the duration of leaf instance `i`
    /// (containers derive their extent from their leaves; their entries are
    /// ignored).
    ///
    /// # Panics
    /// Panics unless `durations` has one entry per instance of the trace
    /// the plan was built from.
    pub fn run(&mut self, durations: &[Nanos]) -> ReplayResult {
        let makespan = self.makespan(durations);
        ReplayResult::scheduled(makespan, &self.scratch.fire_time)
    }

    /// The makespan of [`run`](Self::run), without materializing the
    /// per-instance schedule (it stays in `scratch.fire_time`).
    ///
    /// # Panics
    /// As [`run`](Self::run).
    pub fn makespan(&mut self, durations: &[Nanos]) -> Nanos {
        assert_eq!(
            durations.len(),
            self.slot_of.len(),
            "one duration per trace instance"
        );
        let Scratch {
            indeg,
            fire_time,
            events,
            free,
            waiting,
        } = &mut self.scratch;
        indeg.clone_from(&self.indeg);
        fire_time.clear();
        fire_time.resize(self.indeg.len(), 0);
        events.clear();
        free.clone_from(&self.slot_cap);
        waiting.iter_mut().for_each(BinaryHeap::clear);

        for (node, &d) in indeg.iter().enumerate() {
            if d == 0 {
                events.push(Reverse((0, node as u32)));
            }
        }

        let mut makespan = 0;
        let mut fired = 0usize;
        while let Some(Reverse((t, node))) = events.pop() {
            if fired.is_multiple_of(4096) {
                crate::supervise::checkpoint();
            }
            fired += 1;
            fire_time[node as usize] = t;
            makespan = makespan.max(t);

            let i = (node / 2) as usize;
            let is_start = node % 2 == 0;
            match self.slot_of[i] {
                CONTAINER => {}
                // The leaf's end follows its start by its duration...
                UNLIMITED => {
                    if is_start {
                        events.push(Reverse((t + durations[i], node + 1)));
                    }
                }
                // ...once a slot of its group is free: a starting leaf
                // queues for one, a finishing leaf hands its own back.
                slot => {
                    let slot = slot as usize;
                    if is_start {
                        waiting[slot].push(Reverse((self.orig_start[i], i as u32)));
                    } else {
                        free[slot] += 1;
                    }
                    while free[slot] > 0 {
                        let Some(Reverse((_, next))) = waiting[slot].pop() else {
                            break;
                        };
                        free[slot] -= 1;
                        events.push(Reverse((t + durations[next as usize], 2 * next + 1)));
                    }
                }
            }
            let node = node as usize;
            for &s in &self.succ[self.succ_off[node]..self.succ_off[node + 1]] {
                let s = s as usize;
                indeg[s] -= 1;
                fire_time[s] = fire_time[s].max(t);
                if indeg[s] == 0 {
                    events.push(Reverse((fire_time[s], s as u32)));
                }
            }
        }
        debug_assert_eq!(
            fired,
            fire_time.len(),
            "replay left nodes unfired (cyclic precedence?)"
        );
        makespan
    }
}

/// Assigns every leaf its (machine, type) slot group in `slot_of` and
/// returns each group's capacity: the most same-type leaves the machine ran
/// simultaneously in the original trace.
fn derive_slots(trace: &ExecutionTrace, slot_of: &mut [u32]) -> Vec<u32> {
    let mut index: HashMap<(Option<u16>, PhaseTypeId), u32> = HashMap::new();
    let mut events: Vec<Vec<(Nanos, i32)>> = Vec::new();
    for inst in trace.leaves() {
        let slot = *index
            .entry((inst.machine, inst.type_id))
            .or_insert_with(|| {
                events.push(Vec::new());
                events.len() as u32 - 1
            });
        slot_of[inst.id.0 as usize] = slot;
        events[slot as usize].push((inst.start, 1));
        events[slot as usize].push((inst.end, -1));
    }
    events
        .into_iter()
        .map(|mut evs| {
            // Ends sort before starts at the same instant.
            evs.sort_unstable();
            let (mut cur, mut max) = (0i32, 1i32);
            for (_, d) in evs {
                cur += d;
                max = max.max(cur);
            }
            max as u32
        })
        .collect()
}

/// The trace's own durations, one per instance: the vector a what-if
/// patches before handing it to [`ReplayPlan::run`].
pub fn original_durations(trace: &ExecutionTrace) -> Vec<Nanos> {
    trace.instances().iter().map(|i| i.duration()).collect()
}

/// The replay of a trace as it ran: the plan, the trace's own durations
/// and the makespan of replaying them. The pipeline's replay stage builds
/// one and hands it to issue detection, whose what-ifs patch `durations`
/// and re-run `plan`.
pub struct Baseline {
    pub(crate) plan: ReplayPlan,
    pub(crate) durations: Vec<Nanos>,
    /// Baseline makespan of the replayed trace, ns.
    pub makespan: Nanos,
}

impl Baseline {
    /// Builds the plan and replays the original durations once.
    pub fn new(model: &ExecutionModel, trace: &ExecutionTrace, cfg: &ReplayConfig) -> Self {
        let mut plan = ReplayPlan::new(model, trace, cfg);
        let durations = original_durations(trace);
        let makespan = plan.makespan(&durations);
        Baseline {
            plan,
            durations,
            makespan,
        }
    }

    /// Moves the baseline replay's node fire times out of the plan, before
    /// a what-if reruns it: the schedule [`ReplayResult::scheduled`] reads.
    pub(crate) fn take_schedule(&mut self) -> Vec<Nanos> {
        std::mem::take(&mut self.plan.scratch.fire_time)
    }
}

/// Replays the trace with per-leaf durations given by `duration_of`
/// (containers derive their extent from their leaves). To replay one trace
/// under several duration sets, build a [`ReplayPlan`] once instead.
pub fn replay(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    duration_of: &dyn Fn(InstanceId) -> Nanos,
    cfg: &ReplayConfig,
) -> ReplayResult {
    let durations: Vec<Nanos> = trace
        .instances()
        .iter()
        .map(|i| {
            if trace.is_leaf(i.id) {
                duration_of(i.id)
            } else {
                0
            }
        })
        .collect();
    ReplayPlan::new(model, trace, cfg).run(&durations)
}

/// Convenience: replay with the original durations.
pub fn replay_original(
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    cfg: &ReplayConfig,
) -> ReplayResult {
    ReplayPlan::new(model, trace, cfg).run(&original_durations(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, PhaseTypeId, Repeat};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::timeslice::MILLIS;

    /// job -> step(seq) -> task(par); load -> execute -> output at top.
    fn model() -> ExecutionModel {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let load = b.child(r, "load", Repeat::Once);
        let exec = b.child(r, "execute", Repeat::Once);
        b.edge(load, exec);
        let step = b.child(exec, "step", Repeat::Sequential);
        let _task = b.child(step, "task", Repeat::Parallel);
        b.build()
    }

    fn ty(m: &ExecutionModel, name: &str) -> PhaseTypeId {
        m.find_by_name(name).unwrap()
    }

    /// Two sequential steps, two parallel tasks each, on one machine.
    fn build_trace(m: &ExecutionModel, task_ms: [[u64; 2]; 2]) -> ExecutionTrace {
        let mut tb = TraceBuilder::new(m);
        let total = 10 + task_ms[0].iter().max().unwrap() + task_ms[1].iter().max().unwrap();
        tb.add_phase(&[("job", 0)], 0, total * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("load", 0)], 0, 10 * MILLIS, Some(0), Some(0))
            .unwrap();
        let mut t0 = 10u64;
        tb.add_phase(
            &[("job", 0), ("execute", 0)],
            t0 * MILLIS,
            total * MILLIS,
            None,
            None,
        )
        .unwrap();
        for (s, durs) in task_ms.iter().enumerate() {
            let step_len = *durs.iter().max().unwrap();
            tb.add_phase(
                &[("job", 0), ("execute", 0), ("step", s as u32)],
                t0 * MILLIS,
                (t0 + step_len) * MILLIS,
                None,
                None,
            )
            .unwrap();
            for (k, &d) in durs.iter().enumerate() {
                tb.add_phase(
                    &[
                        ("job", 0),
                        ("execute", 0),
                        ("step", s as u32),
                        ("task", k as u32),
                    ],
                    t0 * MILLIS,
                    (t0 + d) * MILLIS,
                    Some(0),
                    Some(k as u16),
                )
                .unwrap();
            }
            t0 += step_len;
        }
        tb.build().unwrap()
    }

    #[test]
    fn replay_original_reproduces_makespan() {
        let m = model();
        let trace = build_trace(&m, [[20, 30], [40, 10]]);
        let r = replay_original(&m, &trace, &ReplayConfig::default());
        // 10 (load) + 30 (step 0) + 40 (step 1) = 80 ms.
        assert_eq!(r.makespan, 80 * MILLIS);
    }

    #[test]
    fn balanced_durations_shrink_makespan() {
        let m = model();
        let trace = build_trace(&m, [[20, 30], [40, 10]]);
        let task_ty = ty(&m, "task");
        // Balance each step's tasks to their mean: 25/25 and 25/25.
        let r = replay(
            &m,
            &trace,
            &|id| {
                let inst = trace.instance(id);
                if inst.type_id == task_ty {
                    25 * MILLIS
                } else {
                    inst.duration()
                }
            },
            &ReplayConfig::default(),
        );
        assert_eq!(r.makespan, 60 * MILLIS);
    }

    #[test]
    fn sequential_steps_never_overlap() {
        let m = model();
        let trace = build_trace(&m, [[20, 30], [40, 10]]);
        let r = replay_original(&m, &trace, &ReplayConfig::default());
        let step_ty = ty(&m, "step");
        let steps: Vec<_> = trace.instances_of_type(step_ty).collect();
        let (s0, s1) = (steps[0].id.0 as usize, steps[1].id.0 as usize);
        assert!(r.end[s0] <= r.start[s1]);
    }

    #[test]
    fn model_edges_order_load_before_execute() {
        let m = model();
        let trace = build_trace(&m, [[20, 30], [40, 10]]);
        let r = replay_original(&m, &trace, &ReplayConfig::default());
        let load_ty = ty(&m, "load");
        let exec_ty = ty(&m, "execute");
        let load = trace.instances_of_type(load_ty).next().unwrap().id.0 as usize;
        let exec = trace.instances_of_type(exec_ty).next().unwrap().id.0 as usize;
        assert!(r.end[load] <= r.start[exec]);
        assert_eq!(r.end[load], 10 * MILLIS);
    }

    #[test]
    fn concurrency_limit_serializes_tasks() {
        // Both tasks ran concurrently in the original trace on threads 0/1,
        // so two slots exist; shrinking to a trace where they were serial
        // (thread overlap 1) must serialize the replay too.
        let m = model();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 100 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("load", 0)], 0, 0, Some(0), Some(0))
            .unwrap();
        tb.add_phase(&[("job", 0), ("execute", 0)], 0, 100 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(
            &[("job", 0), ("execute", 0), ("step", 0)],
            0,
            100 * MILLIS,
            None,
            None,
        )
        .unwrap();
        // Serial in the original: task0 0-50, task1 50-100.
        tb.add_phase(
            &[("job", 0), ("execute", 0), ("step", 0), ("task", 0)],
            0,
            50 * MILLIS,
            Some(0),
            Some(0),
        )
        .unwrap();
        tb.add_phase(
            &[("job", 0), ("execute", 0), ("step", 0), ("task", 1)],
            50 * MILLIS,
            100 * MILLIS,
            Some(0),
            Some(0),
        )
        .unwrap();
        let trace = tb.build().unwrap();
        let r = replay_original(&m, &trace, &ReplayConfig::default());
        assert_eq!(r.makespan, 100 * MILLIS);
        // Without concurrency enforcement they run in parallel.
        let r2 = replay_original(
            &m,
            &trace,
            &ReplayConfig {
                enforce_concurrency: false,
            },
        );
        assert_eq!(r2.makespan, 50 * MILLIS);
    }

    #[test]
    fn shorter_durations_never_increase_makespan() {
        let m = model();
        let trace = build_trace(&m, [[20, 30], [40, 10]]);
        let base = replay_original(&m, &trace, &ReplayConfig::default());
        let shrunk = replay(
            &m,
            &trace,
            &|id| trace.instance(id).duration() / 2,
            &ReplayConfig::default(),
        );
        assert!(shrunk.makespan <= base.makespan);
    }

    #[test]
    fn different_machines_have_independent_slots() {
        let m = model();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 50 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("load", 0)], 0, 0, Some(0), Some(0))
            .unwrap();
        tb.add_phase(&[("job", 0), ("execute", 0)], 0, 50 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(
            &[("job", 0), ("execute", 0), ("step", 0)],
            0,
            50 * MILLIS,
            None,
            None,
        )
        .unwrap();
        // One task per machine, concurrent.
        for k in 0..2u32 {
            tb.add_phase(
                &[("job", 0), ("execute", 0), ("step", 0), ("task", k)],
                0,
                50 * MILLIS,
                Some(k as u16),
                Some(0),
            )
            .unwrap();
        }
        let trace = tb.build().unwrap();
        let r = replay_original(&m, &trace, &ReplayConfig::default());
        assert_eq!(r.makespan, 50 * MILLIS);
    }

    /// Three steps of five tasks on two machines, one thread each, so
    /// tasks queue for their machine's slot.
    fn contended_trace(m: &ExecutionModel) -> ExecutionTrace {
        let mut tb = TraceBuilder::new(m);
        tb.add_phase(&[("job", 0)], 0, 310 * MILLIS, None, None)
            .unwrap();
        tb.add_phase(&[("job", 0), ("load", 0)], 0, 10 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_phase(
            &[("job", 0), ("execute", 0)],
            10 * MILLIS,
            310 * MILLIS,
            None,
            None,
        )
        .unwrap();
        for s in 0..3u64 {
            let t0 = 10 + 100 * s;
            tb.add_phase(
                &[("job", 0), ("execute", 0), ("step", s as u32)],
                t0 * MILLIS,
                (t0 + 100) * MILLIS,
                None,
                None,
            )
            .unwrap();
            for k in 0..5u64 {
                // Machine k % 2 runs its tasks back to back.
                let start = t0 + 30 * (k / 2);
                tb.add_phase(
                    &[
                        ("job", 0),
                        ("execute", 0),
                        ("step", s as u32),
                        ("task", k as u32),
                    ],
                    start * MILLIS,
                    (start + 20 + k) * MILLIS,
                    Some((k % 2) as u16),
                    Some(0),
                )
                .unwrap();
            }
        }
        tb.build().unwrap()
    }

    #[test]
    fn one_plan_over_many_duration_vectors_equals_fresh_plans() {
        let m = model();
        let trace = contended_trace(&m);
        let n = trace.instances().len() as u64;
        for enforce_concurrency in [true, false] {
            let cfg = ReplayConfig {
                enforce_concurrency,
            };
            let mut shared = ReplayPlan::new(&m, &trace, &cfg);
            let mut makespans = Vec::new();
            // Long, short, zero and original durations in turn: whatever a
            // run leaves in the scratch buffers must not reach the next.
            for round in 0..8u64 {
                let durations: Vec<Nanos> = original_durations(&trace)
                    .iter()
                    .zip(0..n)
                    .map(|(&d, i)| match round % 4 {
                        0 => d * (1 + (i * 7 + round) % 5),
                        1 => d / (1 + (i + round) % 3),
                        2 => 0,
                        _ => d,
                    })
                    .collect();
                let reused = shared.run(&durations);
                let fresh = ReplayPlan::new(&m, &trace, &cfg).run(&durations);
                assert_eq!(reused.makespan, fresh.makespan, "round {round}");
                assert_eq!(reused.start, fresh.start, "round {round}");
                assert_eq!(reused.end, fresh.end, "round {round}");
                assert_eq!(shared.makespan(&durations), fresh.makespan);
                let wrapped = replay(&m, &trace, &|id| durations[id.0 as usize], &cfg);
                assert_eq!(wrapped.end, fresh.end, "round {round}");
                makespans.push(fresh.makespan);
            }
            // The rounds really differ, and the slots really bind: a step
            // is machine 0's three tasks back to back (20 + 22 + 24 ms), or
            // its longest task alone.
            assert_eq!(makespans[2], 0);
            let step = if enforce_concurrency { 66 } else { 24 };
            assert_eq!(makespans[3], (10 + 3 * step) * MILLIS);
        }
    }
}
