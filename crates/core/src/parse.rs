//! Parsing raw execution logs into traces (§III-C, "data collection").
//!
//! Grade10's input format is a stream of timestamped [`RawEvent`]s — phase
//! start/end and blocking start/end records tagged with machine and thread.
//! Engine adapters (in `grade10-engines`) translate framework logs into this
//! stream; the stream can also be serialized as JSON lines for offline
//! analysis, decoupling the monitored run from the characterization run.

use std::collections::HashMap;
use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

use crate::error::Grade10Error;
use crate::model::execution::ExecutionModel;
use crate::trace::execution::{ExecutionTrace, TraceBuilder};
use crate::trace::timeslice::Nanos;

/// A phase path as it appears in logs: `(type name, instance key)` segments
/// from the root.
pub type RawPath = Vec<(String, u32)>;

/// Log event kinds.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RawEventKind {
    /// A phase began.
    PhaseStart {
        /// Full instance path of the phase.
        path: RawPath,
    },
    /// A phase ended.
    PhaseEnd {
        /// Full instance path of the phase.
        path: RawPath,
    },
    /// The thread blocked on a blocking resource.
    BlockStart {
        /// Blocking resource name.
        resource: String,
    },
    /// The thread resumed.
    BlockEnd {
        /// Blocking resource name.
        resource: String,
    },
}

/// One timestamped log record.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RawEvent {
    /// Timestamp, nanoseconds since execution start.
    pub time: Nanos,
    /// Machine the event occurred on.
    pub machine: u16,
    /// Machine-local thread index.
    pub thread: u16,
    /// What happened.
    pub kind: RawEventKind,
}

/// Builds an [`ExecutionTrace`] from a raw event stream.
///
/// Blocking events are associated with the innermost phase open on the same
/// (machine, thread) when the block began — the phase whose execution the
/// resource actually halted.
pub fn build_execution_trace(
    model: &ExecutionModel,
    events: &[RawEvent],
) -> Result<ExecutionTrace, Grade10Error> {
    build_trace_from(model, events.iter().collect())
}

/// [`build_execution_trace`] over borrowed records, for callers whose
/// stream is already a list of references (several machines' substreams
/// merged without copying a record).
pub(crate) fn build_trace_from(
    model: &ExecutionModel,
    mut events: Vec<&RawEvent>,
) -> Result<ExecutionTrace, Grade10Error> {
    events.sort_by_key(|e| e.time);

    struct OpenPhase {
        start: Nanos,
        machine: u16,
        thread: u16,
    }
    // Completed phases: path -> (start, end, machine, thread).
    let mut open: HashMap<RawPath, OpenPhase> = HashMap::new();
    let mut completed: Vec<(RawPath, Nanos, Nanos, u16, u16)> = Vec::new();
    // Innermost-phase stacks per (machine, thread).
    let mut stacks: HashMap<(u16, u16), Vec<RawPath>> = HashMap::new();
    // Open blocks per (machine, thread, resource): (start, blocked path).
    let mut open_blocks: HashMap<(u16, u16, String), (Nanos, Option<RawPath>)> = HashMap::new();
    // Completed blocking events: (path, resource, start, end).
    let mut blocks: Vec<(RawPath, String, Nanos, Nanos)> = Vec::new();

    for ev in events {
        match &ev.kind {
            RawEventKind::PhaseStart { path } => {
                if open.contains_key(path) {
                    return Err(Grade10Error::MalformedLog(format!(
                        "phase {path:?} started twice"
                    )));
                }
                open.insert(
                    path.clone(),
                    OpenPhase {
                        start: ev.time,
                        machine: ev.machine,
                        thread: ev.thread,
                    },
                );
                stacks
                    .entry((ev.machine, ev.thread))
                    .or_default()
                    .push(path.clone());
            }
            RawEventKind::PhaseEnd { path } => {
                let op = open.remove(path).ok_or_else(|| {
                    Grade10Error::MalformedLog(format!("phase {path:?} ended without starting"))
                })?;
                completed.push((path.clone(), op.start, ev.time, op.machine, op.thread));
                if let Some(stack) = stacks.get_mut(&(op.machine, op.thread)) {
                    if let Some(pos) = stack.iter().rposition(|p| p == path) {
                        stack.remove(pos);
                    }
                }
            }
            RawEventKind::BlockStart { resource } => {
                let blocked = stacks
                    .get(&(ev.machine, ev.thread))
                    .and_then(|s| s.last())
                    .cloned();
                open_blocks.insert(
                    (ev.machine, ev.thread, resource.clone()),
                    (ev.time, blocked),
                );
            }
            RawEventKind::BlockEnd { resource } => {
                let key = (ev.machine, ev.thread, resource.clone());
                let (start, blocked) = open_blocks.remove(&key).ok_or_else(|| {
                    Grade10Error::MalformedLog(format!(
                        "block on '{resource}' ended without starting"
                    ))
                })?;
                if let Some(path) = blocked {
                    blocks.push((path, resource.clone(), start, ev.time));
                }
                // Blocks outside any phase are dropped: there is no phase
                // execution they could have delayed.
            }
        }
    }
    // Name the smallest key, not the first in hash order: the same damaged
    // stream must yield the same message on every run.
    if let Some(path) = open.keys().min() {
        return Err(Grade10Error::MalformedLog(format!("phase {path:?} never ended")));
    }
    if let Some((_, _, res)) = open_blocks.keys().min() {
        return Err(Grade10Error::MalformedLog(format!("block on '{res}' never ended")));
    }

    // Add parents before children: shorter paths first, then by start time
    // for deterministic instance ids.
    completed.sort_by(|a, b| (a.0.len(), a.1, &a.0).cmp(&(b.0.len(), b.1, &b.0)));
    let mut tb = TraceBuilder::new(model);
    let mut path_refs: Vec<(&str, u32)> = Vec::new();
    for (path, start, end, machine, thread) in &completed {
        path_refs.clear();
        path_refs.extend(path.iter().map(|(n, k)| (n.as_str(), *k)));
        tb.add_phase(&path_refs, *start, *end, Some(*machine), Some(*thread))?;
    }
    for (path, resource, start, end) in &blocks {
        path_refs.clear();
        path_refs.extend(path.iter().map(|(n, k)| (n.as_str(), *k)));
        let id = tb.instance_by_path(&path_refs).ok_or_else(|| {
            Grade10Error::MalformedLog(format!("blocked phase {path:?} not found"))
        })?;
        tb.add_blocking(id, resource.clone(), *start, *end);
    }
    tb.build()
}

/// Writes events as JSON lines.
pub fn write_events_json<W: Write>(events: &[RawEvent], mut w: W) -> std::io::Result<()> {
    for ev in events {
        serde_json::to_writer(&mut w, ev)?;
        writeln!(w)?;
    }
    Ok(())
}

/// Reads events from JSON lines.
pub fn read_events_json<R: BufRead>(r: R) -> std::io::Result<Vec<RawEvent>> {
    let mut out = Vec::new();
    for line in r.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(serde_json::from_str(&line).map_err(std::io::Error::other)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::timeslice::MILLIS;

    fn model() -> ExecutionModel {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let step = b.child(r, "step", Repeat::Sequential);
        let _ = b.child(step, "task", Repeat::Parallel);
        b.build()
    }

    fn path(segs: &[(&str, u32)]) -> RawPath {
        segs.iter().map(|(n, k)| (n.to_string(), *k)).collect()
    }

    fn ev(time: Nanos, machine: u16, thread: u16, kind: RawEventKind) -> RawEvent {
        RawEvent {
            time,
            machine,
            thread,
            kind,
        }
    }

    #[test]
    fn phases_and_blocks_resolve() {
        let m = model();
        let events = vec![
            ev(0, 0, 0, RawEventKind::PhaseStart { path: path(&[("job", 0)]) }),
            ev(
                0,
                0,
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0), ("step", 0)]),
                },
            ),
            ev(
                0,
                0,
                1,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0), ("step", 0), ("task", 1)]),
                },
            ),
            ev(
                10 * MILLIS,
                0,
                1,
                RawEventKind::BlockStart {
                    resource: "gc".into(),
                },
            ),
            ev(
                20 * MILLIS,
                0,
                1,
                RawEventKind::BlockEnd {
                    resource: "gc".into(),
                },
            ),
            ev(
                50 * MILLIS,
                0,
                1,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0), ("step", 0), ("task", 1)]),
                },
            ),
            ev(
                60 * MILLIS,
                0,
                0,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0), ("step", 0)]),
                },
            ),
            ev(
                60 * MILLIS,
                0,
                0,
                RawEventKind::PhaseEnd { path: path(&[("job", 0)]) },
            ),
        ];
        let trace = build_execution_trace(&m, &events).unwrap();
        assert_eq!(trace.instances().len(), 3);
        assert_eq!(trace.blocking().len(), 1);
        let b = &trace.blocking()[0];
        assert_eq!(b.resource, "gc");
        assert_eq!(b.start, 10 * MILLIS);
        // The block attaches to the task (innermost open phase on thread 1).
        let blocked = trace.instance(b.instance);
        assert_eq!(m.name(blocked.type_id), "task");
        assert_eq!(blocked.key, 1);
    }

    #[test]
    fn unbalanced_phase_rejected() {
        let m = model();
        let events = vec![ev(
            0,
            0,
            0,
            RawEventKind::PhaseStart { path: path(&[("job", 0)]) },
        )];
        assert!(build_execution_trace(&m, &events).is_err());
    }

    /// Several unclosed phases and blocks: the error names the smallest
    /// key, so the message is the same on every call (it used to follow
    /// `HashMap` iteration order, which differs per map instance).
    #[test]
    fn never_ended_error_names_the_same_phase_every_time() {
        let m = model();
        let mut events = vec![ev(0, 0, 0, RawEventKind::PhaseStart { path: path(&[("job", 0)]) })];
        for s in 0..12u32 {
            events.push(ev(
                1 + s as Nanos,
                0,
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0), ("step", s)]),
                },
            ));
        }
        let message = |events: &[RawEvent]| match build_execution_trace(&m, events) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("unclosed phases must be rejected"),
        };
        let first = message(&events);
        assert!(first.contains("[(\"job\", 0)] never ended"), "{first}");
        for _ in 0..32 {
            assert_eq!(message(&events), first);
        }

        // Same for blocks left open once every phase is closed.
        let mut events = vec![ev(0, 0, 0, RawEventKind::PhaseStart { path: path(&[("job", 0)]) })];
        for r in ["net", "gc", "msgq", "barrier", "disk", "lock"] {
            events.push(ev(1, 0, 0, RawEventKind::BlockStart { resource: r.into() }));
        }
        events.push(ev(9, 0, 0, RawEventKind::PhaseEnd { path: path(&[("job", 0)]) }));
        let first = message(&events);
        assert!(first.contains("block on 'barrier' never ended"), "{first}");
        for _ in 0..32 {
            assert_eq!(message(&events), first);
        }
    }

    #[test]
    fn end_without_start_rejected() {
        let m = model();
        let events = vec![ev(
            0,
            0,
            0,
            RawEventKind::PhaseEnd { path: path(&[("job", 0)]) },
        )];
        assert!(build_execution_trace(&m, &events).is_err());
    }

    #[test]
    fn block_outside_phase_dropped() {
        let m = model();
        let events = vec![
            ev(
                0,
                0,
                0,
                RawEventKind::BlockStart {
                    resource: "gc".into(),
                },
            ),
            ev(
                5,
                0,
                0,
                RawEventKind::BlockEnd {
                    resource: "gc".into(),
                },
            ),
            ev(10, 0, 0, RawEventKind::PhaseStart { path: path(&[("job", 0)]) }),
            ev(20, 0, 0, RawEventKind::PhaseEnd { path: path(&[("job", 0)]) }),
        ];
        let trace = build_execution_trace(&m, &events).unwrap();
        assert_eq!(trace.blocking().len(), 0);
        assert_eq!(trace.instances().len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let events = vec![
            ev(5, 1, 2, RawEventKind::PhaseStart { path: path(&[("job", 0)]) }),
            ev(
                9,
                1,
                2,
                RawEventKind::BlockStart {
                    resource: "msgq".into(),
                },
            ),
        ];
        let mut buf = Vec::new();
        write_events_json(&events, &mut buf).unwrap();
        let back = read_events_json(buf.as_slice()).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn out_of_order_events_are_sorted() {
        let m = model();
        let events = vec![
            ev(20, 0, 0, RawEventKind::PhaseEnd { path: path(&[("job", 0)]) }),
            ev(0, 0, 0, RawEventKind::PhaseStart { path: path(&[("job", 0)]) }),
        ];
        let trace = build_execution_trace(&m, &events).unwrap();
        assert_eq!(trace.instances()[0].start, 0);
        assert_eq!(trace.instances()[0].end, 20);
    }
}
