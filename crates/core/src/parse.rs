//! Parsing raw execution logs into traces (§III-C, "data collection").
//!
//! Grade10's input format is a stream of timestamped [`RawEvent`]s — phase
//! start/end and blocking start/end records tagged with machine and thread.
//! Engine adapters (in `grade10-engines`) translate framework logs into this
//! stream; the stream can also be serialized as JSON lines for offline
//! analysis, decoupling the monitored run from the characterization run.
//!
//! Inside the crate a stream is read once into an `Interned` stream: a
//! `PathTable` holding each distinct phase path (and every prefix of one)
//! under a dense `PathId`, and one fixed-size `Record` per event carrying
//! the id and the borrowed resource name. Strict validation, lenient repair
//! (`trace::repair`) and the trace build all read that stream, so a
//! characterization hashes each path once and clones none. Ids number the
//! paths in lexicographic order, so sorting by id is sorting by path, and
//! instance order is unchanged from a build keyed on the paths themselves.

use std::collections::HashMap;
use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

use crate::error::Grade10Error;
use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::trace::execution::{
    duplicate_path, missing_parent, ExecutionTrace, InstanceId, TraceBuilder,
};
use crate::trace::timeslice::Nanos;

mod jsonl;

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
    let mut stream = Interned::new(events);
    stream.records.sort_by_key(|r| r.time);
    build_trace_from(model, &stream.paths, &stream.records)
}

/// Dense id of one distinct phase path of a stream: the path's place in
/// lexicographic order among the stream's paths and their prefixes, so
/// comparing ids compares paths. Ids mean nothing outside the
/// [`PathTable`] that issued them.
pub(crate) type PathId = u32;

/// The distinct phase paths of one stream, each hashed once from its
/// borrowed slice and never cloned. Every proper prefix of an interned
/// path is interned too, so each entry knows its parent's id.
#[derive(Default)]
pub(crate) struct PathTable<'e> {
    /// Per id: the path and the id of its parent (its prefix one segment
    /// shorter; `None` at depth 0 and 1).
    entries: Vec<(Segments<'e>, Option<PathId>)>,
}

/// A borrowed phase path, or a prefix of one.
type Segments<'e> = &'e [(String, u32)];

impl<'e> PathTable<'e> {
    /// The id of `path`, issuing one (and one for each new prefix) in
    /// first-seen order if it is new.
    fn intern(&mut self, ids: &mut HashMap<Segments<'e>, PathId>, path: Segments<'e>) -> PathId {
        if let Some(&id) = ids.get(path) {
            return id;
        }
        let parent = match path.len() {
            0 | 1 => None,
            n => Some(self.intern(ids, &path[..n - 1])),
        };
        let id = self.entries.len() as PathId;
        ids.insert(path, id);
        self.entries.push((path, parent));
        id
    }

    /// Renumbers the first-seen ids in path order, and returns each old
    /// id's new one.
    fn sort(&mut self) -> Vec<PathId> {
        let mut order: Vec<PathId> = (0..self.len() as PathId).collect();
        order.sort_unstable_by_key(|&id| self.path(id));
        let mut renamed = vec![0; order.len()];
        for (new, &old) in order.iter().enumerate() {
            renamed[old as usize] = new as PathId;
        }
        let entry = |&old: &PathId| {
            let (path, parent) = self.entries[old as usize];
            (path, parent.map(|p| renamed[p as usize]))
        };
        self.entries = order.iter().map(entry).collect();
        renamed
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn path(&self, id: PathId) -> Segments<'e> {
        self.entries[id as usize].0
    }

    pub(crate) fn parent(&self, id: PathId) -> Option<PathId> {
        self.entries[id as usize].1
    }
}

/// One record of an interned stream: a [`RawEvent`] whose phase path is
/// its [`PathId`] and whose resource name is borrowed. Fixed-size, so
/// repair and the trace build copy records, never paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Record<'e> {
    pub(crate) time: Nanos,
    pub(crate) machine: u16,
    pub(crate) thread: u16,
    pub(crate) kind: RecordKind<'e>,
}

/// [`RawEventKind`] over ids and borrowed names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum RecordKind<'e> {
    PhaseStart(PathId),
    PhaseEnd(PathId),
    BlockStart(&'e str),
    BlockEnd(&'e str),
}

/// A raw event stream interned once: the table of its phase paths and one
/// [`Record`] per event, in arrival order. Validation, repair and the trace
/// build all read it, so a characterization hashes each path once.
#[derive(Default)]
pub(crate) struct Interned<'e> {
    pub(crate) paths: PathTable<'e>,
    pub(crate) records: Vec<Record<'e>>,
}

impl<'e> Interned<'e> {
    pub(crate) fn new(events: &'e [RawEvent]) -> Self {
        let mut paths = PathTable::default();
        let mut ids = HashMap::new();
        let mut intern = |path| paths.intern(&mut ids, path);
        let record = |ev: &'e RawEvent| Record {
            time: ev.time,
            machine: ev.machine,
            thread: ev.thread,
            kind: match &ev.kind {
                RawEventKind::PhaseStart { path } => RecordKind::PhaseStart(intern(path)),
                RawEventKind::PhaseEnd { path } => RecordKind::PhaseEnd(intern(path)),
                RawEventKind::BlockStart { resource } => RecordKind::BlockStart(resource),
                RawEventKind::BlockEnd { resource } => RecordKind::BlockEnd(resource),
            },
        };
        let mut records: Vec<Record<'e>> = events.iter().map(record).collect();
        let renamed = paths.sort();
        for r in &mut records {
            if let RecordKind::PhaseStart(id) | RecordKind::PhaseEnd(id) = &mut r.kind {
                *id = renamed[*id as usize];
            }
        }
        Interned { paths, records }
    }

    /// `records` as raw events, each path and name copied out of the table.
    pub(crate) fn materialize(&self, records: &[Record<'e>]) -> Vec<RawEvent> {
        let path = |id| self.paths.path(id).to_vec();
        let event = |r: &Record<'e>| RawEvent {
            time: r.time,
            machine: r.machine,
            thread: r.thread,
            kind: match r.kind {
                RecordKind::PhaseStart(id) => RawEventKind::PhaseStart { path: path(id) },
                RecordKind::PhaseEnd(id) => RawEventKind::PhaseEnd { path: path(id) },
                RecordKind::BlockStart(name) => RawEventKind::BlockStart { resource: name.into() },
                RecordKind::BlockEnd(name) => RawEventKind::BlockEnd { resource: name.into() },
            },
        };
        records.iter().map(event).collect()
    }
}

/// [`build_execution_trace`] over an interned stream whose `records` are
/// in time order.
///
/// Open phases and thread stacks are keyed by path id; open blocks are
/// keyed by the borrowed resource name.
/// Instances are added shallowest first, then by start time, then by path
/// id, which sorts as the paths themselves do.
pub(crate) fn build_trace_from(
    model: &ExecutionModel,
    paths: &PathTable<'_>,
    records: &[Record<'_>],
) -> Result<ExecutionTrace, Grade10Error> {
    #[derive(Clone, Copy)]
    struct OpenPhase {
        start: Nanos,
        machine: u16,
        thread: u16,
    }
    // Per path id: the phase open on that path, if any.
    let mut open: Vec<Option<OpenPhase>> = vec![None; paths.len()];
    // Completed phases: (path, start, end, machine, thread).
    let mut completed: Vec<(PathId, Nanos, Nanos, u16, u16)> = Vec::new();
    // Innermost-phase stacks per (machine, thread).
    let mut stacks: HashMap<(u16, u16), Vec<PathId>> = HashMap::new();
    // Open blocks per (machine, thread, resource): (start, blocked path).
    let mut open_blocks: HashMap<(u16, u16, &str), (Nanos, Option<PathId>)> = HashMap::new();
    // Completed blocking events: (path, resource, start, end).
    let mut blocks: Vec<(PathId, &str, Nanos, Nanos)> = Vec::new();

    for ev in records {
        match ev.kind {
            RecordKind::PhaseStart(id) => {
                let slot = &mut open[id as usize];
                if slot.is_some() {
                    let path = paths.path(id);
                    return Err(Grade10Error::MalformedLog(format!(
                        "phase {path:?} started twice"
                    )));
                }
                *slot = Some(OpenPhase {
                    start: ev.time,
                    machine: ev.machine,
                    thread: ev.thread,
                });
                stacks.entry((ev.machine, ev.thread)).or_default().push(id);
            }
            RecordKind::PhaseEnd(id) => {
                let op = open[id as usize].take().ok_or_else(|| {
                    let path = paths.path(id);
                    Grade10Error::MalformedLog(format!("phase {path:?} ended without starting"))
                })?;
                completed.push((id, op.start, ev.time, op.machine, op.thread));
                if let Some(stack) = stacks.get_mut(&(op.machine, op.thread)) {
                    if let Some(pos) = stack.iter().rposition(|&p| p == id) {
                        stack.remove(pos);
                    }
                }
            }
            RecordKind::BlockStart(resource) => {
                let blocked = stacks
                    .get(&(ev.machine, ev.thread))
                    .and_then(|s| s.last())
                    .copied();
                open_blocks.insert((ev.machine, ev.thread, resource), (ev.time, blocked));
            }
            RecordKind::BlockEnd(resource) => {
                let key = (ev.machine, ev.thread, resource);
                let (start, blocked) = open_blocks.remove(&key).ok_or_else(|| {
                    Grade10Error::MalformedLog(format!(
                        "block on '{resource}' ended without starting"
                    ))
                })?;
                if let Some(id) = blocked {
                    blocks.push((id, resource, start, ev.time));
                }
                // Blocks outside any phase are dropped: there is no phase
                // execution they could have delayed.
            }
        }
    }
    // Name the smallest key (the smallest id is the smallest path), not the
    // first in hash order: the same damaged stream must yield the same
    // message on every run.
    if let Some(id) = open.iter().position(Option::is_some) {
        let path = paths.path(id as PathId);
        return Err(Grade10Error::MalformedLog(format!("phase {path:?} never ended")));
    }
    if let Some((_, _, res)) = open_blocks.keys().min() {
        return Err(Grade10Error::MalformedLog(format!("block on '{res}' never ended")));
    }

    // Add parents before children: shallower paths first, then by start
    // time, then by path (by id) for deterministic instance ids.
    completed.sort_by_key(|&(id, start, ..)| (paths.path(id).len(), start, id));
    let mut tb = TraceBuilder::new(model);
    // Per path id: its phase type once resolved, and its instance once added.
    let mut types: Vec<Option<PhaseTypeId>> = vec![None; paths.len()];
    let mut instances: Vec<Option<InstanceId>> = vec![None; paths.len()];
    for &(id, start, end, machine, thread) in &completed {
        let type_id = path_type(&tb, paths, &mut types, id)?;
        let path = paths.path(id);
        let parent = match paths.parent(id) {
            None => None,
            Some(p) => Some(instances[p as usize].ok_or_else(|| missing_parent(path))?),
        };
        let key = path.last().map_or(0, |&(_, k)| k);
        let segment = (parent, type_id, key);
        let instance = tb
            .add_resolved(segment, start, end, Some(machine), Some(thread))
            .ok_or_else(|| duplicate_path(path))?;
        instances[id as usize] = Some(instance);
    }
    for &(id, resource, start, end) in &blocks {
        let instance = instances[id as usize].ok_or_else(|| {
            let path = paths.path(id);
            Grade10Error::MalformedLog(format!("blocked phase {path:?} not found"))
        })?;
        tb.add_blocking(instance, resource, start, end);
    }
    tb.build()
}

/// The phase type path `id` names, resolved from its parent's type and
/// remembered in `types`. An error names the first segment from the root
/// that does not resolve, as walking the names from the root would.
fn path_type(
    tb: &TraceBuilder<'_>,
    paths: &PathTable<'_>,
    types: &mut [Option<PhaseTypeId>],
    id: PathId,
) -> Result<PhaseTypeId, Grade10Error> {
    if let Some(type_id) = types[id as usize] {
        return Ok(type_id);
    }
    let Some((name, _)) = paths.path(id).last() else {
        return Err(Grade10Error::ModelMismatch("empty phase path".into()));
    };
    let parent = match paths.parent(id) {
        None => None,
        Some(p) => Some(path_type(tb, paths, types, p)?),
    };
    let type_id = tb.segment_type(parent, name)?;
    types[id as usize] = Some(type_id);
    Ok(type_id)
}

/// Writes events as JSON lines, one compact JSON object per event, in the
/// layout `docs/FORMATS.md` ("Event log") describes.
pub fn write_events_json<W: Write>(events: &[RawEvent], w: W) -> std::io::Result<()> {
    jsonl::write(events, w)
}

/// Reads events from JSON lines. Blank lines are skipped, and a field given
/// twice in one object is rejected. A line that does not decode is an
/// [`std::io::ErrorKind::InvalidData`] error naming the 1-based line and
/// the byte within it, as in "line 4001: expected `,` or `}` at byte 149".
pub fn read_events_json<R: BufRead>(r: R) -> std::io::Result<Vec<RawEvent>> {
    jsonl::read(r)
}

/// The string-keyed trace build the interned one replaced, kept verbatim as
/// the oracle of `interned_build_matches_the_string_keyed_oracle`.
#[cfg(test)]
fn build_trace_by_path(
    model: &ExecutionModel,
    mut events: Vec<&RawEvent>,
) -> Result<ExecutionTrace, Grade10Error> {
    use std::collections::HashMap;

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

#[cfg(test)]
pub(crate) mod tests {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::trace::timeslice::MILLIS;

    pub(crate) fn model() -> ExecutionModel {
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

    /// A random well-formed stream over [`model`]: one job, steps one after
    /// another, each with tasks on random threads of two machines that
    /// block on random resources, plus blocks outside any phase. Times are
    /// small, so many records share a timestamp.
    pub(crate) fn random_stream(rng: &mut ChaCha8Rng) -> Vec<RawEvent> {
        let mut events = vec![ev(0, 0, 0, RawEventKind::PhaseStart { path: path(&[("job", 0)]) })];
        let mut t: Nanos = rng.gen_range(0..2);
        for s in 0..rng.gen_range(1..4u32) {
            let step = path(&[("job", 0), ("step", s)]);
            events.push(ev(t, 0, 0, RawEventKind::PhaseStart { path: step.clone() }));
            let mut step_end = t;
            for k in 0..rng.gen_range(1..5u32) {
                let (machine, thread) = (rng.gen_range(0..2), k as u16);
                let mut task = step.clone();
                task.push(("task".to_string(), k));
                let start = t + rng.gen_range(0..3);
                let end = start + rng.gen_range(0..6);
                let task_start = RawEventKind::PhaseStart { path: task.clone() };
                events.push(ev(start, machine, thread, task_start));
                let mut from = start;
                for resource in ["gc", "msgq", "net"].into_iter().take(rng.gen_range(0..3)) {
                    from = rng.gen_range(from..=end);
                    let to = rng.gen_range(from..=end);
                    let resource = resource.to_string();
                    let block_start = RawEventKind::BlockStart { resource: resource.clone() };
                    events.push(ev(from, machine, thread, block_start));
                    events.push(ev(to, machine, thread, RawEventKind::BlockEnd { resource }));
                }
                events.push(ev(end, machine, thread, RawEventKind::PhaseEnd { path: task }));
                step_end = step_end.max(end);
            }
            t = step_end + rng.gen_range(0..2);
            events.push(ev(t, 0, 0, RawEventKind::PhaseEnd { path: step }));
        }
        if rng.gen_bool(0.3) {
            let resource = "disk".to_string();
            events.push(ev(t, 1, 5, RawEventKind::BlockStart { resource: resource.clone() }));
            events.push(ev(t + 1, 1, 5, RawEventKind::BlockEnd { resource }));
        }
        events.push(ev(t + 1, 0, 0, RawEventKind::PhaseEnd { path: path(&[("job", 0)]) }));
        events.sort_by_key(|e| e.time);
        events
    }

    /// The damage classes [`damage`] knows, 0 (none) included.
    pub(crate) const DAMAGE_CLASSES: usize = 7;

    /// Applies damage class `class` (0: none) to a stream.
    pub(crate) fn damage(rng: &mut ChaCha8Rng, events: &mut Vec<RawEvent>, class: usize) {
        let pick = |rng: &mut ChaCha8Rng, events: &[RawEvent]| rng.gen_range(0..events.len());
        match class {
            // Equal-time ties in a random order.
            1 => {
                let mut i = 0;
                while i < events.len() {
                    let run = events[i..].iter().take_while(|e| e.time == events[i].time).count();
                    for j in (1..run).rev() {
                        events.swap(i + j, i + rng.gen_range(0..=j));
                    }
                    i += run;
                }
            }
            // Duplicated records.
            2 => {
                for _ in 0..rng.gen_range(1..4) {
                    let at = pick(rng, events);
                    events.insert(at, events[at].clone());
                }
            }
            // Dropped ends.
            3 => {
                for _ in 0..rng.gen_range(1..3) {
                    let ends: Vec<usize> = (0..events.len())
                        .filter(|&i| {
                            matches!(
                                events[i].kind,
                                RawEventKind::PhaseEnd { .. } | RawEventKind::BlockEnd { .. }
                            )
                        })
                        .collect();
                    events.remove(ends[rng.gen_range(0..ends.len())]);
                }
            }
            // A path started again, after it ended or while it is open.
            4 => {
                let starts: Vec<RawPath> = events
                    .iter()
                    .filter_map(|e| match &e.kind {
                        RawEventKind::PhaseStart { path } => Some(path.clone()),
                        _ => None,
                    })
                    .collect();
                let again = starts[rng.gen_range(0..starts.len())].clone();
                let at = rng.gen_range(0..events.last().map_or(1, |e| e.time + 2));
                let end = at + rng.gen_range(0..3);
                events.push(ev(at, 1, 1, RawEventKind::PhaseStart { path: again.clone() }));
                events.push(ev(end, 1, 1, RawEventKind::PhaseEnd { path: again }));
                events.sort_by_key(|e| e.time);
            }
            // An unknown type name on some records of one path.
            5 => {
                let at = pick(rng, events);
                let renamed = match &events[at].kind {
                    RawEventKind::PhaseStart { path } | RawEventKind::PhaseEnd { path } => {
                        path.clone()
                    }
                    _ => return,
                };
                let depth = rng.gen_range(0..renamed.len());
                let both = rng.gen_bool(0.7);
                for (i, e) in events.iter_mut().enumerate() {
                    if let RawEventKind::PhaseStart { path } | RawEventKind::PhaseEnd { path } =
                        &mut e.kind
                    {
                        if *path == renamed && (both || i == at) {
                            path[depth].0 = "bogus".to_string();
                        }
                    }
                }
            }
            // Records that arrive late, behind records stamped after them.
            6 => {
                for _ in 0..rng.gen_range(1..4) {
                    let from = pick(rng, events);
                    let late = events.remove(from);
                    let to = rng.gen_range(from..=events.len());
                    events.insert(to, late);
                }
            }
            _ => {}
        }
    }

    /// The interned build returns exactly the string-keyed build's trace,
    /// or exactly its error message, on clean and damaged random streams.
    #[test]
    fn interned_build_matches_the_string_keyed_oracle() {
        let m = model();
        let mut rng = ChaCha8Rng::seed_from_u64(0x7ace);
        let (mut built, mut rejected) = (0, 0);
        for case in 0..200 {
            let mut events = random_stream(&mut rng);
            damage(&mut rng, &mut events, case % 6);
            let interned = build_execution_trace(&m, &events);
            let oracle = build_trace_by_path(&m, events.iter().collect());
            match (interned, oracle) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.instances(), b.instances(), "case {case}");
                    assert_eq!(a.blocking(), b.blocking(), "case {case}");
                    built += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "case {case}");
                    rejected += 1;
                }
                (a, b) => panic!("case {case}: interned {:?}, oracle {:?}", a.err(), b.err()),
            }
        }
        assert!(built >= 40 && rejected >= 40, "{built} built, {rejected} rejected");
    }
}
