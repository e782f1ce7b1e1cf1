//! Parsing raw execution logs into traces (§III-C, "data collection").
//!
//! Grade10's input format is a stream of timestamped [`RawEvent`]s — phase
//! start/end and blocking start/end records tagged with machine and thread.
//! Engine adapters (in `grade10-engines`) translate framework logs into this
//! stream; the stream can also be serialized as JSON lines for offline
//! analysis, decoupling the monitored run from the characterization run.
//!
//! Ingestion reads an [`EventStream`]: the stream's names (phase-type names
//! and blocking resources) sorted once under dense `NameId`s, a `PathTable`
//! holding each distinct phase path (and every prefix of one) as its
//! parent's id plus a last segment under a dense `PathId`, and one
//! fixed-size `Record` per event carrying ids only. Both producers go
//! through one first-seen form, the names and paths numbered as the records
//! first reference them: [`EventStream::from_events`] interns raw events
//! into it and the `G10TRACE` decoder reads it from a container's pools
//! (the encoder writes those pools from the same form), and one `finish`
//! ranks the names, numbers the paths and renumbers the records. Strict
//! validation, lenient repair (`trace::repair`) and the trace build all
//! read it, so a characterization decodes or hashes each distinct path
//! once and clones none. Ids number names and paths in lexicographic
//! order, so sorting by id is sorting by name or path, and instance order
//! is unchanged from a build keyed on the strings themselves.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::ops::Range;

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
    let mut stream = EventStream::from_events(events);
    stream.records.sort_by_key(|r| r.time);
    build_trace_from(model, &stream, &stream.records)
}

/// Dense id of one distinct phase path of a stream: the path's place in
/// lexicographic order among the stream's paths and their prefixes, so
/// comparing ids compares paths. Ids mean nothing outside the
/// [`PathTable`] that issued them.
pub(crate) type PathId = u32;

/// Dense id of one distinct name of a stream (a phase-type name or a
/// blocking resource): its rank in the stream's sorted name pool, so
/// comparing ids compares names.
pub(crate) type NameId = u32;

/// One path of a [`PathTable`]: its parent's id plus its last segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PathNode {
    /// The prefix one segment shorter; `None` at depth 0 and 1.
    parent: Option<PathId>,
    /// The last segment's name and instance key (unused at depth 0).
    name: NameId,
    key: u32,
    depth: u32,
}

/// The distinct phase paths of one stream, with every proper prefix of
/// each, numbered in lexicographic order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct PathTable {
    nodes: Vec<PathNode>,
}

impl PathTable {
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn parent(&self, id: PathId) -> Option<PathId> {
        self.nodes[id as usize].parent
    }

    pub(crate) fn depth(&self, id: PathId) -> usize {
        self.nodes[id as usize].depth as usize
    }

    /// The last segment of path `id`, `None` for the empty path.
    pub(crate) fn last(&self, id: PathId) -> Option<(NameId, u32)> {
        let node = self.nodes[id as usize];
        (node.depth > 0).then_some((node.name, node.key))
    }
}

/// Builds a [`PathTable`] from paths given as `(name id, key)` segments,
/// in any order: each new path and prefix is numbered as first seen, then
/// [`finish`](Self::finish) renumbers them in path order.
#[derive(Default)]
struct PathTableBuilder {
    /// First-seen nodes; parents are first-seen ids.
    nodes: Vec<PathNode>,
    /// Per (trie parent, name, key): the child's first-seen id. The trie
    /// parent is 0 for the root and `id + 1` for node `id`.
    children: HashMap<(u32, NameId, u32), PathId>,
    empty: Option<PathId>,
}

impl PathTableBuilder {
    /// The first-seen id of the path `segments` spell, issuing one for it
    /// and for each prefix not seen before.
    fn insert(&mut self, segments: impl IntoIterator<Item = (NameId, u32)>) -> PathId {
        let mut at = None;
        for (depth, (name, key)) in (1..).zip(segments) {
            let next = self.nodes.len() as PathId;
            let trie_parent = at.map_or(0, |p| p + 1);
            let id = *self
                .children
                .entry((trie_parent, name, key))
                .or_insert(next);
            if id == next {
                let parent = at;
                self.nodes.push(PathNode {
                    parent,
                    name,
                    key,
                    depth,
                });
            }
            at = Some(id);
        }
        at.unwrap_or_else(|| {
            *self.empty.get_or_insert_with(|| {
                self.nodes.push(PathNode::default());
                self.nodes.len() as PathId - 1
            })
        })
    }

    /// The table, numbered by a pre-order walk of the path trie whose
    /// children are ordered by (name id, key) — which is lexicographic path
    /// order, since name ids order as the names do — and each first-seen
    /// id's new id.
    fn finish(self) -> (PathTable, Vec<PathId>) {
        let n = self.nodes.len();
        // A parent is seen before its children, so one backward pass sums
        // every subtree's size.
        let mut size = vec![1; n];
        for i in (0..n).rev() {
            if let Some(p) = self.nodes[i].parent {
                size[p as usize] += size[i];
            }
        }
        // Siblings grouped under their parent (the root first, parents in
        // first-seen order), each group in (name, key) order: a child's id
        // is its parent's plus one plus its elder siblings' subtrees.
        let slot = |i: PathId| self.nodes[i as usize].parent.map_or(0, |p| p as usize + 1);
        let mut order: Vec<PathId> = (0..n as PathId)
            .filter(|&i| Some(i) != self.empty)
            .collect();
        order.sort_unstable_by_key(|&i| {
            let node = self.nodes[i as usize];
            (slot(i), node.name, node.key)
        });
        let mut renamed = vec![0; n];
        let (mut group, mut next) = (0, PathId::from(self.empty.is_some()));
        for i in order {
            if slot(i) != group {
                group = slot(i);
                next = renamed[group - 1] + 1;
            }
            renamed[i as usize] = next;
            next += size[i as usize];
        }
        let mut nodes = vec![PathNode::default(); n];
        for (old, node) in self.nodes.into_iter().enumerate() {
            let parent = node.parent.map(|p| renamed[p as usize]);
            nodes[renamed[old] as usize] = PathNode { parent, ..node };
        }
        (PathTable { nodes }, renamed)
    }
}

/// A name pool sorted: the distinct names in order, and each pool entry's
/// rank among them (equal names share one).
fn rank_names(pool: &[&str]) -> (Vec<String>, Vec<NameId>) {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_unstable_by_key(|&i| pool[i]);
    let mut names: Vec<String> = Vec::new();
    let mut rank = vec![0; pool.len()];
    for i in order {
        if names.last().map(String::as_str) != Some(pool[i]) {
            names.push(pool[i].to_owned());
        }
        rank[i] = names.len() as NameId - 1;
    }
    (names, rank)
}

/// One record of an [`EventStream`]: a [`RawEvent`] whose phase path is
/// its [`PathId`] and whose resource is its [`NameId`]. Fixed-size, so
/// repair and the trace build copy records, never strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Record {
    pub(crate) time: Nanos,
    pub(crate) machine: u16,
    pub(crate) thread: u16,
    pub(crate) kind: RecordKind,
}

/// [`RawEventKind`] over ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum RecordKind {
    PhaseStart(PathId),
    PhaseEnd(PathId),
    BlockStart(NameId),
    BlockEnd(NameId),
}

/// An event stream as ingestion reads it: the stream's names, sorted; the
/// table of its phase paths; and one fixed-size record per event, in
/// arrival order. The `G10TRACE` decoder builds one from a container's
/// string and path pools, [`EventStream::from_events`] from raw events,
/// both by finishing a first-seen form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventStream {
    pub(crate) names: Vec<String>,
    pub(crate) paths: PathTable,
    pub(crate) records: Vec<Record>,
}

/// A stream in first-seen form: its names and phase paths numbered in the
/// order the records first reference them, and its records over those
/// numbers. A `G10TRACE` container's `STRINGS`, `PATHS` and `EVENTS`
/// sections are this form as it stands: [`FirstSeen::from_events`]
/// interns raw events into one, the encoder writes it, the decoder reads
/// one back, and [`FirstSeen::finish`] numbers either in sorted order.
#[derive(Default)]
pub(crate) struct FirstSeen<'a> {
    /// The name pool, indexed by first-seen name id. An interned pool holds
    /// each name once; a decoded one is the `STRINGS` pool as written.
    pub(crate) names: Vec<&'a str>,
    /// Each interned name's first-seen id.
    name_ids: HashMap<&'a str, NameId>,
    /// Per pool path, its segments' range in `segments`.
    pub(crate) paths: Vec<Range<usize>>,
    /// Path segments over first-seen name ids.
    pub(crate) segments: Vec<(NameId, u32)>,
    /// The records over first-seen path and name ids, in arrival order.
    pub(crate) records: Vec<Record>,
}

impl<'a> FirstSeen<'a> {
    /// Interns `events`: each event's whole path is looked up once, and
    /// only a path not seen before is walked segment by segment.
    pub(crate) fn from_events(events: &'a [RawEvent]) -> FirstSeen<'a> {
        let mut path_ids: HashMap<&[(String, u32)], PathId> = HashMap::new();
        let mut form = FirstSeen {
            records: Vec::with_capacity(events.len()),
            ..FirstSeen::default()
        };
        for ev in events {
            let kind = match &ev.kind {
                RawEventKind::PhaseStart { path } | RawEventKind::PhaseEnd { path } => {
                    let next = path_ids.len() as PathId;
                    let id = *path_ids.entry(path.as_slice()).or_insert(next);
                    if id == next {
                        let from = form.segments.len();
                        for (name, key) in path {
                            let name = form.intern(name);
                            form.segments.push((name, *key));
                        }
                        form.paths.push(from..form.segments.len());
                    }
                    match ev.kind {
                        RawEventKind::PhaseStart { .. } => RecordKind::PhaseStart(id),
                        _ => RecordKind::PhaseEnd(id),
                    }
                }
                RawEventKind::BlockStart { resource } => {
                    RecordKind::BlockStart(form.intern(resource))
                }
                RawEventKind::BlockEnd { resource } => RecordKind::BlockEnd(form.intern(resource)),
            };
            form.records.push(Record {
                time: ev.time,
                machine: ev.machine,
                thread: ev.thread,
                kind,
            });
        }
        form
    }

    /// The first-seen id of `name`, adding it to the pool if it is new.
    pub(crate) fn intern(&mut self, name: &'a str) -> NameId {
        let next = self.names.len() as NameId;
        let id = *self.name_ids.entry(name).or_insert(next);
        if id == next {
            self.names.push(name);
        }
        id
    }

    /// The stream ingestion reads: the names ranked, the pool's paths (and
    /// their prefixes) numbered in path order, and the records renumbered
    /// to match. Every id the form holds must be in its pools.
    pub(crate) fn finish(self) -> EventStream {
        let (names, rank) = rank_names(&self.names);
        let mut builder = PathTableBuilder::default();
        let ids: Vec<PathId> = self
            .paths
            .iter()
            .map(|span| {
                let segments = &self.segments[span.clone()];
                builder.insert(segments.iter().map(|&(n, k)| (rank[n as usize], k)))
            })
            .collect();
        let (paths, renamed) = builder.finish();
        let mut records = self.records;
        for r in &mut records {
            r.kind = match r.kind {
                RecordKind::PhaseStart(i) => {
                    RecordKind::PhaseStart(renamed[ids[i as usize] as usize])
                }
                RecordKind::PhaseEnd(i) => RecordKind::PhaseEnd(renamed[ids[i as usize] as usize]),
                RecordKind::BlockStart(n) => RecordKind::BlockStart(rank[n as usize]),
                RecordKind::BlockEnd(n) => RecordKind::BlockEnd(rank[n as usize]),
            };
        }
        EventStream {
            names,
            paths,
            records,
        }
    }
}

impl EventStream {
    /// Interns `events` into the stream ingestion reads.
    pub fn from_events(events: &[RawEvent]) -> EventStream {
        FirstSeen::from_events(events).finish()
    }

    /// The stream as raw events, in arrival order.
    pub fn to_events(&self) -> Vec<RawEvent> {
        self.raw_events(&self.records)
    }

    /// `records` as raw events, each path and name copied out of the tables.
    /// A path is built the first time a record names it, then cloned: the
    /// table also holds every prefix and pool-only paths, and building all
    /// of them costs the square of the deepest path's depth.
    pub(crate) fn raw_events(&self, records: &[Record]) -> Vec<RawEvent> {
        let mut built: Vec<Option<RawPath>> = vec![None; self.paths.len()];
        let mut path = |id: PathId| {
            built[id as usize]
                .get_or_insert_with(|| {
                    self.path(id)
                        .into_iter()
                        .map(|(n, k)| (n.to_owned(), k))
                        .collect()
                })
                .clone()
        };
        let event = |r: &Record| RawEvent {
            time: r.time,
            machine: r.machine,
            thread: r.thread,
            kind: match r.kind {
                RecordKind::PhaseStart(id) => RawEventKind::PhaseStart { path: path(id) },
                RecordKind::PhaseEnd(id) => RawEventKind::PhaseEnd { path: path(id) },
                RecordKind::BlockStart(n) => RawEventKind::BlockStart {
                    resource: self.name(n).into(),
                },
                RecordKind::BlockEnd(n) => RawEventKind::BlockEnd {
                    resource: self.name(n).into(),
                },
            },
        };
        records.iter().map(event).collect()
    }

    pub(crate) fn name(&self, id: NameId) -> &str {
        &self.names[id as usize]
    }

    /// Path `id` as `(name, key)` segments from the root: what an error
    /// message prints, as it would print the [`RawPath`].
    pub(crate) fn path(&self, id: PathId) -> Vec<(&str, u32)> {
        let mut path = Vec::with_capacity(self.paths.depth(id));
        let mut at = Some(id);
        while let Some(p) = at {
            path.extend(self.paths.last(p).map(|(n, k)| (self.name(n), k)));
            at = self.paths.parent(p);
        }
        path.reverse();
        path
    }
}

/// [`build_execution_trace`] over `records`, in time order, of `stream`
/// (its own or repaired ones: only its tables are read).
///
/// Open phases and thread stacks are keyed by path id; open blocks are
/// keyed by name id.
/// Instances are added shallowest first, then by start time, then by path
/// id, which sorts as the paths themselves do.
pub(crate) fn build_trace_from(
    model: &ExecutionModel,
    stream: &EventStream,
    records: &[Record],
) -> Result<ExecutionTrace, Grade10Error> {
    #[derive(Clone, Copy)]
    struct OpenPhase {
        start: Nanos,
        machine: u16,
        thread: u16,
    }
    let paths = &stream.paths;
    // Per path id: the phase open on that path, if any.
    let mut open: Vec<Option<OpenPhase>> = vec![None; paths.len()];
    // Completed phases: (path, start, end, machine, thread).
    let mut completed: Vec<(PathId, Nanos, Nanos, u16, u16)> = Vec::new();
    // Innermost-phase stacks per (machine, thread).
    let mut stacks: HashMap<(u16, u16), Vec<PathId>> = HashMap::new();
    // Open blocks per (machine, thread, resource): (start, blocked path).
    let mut open_blocks: HashMap<(u16, u16, NameId), (Nanos, Option<PathId>)> = HashMap::new();
    // Completed blocking events: (path, resource, start, end).
    let mut blocks: Vec<(PathId, NameId, Nanos, Nanos)> = Vec::new();

    for ev in records {
        match ev.kind {
            RecordKind::PhaseStart(id) => {
                let slot = &mut open[id as usize];
                if slot.is_some() {
                    let path = stream.path(id);
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
                    let path = stream.path(id);
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
                    let resource = stream.name(resource);
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
    // Name the smallest key (the smallest id is the smallest path or
    // name), not the first in hash order: the same damaged stream must
    // yield the same message on every run.
    if let Some(id) = open.iter().position(Option::is_some) {
        let path = stream.path(id as PathId);
        return Err(Grade10Error::MalformedLog(format!(
            "phase {path:?} never ended"
        )));
    }
    if let Some(&(_, _, res)) = open_blocks.keys().min() {
        let res = stream.name(res);
        return Err(Grade10Error::MalformedLog(format!(
            "block on '{res}' never ended"
        )));
    }

    // Add parents before children: shallower paths first, then by start
    // time, then by path (by id) for deterministic instance ids.
    completed.sort_by_key(|&(id, start, ..)| (paths.depth(id), start, id));
    let mut tb = TraceBuilder::new(model);
    // Per path id: its phase type once resolved, and its instance once added.
    let mut types: Vec<Option<PhaseTypeId>> = vec![None; paths.len()];
    let mut instances: Vec<Option<InstanceId>> = vec![None; paths.len()];
    for &(id, start, end, machine, thread) in &completed {
        let type_id = path_type(&tb, stream, &mut types, id)?;
        let parent = match paths.parent(id) {
            None => None,
            Some(p) => Some(instances[p as usize].ok_or_else(|| missing_parent(&stream.path(id)))?),
        };
        let key = paths.last(id).map_or(0, |(_, k)| k);
        let segment = (parent, type_id, key);
        let instance = tb
            .add_resolved(segment, start, end, Some(machine), Some(thread))
            .ok_or_else(|| duplicate_path(&stream.path(id)))?;
        instances[id as usize] = Some(instance);
    }
    for &(id, resource, start, end) in &blocks {
        let instance = instances[id as usize].ok_or_else(|| {
            let path = stream.path(id);
            Grade10Error::MalformedLog(format!("blocked phase {path:?} not found"))
        })?;
        tb.add_blocking(instance, stream.name(resource), start, end);
    }
    tb.build()
}

/// The phase type path `id` names, resolved from its nearest resolved
/// ancestor's type (or the root) downwards and remembered in `types`, in a
/// loop: a path may be as deep as its container is long. An error names
/// the first segment from the root that does not resolve, as walking the
/// names from the root would.
fn path_type(
    tb: &TraceBuilder<'_>,
    stream: &EventStream,
    types: &mut [Option<PhaseTypeId>],
    id: PathId,
) -> Result<PhaseTypeId, Grade10Error> {
    let (mut unresolved, mut at, mut type_id) = (Vec::new(), Some(id), None);
    while let Some(p) = at {
        type_id = types[p as usize];
        if type_id.is_some() {
            break;
        }
        unresolved.push(p);
        at = stream.paths.parent(p);
    }
    for p in unresolved.into_iter().rev() {
        let Some((name, _)) = stream.paths.last(p) else {
            return Err(Grade10Error::ModelMismatch("empty phase path".into()));
        };
        type_id = Some(tb.segment_type(type_id, stream.name(name))?);
        types[p as usize] = type_id;
    }
    type_id.ok_or_else(|| Grade10Error::ModelMismatch("empty phase path".into()))
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
        return Err(Grade10Error::MalformedLog(format!(
            "phase {path:?} never ended"
        )));
    }
    if let Some((_, _, res)) = open_blocks.keys().min() {
        return Err(Grade10Error::MalformedLog(format!(
            "block on '{res}' never ended"
        )));
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
            ev(
                0,
                0,
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
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
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0)]),
                },
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
            RawEventKind::PhaseStart {
                path: path(&[("job", 0)]),
            },
        )];
        assert!(build_execution_trace(&m, &events).is_err());
    }

    /// Several unclosed phases and blocks: the error names the smallest
    /// key, so the message is the same on every call (it used to follow
    /// `HashMap` iteration order, which differs per map instance).
    #[test]
    fn never_ended_error_names_the_same_phase_every_time() {
        let m = model();
        let mut events = vec![ev(
            0,
            0,
            0,
            RawEventKind::PhaseStart {
                path: path(&[("job", 0)]),
            },
        )];
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
        let mut events = vec![ev(
            0,
            0,
            0,
            RawEventKind::PhaseStart {
                path: path(&[("job", 0)]),
            },
        )];
        for r in ["net", "gc", "msgq", "barrier", "disk", "lock"] {
            events.push(ev(1, 0, 0, RawEventKind::BlockStart { resource: r.into() }));
        }
        events.push(ev(
            9,
            0,
            0,
            RawEventKind::PhaseEnd {
                path: path(&[("job", 0)]),
            },
        ));
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
            RawEventKind::PhaseEnd {
                path: path(&[("job", 0)]),
            },
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
            ev(
                10,
                0,
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
            ev(
                20,
                0,
                0,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0)]),
                },
            ),
        ];
        let trace = build_execution_trace(&m, &events).unwrap();
        assert_eq!(trace.blocking().len(), 0);
        assert_eq!(trace.instances().len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let events = vec![
            ev(
                5,
                1,
                2,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
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
            ev(
                20,
                0,
                0,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0)]),
                },
            ),
            ev(
                0,
                0,
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
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
        let mut events = vec![ev(
            0,
            0,
            0,
            RawEventKind::PhaseStart {
                path: path(&[("job", 0)]),
            },
        )];
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
                    let block_start = RawEventKind::BlockStart {
                        resource: resource.clone(),
                    };
                    events.push(ev(from, machine, thread, block_start));
                    events.push(ev(to, machine, thread, RawEventKind::BlockEnd { resource }));
                }
                events.push(ev(
                    end,
                    machine,
                    thread,
                    RawEventKind::PhaseEnd { path: task },
                ));
                step_end = step_end.max(end);
            }
            t = step_end + rng.gen_range(0..2);
            events.push(ev(t, 0, 0, RawEventKind::PhaseEnd { path: step }));
        }
        if rng.gen_bool(0.3) {
            let resource = "disk".to_string();
            events.push(ev(
                t,
                1,
                5,
                RawEventKind::BlockStart {
                    resource: resource.clone(),
                },
            ));
            events.push(ev(t + 1, 1, 5, RawEventKind::BlockEnd { resource }));
        }
        events.push(ev(
            t + 1,
            0,
            0,
            RawEventKind::PhaseEnd {
                path: path(&[("job", 0)]),
            },
        ));
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
                    let run = events[i..]
                        .iter()
                        .take_while(|e| e.time == events[i].time)
                        .count();
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
                events.push(ev(
                    at,
                    1,
                    1,
                    RawEventKind::PhaseStart {
                        path: again.clone(),
                    },
                ));
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
        assert!(
            built >= 40 && rejected >= 40,
            "{built} built, {rejected} rejected"
        );
    }

    /// The string-keyed path table the id-keyed one replaced, kept as the
    /// oracle of `path_table_matches_the_string_keyed_oracle`: paths are
    /// interned from borrowed segments in first-seen order, then sorted.
    #[derive(Default)]
    struct OraclePathTable<'e> {
        entries: Vec<(Segments<'e>, Option<PathId>)>,
    }

    /// A borrowed phase path, or a prefix of one.
    type Segments<'e> = &'e [(String, u32)];

    impl<'e> OraclePathTable<'e> {
        fn intern(
            &mut self,
            ids: &mut HashMap<Segments<'e>, PathId>,
            path: Segments<'e>,
        ) -> PathId {
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

        fn sort(&mut self) -> Vec<PathId> {
            let mut order: Vec<PathId> = (0..self.entries.len() as PathId).collect();
            order.sort_unstable_by_key(|&id| self.entries[id as usize].0);
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
    }

    /// Random path sets: paths grown from earlier ones (shared prefixes),
    /// names that repeat with different keys, names that sort differently
    /// in bytes than in letters (non-ASCII, upper case, prefixes of one
    /// another), the empty path, and repeats of whole paths.
    fn random_paths(rng: &mut ChaCha8Rng) -> Vec<RawPath> {
        const NAMES: [&str; 10] = [
            "job", "step", "Step", "st", "task", "é", "ü", "日本", "", "z",
        ];
        let mut paths: Vec<RawPath> = Vec::new();
        for _ in 0..rng.gen_range(1..60) {
            let mut path = match rng.gen_range(0..4) {
                0 => Vec::new(),
                _ if paths.is_empty() => Vec::new(),
                _ => paths[rng.gen_range(0..paths.len())].clone(),
            };
            if rng.gen_bool(0.9) {
                for _ in 0..rng.gen_range(0..3) {
                    let name = NAMES[rng.gen_range(0..NAMES.len())].to_string();
                    path.push((name, rng.gen_range(0..3)));
                }
            }
            paths.push(path);
        }
        paths
    }

    /// The trie-walk numbering issues exactly the ids and parents the
    /// string sort did, on random path sets whose names reach the builder
    /// through a pool with repeated entries (as a hand-made `STRINGS`
    /// section may have them).
    #[test]
    fn path_table_matches_the_string_keyed_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9a7);
        for case in 0..400 {
            let paths = random_paths(&mut rng);
            let mut oracle = OraclePathTable::default();
            let mut ids = HashMap::new();
            let first: Vec<PathId> = paths.iter().map(|p| oracle.intern(&mut ids, p)).collect();
            let renamed = oracle.sort();

            // A pool holding every name twice; segments pick either copy.
            let mut pool: Vec<&str> = Vec::new();
            for (name, _) in paths.iter().flatten() {
                if !pool.contains(&name.as_str()) {
                    pool.extend([name.as_str(), name.as_str()]);
                }
            }
            let (names, rank) = rank_names(&pool);
            let mut builder = PathTableBuilder::default();
            let mine: Vec<PathId> = paths
                .iter()
                .map(|path| {
                    let segments: Vec<(NameId, u32)> = path
                        .iter()
                        .map(|(name, key)| {
                            let at = pool.iter().position(|p| p == name).unwrap();
                            (rank[at + rng.gen_range(0..2)], *key)
                        })
                        .collect();
                    builder.insert(segments)
                })
                .collect();
            let (table, mine_renamed) = builder.finish();

            assert_eq!(table.len(), oracle.entries.len(), "case {case}");
            for (i, path) in paths.iter().enumerate() {
                let id = mine_renamed[mine[i] as usize];
                assert_eq!(id, renamed[first[i] as usize], "case {case}: {path:?}");
            }
            for (id, &(path, parent)) in (0..).zip(&oracle.entries) {
                assert_eq!(table.parent(id), parent, "case {case}: {path:?}");
                assert_eq!(table.depth(id), path.len(), "case {case}: {path:?}");
                let last = table.last(id).map(|(n, k)| (names[n as usize].clone(), k));
                assert_eq!(last.as_ref(), path.last(), "case {case}: {path:?}");
            }
        }
    }

    /// A path as deep as its input allows is rejected with an error, not
    /// a stack overflow: a 1.6 MB container with one 200k-segment path
    /// used to abort `analyze` while resolving its phase type.
    #[test]
    fn a_very_deep_path_is_rejected_without_recursion() {
        let deep: RawPath = (0..200_000).map(|k| ("job".to_string(), k)).collect();
        let events = vec![
            ev(0, 0, 0, RawEventKind::PhaseStart { path: deep.clone() }),
            ev(1, 0, 0, RawEventKind::PhaseEnd { path: deep }),
        ];
        let err = build_execution_trace(&model(), &events).unwrap_err();
        assert!(matches!(err, Grade10Error::ModelMismatch(_)), "{err}");
    }
}
