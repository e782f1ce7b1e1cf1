//! The execution trace: phase instances and blocking events of one workload
//! execution (§III-C).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::Grade10Error;
use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::trace::timeslice::Nanos;

/// Index of a phase instance within an [`ExecutionTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u32);

/// One executed phase: an instantiation of a phase type with concrete start
/// and end times, optionally pinned to a machine and thread.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseInstance {
    /// This instance's id (its index in the trace).
    pub id: InstanceId,
    /// The phase type being instantiated.
    pub type_id: PhaseTypeId,
    /// Enclosing phase instance (`None` for the root).
    pub parent: Option<InstanceId>,
    /// Instance key distinguishing repeated instances under one parent
    /// (superstep number, thread index, ...).
    pub key: u32,
    /// Start time, nanoseconds.
    pub start: Nanos,
    /// End time, nanoseconds (exclusive).
    pub end: Nanos,
    /// Machine the phase ran on, when pinned.
    pub machine: Option<u16>,
    /// Machine-local thread, when pinned.
    pub thread: Option<u16>,
}

impl PhaseInstance {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// A period during which a phase was halted by a blocking resource.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockingEvent {
    /// Blocking resource kind name ("gc", "msgq", "barrier", ...).
    pub resource: String,
    /// The phase instance that was blocked.
    pub instance: InstanceId,
    /// Interval start, nanoseconds.
    pub start: Nanos,
    /// Interval end, nanoseconds (exclusive).
    pub end: Nanos,
}

/// The full execution trace of one workload run. The default is the empty
/// trace.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ExecutionTrace {
    instances: Vec<PhaseInstance>,
    blocking: Vec<BlockingEvent>,
    children: Vec<Vec<InstanceId>>,
    /// Blocking events per instance (indices into `blocking`).
    blocking_by_instance: Vec<Vec<u32>>,
}

impl ExecutionTrace {
    /// Assembles a trace from raw parts, building the child/blocking
    /// indices. Validates parent references and time ordering.
    pub fn from_parts(
        instances: Vec<PhaseInstance>,
        blocking: Vec<BlockingEvent>,
    ) -> Result<Self, Grade10Error> {
        let n = instances.len();
        let mut children = vec![Vec::new(); n];
        for inst in &instances {
            if inst.end < inst.start {
                return Err(Grade10Error::InvalidTrace(format!(
                    "instance {:?} ends ({}) before it starts ({})",
                    inst.id, inst.end, inst.start
                )));
            }
            if let Some(p) = inst.parent {
                if p.0 as usize >= n {
                    return Err(Grade10Error::InvalidTrace(format!(
                        "instance {:?} has unknown parent {:?}",
                        inst.id, p
                    )));
                }
                children[p.0 as usize].push(inst.id);
            }
        }
        let mut blocking_by_instance = vec![Vec::new(); n];
        for (i, ev) in blocking.iter().enumerate() {
            if ev.instance.0 as usize >= n {
                return Err(Grade10Error::InvalidTrace(format!(
                    "blocking event {i} names unknown instance"
                )));
            }
            if ev.end < ev.start {
                return Err(Grade10Error::InvalidTrace(format!(
                    "blocking event {i} ends before it starts"
                )));
            }
            blocking_by_instance[ev.instance.0 as usize].push(i as u32);
        }
        Ok(ExecutionTrace {
            instances,
            blocking,
            children,
            blocking_by_instance,
        })
    }

    /// All instances.
    pub fn instances(&self) -> &[PhaseInstance] {
        &self.instances
    }

    /// One instance by id.
    pub fn instance(&self, id: InstanceId) -> &PhaseInstance {
        &self.instances[id.0 as usize]
    }

    /// Children of an instance.
    pub fn children_of(&self, id: InstanceId) -> &[InstanceId] {
        &self.children[id.0 as usize]
    }

    /// True if the instance has no children in the trace. Leaf instances
    /// carry resource demand; containers aggregate.
    pub fn is_leaf(&self, id: InstanceId) -> bool {
        self.children[id.0 as usize].is_empty()
    }

    /// All leaf instances.
    pub fn leaves(&self) -> impl Iterator<Item = &PhaseInstance> {
        self.instances.iter().filter(|i| self.is_leaf(i.id))
    }

    /// All instances of one phase type.
    pub fn instances_of_type(&self, type_id: PhaseTypeId) -> impl Iterator<Item = &PhaseInstance> {
        self.instances.iter().filter(move |i| i.type_id == type_id)
    }

    /// All blocking events.
    pub fn blocking(&self) -> &[BlockingEvent] {
        &self.blocking
    }

    /// Blocking events affecting one instance.
    pub fn blocking_of(&self, id: InstanceId) -> impl Iterator<Item = &BlockingEvent> {
        self.blocking_by_instance[id.0 as usize]
            .iter()
            .map(move |&i| &self.blocking[i as usize])
    }

    /// Latest end time over all instances (0 for an empty trace).
    pub fn makespan_end(&self) -> Nanos {
        self.instances.iter().map(|i| i.end).max().unwrap_or(0)
    }

    /// Earliest start time over all instances.
    pub fn origin(&self) -> Nanos {
        self.instances.iter().map(|i| i.start).min().unwrap_or(0)
    }

    /// The ancestor of `id` (possibly itself) with the given type.
    pub fn ancestor_of_type(&self, id: InstanceId, type_id: PhaseTypeId) -> Option<InstanceId> {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if self.instance(c).type_id == type_id {
                return Some(c);
            }
            cur = self.instance(c).parent;
        }
        None
    }

    /// Human-readable path of an instance, using `model` for names:
    /// `job.superstep[3].worker[2].compute`.
    pub fn instance_path(&self, model: &ExecutionModel, id: InstanceId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let inst = self.instance(c);
            let name = model.name(inst.type_id);
            if inst.key == 0 {
                parts.push(name.to_string());
            } else {
                parts.push(format!("{name}[{}]", inst.key));
            }
            cur = inst.parent;
        }
        parts.reverse();
        parts.join(".")
    }
}

/// Builds an [`ExecutionTrace`] from phases identified by hierarchical name
/// paths, resolving phase types against an [`ExecutionModel`].
///
/// Instances are indexed by their last path segment under their parent
/// instance, `(parent, type, key)`, so no entry ever builds an owned key.
/// [`TraceBuilder::add_phase`] is the entry for callers holding name paths.
/// The log parser ([`crate::parse::build_execution_trace`], which the
/// pipeline's ingest stage runs) resolves each distinct path once itself
/// and inserts through the crate-private `add_resolved`.
pub struct TraceBuilder<'m> {
    model: &'m ExecutionModel,
    instances: Vec<PhaseInstance>,
    blocking: Vec<BlockingEvent>,
    by_segment: HashMap<Segment, InstanceId>,
}

/// A path's last segment resolved under its parent instance:
/// `(parent, type, key)`.
pub(crate) type Segment = (Option<InstanceId>, PhaseTypeId, u32);

impl<'m> TraceBuilder<'m> {
    /// Creates a builder over `model`.
    pub fn new(model: &'m ExecutionModel) -> Self {
        TraceBuilder {
            model,
            instances: Vec::new(),
            blocking: Vec::new(),
            by_segment: HashMap::new(),
        }
    }

    /// Adds a phase instance. `path` is the full instance path from the
    /// root, e.g. `&[("job", 0), ("superstep", 3), ("compute", 1)]`; all
    /// ancestors must have been added first.
    pub fn add_phase(
        &mut self,
        path: &[(&str, u32)],
        start: Nanos,
        end: Nanos,
        machine: Option<u16>,
        thread: Option<u16>,
    ) -> Result<InstanceId, Grade10Error> {
        let Some((&(_, key), ancestors)) = path.split_last() else {
            return Err(Grade10Error::ModelMismatch("empty phase path".into()));
        };
        // Every name resolves before the parent is looked up, so a name
        // error wins over a missing parent.
        let mut type_id = self.segment_type(None, path[0].0)?;
        for &(name, _) in &path[1..] {
            type_id = self.segment_type(Some(type_id), name)?;
        }
        let parent = match ancestors {
            [] => None,
            _ => Some(
                self.instance_by_path(ancestors)
                    .ok_or_else(|| missing_parent(path))?,
            ),
        };
        self.add_resolved((parent, type_id, key), start, end, machine, thread)
            .ok_or_else(|| duplicate_path(path))
    }

    /// The type of a path segment named `name` whose parent segment has
    /// type `parent` (`None`: the segment is the path's root).
    pub(crate) fn segment_type(
        &self,
        parent: Option<PhaseTypeId>,
        name: &str,
    ) -> Result<PhaseTypeId, Grade10Error> {
        let Some(parent) = parent else {
            let root = self.model.root();
            if name != self.model.name(root) {
                return Err(Grade10Error::ModelMismatch(format!(
                    "path root '{name}' does not match model root '{}'",
                    self.model.name(root)
                )));
            }
            return Ok(root);
        };
        self.model.child_by_name(parent, name).ok_or_else(|| {
            Grade10Error::ModelMismatch(format!("unknown phase type '{name}' in path"))
        })
    }

    /// Adds a phase instance whose type and parent the caller resolved:
    /// `segment` is `(parent, type, key)`. `None` when that segment already
    /// has an instance.
    pub(crate) fn add_resolved(
        &mut self,
        segment: Segment,
        start: Nanos,
        end: Nanos,
        machine: Option<u16>,
        thread: Option<u16>,
    ) -> Option<InstanceId> {
        let id = InstanceId(self.instances.len() as u32);
        match self.by_segment.entry(segment) {
            Entry::Occupied(_) => return None,
            Entry::Vacant(slot) => slot.insert(id),
        };
        let (parent, type_id, key) = segment;
        self.instances.push(PhaseInstance {
            id,
            type_id,
            parent,
            key,
            start,
            end,
            machine,
            thread,
        });
        Some(id)
    }

    /// Looks up an instance by its full path.
    pub fn instance_by_path(&self, path: &[(&str, u32)]) -> Option<InstanceId> {
        let mut at: Option<(PhaseTypeId, InstanceId)> = None;
        for &(name, key) in path {
            let type_id = self.segment_type(at.map(|(t, _)| t), name).ok()?;
            let id = *self.by_segment.get(&(at.map(|(_, i)| i), type_id, key))?;
            at = Some((type_id, id));
        }
        at.map(|(_, id)| id)
    }

    /// Adds a blocking event on a previously added instance.
    pub fn add_blocking(
        &mut self,
        instance: InstanceId,
        resource: impl Into<String>,
        start: Nanos,
        end: Nanos,
    ) {
        self.blocking.push(BlockingEvent {
            resource: resource.into(),
            instance,
            start,
            end,
        });
    }

    /// Freezes the trace.
    pub fn build(self) -> Result<ExecutionTrace, Grade10Error> {
        ExecutionTrace::from_parts(self.instances, self.blocking)
    }
}

/// The rejection of a phase whose parent instance was never added.
pub(crate) fn missing_parent<S: AsRef<str>>(path: &[(S, u32)]) -> Grade10Error {
    let segments: Vec<String> = path
        .iter()
        .map(|(n, k)| format!("{}[{k}]", n.as_ref()))
        .collect();
    Grade10Error::ModelMismatch(format!(
        "parent instance not added yet for path {segments:?}"
    ))
}

/// The rejection of a second instance at one path.
pub(crate) fn duplicate_path<S: std::fmt::Debug>(path: &[(S, u32)]) -> Grade10Error {
    Grade10Error::InvalidTrace(format!("duplicate phase instance path {path:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};

    fn tiny_model() -> ExecutionModel {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let step = b.child(r, "step", Repeat::Sequential);
        let _t = b.child(step, "task", Repeat::Parallel);
        b.build()
    }

    #[test]
    fn builder_resolves_types_and_parents() {
        let m = tiny_model();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 100, None, None).unwrap();
        tb.add_phase(&[("job", 0), ("step", 0)], 0, 50, None, None)
            .unwrap();
        let t0 = tb
            .add_phase(
                &[("job", 0), ("step", 0), ("task", 0)],
                0,
                40,
                Some(1),
                Some(0),
            )
            .unwrap();
        tb.add_blocking(t0, "gc", 10, 20);
        let trace = tb.build().unwrap();
        assert_eq!(trace.instances().len(), 3);
        let task = trace.instance(t0);
        assert_eq!(task.machine, Some(1));
        assert_eq!(trace.blocking_of(t0).count(), 1);
        assert_eq!(trace.makespan_end(), 100);
        assert!(trace.is_leaf(t0));
        assert!(!trace.is_leaf(InstanceId(0)));
        assert_eq!(trace.children_of(InstanceId(0)).len(), 1);
    }

    #[test]
    fn missing_parent_rejected() {
        let m = tiny_model();
        let mut tb = TraceBuilder::new(&m);
        let err = tb
            .add_phase(&[("job", 0), ("step", 0)], 0, 10, None, None)
            .unwrap_err();
        assert!(err.detail().contains("parent instance"), "{err}");
    }

    #[test]
    fn unknown_type_rejected() {
        let m = tiny_model();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 10, None, None).unwrap();
        let err = tb
            .add_phase(&[("job", 0), ("bogus", 0)], 0, 5, None, None)
            .unwrap_err();
        assert!(err.detail().contains("unknown phase type"), "{err}");
    }

    #[test]
    fn duplicate_path_rejected() {
        let m = tiny_model();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 10, None, None).unwrap();
        let err = tb.add_phase(&[("job", 0)], 1, 5, None, None).unwrap_err();
        assert!(err.detail().contains("duplicate"), "{err}");
    }

    #[test]
    fn instance_path_formats_keys() {
        let m = tiny_model();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 100, None, None).unwrap();
        tb.add_phase(&[("job", 0), ("step", 2)], 0, 50, None, None)
            .unwrap();
        let t = tb
            .add_phase(&[("job", 0), ("step", 2), ("task", 7)], 0, 40, None, None)
            .unwrap();
        let trace = tb.build().unwrap();
        assert_eq!(trace.instance_path(&m, t), "job.step[2].task[7]");
    }

    #[test]
    fn ancestor_of_type_walks_up() {
        let m = tiny_model();
        let step_ty = m.find_by_name("step").unwrap();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 100, None, None).unwrap();
        tb.add_phase(&[("job", 0), ("step", 1)], 0, 50, None, None)
            .unwrap();
        let t = tb
            .add_phase(&[("job", 0), ("step", 1), ("task", 0)], 0, 40, None, None)
            .unwrap();
        let trace = tb.build().unwrap();
        let anc = trace.ancestor_of_type(t, step_ty).unwrap();
        assert_eq!(trace.instance(anc).key, 1);
        assert!(trace.ancestor_of_type(InstanceId(0), step_ty).is_none());
    }

    #[test]
    fn trace_serde_round_trip() {
        let m = tiny_model();
        let mut tb = TraceBuilder::new(&m);
        tb.add_phase(&[("job", 0)], 0, 100, None, None).unwrap();
        tb.add_phase(&[("job", 0), ("step", 0)], 0, 50, None, None)
            .unwrap();
        let t0 = tb
            .add_phase(
                &[("job", 0), ("step", 0), ("task", 0)],
                0,
                40,
                Some(1),
                Some(2),
            )
            .unwrap();
        tb.add_blocking(t0, "gc", 10, 20);
        let trace = tb.build().unwrap();
        let json = serde_json::to_string(&trace).unwrap();
        let back: ExecutionTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.instances(), trace.instances());
        assert_eq!(back.blocking(), trace.blocking());
        // Derived indices survive deserialization.
        assert_eq!(
            back.children_of(InstanceId(0)),
            trace.children_of(InstanceId(0))
        );
        assert_eq!(back.blocking_of(t0).count(), 1);
    }

    #[test]
    fn from_parts_validates() {
        let bad = ExecutionTrace::from_parts(
            vec![PhaseInstance {
                id: InstanceId(0),
                type_id: PhaseTypeId(0),
                parent: None,
                key: 0,
                start: 10,
                end: 5,
                machine: None,
                thread: None,
            }],
            vec![],
        );
        assert!(bad.is_err());
    }
}
