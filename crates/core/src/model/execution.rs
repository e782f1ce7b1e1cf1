//! The execution model: a hierarchical DAG of phase types (§III-B).
//!
//! Nodes are *phase types* ("superstep", "compute", "gather-thread"); a node
//! may contain a nested DAG of child types, and directed edges between
//! sibling types express precedence. A phase type may be instantiated more
//! than once within one parent instance; [`Repeat`] declares whether such
//! instances run one after another (supersteps) or concurrently (threads).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Index of a phase type within an [`ExecutionModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhaseTypeId(pub u32);

/// How multiple instances of a phase type relate within one parent instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Repeat {
    /// At most one instance per parent instance.
    Once,
    /// Instances execute in instance-key order (e.g. supersteps).
    Sequential,
    /// Instances execute concurrently (e.g. worker threads).
    Parallel,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct PhaseTypeNode {
    pub name: String,
    pub parent: Option<PhaseTypeId>,
    pub children: Vec<PhaseTypeId>,
    /// Precedence edges among this node's children.
    pub edges: Vec<(PhaseTypeId, PhaseTypeId)>,
    pub repeat: Repeat,
}

/// A frozen execution model. Build with [`ExecutionModelBuilder`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecutionModel {
    nodes: Vec<PhaseTypeNode>,
    root: PhaseTypeId,
}

impl ExecutionModel {
    /// The root phase type (the whole job).
    pub fn root(&self) -> PhaseTypeId {
        self.root
    }

    /// Name of a phase type.
    pub fn name(&self, id: PhaseTypeId) -> &str {
        &self.nodes[id.0 as usize].name
    }

    /// Parent of a phase type (`None` for the root).
    pub fn parent(&self, id: PhaseTypeId) -> Option<PhaseTypeId> {
        self.nodes[id.0 as usize].parent
    }

    /// Children of a phase type.
    pub fn children(&self, id: PhaseTypeId) -> &[PhaseTypeId] {
        &self.nodes[id.0 as usize].children
    }

    /// Precedence edges among the children of `id`.
    pub fn edges(&self, id: PhaseTypeId) -> &[(PhaseTypeId, PhaseTypeId)] {
        &self.nodes[id.0 as usize].edges
    }

    /// Repetition semantics of a phase type.
    pub fn repeat(&self, id: PhaseTypeId) -> Repeat {
        self.nodes[id.0 as usize].repeat
    }

    /// True if `id` has no children (leaf phases carry resource demand;
    /// container phases aggregate their leaves).
    pub fn is_leaf(&self, id: PhaseTypeId) -> bool {
        self.children(id).is_empty()
    }

    /// Number of phase types.
    pub fn num_types(&self) -> usize {
        self.nodes.len()
    }

    /// Child of `parent` with the given name.
    pub fn child_by_name(&self, parent: PhaseTypeId, name: &str) -> Option<PhaseTypeId> {
        self.children(parent)
            .iter()
            .copied()
            .find(|&c| self.name(c) == name)
    }

    /// Resolves a path of names from the root (the root's own name is the
    /// first element).
    pub fn resolve_path(&self, names: &[&str]) -> Option<PhaseTypeId> {
        let mut it = names.iter();
        let first = it.next()?;
        if *first != self.name(self.root) {
            return None;
        }
        let mut cur = self.root;
        for name in it {
            cur = self.child_by_name(cur, name)?;
        }
        Some(cur)
    }

    /// Finds a phase type anywhere in the tree by name (first match in
    /// breadth-first order). Names need not be globally unique; prefer
    /// [`resolve_path`](Self::resolve_path) when they are not.
    pub fn find_by_name(&self, name: &str) -> Option<PhaseTypeId> {
        let mut queue = std::collections::VecDeque::from([self.root]);
        while let Some(id) = queue.pop_front() {
            if self.name(id) == name {
                return Some(id);
            }
            queue.extend(self.children(id).iter().copied());
        }
        None
    }

    /// Full name path of a type from the root, dot-joined.
    pub fn type_path(&self, id: PhaseTypeId) -> String {
        let mut parts = vec![self.name(id).to_string()];
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            parts.push(self.name(p).to_string());
            cur = p;
        }
        parts.reverse();
        parts.join(".")
    }

    /// The nearest ancestor (or `id` itself) with `Sequential` repetition,
    /// or the root. This is the scope within which concurrent same-type
    /// phases are considered interchangeable by the imbalance analysis:
    /// work moves freely among the gather threads of one iteration, never
    /// across iterations.
    pub fn grouping_scope(&self, id: PhaseTypeId) -> PhaseTypeId {
        let mut cur = id;
        loop {
            match self.parent(cur) {
                None => return cur,
                Some(p) => {
                    if self.repeat(cur) == Repeat::Sequential {
                        return cur;
                    }
                    cur = p;
                }
            }
        }
    }
}

/// Builder for [`ExecutionModel`].
pub struct ExecutionModelBuilder {
    nodes: Vec<PhaseTypeNode>,
}

impl ExecutionModelBuilder {
    /// Starts a model whose root phase type is `root_name`.
    pub fn new(root_name: impl Into<String>) -> Self {
        ExecutionModelBuilder {
            nodes: vec![PhaseTypeNode {
                name: root_name.into(),
                parent: None,
                children: Vec::new(),
                edges: Vec::new(),
                repeat: Repeat::Once,
            }],
        }
    }

    /// The root's id.
    pub fn root(&self) -> PhaseTypeId {
        PhaseTypeId(0)
    }

    /// Adds a child phase type under `parent`. Sibling names must be unique.
    pub fn child(
        &mut self,
        parent: PhaseTypeId,
        name: impl Into<String>,
        repeat: Repeat,
    ) -> PhaseTypeId {
        let name = name.into();
        assert!(
            !self.nodes[parent.0 as usize]
                .children
                .iter()
                .any(|&c| self.nodes[c.0 as usize].name == name),
            "duplicate child name '{name}'"
        );
        let id = PhaseTypeId(self.nodes.len() as u32);
        self.nodes.push(PhaseTypeNode {
            name,
            parent: Some(parent),
            children: Vec::new(),
            edges: Vec::new(),
            repeat,
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Declares that every instance of `from` precedes every instance of
    /// `to` within one parent instance. Both must be children of the same
    /// parent.
    pub fn edge(&mut self, from: PhaseTypeId, to: PhaseTypeId) {
        let pf = self.nodes[from.0 as usize].parent;
        let pt = self.nodes[to.0 as usize].parent;
        let (Some(parent), true) = (pf, pf == pt) else {
            panic!("precedence edges must connect siblings");
        };
        self.nodes[parent.0 as usize].edges.push((from, to));
    }

    /// Freezes the model, verifying the sibling DAGs are acyclic.
    pub fn build(self) -> ExecutionModel {
        // Cycle check per parent via Kahn's algorithm.
        for node in &self.nodes {
            if node.edges.is_empty() {
                continue;
            }
            let mut indeg: HashMap<PhaseTypeId, usize> =
                node.children.iter().map(|&c| (c, 0)).collect();
            for &(_, to) in &node.edges {
                let Some(d) = indeg.get_mut(&to) else {
                    panic!("edge endpoint {to:?} is not a child of its parent");
                };
                *d += 1;
            }
            let mut queue: Vec<PhaseTypeId> = indeg
                .iter()
                .filter(|(_, &d)| d == 0)
                .map(|(&c, _)| c)
                .collect();
            let mut seen = 0;
            while let Some(c) = queue.pop() {
                seen += 1;
                for &(f, t) in &node.edges {
                    if f == c {
                        let Some(d) = indeg.get_mut(&t) else {
                            unreachable!("every edge endpoint was seeded above");
                        };
                        *d -= 1;
                        if *d == 0 {
                            queue.push(t);
                        }
                    }
                }
            }
            assert_eq!(
                seen,
                node.children.len(),
                "cycle among children of '{}'",
                node.name
            );
        }
        ExecutionModel {
            nodes: self.nodes,
            root: PhaseTypeId(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Giraph-flavored model used across core tests.
    pub(crate) fn giraph_like() -> ExecutionModel {
        let mut b = ExecutionModelBuilder::new("job");
        let root = b.root();
        let load = b.child(root, "load", Repeat::Parallel);
        let execute = b.child(root, "execute", Repeat::Once);
        let output = b.child(root, "output", Repeat::Parallel);
        b.edge(load, execute);
        b.edge(execute, output);
        let superstep = b.child(execute, "superstep", Repeat::Sequential);
        let worker = b.child(superstep, "worker", Repeat::Parallel);
        let compute = b.child(worker, "compute", Repeat::Once);
        let _thread = b.child(compute, "thread", Repeat::Parallel);
        let comm = b.child(worker, "communicate", Repeat::Once);
        let sync = b.child(worker, "sync", Repeat::Once);
        b.edge(compute, sync);
        b.edge(comm, sync);
        b.build()
    }

    #[test]
    fn build_and_navigate() {
        let m = giraph_like();
        assert_eq!(m.name(m.root()), "job");
        let execute = m.child_by_name(m.root(), "execute").unwrap();
        let superstep = m.child_by_name(execute, "superstep").unwrap();
        assert_eq!(m.repeat(superstep), Repeat::Sequential);
        assert_eq!(m.parent(superstep), Some(execute));
        assert!(!m.is_leaf(superstep));
        let worker = m.child_by_name(superstep, "worker").unwrap();
        let sync = m.child_by_name(worker, "sync").unwrap();
        assert!(m.is_leaf(sync));
    }

    #[test]
    fn resolve_path_walks_names() {
        let m = giraph_like();
        let id = m
            .resolve_path(&["job", "execute", "superstep", "worker", "compute", "thread"])
            .unwrap();
        assert_eq!(m.name(id), "thread");
        assert!(m.resolve_path(&["job", "nope"]).is_none());
        assert!(m.resolve_path(&["wrong-root"]).is_none());
    }

    #[test]
    fn type_path_round_trips() {
        let m = giraph_like();
        let id = m.find_by_name("thread").unwrap();
        assert_eq!(
            m.type_path(id),
            "job.execute.superstep.worker.compute.thread"
        );
    }

    #[test]
    fn grouping_scope_finds_iteration_boundary() {
        let m = giraph_like();
        let thread = m.find_by_name("thread").unwrap();
        let superstep = m.find_by_name("superstep").unwrap();
        assert_eq!(m.grouping_scope(thread), superstep);
        // The root groups at itself.
        assert_eq!(m.grouping_scope(m.root()), m.root());
        // load is Parallel directly under the root: scope is the root.
        let load = m.find_by_name("load").unwrap();
        assert_eq!(m.grouping_scope(load), m.root());
    }

    #[test]
    #[should_panic(expected = "duplicate child name")]
    fn duplicate_sibling_names_rejected() {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        b.child(r, "x", Repeat::Once);
        b.child(r, "x", Repeat::Once);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_edges_rejected() {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let a = b.child(r, "a", Repeat::Once);
        let c = b.child(r, "b", Repeat::Once);
        b.edge(a, c);
        b.edge(c, a);
        b.build();
    }

    #[test]
    #[should_panic(expected = "siblings")]
    fn non_sibling_edge_rejected() {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let a = b.child(r, "a", Repeat::Once);
        let nested = b.child(a, "nested", Repeat::Once);
        let c = b.child(r, "b", Repeat::Once);
        b.edge(nested, c);
    }
}
