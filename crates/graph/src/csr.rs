//! Compressed sparse row (CSR) graph representation.
//!
//! All algorithms in this crate operate on [`CsrGraph`]. The representation
//! stores out-edges in a single contiguous `targets` array indexed by a
//! per-vertex `offsets` array, which keeps neighbor iteration sequential in
//! memory — the dominant access pattern of every graph algorithm here.

use crate::{Edge, VertexId};

/// A directed graph in CSR form. Vertices are dense integers `0..n`.
///
/// The graph may optionally carry its transpose (in-edges), which algorithms
/// that read incoming edges (CDLP's gather) require. Build it once with
/// [`CsrGraph::with_transpose`] and share it. A graph built symmetric by
/// [`GraphBuilder::build_with_transpose`] is its own transpose and stores
/// no second copy.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    transpose: Transpose,
}

/// Where a graph's in-edges come from.
#[derive(Clone, Debug)]
enum Transpose {
    /// Not built: `in_neighbors` and `in_degree` panic.
    None,
    /// The graph is symmetric, so each vertex's sorted in-sources are its
    /// sorted out-targets.
    SameAsOut,
    /// Built from the out-edges; sources sorted ascending per vertex.
    Built {
        offsets: Vec<u64>,
        sources: Vec<VertexId>,
    },
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list. Self-loops are kept; parallel
    /// edges are kept (generators deduplicate where the dataset calls for it).
    ///
    /// `num_vertices` must be at least `max vertex id + 1`; passing a larger
    /// value creates isolated vertices, which is valid.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        Self::from_buckets(num_vertices, edges, Transforms::default())
    }

    /// Counting sort of `edges` into per-source buckets: count each kept
    /// edge's source (and, under `symmetric`, its target), scatter the
    /// targets into their buckets, then sort (and under `dedup`, dedup and
    /// compact) each bucket. Equal to sorting and deduplicating the whole
    /// transformed edge list first, without materializing or sorting it.
    fn from_buckets(num_vertices: usize, edges: &[Edge], transforms: Transforms) -> Self {
        let kept = || {
            edges
                .iter()
                .copied()
                .filter(move |&(s, t)| !(transforms.drop_self_loops && s == t))
        };
        let mut offsets = vec![0u64; num_vertices + 1];
        for (src, dst) in kept() {
            assert!(
                (src as usize) < num_vertices && (dst as usize) < num_vertices,
                "edge ({src}, {dst}) out of range for {num_vertices} vertices"
            );
            offsets[src as usize + 1] += 1;
            if transforms.symmetric {
                offsets[dst as usize + 1] += 1;
            }
        }
        for v in 0..num_vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0 as VertexId; offsets[num_vertices] as usize];
        let mut cursor = offsets.clone();
        let mut place = |src: VertexId, dst: VertexId| {
            targets[cursor[src as usize] as usize] = dst;
            cursor[src as usize] += 1;
        };
        for (src, dst) in kept() {
            place(src, dst);
            if transforms.symmetric {
                place(dst, src);
            }
        }
        // Sorted adjacency makes neighbor scans cache-friendly and output
        // deterministic regardless of the input edge order. Buckets only
        // shrink, so each one compacts leftwards over freed slots.
        let mut end = 0usize;
        for v in 0..num_vertices {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[lo..hi].sort_unstable();
            let start = end;
            for i in lo..hi {
                let t = targets[i];
                if !(transforms.dedup && end > start && targets[end - 1] == t) {
                    targets[end] = t;
                    end += 1;
                }
            }
            offsets[v] = start as u64;
        }
        offsets[num_vertices] = end as u64;
        targets.truncate(end);
        CsrGraph {
            offsets,
            targets,
            transpose: Transpose::None,
        }
    }

    /// Builds the graph and precomputes its transpose.
    pub fn with_transpose(num_vertices: usize, edges: &[Edge]) -> Self {
        let mut g = Self::from_edges(num_vertices, edges);
        g.build_transpose();
        g
    }

    /// Computes and stores the in-edge adjacency. Idempotent.
    pub fn build_transpose(&mut self) {
        if self.has_transpose() {
            return;
        }
        let n = self.num_vertices();
        let mut in_deg = vec![0u64; n];
        for &t in &self.targets {
            in_deg[t as usize] += 1;
        }
        let mut in_offsets = vec![0u64; n + 1];
        for v in 0..n {
            in_offsets[v + 1] = in_offsets[v] + in_deg[v];
        }
        let mut in_sources = vec![0 as VertexId; self.targets.len()];
        let mut cursor = in_offsets.clone();
        for src in 0..n {
            for &dst in self.neighbors(src as VertexId) {
                let slot = cursor[dst as usize];
                in_sources[slot as usize] = src as VertexId;
                cursor[dst as usize] += 1;
            }
        }
        self.transpose = Transpose::Built {
            offsets: in_offsets,
            sources: in_sources,
        };
    }

    /// The in-edge adjacency as `(offsets, sources)`. Panics, naming
    /// `caller`, unless the transpose was built.
    #[inline]
    fn in_adjacency(&self, caller: &str) -> (&[u64], &[VertexId]) {
        match &self.transpose {
            Transpose::None => panic!("{caller} requires build_transpose()"),
            Transpose::SameAsOut => (&self.offsets, &self.targets),
            Transpose::Built { offsets, sources } => (offsets, sources),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// In-degree of `v`. Panics unless the transpose was built.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u64 {
        let (off, _) = self.in_adjacency("in_degree");
        off[v as usize + 1] - off[v as usize]
    }

    /// Out-neighbors of `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        &self.targets[lo as usize..hi as usize]
    }

    /// In-neighbors of `v`. Panics unless the transpose was built.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (off, src) = self.in_adjacency("in_neighbors");
        let (lo, hi) = (off[v as usize], off[v as usize + 1]);
        &src[lo as usize..hi as usize]
    }

    /// Whether the transpose is available (built, or the graph is its own).
    pub fn has_transpose(&self) -> bool {
        !matches!(self.transpose, Transpose::None)
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all `(src, dst)` edges in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// The global CSR index of the first out-edge of `v`. Useful for mapping
    /// `(vertex, local edge index)` to a global edge id.
    #[inline]
    pub fn edge_offset(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// True if for every edge `(u, v)` the reverse edge `(v, u)` exists.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.neighbors(v).binary_search(&u).is_ok())
    }
}

/// Incremental builder that accumulates edges before freezing into a
/// [`CsrGraph`]. Supports optional deduplication and symmetrization, which
/// the dataset generators use to emulate the Graphalytics preprocessing.
#[derive(Default, Clone, Debug)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    num_vertices: usize,
    transforms: Transforms,
}

/// The transforms a build applies to the staged edge list.
#[derive(Default, Clone, Copy, Debug)]
struct Transforms {
    dedup: bool,
    symmetric: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            ..Default::default()
        }
    }

    /// Removes duplicate edges when building.
    pub fn dedup(mut self) -> Self {
        self.transforms.dedup = true;
        self
    }

    /// Adds the reverse of every edge when building (undirected semantics).
    pub fn symmetric(mut self) -> Self {
        self.transforms.symmetric = true;
        self
    }

    /// Removes self-loops when building.
    pub fn drop_self_loops(mut self) -> Self {
        self.transforms.drop_self_loops = true;
        self
    }

    /// Appends one edge.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        self.edges.push((src, dst));
    }

    /// Appends many edges.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = Edge>) {
        self.edges.extend(edges);
    }

    /// Freezes into a CSR graph, applying the configured transforms.
    pub fn build(self) -> CsrGraph {
        CsrGraph::from_buckets(self.num_vertices, &self.edges, self.transforms)
    }

    /// Freezes into a CSR graph with its transpose. A `symmetric()` build is
    /// its own transpose: every kept input edge lands in both directions,
    /// and self-loop removal and dedup treat both alike, so `(u, v)` occurs
    /// as often as `(v, u)` and no copy is built.
    pub fn build_with_transpose(self) -> CsrGraph {
        let symmetric = self.transforms.symmetric;
        let mut g = self.build();
        if symmetric {
            g.transpose = Transpose::SameAsOut;
        } else {
            g.build_transpose();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::with_transpose(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn transpose_matches_forward() {
        let g = diamond();
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert!(g.in_neighbors(0).is_empty());
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = CsrGraph::from_edges(10, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(9), 0);
        assert!(g.neighbors(9).is_empty());
    }

    #[test]
    fn edges_iterator_round_trips() {
        let edges = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
        let g = CsrGraph::from_edges(4, &edges);
        let mut collected: Vec<Edge> = g.edges().collect();
        collected.sort_unstable();
        assert_eq!(collected, edges);
    }

    #[test]
    fn builder_dedup_and_self_loops() {
        let mut b = GraphBuilder::new(3).dedup().drop_self_loops();
        b.extend([(0, 1), (0, 1), (1, 1), (1, 2)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
    }

    #[test]
    fn builder_symmetric_makes_symmetric_graph() {
        let mut b = GraphBuilder::new(3).symmetric().dedup();
        b.extend([(0, 1), (1, 2)]);
        let g = b.build();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn symmetry_check_detects_asymmetry() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn edge_offset_maps_to_global_index() {
        let g = diamond();
        assert_eq!(g.edge_offset(0), 0);
        assert_eq!(g.edge_offset(1), 2);
        assert_eq!(g.edge_offset(2), 3);
        assert_eq!(g.edge_offset(3), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    /// The body `GraphBuilder::build` replaced: transform the whole edge
    /// list, sort and dedup it globally, then group it by source (which is
    /// what `from_edges` made of it). Kept as the oracle the bucketed build
    /// must match; returns the CSR offsets and targets.
    fn build_by_global_sort(
        num_vertices: usize,
        mut edges: Vec<Edge>,
        transforms: Transforms,
    ) -> (Vec<u64>, Vec<VertexId>) {
        if transforms.drop_self_loops {
            edges.retain(|&(s, t)| s != t);
        }
        if transforms.symmetric {
            let rev: Vec<Edge> = edges.iter().map(|&(s, t)| (t, s)).collect();
            edges.extend(rev);
        }
        if transforms.dedup {
            edges.sort_unstable();
            edges.dedup();
        }
        for &(s, t) in &edges {
            assert!(
                (s as usize) < num_vertices && (t as usize) < num_vertices,
                "edge ({s}, {t}) out of range for {num_vertices} vertices"
            );
        }
        edges.sort_unstable();
        let mut offsets = vec![0u64; num_vertices + 1];
        for &(s, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            offsets[v + 1] += offsets[v];
        }
        (offsets, edges.into_iter().map(|(_, t)| t).collect())
    }

    fn transforms_of(mask: u8) -> Transforms {
        Transforms {
            dedup: mask & 1 != 0,
            symmetric: mask & 2 != 0,
            drop_self_loops: mask & 4 != 0,
        }
    }

    fn builder_of(num_vertices: usize, edges: &[Edge], transforms: Transforms) -> GraphBuilder {
        let mut b = GraphBuilder::new(num_vertices);
        b.transforms = transforms;
        b.extend(edges.iter().copied());
        b
    }

    #[test]
    fn bucketed_build_matches_global_sort_oracle() {
        use rand::{Rng, SeedableRng};
        for case in 0..60u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB0C4_0000 + case);
            let n = rng.gen_range(1..40usize);
            // Few vertices and many samples: duplicates and self-loops abound.
            let vertex = |rng: &mut rand_chacha::ChaCha8Rng| rng.gen_range(0..n) as VertexId;
            let edges: Vec<Edge> = (0..rng.gen_range(0..200usize))
                .map(|_| (vertex(&mut rng), vertex(&mut rng)))
                .collect();
            for mask in 0..8u8 {
                let g = builder_of(n, &edges, transforms_of(mask)).build();
                let (offsets, targets) = build_by_global_sort(n, edges.clone(), transforms_of(mask));
                assert_eq!(g.offsets, offsets, "case {case}, mask {mask:03b}");
                assert_eq!(g.targets, targets, "case {case}, mask {mask:03b}");
            }
        }
    }

    #[test]
    fn symmetric_graph_is_its_own_transpose() {
        use rand::{Rng, SeedableRng};
        for case in 0..60u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x7A45_0000 + case);
            let n = rng.gen_range(1..40usize);
            let vertex = |rng: &mut rand_chacha::ChaCha8Rng| rng.gen_range(0..n) as VertexId;
            let edges: Vec<Edge> = (0..rng.gen_range(0..200usize))
                .map(|_| (vertex(&mut rng), vertex(&mut rng)))
                .collect();
            for mask in 0..8u8 {
                let mut g = builder_of(n, &edges, transforms_of(mask)).build_with_transpose();
                let mut explicit = builder_of(n, &edges, transforms_of(mask)).build();
                explicit.build_transpose();
                let symmetric = mask & 2 != 0;
                assert_eq!(
                    matches!(g.transpose, Transpose::SameAsOut),
                    symmetric,
                    "case {case}, mask {mask:03b}"
                );
                assert!(matches!(explicit.transpose, Transpose::Built { .. }));
                g.build_transpose();
                assert!(g.has_transpose(), "case {case}, mask {mask:03b}");
                assert_eq!(
                    matches!(g.transpose, Transpose::SameAsOut),
                    symmetric,
                    "build_transpose is idempotent"
                );
                for v in g.vertices() {
                    let at = format!("case {case}, mask {mask:03b}, v {v}");
                    assert_eq!(g.in_neighbors(v), explicit.in_neighbors(v), "{at}");
                    assert_eq!(g.in_degree(v), explicit.in_degree(v), "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "in_neighbors requires build_transpose()")]
    fn in_neighbors_without_transpose_panics() {
        CsrGraph::from_edges(2, &[(0, 1)]).in_neighbors(1);
    }

    #[test]
    fn bucketed_build_panics_on_out_of_range_edges_like_the_oracle() {
        for mask in 0..8u8 {
            let edges = [(0, 1), (1, 7), (2, 2)];
            let new = std::panic::catch_unwind(|| builder_of(3, &edges, transforms_of(mask)).build());
            let old = std::panic::catch_unwind(|| {
                build_by_global_sort(3, edges.to_vec(), transforms_of(mask))
            });
            assert!(new.is_err() && old.is_err(), "mask {mask:03b}");
            // An out-of-range self-loop is dropped before it is checked.
            let edges = [(0, 1), (9, 9)];
            let new = std::panic::catch_unwind(|| builder_of(3, &edges, transforms_of(mask)).build());
            let old = std::panic::catch_unwind(|| {
                build_by_global_sort(3, edges.to_vec(), transforms_of(mask))
            });
            assert_eq!(new.is_err(), old.is_err(), "mask {mask:03b}");
            assert_eq!(new.is_err(), mask & 4 == 0, "mask {mask:03b}");
        }
    }
}
