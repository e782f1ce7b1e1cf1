//! Edge-cut (vertex-assignment) partitioning, as used by Pregel/Giraph.
//!
//! Every vertex is owned by exactly one partition; an edge whose endpoints
//! live on different partitions is "cut" and its message must cross the
//! network. Giraph's default is hash partitioning, which balances vertices
//! but not edges — a major source of the compute imbalance the paper
//! observes. A range partitioner balanced by edge count is provided as the
//! tuned alternative.

use crate::partition::{balance, WorkMapper};
use crate::{CsrGraph, PartId, VertexId};

/// A vertex-to-partition assignment.
#[derive(Clone, Debug)]
pub struct EdgeCutPartition {
    owner: Vec<PartId>,
    num_parts: usize,
}

impl EdgeCutPartition {
    /// Giraph-style hash partitioning: `v mod p` after integer mixing.
    pub fn hash(graph: &CsrGraph, num_parts: usize) -> Self {
        assert!(num_parts > 0);
        let owner = graph
            .vertices()
            .map(|v| {
                // Fibonacci hashing spreads consecutive ids across parts.
                let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 32) % num_parts as u64) as PartId
            })
            .collect();
        EdgeCutPartition { owner, num_parts }
    }

    /// Contiguous ranges of vertices with approximately equal *edge* counts.
    pub fn range_by_edges(graph: &CsrGraph, num_parts: usize) -> Self {
        assert!(num_parts > 0);
        let total_edges = graph.num_edges() as u64;
        let target = total_edges / num_parts as u64 + 1;
        let mut owner = vec![0 as PartId; graph.num_vertices()];
        let mut part = 0 as PartId;
        let mut acc = 0u64;
        for v in graph.vertices() {
            owner[v as usize] = part;
            acc += graph.out_degree(v);
            if acc >= target && (part as usize) < num_parts - 1 {
                part += 1;
                acc = 0;
            }
        }
        EdgeCutPartition { owner, num_parts }
    }

    /// Builds a partition from an explicit assignment (used in tests and by
    /// engines that re-balance).
    pub fn from_assignment(owner: Vec<PartId>, num_parts: usize) -> Self {
        assert!(owner.iter().all(|&p| (p as usize) < num_parts));
        EdgeCutPartition { owner, num_parts }
    }

    /// Partition owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> PartId {
        self.owner[v as usize]
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Vertices per partition.
    pub fn vertex_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_parts];
        for &p in &self.owner {
            loads[p as usize] += 1;
        }
        loads
    }

    /// Out-edges per partition (work proxy for compute phases).
    pub fn edge_loads(&self, graph: &CsrGraph) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_parts];
        for v in graph.vertices() {
            loads[self.owner(v) as usize] += graph.out_degree(v);
        }
        loads
    }

    /// Edge-load balance (max/mean).
    pub fn edge_balance(&self, graph: &CsrGraph) -> f64 {
        balance(&self.edge_loads(graph))
    }
}

impl WorkMapper for EdgeCutPartition {
    fn num_parts(&self) -> usize {
        self.num_parts
    }

    fn vertex_part(&self, v: VertexId) -> PartId {
        self.owner(v)
    }

    fn edge_part(
        &self,
        _graph: &CsrGraph,
        src: VertexId,
        _local_idx: u64,
        _dst: VertexId,
    ) -> PartId {
        // In vertex-centric engines the edge scan happens where the source
        // vertex computes.
        self.owner(src)
    }

    fn sync_fanout(&self, _v: VertexId) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::RmatConfig;
    use crate::generators::simple;

    #[test]
    fn hash_covers_every_vertex_once() {
        let g = simple::grid(10, 10);
        let p = EdgeCutPartition::hash(&g, 4);
        assert_eq!(p.vertex_loads().iter().sum::<u64>(), 100);
    }

    #[test]
    fn hash_balances_vertices() {
        let g = RmatConfig::graph500(10, 5).generate();
        let p = EdgeCutPartition::hash(&g, 8);
        assert!(balance(&p.vertex_loads()) < 1.2);
    }

    #[test]
    fn range_by_edges_balances_edges_better_than_worst_case() {
        let g = RmatConfig::graph500(10, 5).generate();
        let p = EdgeCutPartition::range_by_edges(&g, 8);
        let b = p.edge_balance(&g);
        assert!(b < 2.5, "edge balance {b} too poor for range partitioner");
        assert_eq!(p.edge_loads(&g).iter().sum::<u64>(), g.num_edges() as u64);
    }

    #[test]
    fn hash_partition_has_skewed_edges_on_powerlaw_graph() {
        // The key phenomenon: hash partitioning balances vertices but leaves
        // edge counts (≈ work) skewed on heavy-tailed graphs.
        let g = RmatConfig::graph500(10, 5).generate();
        let p = EdgeCutPartition::hash(&g, 8);
        assert!(p.edge_balance(&g) > 1.02);
    }

    #[test]
    fn work_mapper_routes_edge_to_source_owner() {
        let g = simple::path(4);
        let p = EdgeCutPartition::from_assignment(vec![0, 1, 0, 1], 2);
        assert_eq!(p.edge_part(&g, 1, 0, 2), 1);
        assert_eq!(p.sync_fanout(0), 0);
    }
}
