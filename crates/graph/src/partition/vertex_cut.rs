//! Vertex-cut (edge-assignment) partitioning, as used by PowerGraph.
//!
//! Every *edge* is owned by exactly one partition; a vertex is replicated on
//! every partition that owns one of its edges, with one replica designated
//! master. Synchronizing masters and mirrors after Apply is the dominant
//! communication of GAS engines, so the partitioner tracks the replication
//! factor explicitly.

use crate::partition::{balance, WorkMapper};
use crate::{CsrGraph, PartId, VertexId};

/// An edge-to-partition assignment with derived vertex replication data.
#[derive(Clone, Debug)]
pub struct VertexCutPartition {
    /// Owner of each edge, indexed by global CSR edge index.
    edge_owner: Vec<PartId>,
    /// Master partition of each vertex.
    master: Vec<PartId>,
    /// Bitset per vertex of partitions holding a replica, packed as u64
    /// (supports up to 64 partitions, far beyond our simulated clusters).
    replica_sets: Vec<u64>,
    num_parts: usize,
}

impl VertexCutPartition {
    /// PowerGraph's greedy heuristic: place each edge on a partition already
    /// holding one of its endpoints (preferring one holding both, then the
    /// less loaded of the two), falling back to the least-loaded partition.
    ///
    /// Each partition below capacity scores one point per endpoint replica
    /// it already holds, plus a balance term `(max_load - load) / spread`
    /// in `[0, 1)`, where `spread = max_load - min_load + 1` over all
    /// partitions; the highest score wins, and scores within 1e-12 go to
    /// the less loaded partition, then the lower index. The balance term
    /// never reaches 1, so the score falls into one of three tiers, and
    /// any two tiers are at least `1 / spread` apart, far beyond the 1e-12
    /// tie rule. Only the highest non-empty tier is therefore scored, in
    /// ascending partition order:
    ///
    /// 1. partitions holding both endpoints;
    /// 2. otherwise, partitions holding either endpoint;
    /// 3. otherwise, every partition below capacity.
    ///
    /// A lower tier can neither beat nor tie a higher one, so this picks the
    /// partition a scan of all of them would. When every partition is at
    /// capacity the edge goes to partition 0.
    pub fn greedy(graph: &CsrGraph, num_parts: usize) -> Self {
        assert!(num_parts > 0 && num_parts <= 64, "1..=64 partitions supported");
        // The capacity bound is what prevents the heavy hubs of power-law
        // graphs from snowballing all edges onto one partition: a soft
        // balance term alone can never outbid an affinity point.
        let (edge_owner, replica_sets) =
            greedy_assign(graph, num_parts, greedy_capacity(graph, num_parts));
        Self::from_assignment(edge_owner, replica_sets, num_parts)
    }

    /// Derives masters from an edge assignment: the first replica, or a
    /// hash-based master for isolated vertices.
    fn from_assignment(edge_owner: Vec<PartId>, replica_sets: Vec<u64>, num_parts: usize) -> Self {
        let master = replica_sets
            .iter()
            .enumerate()
            .map(|(v, &set)| {
                if set == 0 {
                    (v % num_parts) as PartId
                } else {
                    set.trailing_zeros() as PartId
                }
            })
            .collect();
        VertexCutPartition {
            edge_owner,
            master,
            replica_sets,
            num_parts,
        }
    }

    /// Random edge placement — PowerGraph's baseline strategy; higher
    /// replication factor, used in ablation benches.
    pub fn random(graph: &CsrGraph, num_parts: usize, seed: u64) -> Self {
        use rand::Rng;
        use rand::SeedableRng;
        assert!(num_parts > 0 && num_parts <= 64);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = graph.num_vertices();
        let mut replica_sets = vec![0u64; n];
        let mut edge_owner = vec![0 as PartId; graph.num_edges()];
        let mut eidx = 0usize;
        for u in graph.vertices() {
            for &v in graph.neighbors(u) {
                let p = rng.gen_range(0..num_parts) as PartId;
                edge_owner[eidx] = p;
                replica_sets[u as usize] |= 1u64 << p;
                replica_sets[v as usize] |= 1u64 << p;
                eidx += 1;
            }
        }
        Self::from_assignment(edge_owner, replica_sets, num_parts)
    }

    /// Owner of the edge with global CSR index `eidx`.
    #[inline]
    pub fn edge_owner(&self, eidx: u64) -> PartId {
        self.edge_owner[eidx as usize]
    }

    /// Master partition of vertex `v`.
    #[inline]
    pub fn master(&self, v: VertexId) -> PartId {
        self.master[v as usize]
    }

    /// Number of replicas of `v` (0 for isolated vertices).
    #[inline]
    pub fn replicas(&self, v: VertexId) -> u32 {
        self.replica_sets[v as usize].count_ones()
    }

    /// Whether partition `p` holds a replica of `v`.
    #[inline]
    pub fn has_replica(&self, v: VertexId, p: PartId) -> bool {
        self.replica_sets[v as usize] & (1u64 << p) != 0
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Edges per partition.
    pub fn edge_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_parts];
        for &p in &self.edge_owner {
            loads[p as usize] += 1;
        }
        loads
    }

    /// Average replicas per non-isolated vertex — PowerGraph's key
    /// communication-volume metric.
    pub fn replication_factor(&self) -> f64 {
        let (mut total, mut count) = (0u64, 0u64);
        for &set in &self.replica_sets {
            if set != 0 {
                total += set.count_ones() as u64;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Edge-load balance (max/mean).
    pub fn edge_balance(&self) -> f64 {
        balance(&self.edge_loads())
    }
}

impl WorkMapper for VertexCutPartition {
    fn num_parts(&self) -> usize {
        self.num_parts
    }

    fn vertex_part(&self, v: VertexId) -> PartId {
        self.master(v)
    }

    fn edge_part(
        &self,
        graph: &CsrGraph,
        src: VertexId,
        local_idx: u64,
        _dst: VertexId,
    ) -> PartId {
        self.edge_owner(graph.edge_offset(src) + local_idx)
    }

    fn sync_fanout(&self, v: VertexId) -> u32 {
        self.replicas(v).saturating_sub(1)
    }
}

/// Edges a partition may own under the greedy cut: 5 % above an even split.
fn greedy_capacity(graph: &CsrGraph, num_parts: usize) -> u64 {
    ((graph.num_edges() as f64 * 1.05 / num_parts as f64).ceil() as u64).max(1)
}

/// The greedy placement loop of [`VertexCutPartition::greedy`], which
/// documents the scoring and why scoring one tier is exact. Returns each
/// edge's owner, in CSR order, and each vertex's replica set.
fn greedy_assign(graph: &CsrGraph, num_parts: usize, capacity: u64) -> (Vec<PartId>, Vec<u64>) {
    let mut replica_sets = vec![0u64; graph.num_vertices()];
    let mut loads = vec![0u64; num_parts];
    let mut edge_owner = Vec::with_capacity(graph.num_edges());
    let all_parts = u64::MAX >> (64 - num_parts);
    // Kept as loads grow by one edge at a time: the partitions at capacity,
    // and the extremes of the load over every partition (full ones too),
    // with the number of partitions at the minimum.
    let mut full = 0u64;
    let (mut min_load, mut max_load, mut at_min) = (0u64, 0u64, num_parts);
    for u in graph.vertices() {
        for &v in graph.neighbors(u) {
            let (su, sv) = (replica_sets[u as usize], replica_sets[v as usize]);
            let open = all_parts & !full;
            let (mut tier, affinity) = if su & sv & open != 0 {
                (su & sv & open, 2.0)
            } else if (su | sv) & open != 0 {
                ((su | sv) & open, 1.0)
            } else {
                (open, 0.0)
            };
            let spread = (max_load - min_load) as f64 + 1.0;
            let mut best = 0 as PartId;
            let mut best_score = f64::NEG_INFINITY;
            let mut best_load = u64::MAX;
            while tier != 0 {
                let p = tier.trailing_zeros() as usize;
                tier &= tier - 1;
                let score = affinity + (max_load - loads[p]) as f64 / spread;
                if score > best_score + 1e-12
                    || (score > best_score - 1e-12 && loads[p] < best_load)
                {
                    best = p as PartId;
                    best_score = score;
                    best_load = loads[p];
                }
            }
            edge_owner.push(best);
            let p = best as usize;
            loads[p] += 1;
            if loads[p] >= capacity {
                full |= 1u64 << p;
            }
            max_load = max_load.max(loads[p]);
            if loads[p] - 1 == min_load {
                at_min -= 1;
                if at_min == 0 {
                    min_load += 1;
                    at_min = loads.iter().filter(|&&l| l == min_load).count();
                }
            }
            replica_sets[u as usize] |= 1u64 << best;
            replica_sets[v as usize] |= 1u64 << best;
        }
    }
    (edge_owner, replica_sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::RmatConfig;
    use crate::generators::simple;
    use crate::generators::social::SocialConfig;

    /// The body `greedy_assign` replaced, which scores every partition on
    /// every edge and recomputes the load extremes each time. Kept as the
    /// oracle the tiered scan must match edge for edge.
    fn greedy_assign_full_scan(
        graph: &CsrGraph,
        num_parts: usize,
        capacity: u64,
    ) -> (Vec<PartId>, Vec<u64>) {
        let mut replica_sets = vec![0u64; graph.num_vertices()];
        let mut loads = vec![0u64; num_parts];
        let mut edge_owner = vec![0 as PartId; graph.num_edges()];
        let mut eidx = 0usize;
        for u in graph.vertices() {
            for &v in graph.neighbors(u) {
                let su = replica_sets[u as usize];
                let sv = replica_sets[v as usize];
                let min_load = *loads.iter().min().unwrap();
                let max_load = *loads.iter().max().unwrap();
                let spread = (max_load - min_load) as f64 + 1.0;
                let mut best = 0 as PartId;
                let mut best_score = f64::NEG_INFINITY;
                let mut best_load = u64::MAX;
                for p in 0..num_parts {
                    if loads[p] >= capacity {
                        continue;
                    }
                    let bit = 1u64 << p;
                    let affinity =
                        (su & bit != 0) as u32 as f64 + (sv & bit != 0) as u32 as f64;
                    let balance_term = (max_load - loads[p]) as f64 / spread;
                    let score = affinity + balance_term;
                    if score > best_score + 1e-12
                        || (score > best_score - 1e-12 && loads[p] < best_load)
                    {
                        best = p as PartId;
                        best_score = score;
                        best_load = loads[p];
                    }
                }
                edge_owner[eidx] = best;
                loads[best as usize] += 1;
                replica_sets[u as usize] |= 1u64 << best;
                replica_sets[v as usize] |= 1u64 << best;
                eidx += 1;
            }
        }
        (edge_owner, replica_sets)
    }

    #[test]
    fn tiered_scan_matches_full_scan_oracle() {
        let graphs = [
            RmatConfig::graph500(7, 1).generate(),
            RmatConfig::graph500(8, 2).generate(),
            SocialConfig::with_size(300, 3).generate(),
            simple::star(40),
            simple::grid(6, 7),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for parts in 1..=64 {
                // The greedy capacity, then capacities so tight that every
                // partition fills and later edges take the all-full fallback.
                let tight = (g.num_edges() as u64 / (2 * parts as u64)).max(1);
                for capacity in [greedy_capacity(g, parts), tight, 1] {
                    assert_eq!(
                        greedy_assign(g, parts, capacity),
                        greedy_assign_full_scan(g, parts, capacity),
                        "graph {gi}, {parts} parts, capacity {capacity}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_edge_owned_once() {
        let g = simple::grid(8, 8);
        let p = VertexCutPartition::greedy(&g, 4);
        assert_eq!(p.edge_loads().iter().sum::<u64>(), g.num_edges() as u64);
    }

    #[test]
    fn master_holds_a_replica() {
        let g = RmatConfig::graph500(9, 2).generate();
        let p = VertexCutPartition::greedy(&g, 8);
        for v in g.vertices() {
            if p.replicas(v) > 0 {
                assert!(p.has_replica(v, p.master(v)));
            }
        }
    }

    #[test]
    fn greedy_beats_random_on_replication_factor() {
        let g = RmatConfig::graph500(10, 4).generate();
        let greedy = VertexCutPartition::greedy(&g, 8);
        let random = VertexCutPartition::random(&g, 8, 99);
        assert!(
            greedy.replication_factor() < random.replication_factor(),
            "greedy {} !< random {}",
            greedy.replication_factor(),
            random.replication_factor()
        );
    }

    #[test]
    fn replication_factor_bounds() {
        let g = simple::star(50);
        let p = VertexCutPartition::greedy(&g, 4);
        let rf = p.replication_factor();
        assert!((1.0..=4.0).contains(&rf), "replication factor {rf}");
    }

    #[test]
    fn single_partition_has_no_sync() {
        let g = simple::cycle(10);
        let p = VertexCutPartition::greedy(&g, 1);
        for v in g.vertices() {
            assert_eq!(p.sync_fanout(v), 0);
        }
        assert!((p.replication_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_part_agrees_with_edge_owner() {
        let g = simple::path(5);
        let p = VertexCutPartition::greedy(&g, 2);
        let mut eidx = 0u64;
        for u in g.vertices() {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                assert_eq!(p.edge_part(&g, u, i as u64, v), p.edge_owner(eidx));
                eidx += 1;
            }
        }
    }

    #[test]
    fn greedy_loads_reasonably_balanced() {
        let g = RmatConfig::graph500(10, 4).generate();
        let p = VertexCutPartition::greedy(&g, 8);
        assert!(p.edge_balance() < 1.6, "balance {}", p.edge_balance());
    }
}
