//! Community-structured social-network generator, standing in for the LDBC
//! Datagen graphs used by the Grade10 paper.
//!
//! The generator creates communities with power-law sizes, wires vertices
//! inside each community by preferential attachment (so hubs emerge), and
//! adds a configurable fraction of inter-community edges. The result has the
//! two properties the paper's workloads exercise:
//!
//! * strong community structure, so label-propagation algorithms (CDLP, WCC)
//!   perform highly iteration-dependent work;
//! * skewed degrees, so partitions receive unequal work and the imbalance
//!   analyses (Fig. 5 and 6) have something real to find.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::csr::GraphBuilder;
use crate::{CsrGraph, VertexId};

/// Configuration for the social-network generator.
#[derive(Clone, Debug)]
pub struct SocialConfig {
    /// Total number of vertices.
    pub num_vertices: usize,
    /// Average degree (undirected; each edge is stored in both directions).
    pub avg_degree: u32,
    /// Power-law exponent for community sizes (2.0–3.0 is realistic).
    pub community_exponent: f64,
    /// Smallest community size.
    pub min_community: usize,
    /// Fraction of edges that leave the community (0.0–1.0).
    pub inter_community_fraction: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            num_vertices: 10_000,
            avg_degree: 16,
            community_exponent: 2.5,
            min_community: 8,
            inter_community_fraction: 0.1,
            seed: 1,
        }
    }
}

impl SocialConfig {
    /// Convenience constructor fixing size and seed, keeping realistic shape
    /// parameters.
    pub fn with_size(num_vertices: usize, seed: u64) -> Self {
        SocialConfig {
            num_vertices,
            seed,
            ..Default::default()
        }
    }

    /// Draws community sizes from a bounded power law until all vertices are
    /// assigned. Returns the start offset of each community plus a final
    /// sentinel, i.e. community `c` covers `starts[c]..starts[c + 1]`.
    fn community_starts(&self, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let max_community = (self.num_vertices / 4).max(self.min_community + 1);
        let mut starts = vec![0usize];
        let mut assigned = 0usize;
        while assigned < self.num_vertices {
            // Inverse-transform sampling of a discrete power law on
            // [min_community, max_community].
            let u: f64 = rng.gen_range(0.0..1.0);
            let alpha = 1.0 - self.community_exponent;
            let lo = (self.min_community as f64).powf(alpha);
            let hi = (max_community as f64).powf(alpha);
            let size = (lo + u * (hi - lo)).powf(1.0 / alpha).round() as usize;
            let size = size.clamp(self.min_community, max_community);
            let size = size.min(self.num_vertices - assigned);
            assigned += size;
            starts.push(assigned);
        }
        starts
    }

    /// Generates the graph (undirected and deduplicated, so it is its own
    /// transpose).
    pub fn generate(&self) -> CsrGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let starts = self.community_starts(&mut rng);
        let num_edges = self.num_vertices * self.avg_degree as usize / 2;

        let mut builder = GraphBuilder::new(self.num_vertices)
            .dedup()
            .symmetric()
            .drop_self_loops();

        // Endpoint sampling mixes three mechanisms:
        //  * preferential attachment by edge-copying (sampling an endpoint of
        //    a previously placed edge is degree-proportional sampling), which
        //    produces the heavy-tailed "celebrity" degrees of real social
        //    networks;
        //  * uniform choice within the community, which keeps communities
        //    dense;
        //  * uniform global choice for the configured inter-community
        //    fraction.
        let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * num_edges);
        for _ in 0..num_edges {
            let u = rng.gen_range(0..self.num_vertices);
            // Community of u, by binary search over the start offsets.
            let c = match starts.binary_search(&u) {
                Ok(i) => i.min(starts.len() - 2),
                Err(i) => i - 1,
            };
            let (lo, hi) = (starts[c], starts[c + 1]);
            let u = u as VertexId;
            let v = if rng.gen_bool(self.inter_community_fraction) {
                rng.gen_range(0..self.num_vertices) as VertexId
            } else if !endpoints.is_empty() && rng.gen_bool(0.6) {
                endpoints[rng.gen_range(0..endpoints.len())]
            } else {
                rng.gen_range(lo..hi) as VertexId
            };
            if u != v {
                endpoints.push(u);
                endpoints.push(v);
                builder.add_edge(u, v);
            }
        }
        builder.build_with_transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = SocialConfig::with_size(2000, 9);
        let g1 = cfg.generate();
        let g2 = cfg.generate();
        assert_eq!(g1.num_edges(), g2.num_edges());
        for v in g1.vertices() {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn is_symmetric_and_loop_free() {
        let g = SocialConfig::with_size(1000, 3).generate();
        assert!(g.is_symmetric());
        for (u, v) in g.edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn average_degree_in_expected_range() {
        let cfg = SocialConfig::with_size(5000, 17);
        let g = cfg.generate();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Each undirected edge appears twice; dedup removes some samples, so
        // the realized average sits below the configured target but must be
        // in the right ballpark.
        assert!(
            avg > cfg.avg_degree as f64 * 0.4 && avg < cfg.avg_degree as f64 * 1.2,
            "average degree {avg} out of range"
        );
    }

    #[test]
    fn community_starts_cover_all_vertices() {
        let cfg = SocialConfig::with_size(3456, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let starts = cfg.community_starts(&mut rng);
        assert_eq!(*starts.first().unwrap(), 0);
        assert_eq!(*starts.last().unwrap(), 3456);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn degrees_are_skewed() {
        let g = SocialConfig::with_size(5000, 23).generate();
        let mut degs: Vec<u64> = g.vertices().map(|v| g.out_degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let max = degs[0];
        let median = degs[degs.len() / 2];
        assert!(
            max >= median * 4,
            "expected skew: max {max} vs median {median}"
        );
    }
}
