//! R-MAT (recursive matrix) graph generator, standing in for the Graph500
//! datasets used by the Grade10 paper.
//!
//! R-MAT recursively subdivides the adjacency matrix into quadrants with
//! probabilities `(a, b, c, d)` and drops each edge into a leaf cell. With the
//! Graph500 parameters `(0.57, 0.19, 0.19, 0.05)` this produces the skewed,
//! heavy-tailed degree distributions that make distributed graph processing
//! irregular — the property the Grade10 evaluation depends on.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::csr::{CsrGraph, GraphBuilder};
use crate::{Edge, VertexId};

/// Configuration for the R-MAT generator.
#[derive(Clone, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average edges per vertex (before dedup).
    pub edge_factor: u32,
    /// Quadrant probabilities; must sum to 1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Random seed — generation is fully deterministic given the seed.
    pub seed: u64,
    /// Remove duplicate edges and self-loops, and add reverse edges
    /// (Graphalytics preprocesses Graph500 graphs into undirected form).
    pub clean: bool,
}

impl RmatConfig {
    /// Graph500 reference parameters at the given scale.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            clean: true,
        }
    }

    /// Number of vertices this configuration generates.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of raw edge samples (before cleaning).
    pub fn num_edge_samples(&self) -> usize {
        self.num_vertices() * self.edge_factor as usize
    }

    /// Generates the raw edge list (with duplicates, without symmetrization).
    ///
    /// Each level draws one `r` in [0, 1) and picks a quadrant by comparing
    /// it against the cumulative thresholds `a ≤ a+b ≤ a+b+c`: the source
    /// bit is set in the bottom half (`r ≥ a+b`), the destination bit in the
    /// right-hand quadrants (`a ≤ r < a+b` or `r ≥ a+b+c`). Both bits come
    /// from comparisons rather than branches: the quadrant is random, so
    /// branches on it mispredict often, and the loop then runs at the speed
    /// of the RNG.
    pub fn generate_edges(&self) -> Vec<Edge> {
        let d = 1.0 - self.a - self.b - self.c;
        assert!(
            d >= -1e-9,
            "R-MAT probabilities exceed 1: a+b+c = {}",
            self.a + self.b + self.c
        );
        assert!(
            self.b >= 0.0 && self.c >= 0.0,
            "R-MAT probabilities must be non-negative: b = {}, c = {}",
            self.b,
            self.c
        );
        // Summed left to right, so each threshold rounds exactly as the
        // `r < a + b` and `r < a + b + c` comparisons always did.
        let (a, ab, abc) = (self.a, self.a + self.b, self.a + self.b + self.c);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut edges = Vec::with_capacity(self.num_edge_samples());
        for _ in 0..self.num_edge_samples() {
            let (mut src, mut dst) = (0u64, 0u64);
            for _ in 0..self.scale {
                let r: f64 = rng.gen();
                src = (src << 1) | u64::from(r >= ab);
                dst = (dst << 1) | u64::from(((r >= a) & (r < ab)) | (r >= abc));
            }
            edges.push((src as VertexId, dst as VertexId));
        }
        edges
    }

    /// Generates the graph. A cleaned graph is symmetric and so carries its
    /// transpose for free; an uncleaned one has it built.
    pub fn generate(&self) -> CsrGraph {
        let edges = self.generate_edges();
        let mut b = GraphBuilder::new(self.num_vertices());
        if self.clean {
            b = b.dedup().symmetric().drop_self_loops();
        }
        b.extend(edges);
        b.build_with_transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = RmatConfig::graph500(8, 42);
        let e1 = cfg.generate_edges();
        let e2 = cfg.generate_edges();
        assert_eq!(e1, e2);
    }

    #[test]
    fn different_seeds_differ() {
        let e1 = RmatConfig::graph500(8, 1).generate_edges();
        let e2 = RmatConfig::graph500(8, 2).generate_edges();
        assert_ne!(e1, e2);
    }

    #[test]
    fn sample_count_matches_config() {
        let cfg = RmatConfig::graph500(7, 3);
        assert_eq!(cfg.generate_edges().len(), 128 * 16);
    }

    #[test]
    fn clean_graph_is_symmetric_without_self_loops() {
        let g = RmatConfig::graph500(8, 7).generate();
        assert!(g.is_symmetric());
        for (u, v) in g.edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // The hallmark of R-MAT: a small set of vertices concentrates a large
        // share of the edges. Check that the top 1% of vertices holds at
        // least 10% of all edges (for uniform graphs it would hold ~1%).
        let g = RmatConfig::graph500(10, 11).generate();
        let mut degs: Vec<u64> = g.vertices().map(|v| g.out_degree(v)).collect();
        degs.sort_unstable_by(|x, y| y.cmp(x));
        let top = degs.len() / 100 + 1;
        let top_sum: u64 = degs[..top].iter().sum();
        let total: u64 = degs.iter().sum();
        assert!(
            top_sum * 10 >= total,
            "top 1% holds only {top_sum}/{total} edges"
        );
    }

    /// The descent `generate_edges` replaced: one branch per quadrant, in
    /// the same draw order. Kept as the oracle the branchless one must match.
    fn generate_edges_by_branches(cfg: &RmatConfig) -> Vec<Edge> {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut edges = Vec::with_capacity(cfg.num_edge_samples());
        for _ in 0..cfg.num_edge_samples() {
            let (mut src, mut dst) = (0u64, 0u64);
            for _ in 0..cfg.scale {
                src <<= 1;
                dst <<= 1;
                let r: f64 = rng.gen();
                if r < cfg.a {
                    // top-left: neither bit set
                } else if r < cfg.a + cfg.b {
                    dst |= 1;
                } else if r < cfg.a + cfg.b + cfg.c {
                    src |= 1;
                } else {
                    src |= 1;
                    dst |= 1;
                }
            }
            edges.push((src as VertexId, dst as VertexId));
        }
        edges
    }

    #[test]
    fn branchless_descent_matches_the_branchy_oracle() {
        let mut params = vec![
            (0.57, 0.19, 0.19),
            // c = 0: the bottom-left quadrant is empty.
            (0.5, 0.3, 0.0),
            // a + b + c = 1: the bottom-right quadrant is empty.
            (0.4, 0.35, 0.25),
            (0.25, 0.25, 0.25),
            (1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0A7C);
        for _ in 0..40 {
            // Random valid splits of [0, 1) into a, b, c and d >= 0.
            let mut cuts = [rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()];
            cuts.sort_by(f64::total_cmp);
            params.push((cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1]));
        }
        for (i, &(a, b, c)) in params.iter().enumerate() {
            let cfg = RmatConfig {
                scale: 7,
                edge_factor: 4,
                a,
                b,
                c,
                seed: i as u64,
                clean: false,
            };
            assert_eq!(
                cfg.generate_edges(),
                generate_edges_by_branches(&cfg),
                "a={a} b={b} c={c}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_quadrant_probability_is_rejected() {
        let cfg = RmatConfig {
            b: -0.1,
            c: 0.3,
            ..RmatConfig::graph500(4, 1)
        };
        cfg.generate_edges();
    }

    #[test]
    fn vertices_in_range() {
        let cfg = RmatConfig::graph500(6, 5);
        for (s, t) in cfg.generate_edges() {
            assert!((s as usize) < cfg.num_vertices());
            assert!((t as usize) < cfg.num_vertices());
        }
    }
}
