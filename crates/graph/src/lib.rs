//! Graph substrate for the Grade10 reproduction.
//!
//! This crate provides everything the simulated graph-processing engines need
//! to execute realistic, irregular workloads:
//!
//! * a compact [CSR graph representation](csr::CsrGraph) with builders and
//!   transposition,
//! * [synthetic graph generators](generators) standing in for the LDBC
//!   Graphalytics datasets (Graph500 R-MAT and a Datagen-like social network),
//! * [partitioners](partition) for both edge-cut (Giraph-style) and
//!   vertex-cut (PowerGraph-style) distribution,
//! * [instrumented algorithm implementations](algorithms) (BFS, PageRank,
//!   WCC, CDLP, SSSP) that execute for real and record, per iteration and per
//!   partition, how much work was performed and how many messages crossed
//!   partition boundaries. These [`WorkProfile`](algorithms::WorkProfile)s
//!   drive the engine simulations in `grade10-engines`.
//!
//! The irregularity that makes graph processing hard to characterize —
//! frontier-dependent work, convergence-dependent iteration counts, skewed
//! partitions — is preserved because the algorithms really run on real
//! (synthetic) graphs; only the *cluster* they notionally run on is simulated.

#![warn(missing_docs)]
// Library code must classify failures, not abort: unwrap/expect are only
// acceptable where an invariant makes failure impossible (and then a
// targeted allow with a reason documents why).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod algorithms;
pub mod csr;
pub mod generators;
pub mod partition;

pub use csr::{CsrGraph, GraphBuilder};

/// Identifier of a vertex. Kept at 32 bits: every graph in this repository is
/// laptop-scale, and halving index size roughly halves cache traffic in the
/// hot algorithm loops.
pub type VertexId = u32;

/// Identifier of a partition (worker-local graph shard).
pub type PartId = u32;

/// An edge as a `(source, target)` pair, used by builders and generators.
pub type Edge = (VertexId, VertexId);
