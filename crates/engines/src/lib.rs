//! Simulated distributed graph-processing engines for the Grade10
//! reproduction.
//!
//! The paper evaluates Grade10 against Apache Giraph and PowerGraph running
//! real workloads on a real cluster. This crate provides behaviorally
//! faithful stand-ins that run on the `grade10-cluster` simulator:
//!
//! * [`pregel`] — a Giraph-like BSP engine: per-worker compute threads over
//!   edge-cut partitions, bounded outbound message queues that stall
//!   producers, a JVM-style stop-the-world garbage collector, supersteps
//!   separated by global barriers;
//! * [`gas`] — a PowerGraph-like Gather/Apply/Scatter engine: vertex-cut
//!   partitions, per-thread interleaved compute and communication, replica
//!   synchronization, no GC and no producer stalls — and an optional
//!   reproduction of the cross-thread **synchronization bug** the paper
//!   discovers (§IV-D), where one thread occasionally keeps draining a late
//!   message stream while its peers idle at the barrier.
//!
//! [`dataflow`] additionally provides the Spark-like stage/task engine the
//! paper's §V sketches as ongoing work, demonstrating that Grade10's models
//! generalize beyond graph frameworks.
//!
//! Both engines execute *real* algorithm work profiles (from
//! `grade10-graph`) and emit exactly what a real SUT gives Grade10: phase
//! and blocking logs plus coarse monitoring data. [`models`] contains the
//! corresponding "expert input" — execution models, resource models, and
//! tuned/untuned attribution rules. [`bridge`] converts simulator output
//! into `grade10-core` inputs. [`workload`] wires datasets × algorithms ×
//! engines into one-call experiment runs, and holds the campaign's mix
//! runner ([`run_mix`]): spec parsing, the per-thread graph and
//! failed-rung memos, the optional stage-cache lookup and the
//! characterization of one mix.

#![warn(missing_docs)]
// Library code must classify failures, not abort: unwrap/expect are only
// acceptable where an invariant makes failure impossible (and then a
// targeted allow with a reason documents why).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bridge;
pub mod dataflow;
pub mod gas;
mod job;
pub mod models;
pub mod pregel;
pub mod workload;

pub use workload::{
    mix_workload, run_mix, run_workload, simulate_workload, Algorithm, Dataset, EngineKind,
    ExpertInput, SimulatedRun, WorkloadRun, WorkloadSpec,
};
