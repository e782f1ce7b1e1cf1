//! # Grade10 — performance characterization of distributed graph processing
//!
//! A from-scratch Rust implementation of the framework described in
//! *Grade10: A Framework for Performance Characterization of Distributed
//! Graph Processing* (Hegeman, Trivedi, Iosup — IEEE CLUSTER 2020).
//!
//! Given (a) an **execution model** — a hierarchical DAG of phase types,
//! (b) a **resource model** — consumable and blocking resources with
//! **attribution rules**, and (c) one execution's **logs** (phase and
//! blocking events) plus **coarse monitoring data**, Grade10 produces a
//! fine-grained performance profile and analyzes it automatically:
//!
//! 1. [`parse`] turns raw logs into an [`trace::ExecutionTrace`];
//! 2. [`attribution`] estimates per-timeslice demand, upsamples the coarse
//!    measurements, and attributes consumption to individual phases —
//!    yielding the 3-D `phase × resource × timeslice` profile;
//! 3. [`bottleneck`] finds where phases were limited by saturated
//!    resources, their own configured ceilings, or blocking events;
//! 4. [`mod@replay`] + [`issues`] estimate, by what-if simulation, the maximal
//!    makespan reduction from removing each bottleneck or evening out each
//!    imbalanced phase group;
//! 5. [`report`] renders tables and time-series for humans.
//!
//! The crate is self-contained: it knows nothing about any particular
//! engine. `grade10-engines` provides ready-made models and log adapters
//! for the simulated Giraph-like and PowerGraph-like systems used in the
//! paper's evaluation.
//!
//! ## Quick tour
//!
//! ```
//! use grade10_core::model::{ExecutionModelBuilder, Repeat, RuleSet, AttributionRule};
//! use grade10_core::trace::{TraceBuilder, ResourceTrace, ResourceInstance, MILLIS};
//! use grade10_core::attribution::{build_profile, ProfileConfig};
//!
//! // Execution model: a job with two sequential phases.
//! let mut b = ExecutionModelBuilder::new("job");
//! let root = b.root();
//! let load = b.child(root, "load", Repeat::Once);
//! let run = b.child(root, "run", Repeat::Once);
//! b.edge(load, run);
//! let model = b.build();
//!
//! // Attribution rules: load is network-bound, run demands exactly 1 core.
//! let rules = RuleSet::new()
//!     .rule(load, "cpu", AttributionRule::Variable(1.0))
//!     .rule(run, "cpu", AttributionRule::Exact(0.25));
//!
//! // One execution's trace: load 0-40 ms, run 40-100 ms on machine 0.
//! let mut tb = TraceBuilder::new(&model);
//! tb.add_phase(&[("job", 0)], 0, 100 * MILLIS, None, None).unwrap();
//! tb.add_phase(&[("job", 0), ("load", 0)], 0, 40 * MILLIS, Some(0), Some(0)).unwrap();
//! tb.add_phase(&[("job", 0), ("run", 0)], 40 * MILLIS, 100 * MILLIS, Some(0), Some(0)).unwrap();
//! let trace = tb.build().unwrap();
//!
//! // Coarse monitoring: one CPU, 4 cores, sampled every 50 ms.
//! let mut rt = ResourceTrace::new();
//! let cpu = rt.add_resource(ResourceInstance {
//!     kind: "cpu".into(), machine: Some(0), capacity: 4.0 });
//! rt.add_series(cpu, 0, 50 * MILLIS, &[0.9, 1.0]);
//!
//! let profile = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
//! assert_eq!(profile.grid.num_slices(), 10);
//! ```

#![warn(missing_docs)]
// Library code must classify failures, not abort: unwrap/expect are only
// acceptable where an invariant makes failure impossible (and then a
// targeted allow with a reason documents why).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod attribution;
pub mod bottleneck;
pub mod cache;
pub mod campaign;
pub mod compare;
pub mod config;
pub mod critical_path;
pub mod error;
pub mod hash;
pub mod indicator;
pub mod infer;
pub mod issues;
pub mod model;
pub mod obs;
pub mod parse;
pub mod pipeline;
pub mod replay;
pub mod report;
pub mod supervise;
pub mod trace;

pub use attribution::{build_profile, PerformanceProfile, ProfileConfig, UpsampleMode};
pub use bottleneck::{BottleneckConfig, BottleneckReport};
pub use campaign::{
    run_campaign, CampaignOptions, CampaignRun, CampaignSpec, MixAttempt, MixMode, MixOutcome,
    MixSpec,
};
pub use config::Parallelism;
pub use error::Grade10Error;
pub use issues::{IssueConfig, IssueKind, PerformanceIssue};
pub use model::{AttributionRule, ExecutionModel, ExecutionModelBuilder, Repeat, RuleSet};
pub use pipeline::{
    characterize, characterize_events, characterize_meta, characterize_self, characterize_stream,
    Characterization, CharacterizationConfig, MetaCharacterization, SelfCharacterization,
};
pub use replay::{replay, replay_original, ReplayConfig, ReplayPlan, ReplayResult};
pub use supervise::{
    characterize_events_supervised, ChaosMode, ChaosPoint, Coverage, Incident, IncidentKind,
    IncidentOutcome, MachineCoverage, PartialCharacterization, RetryPolicy, StageCoverage,
    StageStatus, SuperviseConfig, UnitStatus,
};
pub use trace::{ExecutionTrace, ResourceTrace, TimesliceGrid};
