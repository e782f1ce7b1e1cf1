//! Screening campaigns under a durable robustness envelope.
//!
//! A campaign is the fleet-screening methodology promoted to a
//! first-class citizen: a declarative spec (workload × graph scale ×
//! engine × partitioning × fault plan) expands into a deterministic mix
//! matrix, and every mix runs under the same protections Grade10 gives
//! individual characterizations — plus durability across process death:
//!
//! - **Result store** ([`Store`]): every finished mix is persisted under
//!   a content hash of its spec entry and the code version, written
//!   atomically. Re-launching skips finished work; editing one axis
//!   value re-runs exactly the affected mixes; bumping
//!   [`CODE_VERSION`] re-runs everything.
//! - **Write-ahead journal** ([`Journal`]): append-only, self-checking
//!   records with fsync'd completion markers. A SIGKILL'd campaign is
//!   resumable with `--resume`; torn or corrupt records are quarantined,
//!   never trusted and never fatal.
//! - **Retry ladder** ([`run_campaign`]): a failed mix re-runs at once one
//!   rung further down strict → lenient → partial, through the same
//!   attempt loop that retries supervised units; a mix that exhausts the
//!   ladder becomes a campaign-level
//!   [`Incident`](crate::supervise::Incident) instead of aborting the
//!   campaign.
//!
//! The final report (text + JSON, rendered by
//! [`report::campaign_report`](crate::report::campaign_report)) ranks
//! mixes by makespan, flags configurations whose bottleneck classes
//! differ from the rest of the matrix, and carries the incident log — and
//! is a pure function of the outcomes, so a resumed campaign's report is
//! byte-identical to an uninterrupted one.

mod journal;
mod scheduler;
mod spec;
mod store;

// Defined in [`crate::config`] (every layer that keys a durable artifact
// reads it); re-exported because callers reach it as
// `campaign::CODE_VERSION`.
pub use crate::config::CODE_VERSION;

pub use journal::{
    ClaimState, FailedMix, Journal, JournalReplay, JOURNAL_FORMAT_VERSION,
    MIN_JOURNAL_FORMAT_VERSION,
};
pub use scheduler::{
    campaign_status, ladder_mode, load_manifest, run_campaign, CampaignOptions, CampaignRun,
    CampaignStatus, MixAttempt, MixMode, Poll,
};
pub use spec::{CampaignSpec, MixSpec};
pub(crate) use store::quarantine;
pub use store::{atomic_write, MixOutcome, Store};
