//! Shared threading configuration.
//!
//! Two places fan work out over threads: the upsampling stage of
//! [`crate::attribution::build_profile`] (one worker per batch of resource
//! rows) and the lifecycle's executor in [`crate::pipeline`] when it runs
//! under the supervised policy
//! ([`crate::supervise::characterize_events_supervised`]: one worker per
//! per-machine unit; the inline policy has one unit and no pool). Both
//! must answer the same two questions — *should* this run parallel, and
//! over *how many* threads — and both must answer them identically for
//! `GRADE10_THREADS` to mean one thing. This module holds the shared
//! vocabulary: the [`Parallelism`] enum and the [`resolve_threads`] width
//! resolution. (Which *executor* policy a characterization runs under is
//! not configuration at all: the entry point picks it.)
//!
//! Width precedence, strongest first:
//!
//! 1. an explicit width from the caller (the CLI's `--threads`);
//! 2. the `GRADE10_THREADS` environment variable (tests pin it to prove
//!    results are independent of thread count);
//! 3. [`std::thread::available_parallelism`] (falling back to 4 when the
//!    platform cannot say).
//!
//! The resolved width is clamped to the number of work units — spawning
//! idle workers buys nothing — and to at least 1.
//!
//! [`CODE_VERSION`] lives here too: every layer that keys a durable
//! artifact reads it, so it belongs to none of them.

/// Code-version tag mixed into every content hash (campaign result store,
/// stage-cache keys). Bump when the characterization pipeline changes in a
/// way that invalidates stored mix outcomes; every mix then re-runs on the
/// next `--resume`.
///
/// `g10c-2`: retroactive bump for the PR 8 retirement of the legacy
/// attribution backend (whose outputs `g10c-1` stores may still embed).
/// `tests/columnar_equivalence.rs` ties the tag to the committed golden
/// hashes: changing attribution output without bumping fails CI.
pub const CODE_VERSION: &str = "g10c-2";

/// Threading policy for a parallelizable pipeline stage. The result is
/// bit-identical whichever variant is chosen: parallel paths partition
/// work so every output cell is written by exactly one worker and merge
/// results in a stable, input-defined order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Parallelize when the input is large enough to amortize the spawns.
    #[default]
    Auto,
    /// Always single-threaded.
    Never,
    /// Always parallel (mostly for tests pinning determinism).
    Always,
}

impl Parallelism {
    /// Worker-pool width for `units` independent pieces of work, given the
    /// policy and an optional explicit override: 1 when the policy says
    /// sequential (or `worthwhile` is false under [`Parallelism::Auto`]),
    /// otherwise [`resolve_threads`]`(explicit, units)`.
    pub fn width(self, explicit: Option<usize>, units: usize, worthwhile: bool) -> usize {
        let go = match self {
            Parallelism::Never => false,
            Parallelism::Always => units > 1,
            Parallelism::Auto => worthwhile && units > 1,
        };
        if go {
            resolve_threads(explicit, units)
        } else {
            1
        }
    }
}

/// Resolves the worker-pool width for `units` independent pieces of work:
/// `explicit` beats `GRADE10_THREADS` beats the machine size (see the
/// module docs for why). Always in `1..=units.max(1)`.
pub fn resolve_threads(explicit: Option<usize>, units: usize) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("GRADE10_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .min(units)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    // `GRADE10_THREADS` is process-global, so these tests only exercise
    // the env-independent branches; the env precedence itself is pinned by
    // the integration tests that own the variable (tests/determinism.rs,
    // tests/supervision_determinism.rs).

    #[test]
    fn explicit_width_wins_and_is_clamped() {
        assert_eq!(resolve_threads(Some(3), 8), 3);
        assert_eq!(resolve_threads(Some(16), 4), 4);
        assert_eq!(resolve_threads(Some(2), 0), 1);
    }

    #[test]
    fn zero_explicit_width_is_ignored() {
        // `Some(0)` would deadlock a pool; treat it as "not specified".
        assert!(resolve_threads(Some(0), 8) >= 1);
    }

    #[test]
    fn never_is_sequential_regardless_of_width() {
        assert_eq!(Parallelism::Never.width(Some(8), 8, true), 1);
    }

    #[test]
    fn auto_respects_worthwhile() {
        assert_eq!(Parallelism::Auto.width(Some(4), 8, false), 1);
        assert_eq!(Parallelism::Auto.width(Some(4), 8, true), 4);
    }

    #[test]
    fn single_unit_never_spawns() {
        assert_eq!(Parallelism::Always.width(Some(8), 1, true), 1);
    }
}
