//! Shared threading configuration and the one worker pool.
//!
//! Every fan-out in `core` goes through `pool_map`: the upsampling stage
//! of [`crate::attribution::build_profile`] (one item per resource row),
//! the lifecycle's executor in [`crate::pipeline`] under the supervised
//! policy ([`crate::supervise::characterize_events_supervised`]: one item
//! per per-machine unit; the inline policy has one unit and no pool), and
//! the campaign scheduler's claimant slots ([`crate::campaign`]). Each
//! caller decides its width with [`Parallelism::width`], the one width
//! rule: the policy says *whether* to fan out, [`resolve_threads`] says
//! over *how many* threads, so `GRADE10_THREADS` means one thing
//! everywhere. (Which *executor* policy a characterization runs under is
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
//! Pools never nest: a `pool_map` called on a pool worker runs inline on
//! that worker, so a campaign mix or a supervised unit that reaches the
//! upsampling fan-out upsamples on its own thread. The machine is never
//! asked for more threads than the outermost pool's width.
//!
//! [`CODE_VERSION`] lives here too: every layer that keys a durable
//! artifact reads it, so it belongs to none of them.

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

use crate::obs;

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

thread_local! {
    /// Set on each pool worker when it starts; a [`pool_map`] reached from
    /// inside a worker runs inline.
    static ON_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `run` over `items` on a bounded pool of `width` scoped workers and
/// returns the results **in item order** — the pool only changes *when*
/// items execute, never how their outputs interleave, which is what keeps
/// every fan-out's output byte-identical across widths.
///
/// Workers claim items from a shared cursor (no up-front chunking: one
/// slow item — a deadline sleeper, a retry ladder — must not leave its
/// chunk-mates queued behind it while other workers sit idle) and join the
/// caller's [`crate::obs`] session, so self-characterization sees the
/// spans they record. `worker_span` is the stage each worker records its
/// whole share under: the upsampling fan-out passes [`obs::Stage::Worker`]
/// because its rows record nothing of their own; fan-outs whose items open
/// their own stage spans pass `None`, so no worker time goes unattributed.
///
/// `width <= 1`, a single item, or a call from a pool worker degenerates
/// to an inline loop on the caller's thread. A panic in `run` on a worker
/// propagates to the caller when the pool joins.
pub(crate) fn pool_map<I, T, F>(
    width: usize,
    items: Vec<I>,
    worker_span: Option<obs::Stage>,
    run: F,
) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    if width <= 1 || n <= 1 || ON_POOL.get() {
        return items.into_iter().map(run).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let session = obs::worker_handle();
    std::thread::scope(|scope| {
        for _ in 0..width.min(n) {
            let (queue, done, run, session) = (&queue, &done, &run, &session);
            scope.spawn(move || {
                ON_POOL.set(true);
                let _joined = session.as_ref().map(obs::WorkerHandle::enter);
                let _span = worker_span.map(obs::span);
                loop {
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((idx, item)) = next else { break };
                    let out = run(item);
                    // A poisoned ledger can only mean another worker died
                    // mid-push; pushing anyway keeps this item's result.
                    done.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((idx, out));
                }
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(done.len(), n, "pool lost results");
    done.into_iter().map(|(_, t)| t).collect()
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

    #[test]
    fn pool_returns_results_in_item_order_at_any_width() {
        // Uneven cost: early items sleep longest, so workers finish them
        // last and the ledger fills out of order.
        let items: Vec<u64> = (0..24).collect();
        for width in [1, 2, 8] {
            let out = pool_map(width, items.clone(), None, |i| {
                std::thread::sleep(std::time::Duration::from_micros((24 - i) * 100));
                i * 3
            });
            assert_eq!(
                out,
                items.iter().map(|i| i * 3).collect::<Vec<_>>(),
                "width {width}"
            );
        }
    }

    #[test]
    fn nested_pool_runs_inline_on_the_worker() {
        let caller = std::thread::current().id();
        let outer = pool_map(2, vec![0, 1, 2, 3], None, |_| {
            let me = std::thread::current().id();
            let inner = pool_map(8, vec![0; 8], None, |_| std::thread::current().id());
            (me, inner)
        });
        for (me, inner) in outer {
            assert_ne!(me, caller, "outer items ran off the pool");
            assert!(
                inner.iter().all(|&t| t == me),
                "nested pool left its worker"
            );
        }
    }
}
