//! The span recorder: RAII spans buffered per thread, drained at scope
//! exit, no locks on the hot path.
//!
//! Recording is opt-in and thread-scoped. [`start`] installs a session on
//! the *current* thread; [`span`] records into it; worker threads join via
//! an explicitly propagated [`WorkerHandle`] (thread-locals do not cross
//! `std::thread::scope` boundaries on their own). When no session is
//! installed, [`span`] costs one thread-local read and records nothing —
//! the instrumented pipeline stays effectively free for normal callers.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::obs::alloc::{self, AllocSnapshot};
use crate::trace::Nanos;

/// The stages of Grade10's own pipeline, as recorded by the instrumented
/// code. `Stage::TABLE` names each one and places it in the meta model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Ingestion of an interned event stream and raw monitoring (the
    /// pipeline's `ingest` row, which `trace::ingest` also walks): strict
    /// validation or lenient repair, the monitoring checks and the
    /// execution-trace build. Interning raw events into the stream is the
    /// producer's cost, outside this span.
    Ingest,
    /// Timeslice-granular demand estimation (§III-D1).
    Demand,
    /// Upsampling coarse measurements to timeslices (§III-D2), including
    /// the missing-slice estimation pass.
    Upsample,
    /// One upsampling worker thread's share of the fan-out.
    Worker,
    /// Attribution of consumption to phases (§III-D3).
    Attribute,
    /// Bottleneck identification (§III-E).
    Bottleneck,
    /// The baseline replay simulation of the critical path (§III-F).
    Replay,
    /// Issue detection and the what-if replays that rank issues (§III-F).
    Issues,
    /// A supervised unit's failed attempt: the wall-clock time a panicked,
    /// timed-out, or budget-rejected unit consumed before the supervisor
    /// gave up on the attempt (recorded retroactively).
    Incident,
    /// Rendering of human-readable output.
    Report,
}

/// One row of [`Stage::TABLE`].
#[derive(Clone, Copy)]
pub(crate) struct StageRow {
    /// The stage the row describes.
    pub stage: Stage,
    /// Its only name: its phase type in [`meta_model`](crate::obs::meta_model),
    /// its self-profile row and, for a lifecycle stage, its coverage row,
    /// incident stage and chaos unit label.
    pub name: &'static str,
    /// The stage whose spans contain this one's (a top-level stage), or
    /// `None` for a child of the meta model's root. A nested stage is its
    /// parent's parallel fan-out.
    pub parent: Option<Stage>,
    /// Whether the stage is a link of the meta model's precedence chain,
    /// which joins the top-level links in table order.
    pub chained: bool,
}

impl Stage {
    /// The stage table, in pipeline order: the one place a stage is named.
    /// Row `i` describes the stage with discriminant `i`.
    #[rustfmt::skip]
    pub(crate) const TABLE: [StageRow; 10] = [
        StageRow { stage: Stage::Ingest,     name: "ingest",     parent: None,                  chained: true },
        StageRow { stage: Stage::Demand,     name: "demand",     parent: None,                  chained: true },
        StageRow { stage: Stage::Upsample,   name: "upsample",   parent: None,                  chained: true },
        StageRow { stage: Stage::Worker,     name: "worker",     parent: Some(Stage::Upsample), chained: false },
        StageRow { stage: Stage::Attribute,  name: "attribute",  parent: None,                  chained: true },
        StageRow { stage: Stage::Bottleneck, name: "bottleneck", parent: None,                  chained: true },
        StageRow { stage: Stage::Replay,     name: "replay",     parent: None,                  chained: true },
        StageRow { stage: Stage::Issues,     name: "issues",     parent: None,                  chained: true },
        // Incident spans (failed supervised attempts) can appear anywhere
        // in the run, so the stage is unordered with respect to the others.
        StageRow { stage: Stage::Incident,   name: "incident",   parent: None,                  chained: false },
        StageRow { stage: Stage::Report,     name: "report",     parent: None,                  chained: true },
    ];

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::TABLE.len()] = {
        let mut all = [Stage::Ingest; Stage::TABLE.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = Stage::TABLE[i].stage;
            assert!(all[i] as usize == i, "the stage table is out of order");
            i += 1;
        }
        all
    };

    /// The stage's row of [`Stage::TABLE`].
    pub(crate) fn row(self) -> &'static StageRow {
        &Stage::TABLE[self as usize]
    }

    /// The stage's phase-type name in the meta execution model.
    pub fn name(self) -> &'static str {
        self.row().name
    }
}

/// One closed span: a stage execution on one recorder thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which pipeline stage ran.
    pub stage: Stage,
    /// Recorder thread index (0 = the thread that called [`start`]).
    pub thread: u16,
    /// Start, nanoseconds since the session epoch.
    pub start: Nanos,
    /// End, nanoseconds since the session epoch (`end >= start`).
    pub end: Nanos,
    /// Heap allocations performed on this thread while the span was open.
    /// Zero unless the binary installs [`CountingAlloc`](crate::obs::CountingAlloc).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Everything one recording session captured: the raw self-trace that
/// [`characterize_meta`](crate::pipeline::characterize_meta) feeds back
/// through the pipeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetaTrace {
    /// All closed spans, sorted by `(start, thread, end)`.
    pub spans: Vec<SpanRecord>,
    /// Session end, nanoseconds since the epoch (≥ every span's end).
    pub end: Nanos,
}

impl MetaTrace {
    /// Number of distinct recorder threads that produced spans.
    pub fn num_threads(&self) -> usize {
        let mut threads: Vec<u16> = self.spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        threads.len()
    }
}

struct SessionInner {
    epoch: Instant,
    /// Cold path only: each thread's buffer is flushed here once, when the
    /// thread leaves the session.
    spans: Mutex<Vec<SpanRecord>>,
    next_thread: AtomicU16,
}

struct ThreadCtx {
    session: Arc<SessionInner>,
    thread: u16,
    buf: Vec<SpanRecord>,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

fn flush_ctx(ctx: ThreadCtx) {
    let mut spans = ctx
        .session
        .spans
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    spans.extend(ctx.buf);
}

/// An active recording session, returned by [`start`]. Dropping it without
/// calling [`finish`](Recording::finish) discards the recording.
pub struct Recording {
    session: Arc<SessionInner>,
}

/// Starts recording spans on the current thread.
///
/// # Panics
/// Panics if this thread already has an active session: sessions do not
/// nest (a self-characterization of a self-characterization would recurse).
pub fn start() -> Recording {
    let session = Arc::new(SessionInner {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_thread: AtomicU16::new(1),
    });
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        assert!(
            c.is_none(),
            "obs::start: this thread is already recording a session"
        );
        *c = Some(ThreadCtx {
            session: Arc::clone(&session),
            thread: 0,
            buf: Vec::new(),
        });
    });
    Recording { session }
}

impl Recording {
    /// Stops recording on the calling thread and returns the captured
    /// trace. Worker threads that entered via [`WorkerHandle`] have already
    /// flushed their buffers when their guards dropped.
    pub fn finish(self) -> MetaTrace {
        if let Some(ctx) = CTX.with(|c| c.borrow_mut().take()) {
            flush_ctx(ctx);
        }
        let end = self.session.epoch.elapsed().as_nanos() as Nanos;
        let mut spans = {
            let mut locked = self
                .session
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *locked)
        };
        spans.sort_by_key(|s| (s.start, s.thread, s.end));
        let end = spans.iter().map(|s| s.end).fold(end, Nanos::max);
        MetaTrace { spans, end }
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        // If finish() ran, the context is already gone; otherwise uninstall
        // it so an abandoned session does not leak into later pipeline runs
        // on this thread.
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            if c.as_ref()
                .is_some_and(|ctx| Arc::ptr_eq(&ctx.session, &self.session))
            {
                *c = None;
            }
        });
    }
}

/// An open RAII span; the record is written when it drops. Inert (and
/// near-free) when the thread has no active session.
pub struct Span {
    active: Option<(Stage, Nanos, AllocSnapshot)>,
}

/// Opens a span for `stage` on the current thread. The span closes — and
/// the record is buffered — when the returned guard drops.
#[inline]
pub fn span(stage: Stage) -> Span {
    let start = CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ctx.session.epoch.elapsed().as_nanos() as Nanos)
    });
    Span {
        active: start.map(|t0| (stage, t0, alloc::snapshot())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((stage, start, alloc0)) = self.active.take() else {
            return;
        };
        let alloc1 = alloc::snapshot();
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            if let Some(ctx) = c.as_mut() {
                let end = (ctx.session.epoch.elapsed().as_nanos() as Nanos).max(start);
                ctx.buf.push(SpanRecord {
                    stage,
                    thread: ctx.thread,
                    start,
                    end,
                    allocs: alloc1.allocs.saturating_sub(alloc0.allocs),
                    alloc_bytes: alloc1.bytes.saturating_sub(alloc0.bytes),
                });
            }
        });
    }
}

/// Nanoseconds since the current session's epoch, or `None` when the
/// calling thread is not recording. Pair with [`record_span`] to stamp a
/// span retroactively — e.g. the supervisor timing a unit whose worker
/// died and could not close its own spans.
pub fn session_now() -> Option<Nanos> {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ctx.session.epoch.elapsed().as_nanos() as Nanos)
    })
}

/// Buffers a span with explicit endpoints (from [`session_now`]) on the
/// current thread's session. A no-op when nothing is recording. Allocation
/// counters are zero: the spanned work happened elsewhere.
pub fn record_span(stage: Stage, start: Nanos, end: Nanos) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(ctx) = c.as_mut() {
            ctx.buf.push(SpanRecord {
                stage,
                thread: ctx.thread,
                start,
                end: end.max(start),
                allocs: 0,
                alloc_bytes: 0,
            });
        }
    });
}

/// A cloneable handle that lets a spawned worker thread record into the
/// session of the thread that created the handle.
#[derive(Clone)]
pub struct WorkerHandle {
    session: Arc<SessionInner>,
}

/// The current thread's session as a handle for worker threads, or `None`
/// when nothing is recording. Capture this *before* spawning and call
/// [`WorkerHandle::enter`] on the worker.
pub fn worker_handle() -> Option<WorkerHandle> {
    CTX.with(|c| {
        c.borrow().as_ref().map(|ctx| WorkerHandle {
            session: Arc::clone(&ctx.session),
        })
    })
}

impl WorkerHandle {
    /// Joins the session from a worker thread: installs a recording context
    /// with a fresh thread index, so the spans the worker opens land in the
    /// session under that index. The returned guard flushes the thread's
    /// buffer into the session when dropped. A [`Stage::Worker`] span for
    /// the worker's whole share, if wanted, is the caller's to open.
    ///
    /// If the calling thread already has a context (the handle was entered
    /// on the coordinating thread itself), the existing context is left
    /// untouched and the guard does nothing.
    pub fn enter(&self) -> WorkerGuard {
        let fresh = CTX.with(|c| {
            let mut c = c.borrow_mut();
            if c.is_some() {
                false
            } else {
                let thread = self.session.next_thread.fetch_add(1, Ordering::Relaxed);
                *c = Some(ThreadCtx {
                    session: Arc::clone(&self.session),
                    thread,
                    buf: Vec::new(),
                });
                true
            }
        });
        WorkerGuard { fresh }
    }
}

/// Guard returned by [`WorkerHandle::enter`]; for threads the handle
/// installed, flushes and uninstalls the context. Close the thread's spans
/// before dropping it.
pub struct WorkerGuard {
    fresh: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if self.fresh {
            if let Some(ctx) = CTX.with(|c| c.borrow_mut().take()) {
                flush_ctx(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_records_nothing() {
        {
            let _s = span(Stage::Demand);
        }
        let rec = start();
        let trace = rec.finish();
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn spans_capture_order_and_nesting() {
        let rec = start();
        {
            let _outer = span(Stage::Upsample);
            let _inner = span(Stage::Attribute);
        }
        {
            let _s = span(Stage::Bottleneck);
        }
        let trace = rec.finish();
        let stages: Vec<Stage> = trace.spans.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Upsample, Stage::Attribute, Stage::Bottleneck]
        );
        for s in &trace.spans {
            assert!(s.end >= s.start);
            assert!(s.end <= trace.end);
            assert_eq!(s.thread, 0);
        }
        // The inner span closed before (or with) the outer one.
        assert!(trace.spans[1].end <= trace.spans[0].end);
    }

    #[test]
    fn worker_threads_record_into_the_session() {
        let rec = start();
        let handle = worker_handle().expect("session active");
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let handle = handle.clone();
                scope.spawn(move || {
                    let _g = handle.enter();
                    let _w = span(Stage::Worker);
                    let _s = span(Stage::Upsample);
                });
            }
        });
        let trace = rec.finish();
        let workers: Vec<&SpanRecord> = trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Worker)
            .collect();
        assert_eq!(workers.len(), 3);
        let mut threads: Vec<u16> = workers.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        assert_eq!(threads, vec![1, 2, 3]);
        // Each worker also recorded its nested upsample span on its thread.
        let mut upsample: Vec<u16> = trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Upsample)
            .map(|s| s.thread)
            .collect();
        upsample.sort_unstable();
        assert_eq!(upsample, vec![1, 2, 3]);
        // Thread 0 recorded no spans of its own here: only workers count.
        assert_eq!(trace.num_threads(), 3);
    }

    #[test]
    fn dropping_recording_uninstalls_context() {
        {
            let _rec = start();
            // No finish(): dropped.
        }
        // A new session must start cleanly on the same thread.
        let rec = start();
        {
            let _s = span(Stage::Ingest);
        }
        assert_eq!(rec.finish().spans.len(), 1);
    }

    #[test]
    fn sessions_are_thread_scoped() {
        let rec = start();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // No handle entered: this thread is not recording.
                let _s = span(Stage::Demand);
            });
        });
        assert!(rec.finish().spans.is_empty());
    }
}
