//! Supervised pipeline execution: panic isolation, deadlines, budget
//! guards, and partial characterizations.
//!
//! The ordinary pipeline entry points ([`crate::pipeline::characterize`]
//! and friends) are all-or-nothing: one panic in attribution, one
//! clock-bombed record that inflates the timeslice grid, or one quadratic
//! blowup in replay kills the entire characterization with nothing to
//! show. Real distributed runs produce exactly such inputs, and the
//! fault-tolerant systems Grade10 profiles treat partial progress under
//! component failure as a first-class outcome — so the characterization
//! framework should too.
//!
//! [`characterize_events_supervised`] wraps each pipeline stage — and,
//! within ingestion and attribution, each per-machine unit of work — in an
//! isolated worker with:
//!
//! * **panic capture** (`catch_unwind`): a panicking unit becomes a
//!   [`Grade10Error::StagePanicked`], not a process abort;
//! * **wall-clock deadlines** ([`SuperviseConfig::deadline`]): a unit that
//!   overruns is abandoned on its worker thread and the pipeline moves on;
//! * **a budget guard** ([`SuperviseConfig::max_grid_cells`]): timeslice
//!   grids are costed *before* allocation and coarsened (or rejected) when
//!   they exceed the cap;
//! * **a bounded retry ladder**: failed units re-run under degraded
//!   settings — strict ingestion falls back to lenient, an oversized grid
//!   coarsens its timeslice, a failed replay is skipped — and a unit that
//!   exhausts its retries is *dropped*, not fatal.
//!
//! Every failure and every degradation becomes a structured [`Incident`];
//! the result is a [`PartialCharacterization`]: the ordinary
//! [`Characterization`] plus the incident log and a per-machine /
//! per-stage [`Coverage`] map saying exactly what was and was not
//! analyzed. The degradation ladder is: strict → lenient → coarse slice →
//! drop unit (see `docs/robustness.md`).
//!
//! Concurrency: per-machine units run on a bounded worker pool
//! ([`SuperviseConfig::parallelism`] / [`SuperviseConfig::threads`], width
//! resolved by [`crate::config::resolve_threads`] — explicit width, then
//! `GRADE10_THREADS`, then the machine size). Workers claim units from a
//! shared queue, and the supervisor merges their results — profiles,
//! repaired streams, incidents, per-machine status — in stable unit-key
//! order, so the output is byte-identical whatever the pool width,
//! including width 1 (which runs the unit inline on the supervisor
//! thread). With [`SuperviseConfig::deadline`] set, each attempt runs on
//! its own detached thread and is abandoned if it overruns — the thread
//! finishes (or leaks until process exit) in the background, which is the
//! price of not blocking the pipeline on an unbounded computation; because
//! attempts time out *concurrently* on the pool, one stalled unit delays
//! the run by one deadline, not one deadline per stalled unit. Pool
//! workers register with [`crate::obs`] so self-characterization
//! attributes their CPU; failed attempts are stamped into the self-profile
//! as [`obs::Stage::Incident`] spans.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::attribution::{build_profile, PerformanceProfile, ProfileConfig};
use crate::config::Parallelism;
use crate::bottleneck::BottleneckReport;
use crate::error::Grade10Error;
use crate::hash::{fnv1a, fnv1a_extend};
use crate::issues::{detect_issues, PerformanceIssue};
use crate::model::{ExecutionModel, RuleSet};
use crate::obs;
use crate::parse::{build_execution_trace, RawEvent};
use crate::pipeline::{Characterization, CharacterizationConfig};
use crate::replay::replay_original;
use crate::trace::repair::{
    plausibility_bound, repair_events_opts, repair_series, validate_event_stream, IngestMode,
    IngestReport, RawSeries,
};
use crate::trace::resource::ResourceTrace;
use crate::trace::timeslice::Nanos;
use crate::trace::ExecutionTrace;

/// Knobs of the supervision layer, carried in
/// [`CharacterizationConfig::supervise`].
#[derive(Clone, Debug)]
pub struct SuperviseConfig {
    /// Wall-clock deadline per unit attempt. `None` (the default) runs
    /// every unit inline on the supervisor thread — fully deterministic,
    /// panics still captured. `Some(d)` runs units on worker threads and
    /// abandons any attempt that has not finished within `d`.
    pub deadline: Option<Duration>,
    /// Retries per unit after the first failed attempt (default 2). Each
    /// retry runs one rung further down the degradation ladder where the
    /// stage has one (strict → lenient ingestion); otherwise it is a plain
    /// re-attempt.
    pub max_retries: u32,
    /// Maximum `(resource × timeslice)` cells a grid may request. Grids
    /// over the cap are rejected *before* allocating and the timeslice is
    /// coarsened by [`coarsen_factor`](Self::coarsen_factor) (bounded by
    /// [`max_retries`](Self::max_retries) rungs); a grid still over the
    /// cap after coarsening drops the attribution stage. The default
    /// (4 M cells ≈ a few hundred MB across the profile arrays) is sized
    /// so a single clock-bombed timestamp cannot OOM the process.
    pub max_grid_cells: usize,
    /// Timeslice multiplier applied per budget rung (default 10).
    pub coarsen_factor: u32,
    /// Test-only fault injection: chaos points matched by unit label. Leave
    /// empty in production.
    pub chaos: Vec<ChaosPoint>,
    /// Threading policy for the per-machine unit pools (ingestion and
    /// attribution). Results are byte-identical at any width — workers
    /// only compute, the supervisor merges in stable unit-key order — so
    /// the default [`Parallelism::Auto`] parallelizes whenever there is
    /// more than one unit.
    pub parallelism: Parallelism,
    /// Explicit worker-pool width. `None` (the default) defers to
    /// `GRADE10_THREADS`, then to the machine size — see
    /// [`crate::config::resolve_threads`].
    pub threads: Option<usize>,
    /// Retry/backoff policy for *whole-mix* re-execution under the
    /// campaign envelope (see [`crate::campaign`]). Unit-level retries
    /// inside one characterization are governed by
    /// [`max_retries`](Self::max_retries); this policy governs how a
    /// campaign re-launches an entire failed mix before recording it as
    /// an [`Incident`].
    pub retry: RetryPolicy,
    /// Unused: nothing in `core` reads this field any more. The stage
    /// cache holds one streams record per campaign mix and is consulted
    /// by the CLI's `run_mix` before the pipeline is entered (see
    /// [`crate::cache`]); neither pipeline caches its stages. The field
    /// is kept only because the frozen benchmark sources still assign it,
    /// and goes when a `benchmark` PR drops that assignment.
    pub cache: Option<Arc<crate::cache::StageCache>>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            deadline: None,
            max_retries: 2,
            max_grid_cells: 4_000_000,
            coarsen_factor: 10,
            chaos: Vec::new(),
            parallelism: Parallelism::Auto,
            threads: None,
            retry: RetryPolicy::default(),
            cache: None,
        }
    }
}

/// Bounded exponential backoff with deterministic jitter, used by the
/// campaign scheduler between attempts of a failed mix.
///
/// The delay before attempt `k + 1` is `base << k`, capped at `cap`, then
/// scaled by a jitter factor in `[1 - jitter, 1 + jitter]` derived from an
/// FNV hash of `(salt, k)` — deterministic for a given mix, decorrelated
/// across mixes, and entirely free of wall-clock or OS entropy so that a
/// resumed campaign replays the same schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per mix, including the first (default 3). `0` is
    /// treated as `1`: the first attempt always runs.
    pub max_attempts: u32,
    /// Delay before the first retry (default 50 ms). Zero disables
    /// sleeping entirely — useful in tests.
    pub base: Duration,
    /// Upper bound on any single delay (default 2 s).
    pub cap: Duration,
    /// Jitter half-width as a fraction of the delay, clamped to `[0, 1]`
    /// (default 0.5, i.e. delays vary between 50% and 150% of nominal).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The delay to sleep after failed attempt `attempt` (0-based), salted
    /// so different mixes do not retry in lockstep. Returns
    /// `Duration::ZERO` when [`base`](Self::base) is zero.
    pub fn backoff_delay(&self, attempt: u32, salt: u64) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let shifted = self
            .base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.cap);
        let nominal = shifted.min(self.cap);
        let jitter = self.jitter.clamp(0.0, 1.0);
        // Map an FNV hash of (salt, attempt) onto [1 - jitter, 1 + jitter].
        let h = fnv1a_extend(fnv1a(&salt.to_le_bytes()), &attempt.to_le_bytes());
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - jitter + 2.0 * jitter * frac;
        nominal.mul_f64(factor).min(self.cap)
    }
}

/// What a [`ChaosPoint`] does when its unit runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic inside the unit (exercises `catch_unwind` isolation).
    Panic,
    /// Sleep before doing the work (exercises deadlines).
    Stall(Duration),
}

/// A deterministic fault injected into one supervised unit, for testing
/// the supervision layer itself. The `unit` string must equal the unit's
/// label, e.g. `"attribute/machine 1"` or `"replay"`. The fault fires on
/// *every* attempt, so a `Panic` chaos point drives the unit through its
/// whole retry ladder to `Dropped`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPoint {
    /// Label of the unit to sabotage.
    pub unit: String,
    /// What to inject.
    pub mode: ChaosMode,
}

/// Classification of a supervised failure or degradation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// A unit panicked and the panic was captured.
    Panic,
    /// A unit exceeded its wall-clock deadline and was abandoned.
    Deadline,
    /// A grid exceeded the slice/allocation budget and was rejected before
    /// allocating.
    Budget,
    /// A machine contributed monitoring but no log events (e.g. its log
    /// shipper died): it is characterized from monitoring only.
    MissingData,
    /// Implausible monitoring windows were quarantined during lenient
    /// repair (timestamp damage that would have inflated the grid).
    Quarantine,
    /// A campaign mix killed several consecutive claimants without ever
    /// recording an outcome and was quarantined as poisoned rather than
    /// allowed to crash-loop the fleet.
    Poisoned,
    /// Any other classified [`Grade10Error`] from a unit.
    Error,
}

impl IncidentKind {
    /// Short lowercase name, for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::Panic => "panic",
            IncidentKind::Deadline => "deadline",
            IncidentKind::Budget => "budget",
            IncidentKind::MissingData => "missing-data",
            IncidentKind::Quarantine => "quarantine",
            IncidentKind::Poisoned => "poisoned",
            IncidentKind::Error => "error",
        }
    }

    /// Inverse of [`name`](Self::name), for reconstructing incidents from
    /// durable records (the campaign journal). Unknown names map to
    /// `None`; callers default to [`IncidentKind::Error`].
    pub fn from_name(name: &str) -> Option<IncidentKind> {
        match name {
            "panic" => Some(IncidentKind::Panic),
            "deadline" => Some(IncidentKind::Deadline),
            "budget" => Some(IncidentKind::Budget),
            "missing-data" => Some(IncidentKind::MissingData),
            "quarantine" => Some(IncidentKind::Quarantine),
            "poisoned" => Some(IncidentKind::Poisoned),
            "error" => Some(IncidentKind::Error),
            _ => None,
        }
    }

    pub(crate) fn of(e: &Grade10Error) -> IncidentKind {
        match e {
            Grade10Error::Deadline(_) => IncidentKind::Deadline,
            Grade10Error::BudgetExceeded(_) => IncidentKind::Budget,
            Grade10Error::StagePanicked(_) => IncidentKind::Panic,
            _ => IncidentKind::Error,
        }
    }
}

/// How a supervised unit's story ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncidentOutcome {
    /// The unit eventually produced a result under degraded settings.
    Recovered {
        /// Human-readable description of the degradation that made the
        /// unit succeed (e.g. `"lenient ingestion"`, `"timeslice coarsened
        /// ×10"`).
        degradation: String,
    },
    /// The unit exhausted its retries and its results are missing from the
    /// characterization.
    Dropped,
}

/// One structured record of a supervised failure or degradation — the
/// replacement for a process abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incident {
    /// Pipeline stage the unit belonged to (`"ingest"`, `"attribute"`,
    /// `"bottleneck"`, `"replay"`, `"issues"`).
    pub stage: &'static str,
    /// The unit within the stage (`"machine 3"`, `"cluster"`, or the
    /// stage name itself for whole-stage units).
    pub unit: String,
    /// Failure class.
    pub kind: IncidentKind,
    /// Detail of the (first) failure, from the classified error.
    pub detail: String,
    /// Attempts consumed, including the final one.
    pub attempts: u32,
    /// Whether the unit recovered or was dropped.
    pub outcome: IncidentOutcome,
}

/// Coverage status of one per-machine unit of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitStatus {
    /// Analyzed at full fidelity.
    Full,
    /// Analyzed, but under degraded settings or with partial data.
    Degraded,
    /// Excluded from the characterization.
    Dropped,
}

impl UnitStatus {
    /// Short lowercase name, for tables.
    pub fn name(self) -> &'static str {
        match self {
            UnitStatus::Full => "full",
            UnitStatus::Degraded => "degraded",
            UnitStatus::Dropped => "dropped",
        }
    }
}

/// Coverage status of one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageStatus {
    /// Ran to completion at full fidelity.
    Full,
    /// Ran, but degraded (some units retried, coarsened, or dropped).
    Degraded,
    /// Did not run (or fell back to a trivial substitute).
    Skipped,
}

impl StageStatus {
    /// Short lowercase name, for tables.
    pub fn name(self) -> &'static str {
        match self {
            StageStatus::Full => "full",
            StageStatus::Degraded => "degraded",
            StageStatus::Skipped => "skipped",
        }
    }
}

/// Coverage of one machine's data in the final characterization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineCoverage {
    /// The machine, or `None` for cluster-level resources not pinned to a
    /// machine.
    pub machine: Option<u16>,
    /// How much of the machine's data made it through.
    pub status: UnitStatus,
}

impl MachineCoverage {
    /// `"machine 3"` or `"cluster"`.
    pub fn label(&self) -> String {
        match self.machine {
            Some(m) => format!("machine {m}"),
            None => "cluster".to_string(),
        }
    }
}

/// Coverage of one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageCoverage {
    /// Stage name (`"ingest"`, `"attribute"`, …).
    pub stage: &'static str,
    /// How completely the stage ran.
    pub status: StageStatus,
}

/// Per-machine and per-stage account of what a supervised run did and did
/// not analyze.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// One entry per machine seen in the input (events or monitoring),
    /// sorted with cluster-level resources first.
    pub machines: Vec<MachineCoverage>,
    /// One entry per pipeline stage, in pipeline order.
    pub stages: Vec<StageCoverage>,
}

impl Coverage {
    /// Machines whose data is present in the characterization (full or
    /// degraded).
    pub fn machines_covered(&self) -> usize {
        self.machines
            .iter()
            .filter(|m| m.status != UnitStatus::Dropped)
            .count()
    }

    /// Stages that ran (full or degraded).
    pub fn stages_run(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.status != StageStatus::Skipped)
            .count()
    }

    /// One-line summary, e.g. `"7/8 machines, 5/5 stages"`.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} machines, {}/{} stages",
            self.machines_covered(),
            self.machines.len(),
            self.stages_run(),
            self.stages.len()
        )
    }
}

/// A characterization that survived supervision: the ordinary result plus
/// the incident log and the coverage map. `incidents` empty means the run
/// was clean end to end.
pub struct PartialCharacterization {
    /// The (possibly partial) pipeline output.
    pub characterization: Characterization,
    /// The merged execution trace the characterization was built over
    /// (callers need it for rendering; the unsupervised entry points take
    /// it as input instead).
    pub trace: ExecutionTrace,
    /// Everything that failed or degraded, in pipeline order.
    pub incidents: Vec<Incident>,
    /// What was and was not analyzed.
    pub coverage: Coverage,
}

impl PartialCharacterization {
    /// True when nothing failed or degraded: the result is identical in
    /// trust to an unsupervised run.
    pub fn is_complete(&self) -> bool {
        self.incidents.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The unit runner.
// ---------------------------------------------------------------------------

/// Outcome of one supervised unit after its whole retry ladder.
struct UnitRun<T> {
    result: Result<T, Grade10Error>,
    attempts: u32,
    first_error: Option<Grade10Error>,
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one attempt of a unit: inline with panic capture when no deadline
/// is configured, on a detached worker thread with a receive timeout when
/// one is. A timed-out worker is abandoned (it finishes in the background);
/// see the module docs for why.
fn attempt_once<T: Send + 'static>(
    sup: &SuperviseConfig,
    unit: &str,
    f: Box<dyn FnOnce() -> Result<T, Grade10Error> + Send + 'static>,
) -> Result<T, Grade10Error> {
    let chaos: Vec<ChaosPoint> = sup
        .chaos
        .iter()
        .filter(|c| c.unit == unit)
        .cloned()
        .collect();
    let label = unit.to_string();
    let body = move || -> Result<T, Grade10Error> {
        for c in &chaos {
            match c.mode {
                ChaosMode::Panic => panic!("chaos: injected panic in {label}"),
                ChaosMode::Stall(d) => std::thread::sleep(d),
            }
        }
        f()
    };
    match sup.deadline {
        None => match catch_unwind(AssertUnwindSafe(body)) {
            Ok(r) => r,
            Err(p) => Err(Grade10Error::StagePanicked(format!(
                "{unit}: {}",
                panic_message(p.as_ref())
            ))),
        },
        Some(deadline) => {
            let (tx, rx) = mpsc::channel();
            let spawned = std::thread::Builder::new()
                .name(format!("grade10-{unit}"))
                .spawn(move || {
                    // The receiver may be gone (deadline elapsed): ignore.
                    let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
                });
            let handle = match spawned {
                Ok(h) => h,
                Err(e) => {
                    return Err(Grade10Error::StagePanicked(format!(
                        "{unit}: failed to spawn worker: {e}"
                    )))
                }
            };
            match rx.recv_timeout(deadline) {
                Ok(Ok(r)) => {
                    let _ = handle.join();
                    r
                }
                Ok(Err(p)) => {
                    let msg = panic_message(p.as_ref());
                    let _ = handle.join();
                    Err(Grade10Error::StagePanicked(format!("{unit}: {msg}")))
                }
                Err(_) => Err(Grade10Error::Deadline(format!(
                    "{unit}: no result within {} ms; worker abandoned",
                    deadline.as_millis()
                ))),
            }
        }
    }
}

/// Runs a unit through its retry ladder. `attempt_for(k)` builds the
/// closure for attempt `k` (the caller encodes per-rung degradation by
/// inspecting `k`). Stops early on a fatal (non-recoverable) error. Each
/// failed attempt is stamped into the self-profile as an
/// [`obs::Stage::Incident`] span.
fn run_unit<T, F>(sup: &SuperviseConfig, unit: &str, mut attempt_for: F) -> UnitRun<T>
where
    T: Send + 'static,
    F: FnMut(u32) -> Box<dyn FnOnce() -> Result<T, Grade10Error> + Send + 'static>,
{
    let mut first_error: Option<Grade10Error> = None;
    let mut k = 0u32;
    loop {
        let t0 = obs::session_now();
        match attempt_once(sup, unit, attempt_for(k)) {
            Ok(v) => {
                return UnitRun {
                    result: Ok(v),
                    attempts: k + 1,
                    first_error,
                }
            }
            Err(e) => {
                if let (Some(a), Some(b)) = (t0, obs::session_now()) {
                    obs::record_span(obs::Stage::Incident, a, b);
                }
                if first_error.is_none() {
                    first_error = Some(e.clone());
                }
                k += 1;
                if !e.is_recoverable() || k > sup.max_retries {
                    return UnitRun {
                        result: Err(e),
                        attempts: k,
                        first_error,
                    };
                }
            }
        }
    }
}

/// Worker-pool width for `units` per-machine units under `sup`'s policy.
/// Units are coarse (a full ingest repair or profile build each), so under
/// [`Parallelism::Auto`] any multi-unit batch is worth fanning out.
fn pool_width(sup: &SuperviseConfig, units: usize) -> usize {
    sup.parallelism.width(sup.threads, units, units > 1)
}

/// Runs `run` over every item on a bounded pool of `width` scoped workers
/// and returns the results **in item order** — the pool only changes *when*
/// units execute, never how their outputs interleave, which is what keeps
/// supervised output byte-identical across widths.
///
/// Workers claim items from a shared cursor (no up-front chunking: one
/// slow unit — a deadline sleeper, a retry ladder — must not leave its
/// chunk-mates queued behind it while other workers sit idle) and register
/// with [`crate::obs`] so self-characterization attributes their CPU.
/// `width <= 1` degenerates to an inline loop on the caller's thread.
pub(crate) fn pool_map<I, T, F>(width: usize, items: Vec<I>, run: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if width <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run(i, item))
            .collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let obs_session = obs::worker_handle();
    std::thread::scope(|scope| {
        for _ in 0..width.min(n) {
            let slots = &slots;
            let cursor = &cursor;
            let done = &done;
            let run = &run;
            let obs_session = obs_session.clone();
            scope.spawn(move || {
                let _worker = obs_session.as_ref().map(|h| h.enter());
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    // Units never unwind past `run` (failures are caught
                    // and returned as values), so a poisoned slot can only
                    // mean another worker died mid-claim; taking the inner
                    // value anyway keeps this unit alive regardless.
                    let item = slots[idx]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take();
                    let Some(item) = item else { continue };
                    let out = run(idx, item);
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

// ---------------------------------------------------------------------------
// The supervised pipeline.
// ---------------------------------------------------------------------------

/// Output of one per-machine ingest unit: the repaired substreams plus the
/// unit's repair counters.
struct IngestUnitOut {
    events: Vec<RawEvent>,
    series: Vec<RawSeries>,
    report: IngestReport,
}

/// Validates (strict) or repairs (lenient) one machine's substreams.
/// Lenient event repair runs *without* ancestor synthesis: container
/// phases shared across machines are reconstructed once, by the global
/// merge pass, not once per machine.
fn ingest_unit(
    events: &[RawEvent],
    series: &[RawSeries],
    mode: IngestMode,
    bound: Option<Nanos>,
) -> Result<IngestUnitOut, Grade10Error> {
    let mut report = IngestReport::default();
    let out_events = match mode {
        IngestMode::Strict => {
            validate_event_stream(events)?;
            events.to_vec()
        }
        IngestMode::Lenient => repair_events_opts(events, false, &mut report),
    };
    let out_series = match mode {
        IngestMode::Strict => {
            // Validate against the monitoring contract via a scratch trace.
            let mut rt = ResourceTrace::new();
            for s in series {
                let idx = rt.try_add_resource(s.instance.clone())?;
                for &m in &s.measurements {
                    rt.try_add_measurement(idx, m)?;
                }
            }
            series.to_vec()
        }
        IngestMode::Lenient => series
            .iter()
            .filter_map(|s| {
                if !(s.instance.capacity.is_finite() && s.instance.capacity > 0.0) {
                    report.monitoring_invalid += s.measurements.len();
                    return None;
                }
                Some(RawSeries {
                    instance: s.instance.clone(),
                    measurements: repair_series(&s.measurements, bound, &mut report),
                })
            })
            .collect(),
    };
    Ok(IngestUnitOut {
        events: out_events,
        series: out_series,
        report,
    })
}

/// Adds `from`'s damage counters into `into` (totals and slice counters
/// are managed by the supervisor, not summed).
fn absorb_report(into: &mut IngestReport, from: &IngestReport) {
    into.out_of_order_fixed += from.out_of_order_fixed;
    into.duplicates_dropped += from.duplicates_dropped;
    into.duplicate_starts_dropped += from.duplicate_starts_dropped;
    into.missing_ends_synthesized += from.missing_ends_synthesized;
    into.unmatched_ends_dropped += from.unmatched_ends_dropped;
    into.negative_durations_clamped += from.negative_durations_clamped;
    into.ancestors_synthesized += from.ancestors_synthesized;
    into.monitoring_invalid += from.monitoring_invalid;
    into.monitoring_negatives_clamped += from.monitoring_negatives_clamped;
    into.monitoring_out_of_order += from.monitoring_out_of_order;
    into.monitoring_quarantined += from.monitoring_quarantined;
    into.monitoring_gaps_interpolated += from.monitoring_gaps_interpolated;
}

fn unit_label(machine: Option<u16>) -> String {
    match machine {
        Some(m) => format!("machine {m}"),
        None => "cluster".to_string(),
    }
}

/// Everything one per-machine ingest unit produces. Computed on a pool
/// worker; the supervisor merges these in unit-key order, which reproduces
/// the sequential loop's exact incident sequence, event interleaving, and
/// status map at any pool width.
struct IngestUnitDone {
    key: Option<u16>,
    status: UnitStatus,
    incidents: Vec<Incident>,
    events: Vec<RawEvent>,
    series: Vec<RawSeries>,
    report: IngestReport,
}

/// One machine's supervised ingest: the retry ladder (configured mode,
/// then lenient) plus the unit-local incident records.
fn ingest_machine_unit(
    sup: &SuperviseConfig,
    base_mode: IngestMode,
    bound: Option<Nanos>,
    key: Option<u16>,
    ev: Vec<RawEvent>,
    mon: Vec<RawSeries>,
) -> IngestUnitDone {
    let label = format!("ingest/{}", unit_label(key));
    let ev = Arc::new(ev);
    let mon = Arc::new(mon);
    let run = run_unit(sup, &label, |k| {
        let mode = if k == 0 { base_mode } else { IngestMode::Lenient };
        let ev = Arc::clone(&ev);
        let mon = Arc::clone(&mon);
        Box::new(move || ingest_unit(&ev, &mon, mode, bound))
    });
    let mut incidents = Vec::new();
    let mut status = UnitStatus::Full;
    match run.result {
        Ok(out) => {
            if let Some(e) = run.first_error {
                status = UnitStatus::Degraded;
                let degradation = if base_mode == IngestMode::Strict {
                    "lenient ingestion".to_string()
                } else {
                    "retried".to_string()
                };
                incidents.push(Incident {
                    stage: "ingest",
                    unit: unit_label(key),
                    kind: IncidentKind::of(&e),
                    detail: e.detail().to_string(),
                    attempts: run.attempts,
                    outcome: IncidentOutcome::Recovered { degradation },
                });
            }
            if out.report.monitoring_quarantined > 0 {
                status = status.max(UnitStatus::Degraded);
                incidents.push(Incident {
                    stage: "ingest",
                    unit: unit_label(key),
                    kind: IncidentKind::Quarantine,
                    detail: format!(
                        "{} implausible monitoring windows quarantined",
                        out.report.monitoring_quarantined
                    ),
                    attempts: run.attempts,
                    outcome: IncidentOutcome::Recovered {
                        degradation: "quarantined windows excluded".to_string(),
                    },
                });
            }
            // A machine with monitoring but no log events lost its
            // log stream: characterized from monitoring only.
            if key.is_some() && ev.is_empty() && !out.series.is_empty() {
                status = status.max(UnitStatus::Degraded);
                incidents.push(Incident {
                    stage: "ingest",
                    unit: unit_label(key),
                    kind: IncidentKind::MissingData,
                    detail: "no log events from this machine".to_string(),
                    attempts: run.attempts,
                    outcome: IncidentOutcome::Recovered {
                        degradation: "monitoring-only coverage".to_string(),
                    },
                });
            }
            IngestUnitDone {
                key,
                status,
                incidents,
                events: out.events,
                series: out.series,
                report: out.report,
            }
        }
        Err(e) => {
            incidents.push(Incident {
                stage: "ingest",
                unit: unit_label(key),
                kind: IncidentKind::of(&e),
                detail: e.detail().to_string(),
                attempts: run.attempts,
                outcome: IncidentOutcome::Dropped,
            });
            IngestUnitDone {
                key,
                status: UnitStatus::Dropped,
                incidents,
                events: Vec::new(),
                series: Vec::new(),
                report: IngestReport::default(),
            }
        }
    }
}

/// Result of one per-machine attribution unit: the profile (`None` when
/// the unit was dropped), unit-local incidents, and whether a recovered
/// retry degraded the machine. Merged by the supervisor in unit-key order.
struct AttributeUnitDone {
    key: Option<u16>,
    profile: Option<PerformanceProfile>,
    degraded: bool,
    incidents: Vec<Incident>,
}

/// One machine's supervised attribution: rebuild its resource trace and
/// run `build_profile` over the shared grid, under the retry ladder.
fn attribute_machine_unit(
    sup: &SuperviseConfig,
    model: &Arc<ExecutionModel>,
    rules: &Arc<RuleSet>,
    trace: &Arc<ExecutionTrace>,
    pcfg: &ProfileConfig,
    key: Option<u16>,
    series: Vec<RawSeries>,
) -> AttributeUnitDone {
    let label = format!("attribute/{}", unit_label(key));
    let series = Arc::new(series);
    let run = run_unit(sup, &label, |_k| {
        let model = Arc::clone(model);
        let rules = Arc::clone(rules);
        let trace = Arc::clone(trace);
        let series = Arc::clone(&series);
        let pcfg = pcfg.clone();
        Box::new(move || {
            let mut rt = ResourceTrace::new();
            for s in series.iter() {
                let idx = rt.try_add_resource(s.instance.clone())?;
                for &m in &s.measurements {
                    rt.try_add_measurement(idx, m)?;
                }
            }
            Ok(build_profile(&model, &rules, &trace, &rt, &pcfg))
        })
    });
    let mut incidents = Vec::new();
    match run.result {
        Ok(p) => {
            let mut degraded = false;
            if let Some(e) = run.first_error {
                degraded = true;
                incidents.push(Incident {
                    stage: "attribute",
                    unit: unit_label(key),
                    kind: IncidentKind::of(&e),
                    detail: e.detail().to_string(),
                    attempts: run.attempts,
                    outcome: IncidentOutcome::Recovered {
                        degradation: "retried".to_string(),
                    },
                });
            }
            AttributeUnitDone {
                key,
                profile: Some(p),
                degraded,
                incidents,
            }
        }
        Err(e) => {
            incidents.push(Incident {
                stage: "attribute",
                unit: unit_label(key),
                kind: IncidentKind::of(&e),
                detail: e.detail().to_string(),
                attempts: run.attempts,
                outcome: IncidentOutcome::Dropped,
            });
            AttributeUnitDone {
                key,
                profile: None,
                degraded: false,
                incidents,
            }
        }
    }
}

/// Runs the full Grade10 pipeline from raw collected data under
/// supervision: per-machine ingestion and attribution units, panic
/// capture, deadlines, grid budget guard, and a bounded degradation
/// ladder. Returns a [`PartialCharacterization`] whenever *any* analysis
/// was possible; an `Err` means the run was unsalvageable — a fatal
/// modeling problem ([`Grade10Error::is_recoverable`] `== false`) or a
/// failure of the one stage nothing can route around (assembling the
/// merged execution trace).
///
/// See the module docs for the degradation ladder and determinism notes.
pub fn characterize_events_supervised(
    model: &ExecutionModel,
    rules: &RuleSet,
    events: &[RawEvent],
    monitoring: &[RawSeries],
    cfg: &CharacterizationConfig,
) -> Result<PartialCharacterization, Grade10Error> {
    let sup = &cfg.supervise;
    let base_mode = cfg.ingest.mode;
    let mut incidents: Vec<Incident> = Vec::new();
    let mut report = IngestReport {
        events_total: events.len(),
        monitoring_windows_total: monitoring.iter().map(|s| s.measurements.len()).sum(),
        ..IngestReport::default()
    };

    // -- Partition the input into per-machine units. Events always carry a
    // machine; monitoring series may be cluster-level (machine: None).
    let mut ev_by: BTreeMap<Option<u16>, Vec<RawEvent>> = BTreeMap::new();
    for e in events {
        ev_by.entry(Some(e.machine)).or_default().push(e.clone());
    }
    let mut mon_by: BTreeMap<Option<u16>, Vec<RawSeries>> = BTreeMap::new();
    for s in monitoring {
        mon_by
            .entry(s.instance.machine)
            .or_default()
            .push(s.clone());
    }
    let mut unit_keys: Vec<Option<u16>> = ev_by.keys().chain(mon_by.keys()).copied().collect();
    unit_keys.sort_unstable();
    unit_keys.dedup();

    // The monitoring plausibility bound is a cross-series statistic: it
    // must see every series, not one machine's, to catch a series whose
    // windows are all equally bombed. Computed once, passed to every unit.
    let bound = plausibility_bound(monitoring);

    // -- Per-machine ingest units. Ladder: configured mode, then lenient.
    // Units execute on the worker pool; everything order-sensitive — the
    // incident sequence, event interleaving, the status map — is merged
    // below in unit-key order, so output is identical at any pool width.
    let mut machine_status: BTreeMap<Option<u16>, UnitStatus> = BTreeMap::new();
    let mut merged_events: Vec<RawEvent> = Vec::new();
    let mut surviving: Vec<(Option<u16>, Vec<RawSeries>)> = Vec::new();
    {
        let _span = obs::span(obs::Stage::Ingest);
        let units: Vec<(Option<u16>, Vec<RawEvent>, Vec<RawSeries>)> = unit_keys
            .iter()
            .map(|&key| {
                (
                    key,
                    ev_by.remove(&key).unwrap_or_default(),
                    mon_by.remove(&key).unwrap_or_default(),
                )
            })
            .collect();
        let width = pool_width(sup, units.len());
        let outs = pool_map(width, units, |_idx, (key, ev, mon)| {
            ingest_machine_unit(sup, base_mode, bound, key, ev, mon)
        });
        for done in outs {
            incidents.extend(done.incidents);
            absorb_report(&mut report, &done.report);
            merged_events.extend(done.events);
            if !done.series.is_empty() {
                surviving.push((done.key, done.series));
            }
            machine_status.insert(done.key, done.status);
        }
    }

    // -- Assemble the merged execution trace. This is the one stage the
    // pipeline cannot route around: no trace, no characterization. Ladder:
    // strict validation of the merged stream (when configured strict and
    // no unit degraded), then one global lenient repair — which also
    // synthesizes cross-machine ancestors exactly once.
    // Stable sort by time only: each per-machine substream is already in
    // valid arrival order (the parser is order-insensitive among ties with
    // distinct keys, but zero-duration block pairs and doubled barrier
    // pairs NEED their original start-before-end order, which any kind-
    // based tie-break would destroy). Stability keeps every machine's
    // internal order intact while interleaving machines by time.
    merged_events.sort_by_key(|e| e.time);
    let merged = Arc::new(merged_events);
    let model_arc = Arc::new(model.clone());
    let any_degraded = machine_status.values().any(|&s| s != UnitStatus::Full);
    let (trace, assemble_rep) = {
        let _span = obs::span(obs::Stage::Ingest);
        let run = run_unit(sup, "ingest/assemble", |k| {
            let strict = base_mode == IngestMode::Strict && !any_degraded && k == 0;
            let ev = Arc::clone(&merged);
            let model = Arc::clone(&model_arc);
            Box::new(move || {
                let mut rep = IngestReport::default();
                let repaired = if strict {
                    validate_event_stream(&ev)?;
                    (*ev).clone()
                } else {
                    repair_events_opts(&ev, true, &mut rep)
                };
                let trace = build_execution_trace(&model, &repaired)?;
                Ok((trace, rep))
            })
        });
        match run.result {
            Ok(out) => {
                if let Some(e) = run.first_error {
                    incidents.push(Incident {
                        stage: "ingest",
                        unit: "assemble".to_string(),
                        kind: IncidentKind::of(&e),
                        detail: e.detail().to_string(),
                        attempts: run.attempts,
                        outcome: IncidentOutcome::Recovered {
                            degradation: "lenient merge repair".to_string(),
                        },
                    });
                }
                out
            }
            Err(e) => return Err(e),
        }
    };
    absorb_report(&mut report, &assemble_rep);
    let ingest_status = if incidents.is_empty() {
        StageStatus::Full
    } else {
        StageStatus::Degraded
    };

    // -- Budget guard: cost the grid before any unit allocates it. One
    // global (end, slice) is chosen so per-machine profiles merge row for
    // row; coarsening therefore happens here, globally, not per unit.
    let num_resources: usize = surviving.iter().map(|(_, s)| s.len()).sum();
    let monitoring_end = surviving
        .iter()
        .flat_map(|(_, series)| series.iter())
        .flat_map(|s| s.measurements.iter())
        .map(|m| m.end)
        .max()
        .unwrap_or(0);
    let mut slice = cfg.profile.slice.max(1);
    let grid_end = trace.makespan_end().max(monitoring_end).max(slice);
    let cells = |slice: Nanos| (grid_end.div_ceil(slice) as u128) * num_resources as u128;
    let mut budget_ok = true;
    if cells(slice) > sup.max_grid_cells as u128 {
        let factor = Nanos::from(sup.coarsen_factor.max(2));
        let mut rungs = 0u32;
        let original = slice;
        while cells(slice) > sup.max_grid_cells as u128 && rungs < sup.max_retries.max(1) {
            slice = slice.saturating_mul(factor);
            rungs += 1;
        }
        if cells(slice) > sup.max_grid_cells as u128 {
            budget_ok = false;
            incidents.push(Incident {
                stage: "attribute",
                unit: "grid".to_string(),
                kind: IncidentKind::Budget,
                detail: format!(
                    "grid needs {} cells (cap {}) even at slice {} ns",
                    cells(slice),
                    sup.max_grid_cells,
                    slice
                ),
                attempts: rungs,
                outcome: IncidentOutcome::Dropped,
            });
        } else {
            incidents.push(Incident {
                stage: "attribute",
                unit: "grid".to_string(),
                kind: IncidentKind::Budget,
                detail: format!(
                    "grid at slice {} ns needs {} cells (cap {})",
                    original,
                    cells(original),
                    sup.max_grid_cells
                ),
                attempts: rungs,
                outcome: IncidentOutcome::Recovered {
                    degradation: format!("timeslice coarsened to {} ns", slice),
                },
            });
        }
    }

    // -- Per-machine attribution units over the shared grid, on the pool.
    let rules_arc = Arc::new(rules.clone());
    let trace_arc = Arc::new(trace);
    let pcfg = ProfileConfig {
        slice,
        grid_end: Some(grid_end),
        ..cfg.profile.clone()
    };
    let mut parts: Vec<PerformanceProfile> = Vec::new();
    let mut attribute_dropped = 0usize;
    if budget_ok {
        // Same pool discipline as ingestion: workers build per-machine
        // profiles concurrently, the merge below runs in unit-key order.
        let width = pool_width(sup, surviving.len());
        let outs = pool_map(width, surviving, |_idx, (key, series)| {
            attribute_machine_unit(sup, &model_arc, &rules_arc, &trace_arc, &pcfg, key, series)
        });
        for done in outs {
            incidents.extend(done.incidents);
            match done.profile {
                Some(p) => {
                    if done.degraded {
                        let status = machine_status.entry(done.key).or_insert(UnitStatus::Full);
                        *status = (*status).max(UnitStatus::Degraded);
                    }
                    parts.push(p);
                }
                None => {
                    attribute_dropped += 1;
                    machine_status.insert(done.key, UnitStatus::Dropped);
                }
            }
        }
    }
    let had_parts = !parts.is_empty();
    let profile = match PerformanceProfile::merge(parts) {
        Some(p) => p,
        None => {
            // Nothing survived attribution (or the budget rejected the
            // grid outright): build a resource-less profile over the trace
            // so downstream stages still see the right grid extent.
            let model = Arc::clone(&model_arc);
            let rules = Arc::clone(&rules_arc);
            let trace = Arc::clone(&trace_arc);
            let pcfg = pcfg.clone();
            let run = run_unit(sup, "attribute/fallback", move |_k| {
                let model = Arc::clone(&model);
                let rules = Arc::clone(&rules);
                let trace = Arc::clone(&trace);
                let pcfg = pcfg.clone();
                Box::new(move || {
                    Ok(build_profile(
                        &model,
                        &rules,
                        &trace,
                        &ResourceTrace::new(),
                        &pcfg,
                    ))
                })
            });
            run.result
                .unwrap_or_else(|_| PerformanceProfile::empty(slice))
        }
    };
    let attribute_status = if !budget_ok || !had_parts {
        StageStatus::Skipped
    } else if attribute_dropped > 0
        || incidents
            .iter()
            .any(|i| i.stage == "attribute")
    {
        StageStatus::Degraded
    } else {
        StageStatus::Full
    };
    report.slices_estimated = profile.estimated_slices();
    report.slices_total = profile.total_slices();

    // -- Bottleneck, replay, and issue detection, each with a degraded
    // fallback: empty bottleneck report, measured makespan, no issues.
    let _bspan = obs::span(obs::Stage::Bottleneck);
    let profile_arc = Arc::new(profile);
    let bcfg = cfg.bottleneck.clone();
    let run = run_unit(sup, "bottleneck", |_k| {
        let trace = Arc::clone(&trace_arc);
        let profile = Arc::clone(&profile_arc);
        let bcfg = bcfg.clone();
        Box::new(move || Ok(BottleneckReport::build(&trace, &profile, &bcfg)))
    });
    let (bottlenecks, bottleneck_status) = finish_stage(
        run,
        "bottleneck",
        "bottleneck",
        BottleneckReport::default(),
        "empty bottleneck report",
        &mut incidents,
    );
    let bottlenecks_arc = Arc::new(bottlenecks);

    let rcfg = cfg.replay.clone();
    let run = run_unit(sup, "replay", |_k| {
        let model = Arc::clone(&model_arc);
        let trace = Arc::clone(&trace_arc);
        let rcfg = rcfg.clone();
        Box::new(move || Ok(replay_original(&model, &trace, &rcfg).makespan))
    });
    let (base_makespan, replay_status) = finish_stage(
        run,
        "replay",
        "replay",
        trace_arc.makespan_end(),
        "replay skipped; measured makespan reported",
        &mut incidents,
    );

    let icfg = cfg.issues.clone();
    let rcfg = cfg.replay.clone();
    let run = run_unit(sup, "issues", |_k| {
        let model = Arc::clone(&model_arc);
        let trace = Arc::clone(&trace_arc);
        let profile = Arc::clone(&profile_arc);
        let bottlenecks = Arc::clone(&bottlenecks_arc);
        let rcfg = rcfg.clone();
        let icfg = icfg.clone();
        Box::new(move || {
            Ok(detect_issues(
                &model,
                &trace,
                &profile,
                &bottlenecks,
                &rcfg,
                &icfg,
            ))
        })
    });
    let (issues, issues_status) = finish_stage::<Vec<PerformanceIssue>>(
        run,
        "issues",
        "issues",
        Vec::new(),
        "issue detection skipped",
        &mut incidents,
    );
    drop(_bspan);

    // -- Coverage assembly. Abandoned deadline workers may still hold Arc
    // clones, so fall back to cloning the payloads out.
    let profile = Arc::try_unwrap(profile_arc).unwrap_or_else(|a| (*a).clone());
    let bottlenecks = Arc::try_unwrap(bottlenecks_arc).unwrap_or_else(|a| (*a).clone());
    let trace = Arc::try_unwrap(trace_arc).unwrap_or_else(|a| (*a).clone());
    let coverage = Coverage {
        machines: machine_status
            .into_iter()
            .map(|(machine, status)| MachineCoverage { machine, status })
            .collect(),
        stages: vec![
            StageCoverage {
                stage: "ingest",
                status: ingest_status,
            },
            StageCoverage {
                stage: "attribute",
                status: attribute_status,
            },
            StageCoverage {
                stage: "bottleneck",
                status: bottleneck_status,
            },
            StageCoverage {
                stage: "replay",
                status: replay_status,
            },
            StageCoverage {
                stage: "issues",
                status: issues_status,
            },
        ],
    };
    Ok(PartialCharacterization {
        characterization: Characterization {
            profile,
            bottlenecks,
            base_makespan,
            issues,
            ingest: report,
        },
        trace,
        incidents,
        coverage,
    })
}

/// Converts a whole-stage unit run into (value, stage status), pushing an
/// incident and substituting `fallback` when the unit failed.
fn finish_stage<T>(
    run: UnitRun<T>,
    stage: &'static str,
    unit: &str,
    fallback: T,
    fallback_desc: &str,
    incidents: &mut Vec<Incident>,
) -> (T, StageStatus) {
    match run.result {
        Ok(v) => {
            if let Some(e) = run.first_error {
                incidents.push(Incident {
                    stage,
                    unit: unit.to_string(),
                    kind: IncidentKind::of(&e),
                    detail: e.detail().to_string(),
                    attempts: run.attempts,
                    outcome: IncidentOutcome::Recovered {
                        degradation: "retried".to_string(),
                    },
                });
                (v, StageStatus::Degraded)
            } else {
                (v, StageStatus::Full)
            }
        }
        Err(e) => {
            incidents.push(Incident {
                stage,
                unit: unit.to_string(),
                kind: IncidentKind::of(&e),
                detail: e.detail().to_string(),
                attempts: run.attempts,
                outcome: IncidentOutcome::Recovered {
                    degradation: fallback_desc.to_string(),
                },
            });
            (fallback, StageStatus::Skipped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttributionRule, ExecutionModelBuilder, Repeat};
    use crate::parse::{RawEventKind, RawPath};
    use crate::trace::repair::IngestConfig;
    use crate::trace::resource::{Measurement, ResourceInstance};
    use crate::trace::MILLIS;

    fn path(segs: &[(&str, u32)]) -> RawPath {
        segs.iter().map(|(n, k)| (n.to_string(), *k)).collect()
    }

    fn ev(time: Nanos, machine: u16, kind: RawEventKind) -> RawEvent {
        RawEvent {
            time,
            machine,
            thread: 0,
            kind,
        }
    }

    /// Two machines: machine 0 logs the shared root `job` and its own
    /// `work` task; machine 1 logs only its `work` task. Each machine has
    /// one cpu series.
    fn scenario() -> (ExecutionModel, RuleSet, Vec<RawEvent>, Vec<RawSeries>) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let work = b.child(r, "work", Repeat::Parallel);
        let model = b.build();
        let rules = RuleSet::new().rule(work, "cpu", AttributionRule::Variable(1.0));

        let events = vec![
            ev(0, 0, RawEventKind::PhaseStart { path: path(&[("job", 0)]) }),
            ev(
                0,
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0), ("work", 0)]),
                },
            ),
            ev(
                0,
                1,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0), ("work", 1)]),
                },
            ),
            ev(
                80 * MILLIS,
                1,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0), ("work", 1)]),
                },
            ),
            ev(
                100 * MILLIS,
                0,
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0), ("work", 0)]),
                },
            ),
            ev(
                100 * MILLIS,
                0,
                RawEventKind::PhaseEnd { path: path(&[("job", 0)]) },
            ),
        ];
        let series = (0..2u16)
            .map(|m| RawSeries {
                instance: ResourceInstance {
                    kind: "cpu".into(),
                    machine: Some(m),
                    capacity: 4.0,
                },
                measurements: (0..10)
                    .map(|i| Measurement {
                        start: i * 10 * MILLIS,
                        end: (i + 1) * 10 * MILLIS,
                        avg: 1.0,
                    })
                    .collect(),
            })
            .collect();
        (model, rules, events, series)
    }

    fn config() -> CharacterizationConfig {
        CharacterizationConfig::default()
    }

    #[test]
    fn clean_run_is_complete_and_matches_unsupervised() {
        let (model, rules, events, series) = scenario();
        let cfg = config();
        let p = characterize_events_supervised(&model, &rules, &events, &series, &cfg)
            .expect("clean run");
        assert!(p.is_complete(), "incidents: {:?}", p.incidents);
        assert!(p.characterization.ingest.is_clean());
        assert_eq!(p.coverage.machines_covered(), 2);
        assert!(p
            .coverage
            .machines
            .iter()
            .all(|m| m.status == UnitStatus::Full));
        assert!(p
            .coverage
            .stages
            .iter()
            .all(|s| s.status == StageStatus::Full));
        let plain = crate::pipeline::characterize_events(&model, &rules, &events, &series, &cfg)
            .expect("unsupervised");
        assert_eq!(p.characterization.base_makespan, plain.base_makespan);
        assert_eq!(
            p.characterization.profile.resources.len(),
            plain.profile.resources.len()
        );
        assert_eq!(p.coverage.summary(), "2/2 machines, 5/5 stages");
    }

    #[test]
    fn chaos_panic_in_one_unit_spares_the_others() {
        let (model, rules, events, series) = scenario();
        let mut cfg = config();
        cfg.supervise.chaos.push(ChaosPoint {
            unit: "attribute/machine 1".to_string(),
            mode: ChaosMode::Panic,
        });
        cfg.supervise.max_retries = 1;
        let p = characterize_events_supervised(&model, &rules, &events, &series, &cfg)
            .expect("supervised run");
        assert!(!p.is_complete());
        let inc = p
            .incidents
            .iter()
            .find(|i| i.unit == "machine 1" && i.stage == "attribute")
            .expect("panic incident");
        assert_eq!(inc.kind, IncidentKind::Panic);
        assert_eq!(inc.outcome, IncidentOutcome::Dropped);
        assert_eq!(inc.attempts, 2);
        // Machine 0's resources survived; machine 1's are gone.
        let machines: Vec<Option<u16>> = p
            .characterization
            .profile
            .resources
            .iter()
            .map(|r| r.machine)
            .collect();
        assert_eq!(machines, vec![Some(0)]);
        let m1 = p
            .coverage
            .machines
            .iter()
            .find(|m| m.machine == Some(1))
            .expect("machine 1 coverage");
        assert_eq!(m1.status, UnitStatus::Dropped);
        assert_eq!(p.coverage.machines_covered(), 1);
        // Downstream stages still ran on the partial profile.
        assert!(p.characterization.base_makespan > 0);
    }

    #[test]
    fn chaos_panic_in_ingest_drops_only_that_machine() {
        let (model, rules, events, series) = scenario();
        let mut cfg = config();
        cfg.supervise.chaos.push(ChaosPoint {
            unit: "ingest/machine 1".to_string(),
            mode: ChaosMode::Panic,
        });
        cfg.supervise.max_retries = 0;
        let p = characterize_events_supervised(&model, &rules, &events, &series, &cfg)
            .expect("supervised run");
        let inc = p
            .incidents
            .iter()
            .find(|i| i.stage == "ingest" && i.unit == "machine 1")
            .expect("ingest incident");
        assert_eq!(inc.outcome, IncidentOutcome::Dropped);
        // Machine 0's work phase is still in the trace and profile.
        assert_eq!(
            p.characterization
                .profile
                .resources
                .iter()
                .filter(|r| r.machine == Some(0))
                .count(),
            1
        );
        assert!(p.characterization.base_makespan >= 100 * MILLIS);
    }

    #[test]
    fn deadline_overrun_is_abandoned_and_reported() {
        let (model, rules, events, series) = scenario();
        let mut cfg = config();
        cfg.supervise.deadline = Some(Duration::from_millis(25));
        cfg.supervise.max_retries = 0;
        cfg.supervise.chaos.push(ChaosPoint {
            unit: "bottleneck".to_string(),
            mode: ChaosMode::Stall(Duration::from_millis(400)),
        });
        let p = characterize_events_supervised(&model, &rules, &events, &series, &cfg)
            .expect("supervised run");
        let inc = p
            .incidents
            .iter()
            .find(|i| i.stage == "bottleneck")
            .expect("deadline incident");
        assert_eq!(inc.kind, IncidentKind::Deadline);
        // The stage fell back to an empty report; everything else ran.
        assert!(p.characterization.bottlenecks.blocking.is_empty());
        let st = p
            .coverage
            .stages
            .iter()
            .find(|s| s.stage == "bottleneck")
            .expect("stage coverage");
        assert_eq!(st.status, StageStatus::Skipped);
        assert_eq!(p.coverage.machines_covered(), 2);
    }

    #[test]
    fn budget_guard_coarsens_before_allocating() {
        let (model, rules, events, series) = scenario();
        let mut cfg = config();
        // 100 ms span / 10 ms slice × 2 resources = 20 cells; cap at 5.
        cfg.supervise.max_grid_cells = 5;
        let p = characterize_events_supervised(&model, &rules, &events, &series, &cfg)
            .expect("supervised run");
        let inc = p
            .incidents
            .iter()
            .find(|i| i.kind == IncidentKind::Budget)
            .expect("budget incident");
        assert!(matches!(inc.outcome, IncidentOutcome::Recovered { .. }));
        // One ×10 rung: slice 10 ms → 100 ms → 1 slice × 2 resources.
        assert_eq!(
            p.characterization.profile.grid.slice_nanos(),
            100 * MILLIS
        );
        assert!(p.characterization.profile.total_slices() <= 5);
    }

    #[test]
    fn strict_input_damage_recovers_via_lenient_rung() {
        let (model, rules, mut events, series) = scenario();
        // Clock damage on machine 1: its records arrive out of time order
        // (the start is stamped after the end).
        events[2].time = 80 * MILLIS;
        events[3].time = 0;
        let cfg = CharacterizationConfig {
            ingest: IngestConfig::default(), // strict
            ..config()
        };
        // Unsupervised strict rejects outright…
        assert!(crate::pipeline::characterize_events(
            &model, &rules, &events, &series, &cfg
        )
        .is_err());
        // …supervised degrades machine 1 to lenient and completes.
        let p = characterize_events_supervised(&model, &rules, &events, &series, &cfg)
            .expect("supervised run");
        let inc = p
            .incidents
            .iter()
            .find(|i| i.stage == "ingest" && i.unit == "machine 1")
            .expect("recovered incident");
        assert!(matches!(
            &inc.outcome,
            IncidentOutcome::Recovered { degradation } if degradation == "lenient ingestion"
        ));
        assert_eq!(p.coverage.machines_covered(), 2);
        assert!(!p.characterization.ingest.is_clean());
    }

    #[test]
    fn machine_with_monitoring_but_no_events_is_missing_data() {
        let (model, rules, events, series) = scenario();
        // Drop machine 1's log stream entirely, keep its monitoring.
        let events: Vec<RawEvent> = events.into_iter().filter(|e| e.machine == 0).collect();
        let p = characterize_events_supervised(&model, &rules, &events, &series, &config())
            .expect("supervised run");
        let inc = p
            .incidents
            .iter()
            .find(|i| i.kind == IncidentKind::MissingData)
            .expect("missing-data incident");
        assert_eq!(inc.unit, "machine 1");
        // The machine still contributes monitoring to the profile.
        assert_eq!(p.characterization.profile.resources.len(), 2);
        let m1 = p
            .coverage
            .machines
            .iter()
            .find(|m| m.machine == Some(1))
            .expect("machine 1");
        assert_eq!(m1.status, UnitStatus::Degraded);
    }
}
