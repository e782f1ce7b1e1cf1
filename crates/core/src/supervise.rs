//! The supervised executor policy: panic isolation, deadlines, budget
//! guards, and partial characterizations.
//!
//! The characterization lifecycle is written once, as the stage table in
//! [`crate::pipeline`], and one executor walks it under one of two
//! policies. Under the *inline* policy
//! ([`crate::pipeline::characterize_events`] and friends) a run is
//! all-or-nothing: one panic in attribution, one clock-bombed record that
//! inflates the timeslice grid, or one quadratic blowup in replay kills the
//! entire characterization with nothing to show. Real distributed runs
//! produce exactly such inputs, and the fault-tolerant systems Grade10
//! profiles treat partial progress under component failure as a
//! first-class outcome — so the characterization framework should too.
//!
//! This module holds the other policy's mechanics and vocabulary.
//! [`characterize_events_supervised`] walks the same table with each stage
//! — and, within ingestion and attribution, each per-machine unit of work
//! — run as an isolated unit with:
//!
//! * **panic capture** (`catch_unwind`): a panicking unit becomes a
//!   [`Grade10Error::StagePanicked`], not a process abort;
//! * **wall-clock deadlines** ([`SuperviseConfig::deadline`]): a unit that
//!   overruns is stopped at its next checkpoint and the pipeline moves on;
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
//! Concurrency: per-machine units run on `config::pool_map`, the one
//! worker pool of `core`
//! (width [`SuperviseConfig::threads`], resolved by
//! [`crate::config::resolve_threads`] — explicit width, then
//! `GRADE10_THREADS`, then the machine size). Workers claim units from a
//! shared queue, and the executor folds their results — usage rows,
//! repaired streams, incidents, per-machine status — in stable unit-key
//! order (an attribution unit writes only its own rows of the one
//! profile), so the output is byte-identical whatever the pool width,
//! including width 1 (which runs the unit inline on the executor's
//! thread). Every attempt runs on the thread that claimed its unit and
//! borrows the run's inputs; a unit's own upsampling fan-out runs inline
//! on that thread, since pools never nest.
//!
//! Deadlines are cooperative. An attempt publishes its deadline instant in
//! a thread-local, and the kernels call `checkpoint()` at their natural
//! grain: between the demand, upsample and attribute steps of
//! `build_profile` and once per upsampled row, every 4096 records of the
//! repair scan, at the first and every 4096th pop of the replay event
//! loop (so at least once per what-if candidate), and while a chaos stall
//! sleeps. Past the deadline a checkpoint unwinds to the attempt, which
//! reports [`Grade10Error::Deadline`]; an attempt that returns after its
//! deadline is an overrun as well and its result is discarded. So a unit
//! runs past its deadline by at most one checkpoint interval, and nothing
//! outlives the run. Because attempts time out *concurrently* on the
//! pool, one stalled unit delays the run by one deadline, not one
//! deadline per stalled unit. Pool workers join the [`crate::obs`] session,
//! so the stage spans each unit records are attributed to its thread's
//! CPU; failed attempts are stamped into the self-profile as
//! [`obs::Stage::Incident`] spans.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::Grade10Error;
use crate::model::{ExecutionModel, RuleSet};
use crate::obs;
use crate::parse::{EventStream, RawEvent};
use crate::pipeline::{characterize_stream, Characterization, CharacterizationConfig};
use crate::trace::repair::RawSeries;
use crate::trace::{ExecutionTrace, Nanos};

/// Knobs of the supervised policy, carried in
/// [`CharacterizationConfig::supervise`]. The inline policy reads none of
/// them.
#[derive(Clone, Debug)]
pub struct SuperviseConfig {
    /// Wall-clock deadline per unit attempt. `None` (the default) lets
    /// every attempt run to completion — fully deterministic, panics still
    /// captured. `Some(d)` fails any attempt that has not finished within
    /// `d` as [`Grade10Error::Deadline`]: the kernel stops itself at its
    /// next checkpoint, and a result returned late is discarded.
    pub deadline: Option<Duration>,
    /// Retries per unit after the first failed attempt (default 2). Each
    /// retry runs one rung further down the degradation ladder where the
    /// stage has one (strict → lenient ingestion); otherwise it is a plain
    /// re-attempt.
    pub max_retries: u32,
    /// Maximum `(resource × timeslice)` cells a grid may request. Grids
    /// over the cap are rejected *before* allocating and the timeslice is
    /// coarsened ×10 per rung (bounded by
    /// [`max_retries`](Self::max_retries) rungs); a grid still over the
    /// cap after coarsening drops the attribution stage. The grid costed
    /// is the one allocated: the profile's grids are allocated once at
    /// that size, and every per-machine unit fills its own rows of them.
    /// The default (4 M cells, 33 bytes each across the profile arrays) is
    /// sized so a single clock-bombed timestamp cannot OOM the process.
    pub max_grid_cells: usize,
    /// Test-only fault injection: chaos points matched by unit label. Leave
    /// empty in production.
    pub chaos: Vec<ChaosPoint>,
    /// Worker-pool width for the per-machine unit pools (ingestion and
    /// attribution); any run with more than one unit fans out. Results are
    /// byte-identical at any width — workers only compute, the supervisor
    /// merges in stable unit-key order — and `Some(1)` runs every unit
    /// inline. `None` (the default) defers to `GRADE10_THREADS`, then to
    /// the machine size — see [`crate::config::resolve_threads`]. A run
    /// reached on a pool worker (a campaign mix) runs its units inline:
    /// pools never nest.
    pub threads: Option<usize>,
    /// Unused: nothing in `core` or the binary reads this field. A
    /// campaign runs each mix's rungs through the one attempt loop,
    /// `run_unit`, under this config's defaults
    /// ([`max_retries`](Self::max_retries) 2, so three attempts), the same
    /// loop that retries units inside one characterization. The field is
    /// kept only because the frozen benchmark sources still read it, and
    /// goes when a `benchmark` PR drops that read.
    pub retry: RetryPolicy,
    /// Unused: nothing in `core` reads this field any more. The stage
    /// cache holds one record per campaign-mix ladder rung, its result,
    /// and is consulted by `grade10_engines::run_mix` before the mix is
    /// simulated (see [`crate::cache`]); neither pipeline caches its
    /// stages. The field
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
            chaos: Vec::new(),
            threads: None,
            retry: RetryPolicy,
            cache: None,
        }
    }
}

/// Unused, and empty: nothing in `core` or the binary reads it. Every
/// failure a campaign mix can return recurs the same way on a re-run at
/// the same rung, so a mix retries at once, down the ladder, and never
/// sleeps between attempts. The type is kept only because the frozen
/// benchmark sources still copy [`SuperviseConfig::retry`] into
/// [`CampaignOptions::retry`](crate::campaign::CampaignOptions::retry), and
/// goes when a `benchmark` PR drops that assignment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryPolicy;

/// What a [`ChaosPoint`] does when its unit runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic inside the unit (exercises `catch_unwind` isolation).
    Panic,
    /// Sleep before doing the work (exercises deadlines). The sleep ends
    /// early, at a checkpoint, when the attempt's deadline comes first.
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
    /// A unit exceeded its wall-clock deadline and was stopped.
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
    /// The replay stage's schedule, for [`critical_path`](Self::critical_path).
    pub(crate) schedule: Option<Vec<Nanos>>,
}

impl PartialCharacterization {
    /// True when nothing failed or degraded: the result is identical in
    /// trust to an unsupervised run.
    pub fn is_complete(&self) -> bool {
        self.incidents.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Policy mechanics: one attempt, the retry ladder, the pool.
// ---------------------------------------------------------------------------

/// Outcome of one supervised unit after its whole retry ladder.
pub(crate) struct UnitRun<T> {
    pub(crate) result: Result<T, Grade10Error>,
    pub(crate) attempts: u32,
    pub(crate) first_error: Option<Grade10Error>,
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

thread_local! {
    /// The deadline of the attempt running on this thread, if it has one.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The unwind payload with which [`checkpoint`] stops an attempt.
struct Overrun;

/// Restores the enclosing deadline when an attempt ends, however it ends.
struct Armed(Option<Instant>);

impl Drop for Armed {
    fn drop(&mut self) {
        DEADLINE.set(self.0);
    }
}

/// Stops the running attempt once its deadline has passed, by unwinding
/// to it (without a panic message). Does nothing outside a supervised
/// attempt with a deadline, and so nothing on a thread the attempt itself
/// spawned: the deadline belongs to the attempt's own thread.
pub(crate) fn checkpoint() {
    if DEADLINE
        .get()
        .is_some_and(|deadline| Instant::now() >= deadline)
    {
        resume_unwind(Box::new(Overrun));
    }
}

/// Sleeps for `d`, or until the attempt's deadline if that comes first,
/// and then checks it.
fn stall(d: Duration) {
    let left = DEADLINE
        .get()
        .map(|deadline| deadline.saturating_duration_since(Instant::now()));
    std::thread::sleep(left.map_or(d, |left| left.min(d)));
    checkpoint();
}

/// Runs one attempt of a unit on this thread with panic capture, after
/// firing the chaos points that name it. An attempt stopped at a
/// checkpoint, or one that returns after its deadline, is an overrun.
fn attempt_once<T>(
    sup: &SuperviseConfig,
    unit: &str,
    f: impl FnOnce() -> Result<T, Grade10Error>,
) -> Result<T, Grade10Error> {
    // A deadline beyond the clock's range never passes.
    let deadline = sup.deadline.and_then(|d| Instant::now().checked_add(d));
    let _armed = Armed(DEADLINE.replace(deadline));
    let done = catch_unwind(AssertUnwindSafe(|| {
        for chaos in sup.chaos.iter().filter(|c| c.unit == unit) {
            match chaos.mode {
                ChaosMode::Panic => panic!("chaos: injected panic in {unit}"),
                ChaosMode::Stall(d) => stall(d),
            }
        }
        f()
    }));
    let late = deadline.is_some_and(|deadline| Instant::now() >= deadline);
    match done {
        Err(p) if !p.is::<Overrun>() => Err(Grade10Error::StagePanicked(format!(
            "{unit}: {}",
            panic_message(p.as_ref())
        ))),
        Ok(result) if !late => result,
        _ => Err(Grade10Error::Deadline(format!(
            "{unit}: no result within {} ms; attempt stopped",
            sup.deadline.unwrap_or_default().as_millis()
        ))),
    }
}

/// Runs a unit through its retry ladder: the one attempt loop, for the
/// stage and per-machine units of a supervised run and for the rungs of a
/// campaign mix alike. `rung(k)` runs attempt `k` (the caller encodes
/// per-rung degradation by inspecting `k`). Attempts follow each other
/// without a pause, and the loop stops early on a fatal (non-recoverable)
/// error. Each failed attempt is stamped into the self-profile as an
/// [`obs::Stage::Incident`] span.
pub(crate) fn run_unit<T>(
    sup: &SuperviseConfig,
    unit: &str,
    mut rung: impl FnMut(u32) -> Result<T, Grade10Error>,
) -> UnitRun<T> {
    let mut first_error: Option<Grade10Error> = None;
    let mut k = 0u32;
    let result = loop {
        let t0 = obs::session_now();
        match attempt_once(sup, unit, || rung(k)) {
            Ok(v) => break Ok(v),
            Err(e) => {
                if let (Some(a), Some(b)) = (t0, obs::session_now()) {
                    obs::record_span(obs::Stage::Incident, a, b);
                }
                first_error.get_or_insert_with(|| e.clone());
                if !e.is_recoverable() || k >= sup.max_retries {
                    break Err(e);
                }
                k += 1;
            }
        }
    };
    UnitRun {
        result,
        attempts: k + 1,
        first_error,
    }
}

/// Runs the full Grade10 pipeline from raw collected data under the
/// supervised policy: per-machine ingestion and attribution units, panic
/// capture, deadlines, grid budget guard, and a bounded degradation
/// ladder. Returns a [`PartialCharacterization`] whenever *any* analysis
/// was possible; an `Err` means the run was unsalvageable — a failure of
/// the one step nothing can route around (assembling the merged execution
/// trace).
///
/// See the module docs for the degradation ladder and determinism notes.
pub fn characterize_events_supervised(
    model: &ExecutionModel,
    rules: &RuleSet,
    events: &[RawEvent],
    monitoring: &[RawSeries],
    cfg: &CharacterizationConfig,
) -> Result<PartialCharacterization, Grade10Error> {
    let events = EventStream::from_events(events);
    characterize_stream(true, model, rules, &events, monitoring, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttributionRule, ExecutionModelBuilder, Repeat};
    use crate::parse::{RawEventKind, RawPath};
    use crate::trace::repair::IngestConfig;
    use crate::trace::resource::{Measurement, ResourceInstance};
    use crate::trace::{Nanos, MILLIS};

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
            ev(
                0,
                0,
                RawEventKind::PhaseStart {
                    path: path(&[("job", 0)]),
                },
            ),
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
                RawEventKind::PhaseEnd {
                    path: path(&[("job", 0)]),
                },
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
        assert_eq!(p.coverage.summary(), "2/2 machines, 5/5 stages");
        // The same comparison `tests/proptest_invariants.rs` makes a law
        // over random clean streams: grids, issues, makespan and ingest
        // report equal the inline policy's, usage rows equal as a set.
        let plain = crate::pipeline::characterize_events(&model, &rules, &events, &series, &cfg)
            .expect("unsupervised");
        let dump = |c: &Characterization| {
            let p = &c.profile;
            let mut usages: Vec<String> = p.usages.iter().map(|u| format!("{u:?}")).collect();
            usages.sort();
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?} {usages:?}",
                p.resources,
                p.consumption,
                p.demand_exact,
                p.demand_variable,
                p.unattributed,
                p.overflow,
                p.estimated,
                c.issues,
                c.base_makespan,
                c.ingest,
            )
        };
        assert_eq!(dump(&p.characterization), dump(&plain));
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

    /// Runs `kernel` as one attempt under `deadline`; returns the attempt's
    /// outcome and whether the kernel returned.
    fn attempt_under(
        deadline: Option<Duration>,
        kernel: impl FnOnce() -> String,
    ) -> (Result<String, Grade10Error>, bool) {
        let sup = SuperviseConfig {
            deadline,
            ..SuperviseConfig::default()
        };
        let mut returned = false;
        let out = attempt_once(&sup, "kernel", || {
            let dump = kernel();
            returned = true;
            Ok(dump)
        });
        (out, returned)
    }

    /// Under an already-expired deadline `kernel` stops itself at a
    /// checkpoint, so it never returns; under none its result is what a
    /// direct call gives.
    fn stops_itself(kernel: impl Fn() -> String) {
        let (out, returned) = attempt_under(Some(Duration::ZERO), &kernel);
        assert!(matches!(out, Err(Grade10Error::Deadline(_))), "{out:?}");
        assert!(!returned, "the kernel ran to its end past the deadline");
        let (out, returned) = attempt_under(None, &kernel);
        assert!(returned);
        assert_eq!(out, Ok(kernel()));
    }

    fn ingested() -> (ExecutionModel, RuleSet, crate::trace::repair::IngestedInput) {
        let (model, rules, events, series) = scenario();
        let input =
            crate::trace::repair::ingest(&model, &events, &series, &IngestConfig::default())
                .expect("clean scenario");
        (model, rules, input)
    }

    #[test]
    fn build_profile_checks_its_deadline() {
        let (model, rules, input) = ingested();
        let cfg = crate::attribution::ProfileConfig::default();
        stops_itself(|| {
            let p = crate::attribution::build_profile(
                &model,
                &rules,
                &input.trace,
                &input.resources,
                &cfg,
            );
            format!("{:?} {:?} {:?}", p.consumption, p.unattributed, p.usages)
        });
    }

    #[test]
    fn repair_scan_checks_its_deadline() {
        let (_, _, events, _) = scenario();
        stops_itself(|| {
            let mut report = crate::trace::repair::IngestReport::default();
            let repaired = crate::trace::repair::repair_events(&events, &mut report);
            format!("{repaired:?} {report:?}")
        });
    }

    #[test]
    fn replay_event_loop_checks_its_deadline() {
        let (model, _, input) = ingested();
        let durations = crate::replay::original_durations(&input.trace);
        let cfg = crate::replay::ReplayConfig::default();
        let plan = crate::replay::ReplayPlan::new(&model, &input.trace, &cfg);
        let plan = std::cell::RefCell::new(plan);
        stops_itself(|| plan.borrow_mut().makespan(&durations).to_string());
    }

    #[test]
    fn issue_detection_checks_its_deadline() {
        let (model, rules, input) = ingested();
        let trace = &input.trace;
        let profile = crate::attribution::build_profile(
            &model,
            &rules,
            trace,
            &input.resources,
            &Default::default(),
        );
        let bottlenecks =
            crate::bottleneck::BottleneckReport::build(trace, &profile, &Default::default());
        // Built outside the attempts, so only detection itself can stop:
        // one plan per call of the kernel.
        let base = || crate::replay::Baseline::new(&model, trace, &Default::default());
        let bases = std::cell::RefCell::new(vec![base(), base(), base()]);
        stops_itself(|| {
            let base = bases.borrow_mut().pop().expect("a plan per call");
            let cfg = crate::issues::IssueConfig::default();
            let issues =
                crate::issues::detect_issues(&model, trace, &profile, &bottlenecks, base, &cfg);
            format!("{issues:?}")
        });
    }

    /// A body with no checkpoint at all still overruns: its late result is
    /// discarded.
    #[test]
    fn a_late_result_is_an_overrun() {
        let (out, returned) = attempt_under(Some(Duration::from_millis(1)), || {
            std::thread::sleep(Duration::from_millis(20));
            "done".to_string()
        });
        assert!(returned);
        assert!(matches!(out, Err(Grade10Error::Deadline(_))), "{out:?}");
    }

    /// A deadline past the clock's range is no deadline, not an overflow.
    #[test]
    fn a_deadline_past_the_clocks_range_never_passes() {
        let (out, returned) = attempt_under(Some(Duration::MAX), || "done".to_string());
        assert!(returned);
        assert_eq!(out, Ok("done".to_string()));
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
        assert_eq!(p.characterization.profile.grid.slice_nanos(), 100 * MILLIS);
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
        assert!(
            crate::pipeline::characterize_events(&model, &rules, &events, &series, &cfg).is_err()
        );
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
