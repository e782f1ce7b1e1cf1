//! The characterization lifecycle (Fig. 1 of the paper), written once.
//!
//! `STAGES` declares the lifecycle as an ordered table — ingest (§III-C),
//! attribute (§III-D), bottleneck (§III-E), replay and issues (§III-F) —
//! and one executor (`Run::walk`) walks it under one of two policies:
//!
//! * *inline* — one unit spanning the whole input, run on the calling
//!   thread, first error returned.
//! * *supervised* — one unit per machine on a worker pool, each under the
//!   retry ladder, panic capture, deadline and chaos points of
//!   [`crate::supervise`]; failures become incidents and fallbacks, and
//!   the grid is costed against a budget before it is allocated.
//!
//! The table reads events in one form, the interned [`EventStream`], and
//! [`characterize_stream`] is its one door: it takes the stream and the
//! policy, never picked by configuration. The other entry points are thin:
//! [`characterize_events`] and
//! [`crate::supervise::characterize_events_supervised`] intern raw events
//! with [`EventStream::from_events`] and go through that door (inline and
//! supervised); [`characterize`] enters the table after ingest, with traces
//! the caller built; and [`crate::trace::ingest`] walks the `ingest` row
//! alone, inline. Each row carries its [`obs::Stage`], and a stage is
//! named only in the obs stage table (`Stage::TABLE`): a row's coverage
//! row, incident stage name, chaos unit label and span all read its
//! stage's name there, and each row records under its own stage. Use
//! the individual modules directly when you need intermediate control
//! (custom thresholds per stage, partial pipelines, or repeated what-ifs
//! over one profile).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use crate::attribution::profile::{fill_rows, ProfileRows};
use crate::attribution::{build_profile, PerformanceProfile, ProfileConfig};
use crate::bottleneck::{BottleneckConfig, BottleneckReport};
use crate::config::{pool_map, resolve_threads};
use crate::error::Grade10Error;
use crate::issues::{detect_issues, IssueConfig, IssueKind, PerformanceIssue};
use crate::model::{ExecutionModel, RuleSet};
use crate::obs::{self, MetaTrace, Stage};
use crate::parse::{build_trace_from, EventStream, RawEvent, Record};
use crate::replay::{Baseline, ReplayConfig};
use crate::report::table::pct;
use crate::supervise::{
    run_unit, Coverage, Incident, IncidentKind, IncidentOutcome, MachineCoverage,
    PartialCharacterization, StageCoverage, StageStatus, SuperviseConfig, UnitRun, UnitStatus,
};
use crate::trace::repair::{
    ingest_series, plausibility_bound, repair_events_opts, validate_records, IngestConfig,
    IngestMode, IngestReport, IngestedInput, RawSeries,
};
use crate::trace::timeslice::Nanos;
use crate::trace::{ExecutionTrace, ResourceTrace};

/// Configuration for the full pipeline.
#[derive(Clone, Debug, Default)]
pub struct CharacterizationConfig {
    /// Attribution settings (timeslice, upsampling mode).
    pub profile: ProfileConfig,
    /// Bottleneck-detection thresholds.
    pub bottleneck: BottleneckConfig,
    /// Replay-simulation options.
    pub replay: ReplayConfig,
    /// Issue-detection thresholds.
    pub issues: IssueConfig,
    /// Ingestion strictness used by [`characterize_events`] (ignored by
    /// [`characterize`], which takes already-built traces).
    pub ingest: IngestConfig,
    /// Knobs of the supervised policy (deadlines, retries, budget), read
    /// by [`crate::supervise::characterize_events_supervised`]. The inline
    /// entry points ignore this field.
    pub supervise: SuperviseConfig,
}

impl CharacterizationConfig {
    /// The config of one run at `slice` ns per timeslice. Lenient ingestion
    /// comes with demand-based estimation of slices whose monitoring was
    /// lost. `threads` pins the width of whichever fan-out the run reaches
    /// first — the supervised units, or the upsampling rows when no unit
    /// pool encloses them. Pools never nest, so a fan-out reached on a pool
    /// worker (a campaign mix, a supervised unit) runs inline whatever
    /// `threads` says.
    pub fn new(lenient: bool, slice: Nanos, threads: Option<usize>) -> Self {
        CharacterizationConfig {
            profile: ProfileConfig {
                slice,
                estimate_missing: lenient,
                threads,
                ..Default::default()
            },
            ingest: if lenient {
                IngestConfig::lenient()
            } else {
                IngestConfig::default()
            },
            supervise: SuperviseConfig {
                threads,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Everything one characterization run produces.
pub struct Characterization {
    /// The fine-grained phase × resource × timeslice profile.
    pub profile: PerformanceProfile,
    /// Where phases were resource-limited.
    pub bottlenecks: BottleneckReport,
    /// Baseline makespan of the replayed trace, ns.
    pub base_makespan: u64,
    /// Detected issues, most impactful first (bottlenecks and imbalance
    /// interleaved by estimated reduction).
    pub issues: Vec<PerformanceIssue>,
    /// What ingestion saw and repaired. Clean (all-zero) when the input was
    /// well-formed or when [`characterize`] was called on pre-built traces.
    pub ingest: IngestReport,
}

impl Characterization {
    /// Human-readable issue list, one line per issue.
    pub fn summary(&self, model: &ExecutionModel) -> Vec<String> {
        self.issues
            .iter()
            .map(|i| {
                let what = match &i.kind {
                    IssueKind::ConsumableBottleneck { resource_kind } => {
                        format!("remove {resource_kind} bottlenecks")
                    }
                    IssueKind::BlockingBottleneck { resource_kind } => {
                        format!("eliminate {resource_kind} blocking")
                    }
                    IssueKind::Imbalance { phase_type } => {
                        format!("balance {} phases", model.type_path(*phase_type))
                    }
                };
                format!(
                    "{}: up to {} faster ({} instances affected)",
                    what,
                    pct(i.reduction),
                    i.affected_instances
                )
            })
            .collect()
    }

    /// Stable class labels for the detected issues, deduplicated and
    /// sorted: `bottleneck:<kind>` for consumable bottlenecks,
    /// `blocking:<kind>` for blocking ones, `imbalance:<type path>` for
    /// imbalance. Campaign reports diff these sets across mixes to flag
    /// configurations that surface *new* bottleneck classes.
    pub fn issue_classes(&self, model: &ExecutionModel) -> Vec<String> {
        let mut classes: Vec<String> = self
            .issues
            .iter()
            .map(|i| match &i.kind {
                IssueKind::ConsumableBottleneck { resource_kind } => {
                    format!("bottleneck:{resource_kind}")
                }
                IssueKind::BlockingBottleneck { resource_kind } => {
                    format!("blocking:{resource_kind}")
                }
                IssueKind::Imbalance { phase_type } => {
                    format!("imbalance:{}", model.type_path(*phase_type))
                }
            })
            .collect();
        classes.sort();
        classes.dedup();
        classes
    }
}

/// Runs the full Grade10 pipeline on already-built traces: the table from
/// its second row on.
pub fn characterize(
    model: &ExecutionModel,
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &CharacterizationConfig,
) -> Characterization {
    let none = EventStream::default();
    let mut run = Run::new(model, rules, cfg, &none, &[], false);
    run.trace = Cow::Borrowed(trace);
    run.resources[0] = Cow::Borrowed(resources);
    // Every error a stage after ingest can return comes from a supervised
    // ladder, and this run is inline.
    #[allow(clippy::expect_used)]
    run.walk(&STAGES[1..])
        .expect("no stage after ingest can fail under the inline policy");
    run.finish().0
}

/// Runs the full Grade10 pipeline from raw collected data: an event stream
/// and monitoring series, ingested under [`CharacterizationConfig::ingest`].
///
/// In strict mode any corruption is rejected with a classified
/// [`Grade10Error`]; in lenient mode the streams are repaired first and the
/// repairs are tallied in [`Characterization::ingest`].
pub fn characterize_events(
    model: &ExecutionModel,
    rules: &RuleSet,
    events: &[RawEvent],
    monitoring: &[RawSeries],
    cfg: &CharacterizationConfig,
) -> Result<Characterization, Grade10Error> {
    let events = EventStream::from_events(events);
    characterize_stream(false, model, rules, &events, monitoring, cfg).map(|p| p.characterization)
}

/// The pipeline's one door: the whole table over an interned event stream
/// and monitoring series, under either executor policy, returning the
/// merged trace (callers need it for rendering) with the characterization.
///
/// * Inline (`supervised: false`): one unit spanning the whole input, run
///   on the calling thread; the first error is returned. No panic capture,
///   retries, deadline, chaos points or grid budget. The incident log is
///   empty, every stage is covered in full, and [`Coverage::machines`] is
///   empty: nothing was split by machine.
/// * Supervised: one unit per machine on the worker pool, each attempt
///   under the retry ladder, panic capture, deadline and chaos points of
///   [`SuperviseConfig`]; failures become incidents and fallbacks.
///
/// The policy is the entry point's choice; no configuration field or flag
/// of the library selects it. A caller holding [`RawEvent`]s interns them
/// with [`EventStream::from_events`] first, as [`characterize_events`]
/// does.
pub fn characterize_stream(
    supervised: bool,
    model: &ExecutionModel,
    rules: &RuleSet,
    events: &EventStream,
    monitoring: &[RawSeries],
    cfg: &CharacterizationConfig,
) -> Result<PartialCharacterization, Grade10Error> {
    Run::new(model, rules, cfg, events, monitoring, supervised).characterize()
}

/// The table's `ingest` row alone, under the inline policy: what
/// [`crate::trace::ingest`] returns.
pub(crate) fn ingest_inline(
    model: &ExecutionModel,
    events: &EventStream,
    monitoring: &[RawSeries],
    ingest: IngestConfig,
) -> Result<IngestedInput, Grade10Error> {
    let cfg = CharacterizationConfig {
        ingest,
        ..Default::default()
    };
    let rules = RuleSet::new();
    let mut run = Run::new(model, &rules, &cfg, events, monitoring, false);
    run.walk(&STAGES[..1])?;
    Ok(IngestedInput {
        trace: run.trace.into_owned(),
        resources: run.resources.swap_remove(0).into_owned(),
        report: run.report,
    })
}

// ---------------------------------------------------------------------------
// The lifecycle: one stage table, one executor, two policies.
// ---------------------------------------------------------------------------

/// One row of the lifecycle.
struct StageDef {
    /// The stage: its name is the row's only name. Coverage rows, incident
    /// stage names and unit labels (`name`, `name/unit` or `name/step`,
    /// which chaos points match) read it.
    obs: Stage,
    /// Whether the executor opens the stage's span around the row. `false`:
    /// the body records its own spans (`build_profile`: demand, upsample,
    /// attribute).
    span: bool,
    /// Whether the body runs once per unit ([`Run::units`]: a unit that
    /// fails for good is dropped) or once for the run ([`Run::whole`]).
    fan_out: bool,
    /// Whole stages: what the incident calls the fallback the stage
    /// degrades to when its body fails for good. (Fanned-out stages drop
    /// the failed unit instead.)
    degraded: &'static str,
    /// Hands the executor the stage's body (and, for a whole stage, the
    /// fallback value) and folds what comes back into the run. Returns
    /// whether the stage had nothing of its own to show (coverage
    /// `skipped`).
    run: fn(&mut Run<'_>, &StageDef) -> Result<bool, Grade10Error>,
}

/// The lifecycle of Fig. 1, in order. Each row records under the span of
/// its own stage, so the self-profile times every row apart.
#[rustfmt::skip]
const STAGES: [StageDef; 5] = [
    StageDef {
        obs: Stage::Ingest, span: true, fan_out: true,
        degraded: "", run: ingest,
    },
    StageDef {
        obs: Stage::Attribute, span: false, fan_out: true,
        degraded: "", run: attribute,
    },
    StageDef {
        obs: Stage::Bottleneck, span: true, fan_out: false,
        degraded: "empty bottleneck report", run: bottleneck,
    },
    StageDef {
        obs: Stage::Replay, span: true, fan_out: false,
        degraded: "replay skipped; measured makespan reported", run: replay,
    },
    StageDef {
        obs: Stage::Issues, span: true, fan_out: false,
        degraded: "issue detection skipped", run: issues,
    },
];

/// A whole stage's work at ladder rung `rung` (the unit argument is 0).
type Body<'a, T> = fn(&Run<'a>, usize, u32) -> Result<T, Grade10Error>;

/// A fanned-out stage's work for one unit at ladder rung `rung`, given the
/// unit's own slot, which every attempt of the unit reuses.
type UnitBody<'a, X, T> = fn(&Run<'a>, usize, &mut X, u32) -> Result<T, Grade10Error>;

/// One unit of a fanned-out stage: one machine's share of the input or,
/// under the inline policy, all of it.
struct Unit {
    /// `None`: the whole input. `Some(m)`: the records of machine `m`,
    /// `Some(None)` being the series no machine owns.
    key: Option<Option<u16>>,
    /// The machine's records, by index (unused by the whole-input unit).
    events: Vec<usize>,
}

impl Unit {
    fn name(&self) -> String {
        let status = UnitStatus::Full;
        let machine = |machine| MachineCoverage { machine, status }.label();
        self.key.map_or("input".to_string(), machine)
    }

    /// Under the inline policy one unit spans the input; under the
    /// supervised policy events always carry a machine, monitoring series
    /// may be cluster-level, and units come in key order, cluster first.
    fn split(records: &[Record], monitoring: &[RawSeries], per_machine: bool) -> Vec<Unit> {
        if !per_machine {
            return vec![Unit {
                key: None,
                events: Vec::new(),
            }];
        }
        let series = monitoring.iter().map(|s| (s.instance.machine, Vec::new()));
        let mut by: BTreeMap<Option<u16>, Vec<usize>> = series.collect();
        for (i, r) in records.iter().enumerate() {
            by.entry(Some(r.machine)).or_default().push(i);
        }
        by.into_iter()
            .map(|(machine, events)| Unit {
                key: Some(machine),
                events,
            })
            .collect()
    }
}

/// What the ingest stage made of one unit's events.
enum UnitEvents {
    /// Not ingested yet, or dropped for good.
    Absent,
    /// They passed strict validation and stand as they arrived.
    Verbatim,
    Repaired(Vec<Record>),
}

/// One walk of the table: the inputs, what the stages so far produced, and
/// the ledgers the executor keeps. Stage bodies read it.
struct Run<'a> {
    model: &'a ExecutionModel,
    rules: &'a RuleSet,
    cfg: &'a CharacterizationConfig,
    stream: &'a EventStream,
    monitoring: &'a [RawSeries],
    /// The policy: supervised (knobs in `cfg.supervise`) or inline.
    supervised: bool,
    units: Vec<Unit>,
    /// The monitoring plausibility bound: a cross-series statistic, so it
    /// is computed once over every series and handed to every unit.
    bound: Option<Nanos>,
    /// Per unit, what ingest made of its events and of its monitoring
    /// (empty until then, and for good when the unit is dropped).
    ingested: Vec<UnitEvents>,
    resources: Vec<Cow<'a, ResourceTrace>>,
    /// Each stage's product starts out as the stage's last-resort fallback:
    /// the empty trace, profile and report. Only a run that enters the
    /// table after ingest borrows its traces from the caller.
    trace: Cow<'a, ExecutionTrace>,
    /// The profile settings every attribute unit builds with.
    grid: ProfileConfig,
    profile: PerformanceProfile,
    bottlenecks: BottleneckReport,
    /// The replay stage's plan, until issue detection takes it.
    baseline: Mutex<Option<Baseline>>,
    /// The replay stage's schedule (`None` when it fell back).
    schedule: Option<Vec<Nanos>>,
    base_makespan: Nanos,
    issues: Vec<PerformanceIssue>,
    report: IngestReport,
    incidents: Vec<Incident>,
}

fn degraded_to(degradation: &str) -> IncidentOutcome {
    let degradation = degradation.to_string();
    IncidentOutcome::Recovered { degradation }
}

impl<'a> Run<'a> {
    fn new(
        model: &'a ExecutionModel,
        rules: &'a RuleSet,
        cfg: &'a CharacterizationConfig,
        stream: &'a EventStream,
        monitoring: &'a [RawSeries],
        supervised: bool,
    ) -> Self {
        let units = Unit::split(&stream.records, monitoring, supervised);
        // Only lenient rungs read the bound, and the inline policy has no
        // rung but the configured mode.
        let lenient = supervised || cfg.ingest.mode == IngestMode::Lenient;
        Run {
            supervised,
            bound: lenient.then(|| plausibility_bound(monitoring)).flatten(),
            ingested: units.iter().map(|_| UnitEvents::Absent).collect(),
            resources: vec![Cow::default(); units.len()],
            units,
            trace: Cow::default(),
            grid: cfg.profile.clone(),
            profile: PerformanceProfile::empty(cfg.profile.slice),
            bottlenecks: BottleneckReport::default(),
            baseline: Mutex::default(),
            schedule: None,
            base_makespan: 0,
            issues: Vec::new(),
            report: IngestReport {
                events_total: stream.records.len(),
                monitoring_windows_total: monitoring.iter().map(|s| s.measurements.len()).sum(),
                ..IngestReport::default()
            },
            incidents: Vec::new(),
            model,
            rules,
            cfg,
            stream,
            monitoring,
        }
    }

    /// The executor: per row, open the row's span, run the stage, and
    /// derive its coverage from what happened.
    fn walk(&mut self, stages: &[StageDef]) -> Result<Vec<StageCoverage>, Grade10Error> {
        let covered = stages.iter().map(|stage| {
            let _span = stage.span.then(|| obs::span(stage.obs));
            let mark = self.incidents.len();
            let status = if (stage.run)(self, stage)? {
                StageStatus::Skipped
            } else if self.incidents.len() > mark {
                StageStatus::Degraded
            } else {
                StageStatus::Full
            };
            Ok(StageCoverage {
                stage: stage.obs.name(),
                status,
            })
        });
        covered.collect()
    }

    /// Runs one unit's `rung`s as the policy says: inline, a direct call
    /// of rung 0; supervised, the retry ladder around attempts on this
    /// thread.
    fn attempt<T>(
        &self,
        label: &str,
        mut rung: impl FnMut(u32) -> Result<T, Grade10Error>,
    ) -> UnitRun<T> {
        if !self.supervised {
            let result = rung(0);
            return UnitRun {
                result,
                attempts: 1,
                first_error: None,
            };
        }
        run_unit(&self.cfg.supervise, label, rung)
    }

    fn note(
        &mut self,
        stage: &StageDef,
        unit: &str,
        (kind, detail): (IncidentKind, String),
        attempts: u32,
        outcome: IncidentOutcome,
    ) {
        let (stage, unit) = (stage.obs.name(), unit.to_string());
        self.incidents.push(Incident {
            stage,
            unit,
            kind,
            detail,
            attempts,
            outcome,
        });
    }

    /// Notes the recovery of a unit that needed a retry (it ran as
    /// `retry_as`) and hands back its value, or the error of one that failed
    /// for good.
    fn recovered<T>(
        &mut self,
        stage: &StageDef,
        unit: &str,
        run: UnitRun<T>,
        retry_as: &str,
    ) -> Result<T, Grade10Error> {
        if let (Ok(_), Some(e)) = (&run.result, &run.first_error) {
            let what = (IncidentKind::of(e), e.detail().to_string());
            self.note(stage, unit, what, run.attempts, degraded_to(retry_as));
        }
        run.result
    }

    /// Notes that a unit failed for good and what became of it — unless the
    /// policy is inline, under which its error is the run's.
    fn failed(
        &mut self,
        stage: &StageDef,
        unit: &str,
        (e, attempts): (Grade10Error, u32),
        outcome: IncidentOutcome,
    ) -> Result<(), Grade10Error> {
        if !self.supervised {
            return Err(e);
        }
        self.note(
            stage,
            unit,
            (IncidentKind::of(&e), e.detail().to_string()),
            attempts,
            outcome,
        );
        Ok(())
    }

    /// Fans `body` out over `units`, each with its slot, on the pool, as
    /// `name/unit`, and settles the runs in unit order: a unit that failed
    /// for good is dropped. Returns the survivors with the attempts each
    /// took.
    fn units<X: Send, T: Send>(
        &mut self,
        stage: &StageDef,
        units: Vec<(usize, X)>,
        body: UnitBody<'a, X, T>,
        retry_as: &str,
    ) -> Result<Vec<(usize, T, u32)>, Grade10Error> {
        debug_assert!(stage.fan_out);
        // Units are coarse (a full ingest repair or profile build each), so
        // any multi-unit batch is worth fanning out.
        let n = units.len();
        let pool = if self.supervised {
            resolve_threads(self.cfg.supervise.threads, n)
        } else {
            1
        };
        let this = &*self;
        let runs = pool_map(pool, units, None, |(u, mut slot)| {
            let name = this.units[u].name();
            let label = format!("{}/{name}", stage.obs.name());
            let run = this.attempt(&label, |rung| body(this, u, &mut slot, rung));
            (u, name, run)
        });
        let mut kept = Vec::with_capacity(runs.len());
        for (u, name, run) in runs {
            let attempts = run.attempts;
            match self.recovered(stage, &name, run, retry_as) {
                Ok(value) => kept.push((u, value, attempts)),
                Err(e) => self.failed(stage, &name, (e, attempts), IncidentOutcome::Dropped)?,
            }
        }
        Ok(kept)
    }

    /// Runs a whole-stage `body` as `name`. When it fails for good the
    /// stage degrades to `substitute`, noted as the row's `degraded`, and
    /// its coverage reads skipped (the flag returned).
    fn whole<T>(
        &mut self,
        stage: &StageDef,
        body: Body<'a, T>,
        substitute: T,
    ) -> Result<(T, bool), Grade10Error> {
        debug_assert!(!stage.fan_out);
        let name = stage.obs.name();
        let run = self.attempt(name, |rung| body(self, 0, rung));
        let attempts = run.attempts;
        match self.recovered(stage, name, run, "retried") {
            Ok(value) => Ok((value, false)),
            Err(e) => {
                self.failed(stage, name, (e, attempts), degraded_to(stage.degraded))?;
                Ok((substitute, true))
            }
        }
    }

    fn characterize(mut self) -> Result<PartialCharacterization, Grade10Error> {
        let stages = self.walk(&STAGES)?;
        let schedule = self.schedule.take();
        let (characterization, trace, incidents, machines) = self.finish();
        // A run over raw streams assembled its trace: it owns it.
        let trace = trace.into_owned();
        let coverage = Coverage { machines, stages };
        Ok(PartialCharacterization {
            characterization,
            trace,
            incidents,
            coverage,
            schedule,
        })
    }

    /// The run's results: characterization, trace, incidents, per-machine
    /// coverage.
    fn finish(
        self,
    ) -> (
        Characterization,
        Cow<'a, ExecutionTrace>,
        Vec<Incident>,
        Vec<MachineCoverage>,
    ) {
        let characterization = Characterization {
            profile: self.profile,
            bottlenecks: self.bottlenecks,
            base_makespan: self.base_makespan,
            issues: self.issues,
            ingest: self.report,
        };
        // Every incident that names a per-machine unit degraded or dropped
        // it, so the machine ledger is a reading of the incident log.
        let status_of = |unit: &Unit| {
            let name = unit.name();
            let named = self.incidents.iter().filter(|i| i.unit == name);
            let worst = named.map(|i| match i.outcome {
                IncidentOutcome::Dropped => UnitStatus::Dropped,
                IncidentOutcome::Recovered { .. } => UnitStatus::Degraded,
            });
            worst.max().unwrap_or(UnitStatus::Full)
        };
        let covered = |unit: &Unit| {
            let (machine, status) = (unit.key?, status_of(unit));
            Some(MachineCoverage { machine, status })
        };
        let machines = self.units.iter().filter_map(covered).collect();
        (characterization, self.trace, self.incidents, machines)
    }

    /// `unit`'s records, in arrival order.
    fn records_of(&self, unit: &Unit) -> Cow<'_, [Record]> {
        match unit.key {
            None => Cow::Borrowed(&self.stream.records),
            Some(_) => Cow::Owned(
                unit.events
                    .iter()
                    .map(|&i| self.stream.records[i])
                    .collect(),
            ),
        }
    }
}

/// The ingest stage: validates or repairs the event stream and checks or
/// repairs the monitoring, per unit, then `ingest/assemble` builds the
/// merged execution trace from the surviving units' records. Assembling is
/// the one step nothing can route around — no trace, no characterization —
/// so its failure is the run's.
fn ingest(run: &mut Run<'_>, stage: &StageDef) -> Result<bool, Grade10Error> {
    let retry_as = match run.cfg.ingest.mode {
        IngestMode::Strict => "lenient ingestion",
        IngestMode::Lenient => "retried",
    };
    let all = (0..run.units.len()).map(|u| (u, ())).collect();
    let body: UnitBody<'_, (), _> = |run, u, _, rung| ingest_unit(run, u, rung);
    let ingested = run.units(stage, all, body, retry_as)?;
    for (u, (events, resources, report), attempts) in ingested {
        let name = run.units[u].name();
        // Incidents are the supervised policy's ledger; under the inline
        // policy the repair report alone carries the count.
        let quarantined = report.monitoring_quarantined;
        if run.supervised && quarantined > 0 {
            let detail = format!("{quarantined} implausible monitoring windows quarantined");
            let outcome = degraded_to("quarantined windows excluded");
            run.note(
                stage,
                &name,
                (IncidentKind::Quarantine, detail),
                attempts,
                outcome,
            );
        }
        let of = &run.units[u];
        let lost_log = of.key.flatten().is_some() && of.events.is_empty();
        // A machine with monitoring but no log events lost its log stream:
        // characterized from monitoring only.
        if lost_log && !resources.instances().is_empty() {
            let detail = "no log events from this machine".to_string();
            let outcome = degraded_to("monitoring-only coverage");
            run.note(
                stage,
                &name,
                (IncidentKind::MissingData, detail),
                attempts,
                outcome,
            );
        }
        run.report.absorb_repairs(&report);
        run.ingested[u] = events;
        run.resources[u] = Cow::Owned(resources);
    }
    let label = format!("{}/assemble", stage.obs.name());
    let assembled = run.attempt(&label, |rung| assemble_trace(run, rung));
    let (trace, repairs) = run.recovered(stage, "assemble", assembled, "lenient merge repair")?;
    run.report.absorb_repairs(&repairs);
    run.trace = Cow::Owned(trace);
    // The units' records are in the trace now; nothing reads them again.
    run.ingested.clear();
    Ok(false)
}

/// Validates (strict) or repairs (lenient) one unit's share of both
/// streams. The ladder's rungs are the configured mode, then lenient. Only
/// a unit that spans the whole event stream synthesizes lost ancestors
/// itself; see [`repair_events_opts`].
fn ingest_unit(
    run: &Run<'_>,
    u: usize,
    rung: u32,
) -> Result<(UnitEvents, ResourceTrace, IngestReport), Grade10Error> {
    let unit = &run.units[u];
    let mode = match rung {
        0 => run.cfg.ingest.mode,
        _ => IngestMode::Lenient,
    };
    let sole = run.units.len() == 1;
    let mut report = IngestReport::default();
    let records = run.records_of(unit);
    let events = match mode {
        IngestMode::Strict => {
            validate_records(&records)?;
            UnitEvents::Verbatim
        }
        IngestMode::Lenient => {
            let paths = &run.stream.paths;
            UnitEvents::Repaired(repair_events_opts(paths, &records, sole, &mut report))
        }
    };
    let mine = |s: &&RawSeries| unit.key.is_none_or(|machine| s.instance.machine == machine);
    let series = run.monitoring.iter().filter(mine);
    let resources = ingest_series(series, mode, run.bound, &mut report)?;
    Ok((events, resources, report))
}

/// The body of `ingest/assemble`. A sole unit's records are final as the
/// unit left them. Several units' records are merged by time; on rung 0 of
/// a strict run in which no unit degraded they are built as they stand,
/// and otherwise one lenient repair over the merged stream also
/// synthesizes cross-machine ancestors exactly once.
fn assemble_trace(
    run: &Run<'_>,
    rung: u32,
) -> Result<(ExecutionTrace, IngestReport), Grade10Error> {
    let mut parts =
        run.units
            .iter()
            .zip(&run.ingested)
            .filter_map(|(unit, ingested)| match ingested {
                UnitEvents::Absent => None,
                UnitEvents::Verbatim => Some(run.records_of(unit)),
                UnitEvents::Repaired(records) => Some(Cow::Borrowed(records.as_slice())),
            });
    let (sole, stream) = (run.units.len() == 1, run.stream);
    let merged = if sole {
        parts.next().unwrap_or_default()
    } else {
        // Stable sort by time only: each unit's substream is already in
        // valid arrival order (the parser is order-insensitive among ties
        // with distinct keys, but zero-duration block pairs and doubled
        // barrier pairs NEED their original start-before-end order, which
        // any kind-based tie-break would destroy). Stability keeps every
        // machine's internal order intact while interleaving by time.
        let mut merged = parts.collect::<Vec<_>>().concat();
        merged.sort_by_key(|r| r.time);
        Cow::Owned(merged)
    };
    // Every incident so far degraded or dropped an ingest unit.
    let strict = run.cfg.ingest.mode == IngestMode::Strict && run.incidents.is_empty();
    let mut report = IngestReport::default();
    let trace = if rung == 0 && (sole || strict) {
        // Not validated again: each unit was, the merge is sorted, and duplicates share a unit.
        build_trace_from(run.model, stream, &merged)?
    } else {
        let repaired = repair_events_opts(&stream.paths, &merged, true, &mut report);
        build_trace_from(run.model, stream, &repaired)?
    };
    Ok((trace, report))
}

/// The attribute stage: the body of `build_profile` per unit that carries
/// monitoring. The profile's grids are allocated once, with a block of rows
/// per unit, and each unit fills its own block in place; a retried attempt
/// starts from zeroed rows, and a dropped unit's rows are removed. When
/// nothing survives attribution (or the budget guard rejects the grid
/// outright), `attribute/fallback` builds a resource-less profile over the
/// trace so downstream stages still see the right grid extent.
fn attribute(run: &mut Run<'_>, stage: &StageDef) -> Result<bool, Grade10Error> {
    let monitored = |&u: &usize| !run.resources[u].instances().is_empty();
    let mut live: Vec<usize> = (0..run.units.len()).filter(monitored).collect();
    let mut sizes: Vec<usize> = live
        .iter()
        .map(|&u| run.resources[u].instances().len())
        .collect();
    let monitoring_end = live
        .iter()
        .map(|&u| run.resources[u].end())
        .max()
        .unwrap_or(0);
    if run.supervised && !fit_grid(run, stage, sizes.iter().sum(), monitoring_end) {
        (live, sizes) = (Vec::new(), Vec::new());
    }
    let mut profile = {
        let _span = obs::span(Stage::Demand);
        let grid = run.grid.grid_over(&run.trace, monitoring_end);
        PerformanceProfile::zeroed(grid, sizes.iter().sum())
    };
    let blocks = live.iter().copied().zip(profile.blocks(&sizes)).collect();
    let body: UnitBody<'_, ProfileRows<'_>, _> = |run, u, rows, rung| {
        let demand_span = obs::span(Stage::Demand);
        if rung > 0 {
            rows.clear();
        }
        let (trace, resources) = (&run.trace, &run.resources[u]);
        Ok(fill_rows(
            run.rules,
            trace,
            resources,
            &run.grid,
            rows,
            demand_span,
        ))
    };
    let mut fills = run
        .units(stage, blocks, body, "retried")?
        .into_iter()
        .peekable();
    let skipped = fills.peek().is_none();
    if skipped {
        let none = ResourceTrace::new();
        let label = format!("{}/fallback", stage.obs.name());
        let built = run.attempt(&label, |_| {
            Ok(build_profile(
                run.model, run.rules, &run.trace, &none, &run.grid,
            ))
        });
        profile = built
            .result
            .unwrap_or_else(|_| PerformanceProfile::empty(run.grid.slice));
    } else {
        let block = |&u: &usize| {
            let fill = fills.next_if(|&(v, _, _)| v == u).map(|(_, fill, _)| fill);
            (run.resources[u].instances(), fill)
        };
        let blocks = live.iter().map(block).collect();
        let _span = obs::span(Stage::Attribute);
        profile.assemble(blocks);
    }
    run.report.slices_estimated = profile.estimated_slices();
    run.report.slices_total = profile.total_slices();
    run.profile = profile;
    Ok(skipped)
}

/// Timeslice multiplier applied per budget rung.
const COARSEN_FACTOR: Nanos = 10;

/// The budget guard of the supervised policy. Fixes one global
/// `(end, slice)` for the live units' `resources` rows of the one profile,
/// and costs that grid before it is allocated: over
/// [`SuperviseConfig::max_grid_cells`] the timeslice is coarsened, at most
/// `max_retries` (at least one) rungs — here, globally, not per unit.
/// Returns whether the grid fits.
fn fit_grid(run: &mut Run<'_>, stage: &StageDef, resources: usize, monitoring_end: Nanos) -> bool {
    let sup = &run.cfg.supervise;
    let (cap, max_rungs) = (sup.max_grid_cells, sup.max_retries.max(1));
    let original = run.grid.slice.max(1);
    let grid_end = run.trace.makespan_end().max(monitoring_end).max(original);
    let cells = |slice: Nanos| grid_end.div_ceil(slice) as u128 * resources as u128;
    let (mut slice, mut rungs) = (original, 0u32);
    while cells(slice) > cap as u128 && rungs < max_rungs {
        slice = slice.saturating_mul(COARSEN_FACTOR);
        rungs += 1;
    }
    let fits = cells(slice) <= cap as u128;
    if !fits {
        let needs = cells(slice);
        let detail = format!("grid needs {needs} cells (cap {cap}) even at slice {slice} ns");
        run.note(
            stage,
            "grid",
            (IncidentKind::Budget, detail),
            rungs,
            IncidentOutcome::Dropped,
        );
    } else if rungs > 0 {
        let needs = cells(original);
        let detail = format!("grid at slice {original} ns needs {needs} cells (cap {cap})");
        let outcome = degraded_to(&format!("timeslice coarsened to {slice} ns"));
        run.note(
            stage,
            "grid",
            (IncidentKind::Budget, detail),
            rungs,
            outcome,
        );
    }
    run.grid.slice = slice;
    run.grid.grid_end = Some(grid_end);
    fits
}

fn bottleneck(run: &mut Run<'_>, stage: &StageDef) -> Result<bool, Grade10Error> {
    let body: Body<'_, _> = |run, _, _| {
        Ok(BottleneckReport::build(
            &run.trace,
            &run.profile,
            &run.cfg.bottleneck,
        ))
    };
    let (report, skipped) = run.whole(stage, body, BottleneckReport::default())?;
    run.bottlenecks = report;
    Ok(skipped)
}

fn replay(run: &mut Run<'_>, stage: &StageDef) -> Result<bool, Grade10Error> {
    let body: Body<'_, _> =
        |run, _, _| Ok(Some(Baseline::new(run.model, &run.trace, &run.cfg.replay)));
    let (mut base, skipped) = run.whole(stage, body, None)?;
    let measured = run.trace.makespan_end();
    run.base_makespan = base.as_ref().map_or(measured, |base| base.makespan);
    run.schedule = base.as_mut().map(Baseline::take_schedule);
    run.baseline = Mutex::new(base);
    Ok(skipped)
}

/// §III-F over the replay stage's plan. When that stage fell back — or an
/// earlier attempt of this one already took the plan — issue detection
/// builds its own.
fn issues(run: &mut Run<'_>, stage: &StageDef) -> Result<bool, Grade10Error> {
    let body: Body<'_, _> = |run, _, _| {
        let (model, trace, cfg) = (run.model, &*run.trace, run.cfg);
        // The slot is only ever replaced whole, so a poisoned lock still
        // guards a valid value.
        let base = run
            .baseline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let base = base.unwrap_or_else(|| Baseline::new(model, trace, &cfg.replay));
        Ok(detect_issues(
            model,
            trace,
            &run.profile,
            &run.bottlenecks,
            base,
            &cfg.issues,
        ))
    };
    let (issues, skipped) = run.whole(stage, body, Vec::new())?;
    run.issues = issues;
    Ok(skipped)
}

/// A characterization of Grade10's own pipeline, produced by feeding a
/// recorded [`MetaTrace`] back through the pipeline.
pub struct MetaCharacterization {
    /// The meta execution model (pipeline stages as phase types).
    pub model: ExecutionModel,
    /// Attribution rules of the meta model (CPU as `Variable` per stage).
    pub rules: RuleSet,
    /// The raw recorded spans the characterization was built from.
    pub raw: MetaTrace,
    /// The self-trace rendered as a standard raw event stream — the same
    /// format external frameworks feed in, so it can be exported and
    /// re-analyzed offline.
    pub events: Vec<RawEvent>,
    /// Synthesized per-recorder-thread CPU monitoring series.
    pub series: Vec<RawSeries>,
    /// The ingested execution trace of the pipeline run.
    pub trace: ExecutionTrace,
    /// The full pipeline output over the meta-trace: profile, bottlenecks,
    /// issues — Grade10's verdict on Grade10.
    pub result: Characterization,
}

impl MetaCharacterization {
    /// Timeslice width (ns) used for a meta characterization of a recording
    /// that ended at `end` ns: ~200 slices across the run, at least 10 µs
    /// each so timer noise does not masquerade as utilization structure.
    pub fn slice_for(end: u64) -> u64 {
        (end / 200).max(10_000)
    }

    /// Monitoring window width (ns) matching [`slice_for`](Self::slice_for):
    /// four timeslices per window, like real coarse monitoring, so the
    /// demand-guided upsampler has genuine work to do.
    pub fn window_for(end: u64) -> u64 {
        Self::slice_for(end) * 4
    }
}

/// Runs the attribution pipeline on a recorded meta-trace: Grade10
/// characterizing its own execution. Uses the hand-written
/// [`meta_model`](crate::obs::meta_model), a timeslice of
/// [`MetaCharacterization::slice_for`] and strict ingestion — the recorder
/// emits well-formed streams by construction, and a repair firing here
/// would itself be a bug.
pub fn characterize_meta(raw: &MetaTrace) -> Result<MetaCharacterization, Grade10Error> {
    let (model, rules) = obs::meta_model();
    let events = raw.to_raw_events();
    let series = raw.to_raw_series(MetaCharacterization::window_for(raw.end));
    // Default `Auto` policy: a meta-trace is far below the Auto fan-out
    // threshold, so it analyzes sequentially without pinning a policy the
    // caller might want to override.
    let cfg = CharacterizationConfig::new(false, MetaCharacterization::slice_for(raw.end), None);
    let stream = EventStream::from_events(&events);
    let run = characterize_stream(false, &model, &rules, &stream, &series, &cfg)?;
    Ok(MetaCharacterization {
        model,
        rules,
        raw: raw.clone(),
        events,
        series,
        trace: run.trace,
        result: run.characterization,
    })
}

/// A normal characterization plus the pipeline's characterization of
/// itself, from one instrumented run.
pub struct SelfCharacterization {
    /// The characterization of the *subject* traces, identical to what
    /// [`characterize`] returns without recording.
    pub result: Characterization,
    /// The subject run's issue summary, rendered during the recorded
    /// `report` stage (so that stage has real work attributed to it).
    pub summary: Vec<String>,
    /// The pipeline characterized by itself.
    pub meta: MetaCharacterization,
}

/// Runs a normal characterization while recording the pipeline's own
/// spans, then runs the attribution pipeline a second time on the captured
/// meta-trace (§III applied to ourselves).
///
/// # Panics
/// Panics if the current thread is already recording an observability
/// session: self-characterizations do not nest.
pub fn characterize_self(
    model: &ExecutionModel,
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &CharacterizationConfig,
) -> Result<SelfCharacterization, Grade10Error> {
    let recording = obs::start();
    let result = characterize(model, rules, trace, resources, cfg);
    let summary = {
        let _span = obs::span(Stage::Report);
        result.summary(model)
    };
    let meta = characterize_meta(&recording.finish())?;
    Ok(SelfCharacterization {
        result,
        summary,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttributionRule, ExecutionModelBuilder, Repeat};
    use crate::trace::{ResourceInstance, TraceBuilder, MILLIS};

    /// Two sequential phases; the first saturates the CPU, the second is
    /// GC-bound; plus an imbalanced pair of parallel tasks inside phase b.
    fn scenario() -> (ExecutionModel, RuleSet, ExecutionTrace, ResourceTrace) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let a = b.child(r, "a", Repeat::Once);
        let bb = b.child(r, "b", Repeat::Once);
        b.edge(a, bb);
        let task = b.child(bb, "task", Repeat::Parallel);
        let model = b.build();
        let rules = RuleSet::new().rule(task, "cpu", AttributionRule::Variable(1.0));

        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 300 * MILLIS, None, None)
            .unwrap();
        let ai = tb
            .add_phase(&[("job", 0), ("a", 0)], 0, 100 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_blocking(ai, "gc", 40 * MILLIS, 60 * MILLIS);
        tb.add_phase(
            &[("job", 0), ("b", 0)],
            100 * MILLIS,
            300 * MILLIS,
            None,
            None,
        )
        .unwrap();
        tb.add_phase(
            &[("job", 0), ("b", 0), ("task", 0)],
            100 * MILLIS,
            150 * MILLIS,
            Some(0),
            Some(0),
        )
        .unwrap();
        tb.add_phase(
            &[("job", 0), ("b", 0), ("task", 1)],
            100 * MILLIS,
            300 * MILLIS,
            Some(0),
            Some(1),
        )
        .unwrap();
        let trace = tb.build().unwrap();

        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        rt.add_series(cpu, 0, 50 * MILLIS, &[4.0, 4.0, 1.0, 1.0, 1.0, 1.0]);
        (model, rules, trace, rt)
    }

    #[test]
    fn characterize_finds_multiple_issue_classes() {
        let (model, rules, trace, rt) = scenario();
        let c = characterize(
            &model,
            &rules,
            &trace,
            &rt,
            &CharacterizationConfig::default(),
        );
        assert_eq!(c.base_makespan, 300 * MILLIS);
        let kinds: Vec<_> = c.issues.iter().map(|i| &i.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, IssueKind::BlockingBottleneck { resource_kind } if resource_kind == "gc")),
            "expected a gc issue in {kinds:?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, IssueKind::Imbalance { .. })),
            "expected an imbalance issue in {kinds:?}"
        );
        // Issues are ordered by impact.
        for w in c.issues.windows(2) {
            assert!(w[0].reduction >= w[1].reduction);
        }
    }

    #[test]
    fn characterize_events_strict_vs_lenient() {
        use crate::parse::RawEventKind;
        use crate::trace::repair::IngestMode;

        let b = ExecutionModelBuilder::new("job");
        let _ = b.root();
        let model = b.build();
        let rules = RuleSet::new();
        let path = vec![("job".to_string(), 0u32)];
        // Start without end: a crashed worker truncated the stream.
        let events = vec![RawEvent {
            time: 0,
            machine: 0,
            thread: 0,
            kind: RawEventKind::PhaseStart { path },
        }];
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        rt.add_series(cpu, 0, 10 * MILLIS, &[1.0, 2.0]);
        let monitoring = crate::trace::RawSeries::from_trace(&rt);

        let strict = CharacterizationConfig::default();
        match characterize_events(&model, &rules, &events, &monitoring, &strict) {
            Err(err) => assert!(err.is_recoverable()),
            Ok(_) => panic!("strict must reject the truncated stream"),
        }

        let lenient = CharacterizationConfig {
            ingest: IngestConfig {
                mode: IngestMode::Lenient,
            },
            ..Default::default()
        };
        let c = characterize_events(&model, &rules, &events, &monitoring, &lenient)
            .expect("lenient must repair and complete");
        assert_eq!(c.ingest.missing_ends_synthesized, 1);
        assert!(!c.ingest.is_clean());
        assert!(c.ingest.quality_score() < 1.0);
        assert!(c.ingest.slices_total > 0);
    }

    /// Each row's coverage, incident and chaos name is the name of its
    /// stage, and each row the executor spans records one span of that
    /// stage per walk.
    #[test]
    fn every_row_is_named_and_spanned_by_its_stage() {
        use crate::parse::RawEventKind;

        let b = ExecutionModelBuilder::new("job");
        let root = b.root();
        let model = b.build();
        let rules = RuleSet::new().rule(root, "cpu", AttributionRule::Variable(1.0));
        let path = vec![("job".to_string(), 0u32)];
        let phase = |time, kind| RawEvent {
            time,
            machine: 0,
            thread: 0,
            kind,
        };
        let events = EventStream::from_events(&[
            phase(0, RawEventKind::PhaseStart { path: path.clone() }),
            phase(20 * MILLIS, RawEventKind::PhaseEnd { path }),
        ]);
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        rt.add_series(cpu, 0, 10 * MILLIS, &[1.0, 2.0]);
        let monitoring = crate::trace::RawSeries::from_trace(&rt);
        let cfg = CharacterizationConfig::default();

        let recording = obs::start();
        let run = characterize_stream(false, &model, &rules, &events, &monitoring, &cfg)
            .expect("clean input characterizes");
        let raw = recording.finish();
        let covered: Vec<&str> = run.coverage.stages.iter().map(|c| c.stage).collect();
        let named: Vec<&str> = STAGES.iter().map(|row| row.obs.name()).collect();
        assert_eq!(covered, named);
        for row in STAGES.iter().filter(|row| row.span) {
            let spans = raw.spans.iter().filter(|s| s.stage == row.obs).count();
            assert_eq!(spans, 1, "{}", row.obs.name());
        }
    }

    #[test]
    fn summary_is_readable() {
        let (model, rules, trace, rt) = scenario();
        let c = characterize(
            &model,
            &rules,
            &trace,
            &rt,
            &CharacterizationConfig::default(),
        );
        let lines = c.summary(&model);
        assert_eq!(lines.len(), c.issues.len());
        assert!(lines.iter().any(|l| l.contains("gc")), "{lines:?}");
    }
}
