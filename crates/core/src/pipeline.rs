//! One-call characterization: the whole Grade10 lifecycle (Fig. 1 of the
//! paper) behind a single function.
//!
//! [`characterize`] runs resource attribution, bottleneck identification,
//! and performance-issue detection in order and returns a
//! [`Characterization`] bundling the artifacts plus a human-readable
//! summary. Use the individual modules directly when you need intermediate
//! control (custom thresholds per stage, partial pipelines, or repeated
//! what-ifs over one profile).

use crate::attribution::{build_profile, PerformanceProfile, ProfileConfig};
use crate::bottleneck::{BottleneckConfig, BottleneckReport};
use crate::error::Grade10Error;
use crate::issues::{detect_issues, IssueConfig, IssueKind, PerformanceIssue};
use crate::model::{ExecutionModel, RuleSet};
use crate::obs::{self, MetaTrace, Stage};
use crate::parse::RawEvent;
use crate::replay::{replay_original, ReplayConfig};
use crate::report::table::pct;
use crate::trace::repair::{ingest, IngestConfig, IngestReport, IngestedInput, RawSeries};
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
    /// Supervision knobs (deadlines, retries, budget), honored by
    /// [`crate::supervise::characterize_events_supervised`]. The
    /// unsupervised entry points ignore this field.
    pub supervise: crate::supervise::SuperviseConfig,
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

    /// The single most impactful issue, if any cleared the threshold.
    pub fn top_issue(&self) -> Option<&PerformanceIssue> {
        self.issues.first()
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

/// Runs the full Grade10 pipeline on already-built traces.
pub fn characterize(
    model: &ExecutionModel,
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &CharacterizationConfig,
) -> Characterization {
    characterize_with_report(model, rules, trace, resources, cfg, IngestReport::default())
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
    let input = ingest(model, events, monitoring, &cfg.ingest)?;
    Ok(characterize_ingested(model, rules, &input, cfg))
}

/// Runs the pipeline on the output of a separate [`ingest`] call — for
/// callers that need to keep the ingested traces (e.g. to render them)
/// while still carrying the repair report into the result.
pub fn characterize_ingested(
    model: &ExecutionModel,
    rules: &RuleSet,
    input: &IngestedInput,
    cfg: &CharacterizationConfig,
) -> Characterization {
    characterize_with_report(
        model,
        rules,
        &input.trace,
        &input.resources,
        cfg,
        input.report.clone(),
    )
}

fn characterize_with_report(
    model: &ExecutionModel,
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &CharacterizationConfig,
    mut report: IngestReport,
) -> Characterization {
    let profile = build_profile(model, rules, trace, resources, &cfg.profile);
    report.slices_estimated = profile.estimated_slices();
    report.slices_total = profile.total_slices();
    let _span = obs::span(Stage::Bottleneck);
    let bottlenecks = BottleneckReport::build(trace, &profile, &cfg.bottleneck);
    let base = replay_original(model, trace, &cfg.replay);
    let issues = detect_issues(
        model,
        trace,
        &profile,
        &bottlenecks,
        &cfg.replay,
        &cfg.issues,
    );
    Characterization {
        profile,
        bottlenecks,
        base_makespan: base.makespan,
        issues,
        ingest: report,
    }
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
    let cfg = CharacterizationConfig {
        profile: ProfileConfig {
            slice: MetaCharacterization::slice_for(raw.end),
            // Default `Auto` policy: a meta-trace is far below the Auto
            // fan-out threshold, so it analyzes sequentially without
            // pinning a policy the caller might want to override.
            ..ProfileConfig::default()
        },
        ..CharacterizationConfig::default()
    };
    let input = ingest(&model, &events, &series, &cfg.ingest)?;
    let result = characterize_ingested(&model, &rules, &input, &cfg);
    Ok(MetaCharacterization {
        model,
        rules,
        raw: raw.clone(),
        events,
        series,
        trace: input.trace,
        result,
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
        tb.add_phase(&[("job", 0)], 0, 300 * MILLIS, None, None).unwrap();
        let ai = tb
            .add_phase(&[("job", 0), ("a", 0)], 0, 100 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_blocking(ai, "gc", 40 * MILLIS, 60 * MILLIS);
        tb.add_phase(&[("job", 0), ("b", 0)], 100 * MILLIS, 300 * MILLIS, None, None)
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
        let c = characterize(&model, &rules, &trace, &rt, &CharacterizationConfig::default());
        assert_eq!(c.base_makespan, 300 * MILLIS);
        let kinds: Vec<_> = c.issues.iter().map(|i| &i.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, IssueKind::BlockingBottleneck { resource_kind } if resource_kind == "gc")),
            "expected a gc issue in {kinds:?}"
        );
        assert!(
            kinds.iter().any(|k| matches!(k, IssueKind::Imbalance { .. })),
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

    #[test]
    fn summary_is_readable() {
        let (model, rules, trace, rt) = scenario();
        let c = characterize(&model, &rules, &trace, &rt, &CharacterizationConfig::default());
        let lines = c.summary(&model);
        assert_eq!(lines.len(), c.issues.len());
        assert!(lines.iter().any(|l| l.contains("gc")), "{lines:?}");
        assert!(c.top_issue().is_some());
    }
}
