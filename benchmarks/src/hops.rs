//! The program's commands replayed in-process, hop by hop, through the
//! crates' public functions with a span around each call.
//!
//! Each function here mirrors one code path of `src/main.rs` (or of
//! `engines::run_workload`, which the CLI calls as one piece) and returns
//! what that path prints, so a replay can be checked byte for byte against
//! the real program's output. Pools run at width 1: the replay is
//! sequential and its spans nest on one thread.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;
use std::sync::Arc;

use grade10_cluster::logging::LogRecord;
use grade10_core::attribution::ProfileConfig;
use grade10_core::bottleneck::BottleneckReport;
use grade10_core::cache::StageCache;
use grade10_core::campaign::{
    atomic_write, run_campaign, CampaignOptions, CampaignSpec, MixAttempt, MixMode, MixOutcome,
    MixSpec,
};
use grade10_core::critical_path::critical_path;
use grade10_core::issues::{detect_bottleneck_issues, detect_imbalance_issues};
use grade10_core::model::{ExecutionModel, ModelBundle, RuleSet};
use grade10_core::parse::{build_execution_trace, read_events_json, write_events_json, RawEvent};
use grade10_core::pipeline::{characterize_events, Characterization, CharacterizationConfig};
use grade10_core::replay::replay_original;
use grade10_core::report::{
    coverage_table, incident_table, ingest_table, machine_table, render_gantt, render_html_report,
    usage_table, GanttConfig, HtmlConfig,
};
use grade10_core::supervise::{characterize_events_supervised, SuperviseConfig};
use grade10_core::trace::repair::{ingest_monitoring, repair_events, validate_event_stream};
use grade10_core::trace::{
    read_trace_file, ExecutionTrace, IngestConfig, IngestMode, IngestReport, RawSeries,
    ResourceTrace, MILLIS,
};
use grade10_core::{build_profile, Grade10Error};
use grade10_engines::bridge::{to_raw_events, to_raw_series};
use grade10_engines::gas::{run_gas, GasConfig};
use grade10_engines::models::{
    gas_model, gas_rules_tuned, gas_rules_untuned, pregel_model, pregel_rules_tuned,
    pregel_rules_untuned,
};
use grade10_engines::pregel::{run_pregel, PregelConfig};
use grade10_engines::workload::EnginePhases;
use grade10_engines::{Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec};
use grade10_graph::partition::{EdgeCutPartition, VertexCutPartition};

use crate::spans::Tracer;

fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What `grade10 demo --dataset rmat:R --seed S --engine E` runs.
pub fn demo_spec(rmat: u32, seed: u64, engine: &str) -> WorkloadSpec {
    WorkloadSpec {
        dataset: Dataset::Rmat { scale: rmat, seed },
        algorithm: Algorithm::PageRank { iterations: 8 },
        engine: match engine {
            "powergraph" => EngineKind::PowerGraph(GasConfig::default()),
            _ => EngineKind::Giraph(PregelConfig::default()),
        },
    }
}

/// What the campaign runner simulates for one mix (the parsing half of
/// `run_mix` in `src/main.rs`).
pub fn mix_spec(mix: &MixSpec) -> Result<WorkloadSpec, String> {
    let (kind, size) = mix
        .dataset
        .split_once(':')
        .ok_or("dataset must be kind:size")?;
    let dataset = match kind {
        "rmat" => Dataset::Rmat {
            scale: size.parse().map_err(err_str)?,
            seed: mix.seed,
        },
        "social" => Dataset::Social {
            vertices: size.parse().map_err(err_str)?,
            seed: mix.seed,
        },
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    let algorithm = match mix.algorithm.as_str() {
        "pr" => Algorithm::PageRank { iterations: 8 },
        "bfs" => Algorithm::Bfs { root: 0 },
        other => return Err(format!("algorithm '{other}' is not part of the benchmark")),
    };
    let machines = mix.machines as usize;
    let engine = match mix.engine.as_str() {
        "giraph" => EngineKind::Giraph(PregelConfig {
            machines,
            ..Default::default()
        }),
        "powergraph" => EngineKind::PowerGraph(GasConfig {
            machines,
            ..Default::default()
        }),
        other => return Err(format!("unknown engine '{other}'")),
    };
    Ok(WorkloadSpec {
        dataset,
        algorithm,
        engine,
    })
}

/// `bridge::to_raw_events` in its span.
pub fn raw_events(t: &Tracer, logs: &[LogRecord]) -> Vec<RawEvent> {
    t.span("engines.bridge", || to_raw_events(logs), |e| e.len() as u64)
}

/// The execution trace `run_workload` builds from the simulator's own logs.
fn simulated_trace(t: &Tracer, model: &ExecutionModel, logs: &[LogRecord]) -> ExecutionTrace {
    let events = raw_events(t, logs);
    t.span(
        "core.parse.build_trace",
        || build_execution_trace(model, &events),
        |_| events.len() as u64,
    )
    .unwrap_or_else(|e| panic!("simulator-emitted logs always parse: {e}"))
}

/// `engines::run_workload`, one span per hop.
pub fn run_workload(t: &Tracer, spec: &WorkloadSpec) -> WorkloadRun {
    let graph = t.span(
        "graph.generators",
        || spec.dataset.generate(),
        |g| g.num_edges() as u64,
    );
    let edges = graph.num_edges() as u64;
    let traversed = |work: &grade10_graph::algorithms::WorkProfile| {
        work.iteration_rows().iter().map(|row| row.2).sum::<u64>()
    };
    match &spec.engine {
        EngineKind::Giraph(cfg) => {
            let part = t.span(
                "graph.partition",
                || EdgeCutPartition::hash(&graph, cfg.num_parts()),
                |_| edges,
            );
            let work = t.span(
                "graph.algorithms",
                || spec.algorithm.run(&graph, &part),
                traversed,
            );
            let sim = t.span(
                "engines.pregel",
                || run_pregel(&work, graph.num_vertices(), graph.num_edges(), cfg),
                |s| s.logs.len() as u64,
            );
            let (model, phases) = pregel_model();
            let rules_tuned = pregel_rules_tuned(&phases, cfg.cores);
            let trace = simulated_trace(t, &model, &sim.logs);
            WorkloadRun {
                spec: spec.clone(),
                model,
                phases: EnginePhases::Pregel(phases),
                rules_tuned,
                rules_untuned: pregel_rules_untuned(),
                sim,
                injected_bugs: Vec::new(),
                trace,
                work,
            }
        }
        EngineKind::PowerGraph(cfg) => {
            let part = t.span(
                "graph.partition",
                || VertexCutPartition::greedy(&graph, cfg.num_parts()),
                |_| edges,
            );
            let work = t.span(
                "graph.algorithms",
                || spec.algorithm.run(&graph, &part),
                traversed,
            );
            let run = t.span(
                "engines.gas",
                || run_gas(&work, graph.num_edges(), cfg),
                |r| r.sim.logs.len() as u64,
            );
            let (model, phases) = gas_model();
            let rules_tuned = gas_rules_tuned(&phases, cfg.cores);
            let trace = simulated_trace(t, &model, &run.sim.logs);
            WorkloadRun {
                spec: spec.clone(),
                model,
                phases: EnginePhases::Gas(phases),
                rules_tuned,
                rules_untuned: gas_rules_untuned(),
                sim: run.sim,
                injected_bugs: run.injected_bugs,
                trace,
                work,
            }
        }
    }
}

/// Events as JSON lines, as `--export-logs` writes them.
pub fn events_jsonl(t: &Tracer, events: &[RawEvent]) -> io::Result<Vec<u8>> {
    t.span(
        "core.parse.write_json",
        || {
            let mut buf = Vec::new();
            write_events_json(events, &mut buf).map(|()| buf)
        },
        |r| r.as_ref().map_or(0, |b| b.len() as u64),
    )
}

/// A resource trace as JSON, as `--export-logs` writes it.
pub fn resources_json(t: &Tracer, resources: &ResourceTrace) -> Result<Vec<u8>, String> {
    t.span(
        "core.parse.write_json",
        || serde_json::to_vec(resources),
        |r| r.as_ref().map_or(0, |b| b.len() as u64),
    )
    .map_err(err_str)
}

fn write_atomically(t: &Tracer, path: &Path, bytes: &[u8]) -> Result<(), String> {
    t.span(
        "core.fs.atomic_write",
        || atomic_write(path, bytes),
        |_| bytes.len() as u64,
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The pipeline config `characterization_config` in `src/main.rs` builds
/// from `--slice-ms`/`--lenient`, with every pool at width 1.
pub fn pipeline_config(slice_ms: u64, lenient: bool) -> CharacterizationConfig {
    CharacterizationConfig {
        profile: ProfileConfig {
            slice: slice_ms * MILLIS,
            estimate_missing: lenient,
            threads: Some(1),
            ..Default::default()
        },
        ingest: IngestConfig {
            mode: if lenient {
                IngestMode::Lenient
            } else {
                IngestMode::Strict
            },
        },
        supervise: SuperviseConfig {
            threads: Some(1),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// `pipeline::characterize`, one span per stage.
pub fn characterize(
    t: &Tracer,
    model: &ExecutionModel,
    rules: &RuleSet,
    trace: &ExecutionTrace,
    resources: &ResourceTrace,
    cfg: &CharacterizationConfig,
    mut report: IngestReport,
) -> Characterization {
    let profile = t.span(
        "core.attribution.profile",
        || build_profile(model, rules, trace, resources, &cfg.profile),
        |p| p.grid.num_slices() as u64,
    );
    report.slices_estimated = profile.estimated_slices();
    report.slices_total = profile.total_slices();
    let slices = profile.grid.num_slices() as u64;
    let bottlenecks = t.span(
        "core.bottleneck",
        || BottleneckReport::build(trace, &profile, &cfg.bottleneck),
        |_| slices,
    );
    let base = t.span(
        "core.replay",
        || replay_original(model, trace, &cfg.replay),
        |_| trace.instances().len() as u64,
    );
    let issues = t.span(
        "core.issues",
        || {
            let mut issues = detect_bottleneck_issues(
                model,
                trace,
                &profile,
                &bottlenecks,
                &cfg.replay,
                &cfg.issues,
            );
            issues.extend(detect_imbalance_issues(
                model,
                trace,
                &cfg.replay,
                &cfg.issues,
            ));
            issues.sort_by(|a, b| b.reduction.total_cmp(&a.reduction));
            issues
        },
        |i| i.len() as u64,
    );
    Characterization {
        profile,
        bottlenecks,
        base_makespan: base.makespan,
        issues,
        ingest: report,
    }
}

/// `print_characterization` in `src/main.rs`, into a string.
pub fn render_characterization(
    t: &Tracer,
    model: &ExecutionModel,
    trace: &ExecutionTrace,
    result: &Characterization,
    gantt: bool,
) -> String {
    let mut out = t.span(
        "core.report.text",
        || {
            let mut out = String::new();
            if !result.ingest.is_clean() {
                let _ = writeln!(out, "ingestion repaired a degraded input:");
                out.push_str(&ingest_table(&result.ingest).render());
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "baseline makespan (replayed): {:.2}s",
                result.base_makespan as f64 / 1e9
            );
            let _ = writeln!(out, "\ncluster utilization:");
            out.push_str(&machine_table(&result.profile).render());
            let _ = writeln!(out, "\nattributed consumption by phase type:");
            out.push_str(&usage_table(&result.profile, model, trace).render());
            let _ = writeln!(out, "\nblocked time by phase type:");
            let mut any = false;
            for ((ty, res), secs) in result.bottlenecks.blocked_time_by_type(trace) {
                if secs > 0.01 {
                    let _ = writeln!(
                        out,
                        "  {} blocked on {res}: {secs:.2}s",
                        model.type_path(ty)
                    );
                    any = true;
                }
            }
            if !any {
                let _ = writeln!(out, "  (none above 10 ms)");
            }
            let _ = writeln!(out, "\nissues, most impactful first:");
            if result.issues.is_empty() {
                let _ = writeln!(out, "  (none above threshold)");
            }
            for line in result.summary(model) {
                let _ = writeln!(out, "  - {line}");
            }
            let _ = writeln!(out, "\ncritical path (replayed), time per phase type:");
            let cp = critical_path(model, trace, &Default::default());
            for (path, secs) in cp.rows(model) {
                let _ = writeln!(out, "  {path:<55} {secs:>7.2}s");
            }
            out
        },
        |s| s.len() as u64,
    );
    if gantt {
        let _ = writeln!(out, "\nexecution gantt (top 3 levels):");
        out.push_str(&t.span(
            "core.report.gantt",
            || render_gantt(model, trace, &GanttConfig::default()),
            |s| s.len() as u64,
        ));
    }
    out
}

/// `grade10 demo --gantt --export-logs LOGS --html HTML` on the pristine
/// path. Returns what the program prints on stdout.
pub fn demo(t: &Tracer, spec: &WorkloadSpec, logs: &Path, html: &Path) -> Result<String, String> {
    let run = run_workload(t, spec);
    std::fs::create_dir_all(logs).map_err(err_str)?;
    let events = raw_events(t, &run.sim.logs);
    let jsonl = events_jsonl(t, &events).map_err(err_str)?;
    write_atomically(t, &logs.join("events.jsonl"), &jsonl)?;
    let exported = t.span("engines.bridge", || run.resource_trace(8), |_| 0);
    write_atomically(
        t,
        &logs.join("resources.json"),
        &resources_json(t, &exported)?,
    )?;

    let resources = t.span("engines.bridge", || run.resource_trace(8), |_| 0);
    let cfg = pipeline_config(10, false);
    let result = characterize(
        t,
        &run.model,
        &run.rules_tuned,
        &run.trace,
        &resources,
        &cfg,
        IngestReport::default(),
    );
    let text = render_characterization(t, &run.model, &run.trace, &result, true);
    let page = t.span(
        "core.report.html",
        || {
            let cfg = HtmlConfig {
                title: format!("Grade10: {}", spec.name()),
                ..Default::default()
            };
            render_html_report(&run.model, &run.trace, &result, &cfg)
        },
        |s| s.len() as u64,
    );
    write_atomically(t, html, page.as_bytes())?;
    Ok(text)
}

/// Where `grade10 analyze` reads the run from.
pub enum AnalyzeInput<'a> {
    Text {
        events: &'a Path,
        resources: &'a Path,
    },
    Binary(&'a Path),
}

/// What `analyze` loads before the pipeline starts.
pub struct Loaded {
    pub bundle: ModelBundle,
    pub events: Vec<RawEvent>,
    pub monitoring: Vec<RawSeries>,
}

/// The loading half of `grade10 analyze`.
pub fn analyze_load(t: &Tracer, bundle: &Path, input: &AnalyzeInput<'_>) -> Result<Loaded, String> {
    let open = |p: &Path| File::open(p).map_err(|e| format!("open {}: {e}", p.display()));
    let bundle_file = open(bundle)?;
    let bundle = t
        .span(
            "core.model.persist",
            || ModelBundle::load(bundle_file),
            |_| file_len(bundle),
        )
        .map_err(err_str)?;
    let (events, resources) = match input {
        AnalyzeInput::Binary(path) => {
            let bt = t
                .span(
                    "core.trace.binary.decode",
                    || read_trace_file(path),
                    |_| file_len(path),
                )
                .map_err(err_str)?;
            (
                bt.events,
                bt.resources.ok_or("trace has no monitoring section")?,
            )
        }
        AnalyzeInput::Text { events, resources } => {
            let events_file = open(events)?;
            let evs = t
                .span(
                    "core.parse.read_json",
                    || read_events_json(BufReader::new(events_file)),
                    |_| file_len(events),
                )
                .map_err(err_str)?;
            let resources_file = open(resources)?;
            let rt: ResourceTrace = t
                .span(
                    "core.parse.read_json",
                    || serde_json::from_reader(BufReader::new(resources_file)),
                    |_| file_len(resources),
                )
                .map_err(err_str)?;
            (evs, rt)
        }
    };
    let monitoring = RawSeries::from_trace(&resources);
    Ok(Loaded {
        bundle,
        events,
        monitoring,
    })
}

/// `trace::ingest`, with validation/repair and the trace build in spans of
/// their own.
pub fn ingest(
    t: &Tracer,
    model: &ExecutionModel,
    events: &[RawEvent],
    monitoring: &[RawSeries],
    cfg: &IngestConfig,
) -> Result<(ExecutionTrace, ResourceTrace, IngestReport), Grade10Error> {
    let mut report = IngestReport {
        events_total: events.len(),
        ..Default::default()
    };
    let n = events.len() as u64;
    let trace = match cfg.mode {
        IngestMode::Strict => {
            t.span(
                "core.trace.repair.strict",
                || validate_event_stream(events),
                |_| n,
            )?;
            t.span(
                "core.parse.build_trace",
                || build_execution_trace(model, events),
                |_| n,
            )?
        }
        IngestMode::Lenient => {
            let repaired = t.span(
                "core.trace.repair.lenient",
                || repair_events(events, &mut report),
                |_| n,
            );
            t.span(
                "core.parse.build_trace",
                || build_execution_trace(model, &repaired),
                |_| n,
            )?
        }
    };
    let name = match cfg.mode {
        IngestMode::Strict => "core.trace.repair.strict",
        IngestMode::Lenient => "core.trace.repair.lenient",
    };
    let resources = t.span(
        name,
        || ingest_monitoring(monitoring, cfg, &mut report),
        |_| 0,
    )?;
    Ok((trace, resources, report))
}

/// `grade10 analyze --slice-ms N [--lenient] [--partial]`. Returns stdout
/// and the exit code.
pub fn analyze(
    t: &Tracer,
    bundle: &Path,
    input: &AnalyzeInput<'_>,
    slice_ms: u64,
    lenient: bool,
    partial: bool,
) -> Result<(String, i32), String> {
    let Loaded {
        bundle,
        events,
        monitoring,
    } = analyze_load(t, bundle, input)?;
    let cfg = pipeline_config(slice_ms, lenient);
    if partial {
        let p = t
            .span(
                "core.supervise",
                || {
                    characterize_events_supervised(
                        &bundle.execution,
                        &bundle.rules,
                        &events,
                        &monitoring,
                        &cfg,
                    )
                },
                |_| events.len() as u64,
            )
            .map_err(err_str)?;
        let mut text =
            render_characterization(t, &bundle.execution, &p.trace, &p.characterization, false);
        let _ = writeln!(text, "\nsupervision summary: {}", p.coverage.summary());
        if p.incidents.is_empty() {
            let _ = writeln!(text, "  no incidents");
        } else {
            let _ = writeln!(text, "\nincidents:");
            text.push_str(&incident_table(&p.incidents).render());
        }
        let _ = writeln!(text, "\ncoverage:");
        text.push_str(&coverage_table(&p.coverage).render());
        return Ok((text, if p.is_complete() { 0 } else { 2 }));
    }
    let (trace, resources, report) =
        ingest(t, &bundle.execution, &events, &monitoring, &cfg.ingest).map_err(err_str)?;
    let result = characterize(
        t,
        &bundle.execution,
        &bundle.rules,
        &trace,
        &resources,
        &cfg,
        report,
    );
    Ok((
        render_characterization(t, &bundle.execution, &trace, &result, false),
        0,
    ))
}

/// `run_mix` in `src/main.rs` for a fault-free mix at the strict rung.
fn run_mix(
    t: &Tracer,
    mix: &MixSpec,
    attempt: MixAttempt,
    cache: &Arc<StageCache>,
) -> Result<MixOutcome, Grade10Error> {
    let spec = mix_spec(mix).map_err(Grade10Error::Serialization)?;
    let run = run_workload(t, &spec);
    let events = raw_events(t, &run.sim.logs);
    let monitoring = t.span(
        "engines.bridge",
        || to_raw_series(&run.sim.series, 8),
        |_| 0,
    );
    let mut cfg = pipeline_config(10, attempt.mode != MixMode::Strict);
    cfg.supervise.cache = Some(cache.clone());
    let c = t.span(
        "core.pipeline.characterize_events",
        || characterize_events(&run.model, &run.rules_tuned, &events, &monitoring, &cfg),
        |_| events.len() as u64,
    )?;
    Ok(MixOutcome {
        mix: mix.clone(),
        hash: 0,
        makespan_ns: c.base_makespan,
        classes: c.issue_classes(&run.model),
        incidents: 0,
        degraded: false,
        attempts: 0,
        mode: String::new(),
    })
}

/// `grade10 campaign --spec SPEC --dir DIR --cache CACHE` with one
/// claimant thread. Returns the report the program prints.
pub fn campaign(t: &Tracer, spec: &Path, dir: &Path, cache: &Path) -> Result<String, String> {
    let spec = CampaignSpec::load(spec).map_err(err_str)?;
    let mut opts = CampaignOptions::new(dir.to_path_buf());
    opts.retry = SuperviseConfig::default().retry;
    let cache = Arc::new(StageCache::open(cache).map_err(err_str)?);
    let run = t
        .span(
            "core.campaign.run_campaign",
            || {
                run_campaign(&spec, &opts, |mix, attempt| {
                    run_mix(t, mix, attempt, &cache)
                })
            },
            |r| r.as_ref().map_or(0, |r| r.outcomes.len() as u64),
        )
        .map_err(err_str)?;
    Ok(run.report_text)
}
