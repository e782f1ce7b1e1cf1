//! `grade10` — command-line front end for the characterization pipeline.
//!
//! [`USAGE`] documents every command. Its synopsis lines are also the flag
//! table: [`synopsis`] reads from them which flags each command accepts
//! and which take no value, and README's command-line block is checked
//! against them. Campaign mixes run through the library's
//! [`grade10::engines::run_mix`].

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Write as _};
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::OnceLock;
use std::time::Duration;

use grade10::cluster::{FaultPlan, SimDuration, SimOutput};
use grade10::core::cache::StageCache;
use grade10::core::campaign::{atomic_write, CampaignOptions, CampaignSpec, MixMode, Poll};
use grade10::core::critical_path::critical_path;
use grade10::core::model::{ExecutionModel, ModelBundle, RuleSet};
use grade10::core::obs;
use grade10::core::parse::{read_events_json, write_events_json, EventStream, RawEvent};
use grade10::core::pipeline::{
    characterize_meta, characterize_stream, CharacterizationConfig, MetaCharacterization,
};
use grade10::core::report::{
    coverage_table, incident_table, ingest_table, machine_table, render_gantt, render_html_report,
    self_profile_table, usage_table, GanttConfig, HtmlConfig,
};
use grade10::core::supervise::PartialCharacterization;
use grade10::core::trace::{
    ingest_monitoring, read_trace_file, read_trace_streams, write_trace_file, IngestConfig,
    IngestMode, RawSeries, ResourceIdx, ResourceTrace, MILLIS,
};
use grade10::core::Grade10Error;
use grade10::engines::bridge::{collected_streams, to_raw_events, to_resource_trace};

/// Count heap allocations per thread so `--self-profile` span records can
/// report them; free when no recording session is active.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc;
use grade10::engines::{
    mix_workload, simulate_workload, Algorithm, Dataset, EngineKind, WorkloadSpec,
};
use grade10::graph::algorithms::WorkProfile;

/// `print!` through the one fallible writer: a closed stdout (`grade10
/// analyze … | head -1`) ends the run with an error instead of a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        std::io::stdout().write_fmt(format_args!($($arg)*)).map_err(stdout_error)?
    };
}

/// `println!` through `out!`.
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

fn stdout_error(e: std::io::Error) -> String {
    format!("writing to stdout: {e}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Whatever stdout still buffers is written here, not at exit, where a
    // failure would go unreported.
    let flushed = |status| {
        std::io::stdout().flush().map_err(stdout_error)?;
        Ok(status)
    };
    match run(&args).and_then(flushed) {
        Ok(RunStatus::Clean) => ExitCode::SUCCESS,
        Ok(RunStatus::Partial) => ExitCode::from(2),
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a run failed. Only a usage error is followed by the usage block, so
/// a data, I/O or pipeline error ends on its one-line cause.
enum CliError {
    /// The command line is wrong: an unknown command or flag, or a missing
    /// or malformed flag value.
    Usage(String),
    /// The run failed after its command line was understood.
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Failed(e)
    }
}

/// What a completed run reports through the exit code: `Clean` → 0,
/// `Partial` (supervised run with incidents) → 2. Fatal errors exit 1.
enum RunStatus {
    Clean,
    Partial,
}

const USAGE: &str = "usage:
  grade10 demo [--engine giraph|powergraph|spark]
               [--algorithm pr|bfs|wcc|cdlp|sssp|lcc|prc]
               [--dataset rmat:SCALE|social:VERTICES] [--seed N] [--gantt]
               [--work-profile] [--export-logs DIR] [--html FILE]
               [--inject clock-skew|reorder|drop|duplicate|truncate|monitoring|
                         machine-missing|timestamp-bomb|all|hostile[,..]]
               [--fault-seed N] [--lenient]
               [--partial] [--deadline-ms N] [--max-retries N]
               [--threads N] [--self-profile] [--self-export DIR]
  grade10 campaign --spec FILE --dir DIR [--resume] [--threads N]
                   [--lenient] [--workers N] [--lease-ms N] [--worker NAME]
                   [--cache DIR]
  grade10 campaign --join DIR [--threads N] [--worker NAME] [--cache DIR]
  grade10 campaign --status DIR
  grade10 export-model --engine giraph|powergraph [-o FILE]
  grade10 analyze --model BUNDLE.json
                  (--events EVENTS.jsonl --resources RESOURCES.json
                   | --trace TRACE.g10t)
                  [--slice-ms N] [--gantt] [--html FILE]
                  [--lenient] [--partial] [--deadline-ms N] [--max-retries N]
                  [--threads N] [--self-profile] [--self-export DIR]
  grade10 convert --events EVENTS.jsonl [--resources RESOURCES.json]
                  -o TRACE.g10t
  grade10 convert --trace TRACE.g10t --out-dir DIR

convert translates between the JSON-lines text formats and the
checksummed binary trace container (see docs/FORMATS.md); analyze
ingests either form.

--partial runs the pipeline supervised: panics, deadline overruns, and
over-budget grids degrade or drop per-machine units instead of aborting,
and the report ends with incident and coverage tables.

campaign runs a declarative mix matrix (TOML/JSON spec) under a durable
envelope: finished mixes are content-hash cached, progress is journaled,
and a killed campaign resumes with --resume without recomputing finished
mixes or changing a byte of the final report. --workers N drains the
matrix with N cooperating processes; any machine sharing the campaign
directory can add workers with --join DIR (ownership is leased through
the journal, so SIGKILLed workers are reclaimed by their peers). The
spec, --lenient and --lease-ms are fixed at launch in DIR/campaign.json:
--join reads all three, --resume the mode and the lease (which
--resume --lease-ms N replaces). --status DIR prints read-only progress
while workers are live. The substrate: line on stderr counts the graphs
and simulations of this process only; peer K's is in DIR/worker-K.log.

--cache DIR keeps the result of each ladder rung a mix runs, its outcome
or its error, in a stage cache that campaigns can share: a rung whose
result is stored is answered without simulating or characterizing
anything. A mix that retries down the ladder simulates once either way.
Cached and uncached runs are byte-identical.

exit codes:
  0  clean characterization / campaign
  2  partial: supervised run or campaign completed with incidents
  1  fatal error, no characterization produced";

/// A command's flags: `--key value` pairs, and `--switch` mapped to "true".
type Flags = HashMap<String, String>;

/// The flag table, read from the synopsis of [`USAGE`] (the lines before
/// its first blank line): one `(command, flag, switch)` per flag of each
/// command's stanzas. A flag directly followed by `]` or `|` is a switch;
/// every other flag takes the placeholder after it.
fn synopsis() -> Vec<(&'static str, &'static str, bool)> {
    let mut table = Vec::new();
    let mut cmd = "";
    for line in USAGE.split("\n\n").next().unwrap_or_default().lines() {
        let mut words = line.split_whitespace();
        if words.next() == Some("grade10") {
            cmd = words.next().unwrap_or_default();
        }
        let starts = line.match_indices('-').map(|(i, _)| i);
        for i in starts.filter(|&i| i > 0 && b" [(|".contains(&line.as_bytes()[i - 1])) {
            let rest = &line[i..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            let switch = matches!(rest[end..].chars().next(), Some(']' | '|'));
            table.push((cmd, &rest[..end], switch));
        }
    }
    table
}

fn run(args: &[String]) -> Result<RunStatus, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("no command given".into()))?;
    let flags = parse_flags(rest).map_err(CliError::Usage)?;
    type Command = fn(&Flags) -> Result<RunStatus, CliError>;
    let command: Command = match cmd.as_str() {
        "demo" => demo,
        "campaign" => campaign,
        "export-model" => export_model,
        "analyze" => analyze,
        "convert" => convert,
        other => return Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    // Every flag the command reads on any path is in its synopsis. Any
    // other flag is a typo that would otherwise silently fall back to a
    // default.
    let table = synopsis();
    let unknown = flags
        .keys()
        .filter(|k| !table.iter().any(|&(c, f, _)| c == cmd && f == *k));
    if let Some(key) = unknown.min() {
        return Err(CliError::Usage(format!("unknown flag '{key}' for {cmd}")));
    }
    // A flag that only modifies another flag would silently do nothing
    // without it.
    let modifiers = [
        ("--deadline-ms", "--partial"),
        ("--max-retries", "--partial"),
        ("--fault-seed", "--inject"),
        ("--self-export", "--self-profile"),
    ];
    let orphan = modifiers
        .iter()
        .find(|(flag, needs)| flags.contains_key(*flag) && !flags.contains_key(*needs));
    if let Some((flag, needs)) = orphan {
        return Err(CliError::Usage(format!(
            "{flag} applies only with {needs}: add {needs}"
        )));
    }
    command(&flags)
}

/// The value of the flag `key`; `missing` is the usage error without it.
fn required<'a>(flags: &'a Flags, key: &str, missing: &str) -> Result<&'a String, CliError> {
    flags
        .get(key)
        .ok_or_else(|| CliError::Usage(missing.into()))
}

/// Reads the numeric flag `key`, if given; `what` names it in the error.
/// A `NonZero*` type also rejects zero.
fn number<T: FromStr>(flags: &Flags, key: &str, what: &str) -> Result<Option<T>, CliError> {
    flags
        .get(key)
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Usage(format!("bad {what} '{s}'")))
        })
        .transpose()
}

/// `--threads N`: the worker-pool width, at least 1.
fn threads(flags: &Flags) -> Result<Option<usize>, CliError> {
    Ok(number::<NonZeroUsize>(flags, "--threads", "thread count")?.map(NonZeroUsize::get))
}

/// Parses `--key value` pairs plus bare `--switch` flags.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let table = synopsis();
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if !key.starts_with('-') {
            return Err(format!("unexpected argument '{key}'"));
        }
        if table.iter().any(|&(_, f, switch)| switch && f == key) {
            out.insert(key.clone(), "true".into());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag '{key}' needs a value"))?;
        out.insert(key.clone(), value.clone());
        i += 2;
    }
    Ok(out)
}

fn demo(flags: &Flags) -> Result<RunStatus, CliError> {
    let seed = number(flags, "--seed", "seed")?.unwrap_or(46);
    let dataset = match flags.get("--dataset").map(String::as_str) {
        None => Dataset::Rmat { scale: 12, seed },
        Some(spec) => Dataset::parse(spec, seed).map_err(CliError::Usage)?,
    };
    let algorithm = match flags.get("--algorithm") {
        None => Algorithm::PageRank { iterations: 8 },
        Some(name) => Algorithm::parse(name).map_err(CliError::Usage)?,
    };
    // The Spark-like dataflow engine has its own job mapping; every other
    // name is a graph-native engine.
    let engine = match flags.get("--engine").map_or("giraph", String::as_str) {
        "spark" => None,
        name => Some(EngineKind::parse(name, None).map_err(CliError::Usage)?),
    };
    // Parse the fault plan before the (expensive) simulation so a typo'd
    // --inject fails fast.
    let fault_plan = parse_fault_plan(flags)?;
    let run = match engine {
        Some(engine) => simulate_graph_engine(WorkloadSpec {
            dataset,
            algorithm,
            engine,
        }),
        None => simulate_spark(dataset, algorithm),
    };
    if flags.contains_key("--work-profile") {
        outln!("workload iteration profile (whole cluster):");
        let mut t = grade10::core::report::Table::new(&[
            "iter",
            "active",
            "edges",
            "local msgs",
            "remote msgs",
            "balance",
        ]);
        for (i, active, edges, local, remote, balance) in run.work.iteration_rows() {
            t.row(&[
                format!("{i}"),
                format!("{active}"),
                format!("{edges}"),
                format!("{local}"),
                format!("{remote}"),
                format!("{balance:.2}"),
            ]);
        }
        outln!("{}", t.render());
    }

    // From here on only the simulator's output is needed: the pipeline
    // reads what the collectors shipped. The pristine events are bridged
    // only for the export, and the pristine pair only when the pipeline
    // characterizes it.
    let mut streams = None;
    if let Some(dir) = flags.get("--export-logs") {
        let exported;
        let events = match fault_plan {
            Some(_) => {
                exported = to_raw_events(&run.sim.logs);
                &exported
            }
            None => &streams.insert(collected_streams(&run.sim, None)).0,
        };
        // The monitoring ships at the recommended 8x downsampling.
        let rt = to_resource_trace(&run.sim.series, 8);
        let (events_path, resources_path) = write_streams(dir, events, Some(&rt))?;
        eprintln!("exported {events_path} and {resources_path}");
    }
    // Pristine or corrupted, the streams enter through the ingestion layer
    // like any external data would.
    if let Some(plan) = &fault_plan {
        let classes: Vec<&str> = plan.enabled().iter().map(|c| c.name()).collect();
        eprintln!(
            "injecting faults [{}] with seed {}",
            classes.join(", "),
            plan.seed
        );
        streams = Some(collected_streams(&run.sim, Some(plan)));
    }
    let (raw, monitoring) = streams.unwrap_or_else(|| collected_streams(&run.sim, None));
    drop(run.sim);
    // Interned once here, so the raw events go before the pipeline runs.
    let events = EventStream::from_events(&raw);
    drop(raw);
    let cfg = characterization_config(flags, 10)?;
    let (model, rules, title) = (&run.model, &run.rules, &run.title);
    characterize_and_report(model, rules, &events, &monitoring, &cfg, flags, title)
}

/// What a demo's simulation leaves for the shared tail to bridge, export,
/// inject and characterize.
struct DemoRun {
    title: String,
    model: ExecutionModel,
    rules: RuleSet,
    sim: SimOutput,
    work: WorkProfile,
}

/// Runs a workload on a graph-native engine (Giraph or PowerGraph). The
/// graph is dropped before the pipeline runs.
fn simulate_graph_engine(spec: WorkloadSpec) -> DemoRun {
    eprintln!("running {} ...", spec.name());
    let run = simulate_workload(&spec, &spec.dataset.generate());
    eprintln!(
        "done: simulated runtime {:.2}s, {} log records",
        run.sim.end_time.as_secs_f64(),
        run.sim.logs.len()
    );
    let expert = spec.engine.expert_input();
    DemoRun {
        title: spec.name(),
        model: expert.model,
        rules: expert.rules_tuned,
        sim: run.sim,
        work: run.work,
    }
}

/// Runs a GraphX-flavored job on the Spark-like dataflow engine (§V).
fn simulate_spark(dataset: Dataset, algorithm: Algorithm) -> DemoRun {
    use grade10::engines::dataflow::{
        dataflow_model, dataflow_rules_tuned, run_dataflow, DataflowConfig, JobSpec,
    };
    use grade10::graph::partition::EdgeCutPartition;

    let cfg = DataflowConfig::default();
    let graph = dataset.generate();
    let partitions = cfg.machines * cfg.executors * 2;
    let part = EdgeCutPartition::hash(&graph, partitions);
    let work = algorithm.run(&graph, &part);
    let job = JobSpec::from_work_profile(&work, 1.0e-4, 200.0, cfg.machines);
    eprintln!(
        "running {}-{} as a dataflow job ({} stages x {partitions} tasks) ...",
        algorithm.name(),
        dataset.name(),
        job.stages.len()
    );
    let sim = run_dataflow(&job, &cfg);
    eprintln!("done: simulated runtime {:.2}s", sim.end_time.as_secs_f64());
    let (model, phases) = dataflow_model();
    DemoRun {
        title: format!("{}-{}-spark", algorithm.name(), dataset.name()),
        rules: dataflow_rules_tuned(&phases, cfg.cores),
        model,
        sim,
        work,
    }
}

/// Runs (or resumes) a screening campaign from a declarative spec file.
fn campaign(flags: &Flags) -> Result<RunStatus, CliError> {
    if let Some(dir) = flags.get("--status") {
        return campaign_status_cmd(dir);
    }
    let resume = flags.contains_key("--resume");
    let join = flags.get("--join");
    if join.is_some() && resume {
        return Err(CliError::Usage(
            "--join and --resume are mutually exclusive: --resume leads a new epoch over a \
             dead fleet, --join joins a live one"
                .to_string(),
        ));
    }
    // campaign.json fixes the base mode and the lease at launch: --join
    // reads both, --resume reads the mode and may set a new lease.
    let fixed = [
        ("--lenient", resume || join.is_some()),
        ("--lease-ms", join.is_some()),
    ];
    if let Some((key, _)) = fixed.iter().find(|&&(k, f)| f && flags.contains_key(k)) {
        let by = if resume { "--resume" } else { "--join" };
        let why = format!("{key} is fixed at launch: {by} reads it from campaign.json");
        return Err(CliError::Usage(why));
    }
    let workers =
        number::<NonZeroUsize>(flags, "--workers", "worker count")?.map_or(1, NonZeroUsize::get);
    if workers > 1 && join.is_some() {
        return Err(CliError::Usage(
            "--workers spawns joiners; a --join process is already one".to_string(),
        ));
    }
    let (spec, dir) = match join {
        Some(dir) => (None, dir),
        None => {
            let spec_path = required(flags, "--spec", "campaign needs --spec FILE")?;
            let dir = required(flags, "--dir", "campaign needs --dir DIR")?;
            let spec = CampaignSpec::load(Path::new(spec_path)).map_err(|e| e.to_string())?;
            (Some(spec), dir)
        }
    };
    // The launch record of the epoch: a joiner takes the spec, base mode
    // and lease from it, a resumed leader the base mode and lease (a
    // directory from before manifests resumes strict on the default
    // lease). The leader writes it before its first claim; a joiner started
    // by hand may look earlier, so it polls with short naps (at most
    // 50 ms): a flat 50 ms nap delayed the first claim by that much
    // whenever it looked too early.
    let manifest = Path::new(dir).join("campaign.json");
    if join.is_some() {
        Poll::new(Duration::from_millis(50)).until(|| manifest.exists());
    }
    let launch = (join.is_some() || resume && manifest.exists())
        .then(|| grade10::core::campaign::load_manifest(Path::new(dir)))
        .transpose()
        .map_err(|e| e.to_string())?;
    let mut opts = CampaignOptions::new(PathBuf::from(dir));
    if flags.contains_key("--lenient") {
        opts.base_mode = MixMode::Lenient;
    }
    let spec = match (spec, launch) {
        (spec, Some((launched, base_mode, lease_ms))) => {
            (opts.base_mode, opts.lease_ms) = (base_mode, lease_ms);
            spec.unwrap_or(launched)
        }
        (Some(spec), None) => spec,
        (None, None) => return Err(CliError::Usage("campaign needs --spec FILE".into())),
    };
    if let Some(lease) = number::<NonZeroU64>(flags, "--lease-ms", "lease")? {
        opts.lease_ms = lease.get();
    }
    let mixes = spec.expand();
    // Validate every axis value up front: a typo'd algorithm name should
    // fail the launch, not surface as one incident per affected mix.
    for mix in &mixes {
        mix_workload(mix)?;
    }
    let width = grade10::core::config::resolve_threads(threads(flags)?, mixes.len());
    opts.resume = resume;
    opts.join = join.is_some();
    opts.width = width;
    if let Some(name) = flags.get("--worker") {
        opts.worker = name.clone();
    }
    eprintln!(
        "campaign {}: {} mixes over {} worker{}{}{}",
        spec.name,
        mixes.len(),
        width,
        if width == 1 { "" } else { "s" },
        if workers > 1 {
            format!(" in each of {workers} processes")
        } else {
            String::new()
        },
        if opts.resume {
            " (resuming)"
        } else if opts.join {
            " (joining)"
        } else {
            ""
        }
    );
    // The stage cache keeps each rung's result: a hit answers the rung
    // outright, skipping the simulation (the bulk of a mix) and the
    // pipeline. Within one directory the store already answers every
    // finished mix, so a cache pays only when --cache shares it between
    // campaigns.
    let cache = flags.get("--cache").map(|d| StageCache::open(Path::new(d)));
    let cache = cache.transpose().map_err(|e| e.to_string())?;
    // Peers join the epoch this process leads, so they start on its first
    // claim: run_campaign claims only once the epoch's journal (with a
    // resume's `launch` record) and campaign.json are on disk.
    let peers = OnceLock::new();
    let run = grade10::core::campaign::run_campaign(&spec, &opts, |mix, attempt| {
        peers.get_or_init(|| spawn_peer_workers(dir, workers, flags));
        grade10::engines::run_mix(mix, &spec.code_version, attempt, cache.as_ref())
    });
    let children = peers.into_inner().transpose()?.unwrap_or_default();
    let run = run.map_err(|e| e.to_string())?;
    let mut peers_partial = false;
    for (n, mut child) in (2..).zip(children) {
        let status = child
            .wait()
            .map_err(|e| format!("waiting for worker {n}: {e}"))?;
        match status.code() {
            Some(0) => {}
            Some(2) => peers_partial = true,
            _ => {
                let why = format!("worker process {n} failed ({status}); see {dir}/worker-{n}.log");
                return Err(CliError::Failed(why));
            }
        }
    }
    eprintln!(
        "campaign {}: {} executed, {} cached, {} failed, {} journal records quarantined",
        spec.name, run.executed, run.cached, run.failed, run.quarantined_journal
    );
    eprintln!("{}", grade10::engines::workload::substrate_line());
    if let Some(c) = &cache {
        eprintln!("{}", grade10::core::report::stage_cache_line(&c.stats()));
    }
    out!("{}", run.report_text);
    eprintln!("wrote {dir}/report.txt and {dir}/report.json");
    Ok(if run.is_clean() && !peers_partial {
        RunStatus::Clean
    } else {
        RunStatus::Partial
    })
}

/// Spawns `workers - 1` peer `grade10 campaign --join` processes against
/// `dir`, each logging to `dir/worker-N.log`. The calling process is
/// worker 1. Peers get only the per-process `--threads` and `--cache`;
/// they read the rest from `campaign.json`.
fn spawn_peer_workers(
    dir: &str,
    workers: usize,
    flags: &Flags,
) -> Result<Vec<std::process::Child>, String> {
    let mut children = Vec::new();
    for i in 2..=workers {
        let log_path = Path::new(dir).join(format!("worker-{i}.log"));
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("creating {}: {e}", log_path.display()))?;
        let log_err = log
            .try_clone()
            .map_err(|e| format!("cloning log handle: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("locating grade10 binary: {e}"))?;
        let mut cmd = std::process::Command::new(exe);
        cmd.args(["campaign", "--join", dir]);
        for key in ["--threads", "--cache"] {
            if let Some(v) = flags.get(key) {
                cmd.arg(key).arg(v);
            }
        }
        let child = cmd.stdout(log).stderr(log_err).spawn();
        children.push(child.map_err(|e| format!("spawning worker {i}: {e}"))?);
    }
    Ok(children)
}

/// `campaign --status DIR`: print a read-only progress summary derived
/// purely from the journal and store. Safe while workers are live.
fn campaign_status_cmd(dir: &str) -> Result<RunStatus, CliError> {
    let st = grade10::core::campaign::campaign_status(Path::new(dir)).map_err(|e| e.to_string())?;
    outln!("campaign {} in {dir}", st.campaign);
    let mut t = grade10::core::report::Table::new(&["state", "mixes"]);
    t.row(&["finished".to_string(), st.finished.to_string()]);
    t.row(&["claimed".to_string(), st.claimed.to_string()]);
    t.row(&["stale".to_string(), st.stale.to_string()]);
    t.row(&["failed".to_string(), st.failed.to_string()]);
    t.row(&["poisoned".to_string(), st.poisoned.to_string()]);
    t.row(&["pending".to_string(), st.pending.to_string()]);
    out!("{}", t.render());
    outln!(
        "{} of {} mixes done; report {}written{}",
        st.finished + st.failed + st.poisoned,
        st.total,
        if st.report_written { "" } else { "not yet " },
        if st.quarantined_journal > 0 {
            format!("; {} journal records quarantined", st.quarantined_journal)
        } else {
            String::new()
        }
    );
    Ok(RunStatus::Clean)
}

/// The one call every command makes: runs the lifecycle over the collected
/// streams, the events already interned — supervised under `--partial`,
/// inline otherwise — and prints the characterization, under `--partial`
/// followed by the incidents and coverage tables. Maps the outcome to an
/// exit status: `Partial` when any incident was recorded.
fn characterize_and_report(
    model: &ExecutionModel,
    rules: &RuleSet,
    events: &EventStream,
    monitoring: &[RawSeries],
    cfg: &CharacterizationConfig,
    flags: &Flags,
    title: &str,
) -> Result<RunStatus, CliError> {
    let partial = flags.contains_key("--partial");
    // Under `--self-profile` the pipeline's own execution is recorded...
    let recording = flags.contains_key("--self-profile").then(obs::start);
    let p = characterize_stream(partial, model, rules, events, monitoring, cfg)
        .map_err(|e| ingest_error(&e, cfg.ingest.mode))?;
    eprintln!(
        "analyzed {title} ({} phase instances, {} events)",
        p.trace.instances().len(),
        p.characterization.ingest.events_total
    );
    print_characterization(model, &p, flags.contains_key("--gantt"))?;
    if partial {
        print_supervision(&p)?;
    }
    // ...and characterized once the normal report is out.
    if let Some(recording) = recording {
        let meta = characterize_meta(&recording.finish())
            .map_err(|e| format!("self-characterization failed: {e}"))?;
        print_self_profile(&meta)?;
        if let Some(dir) = flags.get("--self-export") {
            export_self_trace(&meta, dir)?;
        }
    }
    if let Some(path) = flags.get("--html") {
        let config = HtmlConfig {
            title: format!("Grade10: {title}"),
            ..Default::default()
        };
        let html = render_html_report(model, &p.trace, &p.characterization, &config);
        atomic_write(Path::new(path), html.as_bytes()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(if p.is_complete() {
        RunStatus::Clean
    } else {
        RunStatus::Partial
    })
}

/// Prints the supervision epilogue: coverage summary, incident table, and
/// the per-machine / per-stage coverage table.
fn print_supervision(p: &PartialCharacterization) -> Result<(), String> {
    outln!("\nsupervision summary: {}", p.coverage.summary());
    if p.incidents.is_empty() {
        outln!("  no incidents");
    } else {
        outln!("\nincidents:");
        out!("{}", incident_table(&p.incidents).render());
    }
    outln!("\ncoverage:");
    out!("{}", coverage_table(&p.coverage).render());
    Ok(())
}

/// Builds the pipeline config from the shared CLI flags: `--lenient` picks
/// the ingestion mode and, with it, demand-based estimation of slices whose
/// monitoring was lost; `--deadline-ms` and `--max-retries` tune the
/// supervision layer used by `--partial`; `--threads` pins the width of
/// the run's worker pool (beating `GRADE10_THREADS`, which beats the
/// machine size).
fn characterization_config(
    flags: &Flags,
    slice_ms: u64,
) -> Result<CharacterizationConfig, CliError> {
    let deadline = number(flags, "--deadline-ms", "deadline")?;
    let max_retries = number(flags, "--max-retries", "retry count")?;
    let lenient = flags.contains_key("--lenient");
    let mut cfg = CharacterizationConfig::new(lenient, slice_ms * MILLIS, threads(flags)?);
    cfg.supervise.deadline = deadline.map(Duration::from_millis);
    if let Some(n) = max_retries {
        cfg.supervise.max_retries = n;
    }
    Ok(cfg)
}

/// Renders a pipeline failure, pointing to `--lenient` when strict
/// ingestion rejected damage that lenient repair can fix.
fn ingest_error(e: &Grade10Error, mode: IngestMode) -> String {
    use Grade10Error::{InvalidMonitoring, InvalidTrace, MalformedLog};
    match e {
        MalformedLog(_) | InvalidTrace(_) | InvalidMonitoring(_) if mode == IngestMode::Strict => {
            let hint = "the input looks damaged, not malformed: retry with --lenient to repair it";
            format!("{e}\n({hint})")
        }
        _ => e.to_string(),
    }
}

/// Parses `--inject CLASS[,CLASS...]` (+ `--fault-seed`) into a plan.
fn parse_fault_plan(flags: &Flags) -> Result<Option<FaultPlan>, CliError> {
    let Some(spec) = flags.get("--inject") else {
        return Ok(None);
    };
    let seed = number(flags, "--fault-seed", "fault seed")?.unwrap_or(1);
    Ok(Some(FaultPlan::parse(spec, seed).map_err(CliError::Usage)?))
}

/// Writes a run's streams in the offline-analysis formats into `dir`,
/// creating it: `events.jsonl` (raw log events) and, when given,
/// `resources.json` (the resource trace). Returns the two paths. Each
/// artifact is rendered in memory before either is written, and written
/// atomically (temp sibling + rename): a consumer polling the directory
/// never sees a truncated file, even if this process dies mid-export.
fn write_streams(
    dir: &str,
    events: &[RawEvent],
    resources: Option<&ResourceTrace>,
) -> Result<(String, String), String> {
    let events_path = format!("{dir}/events.jsonl");
    let resources_path = format!("{dir}/resources.json");
    let resources_json = resources
        .map(|rt| {
            json_safe(rt).map_err(|e| e.to_string())?;
            serde_json::to_vec(rt).map_err(|e| e.to_string())
        })
        .transpose()
        .map_err(|e| format!("render {resources_path}: {e}"))?;
    let mut buf = Vec::new();
    write_events_json(events, &mut buf).map_err(|e| format!("render {events_path}: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    atomic_write(Path::new(&events_path), &buf).map_err(|e| format!("write {events_path}: {e}"))?;
    if let Some(json) = resources_json {
        atomic_write(Path::new(&resources_path), &json)
            .map_err(|e| format!("write {resources_path}: {e}"))?;
    }
    Ok((events_path, resources_path))
}

/// JSON has no NaN or infinity: `serde_json` writes them as `null`, which
/// [`read_resources`] rejects. A binary trace that carries one (it keeps
/// every sample bit for bit, so the NaN ones the `monitoring` fault makes
/// too) cannot be exported as text.
fn json_safe(rt: &ResourceTrace) -> Result<(), Grade10Error> {
    for (r, inst) in rt.instances().iter().enumerate() {
        let unsafe_value = |what: String| {
            Grade10Error::Serialization(format!(
                "resource '{}' {what} is not finite; JSON cannot carry it",
                inst.label()
            ))
        };
        if !inst.capacity.is_finite() {
            return Err(unsafe_value(format!("capacity {}", inst.capacity)));
        }
        let ms = rt.measurements(ResourceIdx(r as u32));
        if let Some(m) = ms.iter().find(|m| !m.avg.is_finite()) {
            return Err(unsafe_value(format!(
                "sample {} in window [{}, {})",
                m.avg, m.start, m.end
            )));
        }
    }
    Ok(())
}

fn export_model(flags: &Flags) -> Result<RunStatus, CliError> {
    let engine = required(flags, "--engine", "export-model needs --engine")?;
    let bundle = EngineKind::parse(engine, None)
        .map_err(CliError::Usage)?
        .model_bundle();
    match flags.get("-o") {
        Some(path) => {
            atomic_write(Path::new(path), bundle.to_json().as_bytes())
                .map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => outln!("{}", bundle.to_json()),
    }
    Ok(RunStatus::Clean)
}

fn analyze(flags: &Flags) -> Result<RunStatus, CliError> {
    let bundle_path = required(flags, "--model", "analyze needs --model")?;
    let slice_ms = number::<NonZeroU64>(flags, "--slice-ms", "slice")?.map_or(10, NonZeroU64::get);

    let bundle = ModelBundle::load(open(bundle_path)?).map_err(|e| e.to_string())?;
    // Neither reader validates the monitoring payload (NaN or negative
    // samples pass straight through serde and the binary decoder alike), so
    // both streams enter through the ingestion layer: strict mode rejects
    // damage with a classified error, `--lenient` repairs it and reports
    // the repairs.
    let resources = |path| read_resources(path).map(|rt| RawSeries::from_trace(&rt));
    let (events, monitoring);
    if let Some(trace_path) = flags.get("--trace") {
        // Binary container: events plus (usually) embedded monitoring.
        // The reader checks the container — magic, version, section
        // checksums — and any damage surfaces as a classified error here
        // instead of a garbage characterization; the streams it returns
        // are what was written, the events already interned.
        let series;
        (events, series) =
            read_trace_streams(Path::new(trace_path)).map_err(|e| format!("{trace_path}: {e}"))?;
        monitoring = match flags.get("--resources") {
            // An explicit monitoring file overrides the embedded section.
            Some(rp) => resources(rp)?,
            None => series.ok_or_else(|| {
                format!("{trace_path} has no monitoring section; pass --resources RESOURCES.json")
            })?,
        };
    } else {
        let events_path = required(flags, "--events", "analyze needs --events (or --trace)")?;
        let resources_path = required(
            flags,
            "--resources",
            "analyze needs --resources (or --trace)",
        )?;
        // Interned as read, so the raw events go before the pipeline runs.
        events = EventStream::from_events(&read_events(events_path)?);
        monitoring = resources(resources_path)?;
    }
    let cfg = characterization_config(flags, slice_ms)?;
    characterize_and_report(
        &bundle.execution,
        &bundle.rules,
        &events,
        &monitoring,
        &cfg,
        flags,
        &bundle.framework,
    )
}

/// Translates between the JSON-lines text formats and the binary trace
/// container. Text → binary needs `--events` (and optionally
/// `--resources`) plus `-o`; binary → text needs `--trace` plus
/// `--out-dir`, which receives `events.jsonl` and, when the container has
/// a monitoring section, `resources.json`.
fn convert(flags: &Flags) -> Result<RunStatus, CliError> {
    if let Some(trace_path) = flags.get("--trace") {
        let out_dir = required(flags, "--out-dir", "convert --trace needs --out-dir")?;
        let bt =
            read_trace_file(Path::new(trace_path)).map_err(|e| format!("{trace_path}: {e}"))?;
        let (events_path, resources_path) =
            write_streams(out_dir, &bt.events, bt.resources.as_ref())?;
        let mut wrote = format!("{events_path} ({} events)", bt.events.len());
        if let Some(rt) = &bt.resources {
            wrote = format!(
                "{wrote}, {resources_path} ({} resources)",
                rt.instances().len()
            );
        }
        eprintln!("wrote {wrote}");
        return Ok(RunStatus::Clean);
    }
    let events_path = required(
        flags,
        "--events",
        "convert needs --events (text to binary) or --trace (binary to text)",
    )?;
    let out_path = required(flags, "-o", "convert --events needs -o OUT.g10t")?;
    let events = read_events(events_path)?;
    let resources = flags
        .get("--resources")
        .map(|rp| read_resources(rp))
        .transpose()?;
    write_trace_file(Path::new(out_path), &events, resources.as_ref())
        .map_err(|e| format!("write {out_path}: {e}"))?;
    eprintln!(
        "wrote {out_path} ({} events{})",
        events.len(),
        resources
            .as_ref()
            .map(|rt| format!(", {} resources", rt.instances().len()))
            .unwrap_or_default()
    );
    Ok(RunStatus::Clean)
}

fn open(path: &str) -> Result<File, String> {
    File::open(path).map_err(|e| format!("open {path}: {e}"))
}

/// Reads an `events.jsonl` file, the counterpart of [`write_streams`].
fn read_events(path: &str) -> Result<Vec<RawEvent>, String> {
    read_events_json(BufReader::new(open(path)?)).map_err(|e| format!("{path}: {e}"))
}

/// Reads a `resources.json` file, the counterpart of [`write_streams`].
fn read_resources(path: &str) -> Result<ResourceTrace, String> {
    serde_json::from_reader(BufReader::new(open(path)?)).map_err(|e| format!("{path}: {e}"))
}

/// Prints Grade10's characterization of its own pipeline run.
fn print_self_profile(meta: &MetaCharacterization) -> Result<(), String> {
    outln!("\nself-profile: the pipeline characterized by itself");
    outln!(
        "  {} spans on {} recorder threads over {}",
        meta.raw.spans.len(),
        meta.raw.num_threads(),
        SimDuration::from_nanos(meta.raw.end)
    );
    outln!("\npipeline stage profile:");
    out!("{}", self_profile_table(meta).render());
    outln!("\nrecorder-thread utilization:");
    out!("{}", machine_table(&meta.result.profile).render());
    outln!("\npipeline bottlenecks, most impactful first:");
    if meta.result.issues.is_empty() {
        outln!("  (none above threshold)");
    }
    for line in meta.result.summary(&meta.model) {
        outln!("  - {line}");
    }
    Ok(())
}

/// Writes the meta-trace in the offline-analysis formats (`model.json`,
/// `events.jsonl`, `resources.json`) so `grade10 analyze` can round-trip
/// the pipeline's characterization of itself.
fn export_self_trace(meta: &MetaCharacterization, dir: &str) -> Result<(), String> {
    let rt = ingest_monitoring(
        &meta.series,
        &IngestConfig::default(),
        &mut Default::default(),
    )
    .map_err(|e| format!("self-trace monitoring: {e}"))?;
    let (events_path, resources_path) = write_streams(dir, &meta.events, Some(&rt))?;
    // Atomic like the streams: the exported trio is either fully present
    // or absent per file, never truncated.
    let model_path = format!("{dir}/model.json");
    atomic_write(
        Path::new(&model_path),
        obs::meta_bundle().to_json().as_bytes(),
    )
    .map_err(|e| format!("write {model_path}: {e}"))?;
    eprintln!(
        "exported self-trace; round-trip it with:\n  grade10 analyze --model {model_path} \
         --events {events_path} --resources {resources_path} --slice-ms 1"
    );
    Ok(())
}

fn print_characterization(
    model: &ExecutionModel,
    p: &PartialCharacterization,
    gantt: bool,
) -> Result<(), String> {
    // Under --self-profile the rendering work is itself a pipeline stage.
    let _span = obs::span(obs::Stage::Report);
    let (trace, result) = (&p.trace, &p.characterization);
    if !result.ingest.is_clean() {
        outln!("ingestion repaired a degraded input:");
        out!("{}", ingest_table(&result.ingest).render());
        outln!();
    }
    outln!(
        "baseline makespan (replayed): {:.2}s",
        result.base_makespan as f64 / 1e9
    );
    outln!("\ncluster utilization:");
    out!("{}", machine_table(&result.profile).render());
    outln!("\nattributed consumption by phase type:");
    out!("{}", usage_table(&result.profile, model, trace).render());
    outln!("\nblocked time by phase type:");
    let mut any = false;
    for ((ty, res), secs) in result.bottlenecks.blocked_time_by_type(trace) {
        if secs > 0.01 {
            outln!("  {} blocked on {res}: {secs:.2}s", model.type_path(ty));
            any = true;
        }
    }
    if !any {
        outln!("  (none above 10 ms)");
    }
    outln!("\nissues, most impactful first:");
    if result.issues.is_empty() {
        outln!("  (none above threshold)");
    }
    for line in result.summary(model) {
        outln!("  - {line}");
    }
    outln!("\ncritical path (replayed), time per phase type:");
    // The pipeline's own replay, unless its replay stage fell back.
    let cp = p.critical_path(model);
    let cp = cp.unwrap_or_else(|| critical_path(model, trace, &Default::default()));
    for (path, secs) in cp.rows(model) {
        outln!("  {path:<55} {secs:>7.2}s");
    }
    if gantt {
        outln!("\nexecution gantt (top 3 levels):");
        out!("{}", render_gantt(model, trace, &GanttConfig::default()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn flag_parser_handles_pairs_and_switches() {
        let args: Vec<String> = ["--engine", "giraph", "--gantt", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("--engine").unwrap(), "giraph");
        assert_eq!(f.get("--seed").unwrap(), "7");
        assert!(f.contains_key("--gantt"));
    }

    #[test]
    fn flag_parser_rejects_bare_values_and_dangling_flags() {
        let args = vec!["oops".to_string()];
        assert!(parse_flags(&args).is_err());
        let args = vec!["--engine".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    /// The flags that take no value.
    const SWITCHES: &str = "--gantt --lenient --partial --resume --self-profile --work-profile";

    /// Every flag each command accepts.
    const COMMAND_FLAGS: [(&str, &str); 5] = [
        (
            "demo",
            "--algorithm --dataset --deadline-ms --engine --export-logs --fault-seed --gantt \
             --html --inject --lenient --max-retries --partial --seed --self-export \
             --self-profile --threads --work-profile",
        ),
        (
            "campaign",
            "--cache --dir --join --lease-ms --lenient --resume --spec --status --threads \
             --worker --workers",
        ),
        ("export-model", "--engine -o"),
        (
            "analyze",
            "--deadline-ms --events --gantt --html --lenient --max-retries --model --partial \
             --resources --self-export --self-profile --slice-ms --threads --trace",
        ),
        ("convert", "--events --out-dir --resources --trace -o"),
    ];

    /// A whitespace-separated flag list as a set.
    fn set(flags: &str) -> BTreeSet<&str> {
        flags.split_whitespace().collect()
    }

    /// The flag surface, pinned: a switch parses without a value and every
    /// other flag needs one, and each command accepts exactly its listed
    /// flags (out of every flag any command accepts).
    #[test]
    fn flag_surface_is_pinned() {
        let universe: BTreeSet<&str> = COMMAND_FLAGS.iter().flat_map(|(_, f)| set(f)).collect();
        let switches: BTreeSet<&str> = universe
            .iter()
            .copied()
            .filter(|flag| parse_flags(&[flag.to_string()]).is_ok())
            .collect();
        assert_eq!(switches, set(SWITCHES));
        // The sentinel flag `-~` sorts after every other flag, so the
        // unknown-flag error names it exactly when the command accepts the
        // flag under test. No command runs: the check precedes all work.
        for (cmd, want) in COMMAND_FLAGS {
            let accepted: BTreeSet<&str> = universe
                .iter()
                .copied()
                .filter(|flag| {
                    let mut args = vec![cmd.to_string(), flag.to_string()];
                    if !switches.contains(flag) {
                        args.push("1".to_string());
                    }
                    args.extend(["-~".to_string(), "1".to_string()]);
                    match run(&args) {
                        Err(CliError::Usage(e)) => e == format!("unknown flag '-~' for {cmd}"),
                        _ => panic!("{args:?} must fail on the unknown sentinel flag"),
                    }
                })
                .collect();
            assert_eq!(accepted, set(want), "flags of {cmd}");
        }
    }

    /// The flag table the parser reads from the usage synopsis is the
    /// pinned flag surface.
    #[test]
    fn synopsis_is_the_flag_table() {
        let table = synopsis();
        let switches: BTreeSet<&str> = table.iter().filter(|t| t.2).map(|t| t.1).collect();
        assert_eq!(switches, set(SWITCHES));
        for (cmd, want) in COMMAND_FLAGS {
            let flags: BTreeSet<&str> = table.iter().filter(|t| t.0 == cmd).map(|t| t.1).collect();
            assert_eq!(flags, set(want), "flags of {cmd}");
        }
    }
}
