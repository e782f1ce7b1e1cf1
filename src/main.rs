//! `grade10` — command-line front end for the characterization pipeline.
//!
//! ```text
//! grade10 demo [--engine giraph|powergraph|spark]
//!              [--algorithm pr|bfs|wcc|cdlp|sssp|lcc|prc]
//!              [--dataset rmat:SCALE|social:VERTICES] [--seed N] [--gantt]
//!              [--work-profile] [--export-logs DIR] [--html FILE]
//!              [--inject CLASS[,CLASS...]] [--fault-seed N] [--lenient]
//!              [--partial] [--deadline-ms N] [--max-retries N]
//!              [--threads N] [--self-profile] [--self-export DIR]
//!     Run a simulated workload end to end and print the characterization;
//!     optionally ship the run's logs and monitoring as files that
//!     `grade10 analyze` (and any other tooling) can consume. `--inject`
//!     corrupts the collected streams with seeded faults (clock-skew,
//!     reorder, drop, duplicate, truncate, monitoring, machine-missing,
//!     timestamp-bomb, `all` for the repairable stream damage, or `hostile`
//!     for everything); `--lenient` repairs the damage instead of rejecting
//!     it. `--partial` runs the pipeline *supervised*: per-machine units
//!     are isolated (panics captured, deadlines enforced, grid budgets
//!     checked), failures degrade or drop units instead of aborting, and
//!     the report ends with an incident log and a coverage table.
//!     `--deadline-ms` bounds the wall-clock time of each supervised unit
//!     attempt (off by default): an overrunning attempt stops itself at
//!     its kernel's next checkpoint and fails as a deadline incident;
//!     `--max-retries` bounds the degradation ladder (default 2). Both
//!     are errors without `--partial`. `--threads N` pins the worker-pool
//!     width used by both the upsampling fan-out and supervised
//!     per-machine units; it beats the `GRADE10_THREADS` environment
//!     variable, which beats the machine size. Results are byte-identical
//!     at any width.
//!     `--self-profile` additionally records the pipeline's own execution
//!     and prints Grade10's characterization of itself; `--self-export DIR`
//!     dumps that meta-trace (model + events + monitoring) in the offline
//!     formats so `grade10 analyze` can round-trip it.
//!
//! grade10 campaign --spec FILE --dir DIR [--resume] [--threads N]
//!                  [--lenient] [--workers N] [--lease-ms N] [--worker NAME]
//!                  [--cache DIR|--no-cache]
//! grade10 campaign --join DIR [--threads N] [--lease-ms N] [--worker NAME]
//!                  [--cache DIR|--no-cache]
//! grade10 campaign --status DIR
//!     Run a screening campaign: a declarative TOML/JSON spec (workload ×
//!     dataset × engine × machines × seed × fault plan) expands into a mix
//!     matrix and every mix is characterized under a durable robustness
//!     envelope. Finished mixes are stored under a content hash of their
//!     spec entry and the code version; an append-only, checksummed
//!     journal write-ahead-logs progress with fsync'd completion markers.
//!     A killed campaign resumes with `--resume` without recomputing
//!     finished mixes, and the final report (`DIR/report.txt` +
//!     `DIR/report.json`, ranking mixes by makespan and flagging configs
//!     with unshared bottleneck classes) is byte-identical to an
//!     uninterrupted run. Failing mixes retry with bounded backoff down a
//!     degradation ladder (strict → lenient → partial); a mix that
//!     exhausts the ladder becomes a campaign-level incident instead of
//!     aborting the campaign.
//!
//!     The fleet can span processes and machines: `--workers N` spawns
//!     N−1 peer processes against the same directory, and any process
//!     sharing the filesystem can join a live campaign with `--join DIR`
//!     (it reads the matrix from `DIR/campaign.json`). Workers coordinate
//!     purely through the journal — each mix is leased via a `claimed`
//!     record and heartbeat with `renewed` (`--lease-ms`, default 30s),
//!     so a SIGKILLed worker's lease expires and a peer reclaims its mix;
//!     a mix that kills several consecutive claimants is quarantined as a
//!     poisoned-mix incident instead of crash-looping the fleet. The
//!     ranked report stays byte-identical regardless of worker count or
//!     kill schedule. `--status DIR` prints a read-only progress summary
//!     (finished/claimed/stale/failed/poisoned/pending), safe while
//!     workers are live.
//!
//!     Each mix's collected streams (the simulation's output after fault
//!     injection) are kept in a stage cache (`DIR/stage-cache` by default;
//!     `--cache DIR` relocates it so campaigns can share one, `--no-cache`
//!     disables it), keyed by the mix's spec entry and the code version. A
//!     mix whose record exists skips its simulation — the bulk of a mix —
//!     and a mix that walks the ladder simulates once, not once per rung.
//!     The pipeline itself always recomputes. A summary line on stderr
//!     reports hits, misses, stores, and the hit rate; cached runs are
//!     byte-identical to cold ones. Mixes that share an input graph (the
//!     same dataset and seed) are claimed back to back, and each claimant
//!     thread keeps the last graph it generated, so a graph is generated
//!     once per run of such mixes; a `substrate:` line on stderr reports
//!     graphs generated against mixes simulated.
//!
//! grade10 export-model --engine giraph|powergraph [-o FILE]
//!     Write the built-in expert input (execution model, resource model,
//!     attribution rules) as a reusable JSON bundle.
//!
//! grade10 analyze --model BUNDLE.json
//!                 (--events EVENTS.jsonl --resources RESOURCES.json
//!                  | --trace TRACE.g10t)
//!                 [--slice-ms N] [--gantt]
//!                 [--lenient] [--partial] [--deadline-ms N]
//!                 [--max-retries N] [--threads N]
//!                 [--self-profile] [--self-export DIR]
//!     Offline analysis: characterize logs shipped from a monitored run,
//!     either as the JSON-lines text pair or as one checksummed binary
//!     trace container (`--trace`). With `--lenient`, degraded logs
//!     (out-of-order, truncated, gappy monitoring) are repaired and the
//!     repairs reported instead of aborting the analysis; `--partial`
//!     supervises the run as in `demo`. `--self-profile` works here too —
//!     including on a previously exported self-trace, turning the profiler
//!     on the profiler profiling itself.
//!
//! grade10 convert --events EVENTS.jsonl [--resources RESOURCES.json]
//!                 -o TRACE.g10t
//! grade10 convert --trace TRACE.g10t --out-dir DIR
//!     Translate between the text formats and the versioned,
//!     per-section-checksummed binary trace container (schema in
//!     docs/FORMATS.md). The binary form is one file, loads without JSON
//!     parsing, and detects torn or corrupted data on open.
//! ```
//!
//! Exit codes: `0` — clean characterization; `2` — the supervised pipeline
//! completed but recorded incidents (the characterization is partial; see
//! its incidents and coverage tables); `1` — fatal error, no
//! characterization produced. `campaign` reuses the same taxonomy: `0` —
//! every mix characterized completely; `2` — the campaign completed but
//! with incidents or partial mixes (the report covers the survivors);
//! `1` — fatal (unreadable spec, broken campaign directory).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use grade10::cluster::{FaultClass, FaultPlan, SimDuration};
use grade10::core::campaign::{
    atomic_write, CampaignOptions, CampaignSpec, MixAttempt, MixMode, MixOutcome, MixSpec, Poll,
};
use grade10::core::critical_path::critical_path;
use grade10::core::model::ModelBundle;
use grade10::core::obs;
use grade10::core::Grade10Error;
use grade10::core::parse::{read_events_json, write_events_json, RawEvent};
use grade10::core::pipeline::{
    characterize_events_under, characterize_meta, CharacterizationConfig, MetaCharacterization,
};
use grade10::core::report::{coverage_table, incident_table, ingest_table, machine_table, render_gantt, render_html_report, self_profile_table, usage_table, GanttConfig, HtmlConfig};
use grade10::core::supervise::PartialCharacterization;
use grade10::core::trace::{
    ingest_monitoring, read_trace_file, write_trace_file, ExecutionTrace, IngestConfig,
    IngestMode, RawSeries, ResourceIdx, ResourceTrace, MILLIS,
};

/// Count heap allocations per thread so `--self-profile` span records can
/// report them; free when no recording session is active.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc;
use grade10::engines::gas::GasConfig;
use grade10::engines::models::{gas_resource_model, pregel_resource_model};
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{
    simulate_workload, Algorithm, Dataset, EngineKind, ExpertInput, WorkloadSpec,
};
use grade10::graph::CsrGraph;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
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
                   [--cache DIR|--no-cache]
  grade10 campaign --join DIR [--threads N] [--lease-ms N] [--worker NAME]
                   [--cache DIR|--no-cache]
  grade10 campaign --status DIR
  grade10 export-model --engine giraph|powergraph [-o FILE]
  grade10 analyze --model BUNDLE.json
                  (--events EVENTS.jsonl --resources RESOURCES.json
                   | --trace TRACE.g10t)
                  [--slice-ms N] [--gantt]
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
the journal, so SIGKILLed workers are reclaimed by their peers).
--status DIR prints read-only progress while workers are live.

Each mix's collected streams are kept in a stage cache (default
DIR/stage-cache; relocate with --cache DIR to share one between
campaigns, disable with --no-cache), so a mix whose record exists skips
its simulation and a mix that retries down the ladder simulates once.
Cached and uncached runs are byte-identical.

exit codes:
  0  clean characterization / campaign
  2  partial: supervised run or campaign completed with incidents
  1  fatal error, no characterization produced";

/// A command's flags: `--key value` pairs, and `--switch` mapped to "true".
type Flags = HashMap<String, String>;

/// The flags `characterize_and_report` and `characterization_config` read,
/// for the two commands that characterize.
const CHARACTERIZE_FLAGS: &str =
    "--lenient --partial --deadline-ms --max-retries --threads --gantt --html --self-profile --self-export";

fn run(args: &[String]) -> Result<RunStatus, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("no command given".into()))?;
    let flags = parse_flags(rest).map_err(CliError::Usage)?;
    // Every flag the command reads on any path. Any other flag is a typo
    // that would otherwise silently fall back to a default.
    type Command = fn(&Flags) -> Result<RunStatus, CliError>;
    let (command, known, shared): (Command, &str, &str) = match cmd.as_str() {
        "demo" => (
            demo,
            "--engine --algorithm --dataset --seed --work-profile --export-logs --inject --fault-seed",
            CHARACTERIZE_FLAGS,
        ),
        "campaign" => (
            campaign,
            "--spec --dir --resume --join --status --threads --lenient --workers --lease-ms \
             --worker --cache --no-cache",
            "",
        ),
        "export-model" => (export_model, "--engine -o", ""),
        "analyze" => (
            analyze,
            "--model --events --resources --trace --slice-ms",
            CHARACTERIZE_FLAGS,
        ),
        "convert" => (convert, "--events --resources --trace --out-dir -o", ""),
        other => return Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    let reads = format!("{known} {shared}");
    let unknown = flags
        .keys()
        .filter(|k| !reads.split_whitespace().any(|r| r == *k));
    if let Some(key) = unknown.min() {
        return Err(CliError::Usage(format!("unknown flag '{key}' for {cmd}")));
    }
    // The supervision knobs tune only the supervised policy; without it
    // they would silently do nothing.
    let knobs = ["--deadline-ms", "--max-retries"];
    if let Some(key) = knobs.iter().find(|k| flags.contains_key(**k)) {
        if !flags.contains_key("--partial") {
            return Err(CliError::Usage(format!(
                "{key} applies only to supervised runs: add --partial"
            )));
        }
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
    const SWITCHES: &[&str] = &[
        "--gantt",
        "--work-profile",
        "--lenient",
        "--partial",
        "--resume",
        "--self-profile",
        "--no-cache",
    ];
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if !key.starts_with('-') {
            return Err(format!("unexpected argument '{key}'"));
        }
        if SWITCHES.contains(&key.as_str()) {
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
        Some(spec) => parse_dataset(spec, seed).map_err(CliError::Usage)?,
    };
    let algorithm = match flags.get("--algorithm") {
        None => Algorithm::PageRank { iterations: 8 },
        Some(name) => parse_algorithm(name).map_err(CliError::Usage)?,
    };
    // The Spark-like dataflow engine has its own job mapping; handle it
    // before the graph-native engines.
    let engine = match flags.get("--engine").map_or("giraph", String::as_str) {
        "spark" => return demo_spark(dataset, algorithm, flags),
        name => parse_engine(name, None).map_err(CliError::Usage)?,
    };

    let spec = WorkloadSpec {
        dataset,
        algorithm,
        engine,
    };
    // Parse the fault plan before the (expensive) simulation so a typo'd
    // --inject fails fast.
    let fault_plan = parse_fault_plan(flags)?;
    eprintln!("running {} ...", spec.name());
    let run = simulate_workload(&spec, &spec.dataset.generate());
    if flags.contains_key("--work-profile") {
        println!("workload iteration profile (whole cluster):");
        let mut t = grade10::core::report::Table::new(&[
            "iter", "active", "edges", "local msgs", "remote msgs", "balance",
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
        println!("{}", t.render());
    }
    eprintln!(
        "done: simulated runtime {:.2}s, {} log records",
        run.sim.end_time.as_secs_f64(),
        run.sim.logs.len()
    );

    // From here on only the simulator's output is needed: the pipeline
    // reads what the collectors shipped, bridged once for the export and
    // for itself.
    let sim = run.sim;
    let ExpertInput {
        model, rules_tuned, ..
    } = spec.engine.expert_input();
    let (mut events, mut monitoring) = collected_streams(&sim, None);
    if let Some(dir) = flags.get("--export-logs") {
        // The monitoring ships at the recommended 8x downsampling.
        let rt = grade10::engines::bridge::to_resource_trace(&sim.series, 8);
        let (events_path, resources_path) = write_streams(dir, &events, Some(&rt))?;
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
        (events, monitoring) = collected_streams(&sim, Some(plan));
    }
    drop(sim);
    let cfg = characterization_config(flags, 10)?;
    characterize_and_report(&model, &rules_tuned, &events, &monitoring, &cfg, flags, &spec.name())
}

/// Runs (or resumes) a screening campaign from a declarative spec file.
fn campaign(flags: &Flags) -> Result<RunStatus, CliError> {
    if let Some(dir) = flags.get("--status") {
        return campaign_status_cmd(dir);
    }
    if flags.contains_key("--join") && flags.contains_key("--resume") {
        return Err(CliError::Usage(
            "--join and --resume are mutually exclusive: --resume leads a new epoch over a \
             dead fleet, --join joins a live one"
                .to_string(),
        ));
    }
    // A joiner takes everything from the leader's manifest; a leader
    // takes the spec file and records the manifest for joiners.
    let (spec, dir, manifest_mode, manifest_lease) = if let Some(dir) = flags.get("--join") {
        // The leader writes the manifest right after opening the journal;
        // a joiner spawned alongside it polls for both. The manifest usually
        // lands a few milliseconds after the spawn, so the naps stay short
        // (at most 50 ms): a flat 50 ms nap delayed the joiner's first claim
        // by that much whenever it looked too early.
        let manifest = Path::new(dir).join("campaign.json");
        Poll::new(Duration::from_millis(50)).until(|| manifest.exists());
        let (spec, base, lease) =
            grade10::core::campaign::load_manifest(Path::new(dir)).map_err(|e| e.to_string())?;
        (spec, dir.clone(), Some(base), Some(lease))
    } else {
        let spec_path = required(flags, "--spec", "campaign needs --spec FILE")?;
        let dir = required(flags, "--dir", "campaign needs --dir DIR")?;
        let spec = CampaignSpec::load(Path::new(spec_path)).map_err(|e| e.to_string())?;
        (spec, dir.clone(), None, None)
    };
    let mixes = spec.expand();
    // Validate every axis value up front: a typo'd algorithm name should
    // fail the launch, not surface as one incident per affected mix.
    for mix in &mixes {
        validate_mix(mix)?;
    }
    let width = grade10::core::config::resolve_threads(threads(flags)?, mixes.len());
    let mut opts = CampaignOptions::new(PathBuf::from(&dir));
    opts.resume = flags.contains_key("--resume");
    opts.join = flags.contains_key("--join");
    opts.width = width;
    opts.retry = grade10::core::supervise::SuperviseConfig::default().retry;
    opts.base_mode = manifest_mode.unwrap_or(if flags.contains_key("--lenient") {
        MixMode::Lenient
    } else {
        MixMode::Strict
    });
    if let Some(lease) = manifest_lease {
        opts.lease_ms = lease;
    }
    if let Some(lease) = number::<NonZeroU64>(flags, "--lease-ms", "lease")? {
        opts.lease_ms = lease.get();
    }
    if let Some(name) = flags.get("--worker") {
        opts.worker = name.clone();
    }
    let workers =
        number::<NonZeroUsize>(flags, "--workers", "worker count")?.map_or(1, NonZeroUsize::get);
    if workers > 1 && opts.join {
        return Err(CliError::Usage(
            "--workers spawns joiners; a --join process is already one".to_string(),
        ));
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
    // The stage cache keeps each mix's collected streams, so a mix whose
    // record exists skips its simulation (the bulk of a mix) and goes
    // straight to the pipeline. It lives beside the store by default so a
    // campaign directory is self-contained; --cache points several
    // campaigns at one shared cache, --no-cache opts out entirely.
    let cache = if flags.contains_key("--no-cache") {
        None
    } else {
        let cache_dir = flags
            .get("--cache")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(&dir).join("stage-cache"));
        Some(grade10::core::cache::StageCache::open(&cache_dir).map_err(|e| e.to_string())?)
    };
    // Peer worker processes join over the shared journal; they poll for
    // the leader's journal, so spawning before run_campaign is safe.
    let children = spawn_peer_workers(&dir, workers, flags)?;
    let run = grade10::core::campaign::run_campaign(&spec, &opts, |mix, attempt| {
        run_mix(mix, &spec.code_version, attempt, cache.as_ref())
    })
    .map_err(|e| e.to_string())?;
    let mut peers_partial = false;
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child
            .wait()
            .map_err(|e| format!("waiting for worker {}: {e}", i + 2))?;
        match status.code() {
            Some(0) => {}
            Some(2) => peers_partial = true,
            _ => {
                return Err(CliError::Failed(format!(
                    "worker process {} failed ({status}); see {dir}/worker-{}.log",
                    i + 2,
                    i + 2
                )))
            }
        }
    }
    eprintln!(
        "campaign {}: {} executed, {} cached, {} failed, {} journal records quarantined",
        spec.name, run.executed, run.cached, run.failed, run.quarantined_journal
    );
    eprintln!(
        "substrate: {} graphs generated for {} simulated mixes",
        GRAPHS_GENERATED.load(Ordering::Relaxed),
        MIXES_SIMULATED.load(Ordering::Relaxed)
    );
    if let Some(c) = &cache {
        eprintln!("{}", grade10::core::report::stage_cache_line(&c.stats()));
    }
    print!("{}", run.report_text);
    eprintln!("wrote {dir}/report.txt and {dir}/report.json");
    Ok(if run.is_clean() && !peers_partial {
        RunStatus::Clean
    } else {
        RunStatus::Partial
    })
}

/// Spawns `workers - 1` peer `grade10 campaign --join` processes against
/// `dir`, each logging to `dir/worker-N.log`. The calling process is
/// worker 1.
fn spawn_peer_workers(
    dir: &str,
    workers: usize,
    flags: &Flags,
) -> Result<Vec<std::process::Child>, String> {
    if workers <= 1 {
        return Ok(Vec::new());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating grade10 binary: {e}"))?;
    let mut children = Vec::new();
    for i in 2..=workers {
        let log_path = Path::new(dir).join(format!("worker-{i}.log"));
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("creating {}: {e}", log_path.display()))?;
        let log_err = log
            .try_clone()
            .map_err(|e| format!("cloning log handle: {e}"))?;
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("campaign").arg("--join").arg(dir);
        for key in ["--threads", "--lease-ms", "--cache"] {
            if let Some(v) = flags.get(key) {
                cmd.arg(key).arg(v);
            }
        }
        if flags.contains_key("--no-cache") {
            cmd.arg("--no-cache");
        }
        let child = cmd
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawning worker {i}: {e}"))?;
        children.push(child);
    }
    Ok(children)
}

/// `campaign --status DIR`: print a read-only progress summary derived
/// purely from the journal and store. Safe while workers are live.
fn campaign_status_cmd(dir: &str) -> Result<RunStatus, CliError> {
    let st = grade10::core::campaign::campaign_status(Path::new(dir)).map_err(|e| e.to_string())?;
    println!("campaign {} in {dir}", st.campaign);
    let mut t = grade10::core::report::Table::new(&["state", "mixes"]);
    t.row(&["finished".to_string(), st.finished.to_string()]);
    t.row(&["claimed".to_string(), st.claimed.to_string()]);
    t.row(&["stale".to_string(), st.stale.to_string()]);
    t.row(&["failed".to_string(), st.failed.to_string()]);
    t.row(&["poisoned".to_string(), st.poisoned.to_string()]);
    t.row(&["pending".to_string(), st.pending.to_string()]);
    print!("{}", t.render());
    println!(
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

/// Checks one mix's axis values against the parsers the runner will use.
fn validate_mix(mix: &MixSpec) -> Result<(), String> {
    let in_mix = |e: String| format!("mix {}: {e}", mix.id());
    parse_algorithm(&mix.algorithm).map_err(in_mix)?;
    parse_dataset(&mix.dataset, mix.seed).map_err(in_mix)?;
    parse_engine(&mix.engine, None).map_err(in_mix)?;
    if mix.machines == 0 {
        return Err(in_mix("machines must be at least 1".to_string()));
    }
    if mix.fault != "none" {
        parse_fault_classes(&mix.fault, mix.seed).map_err(in_mix)?;
    }
    Ok(())
}

/// Characterizes one campaign mix at one degradation-ladder rung: obtain the
/// mix's collected streams, then ingest them strictly, leniently, or under
/// full supervision per the rung. The scheduler owns retries and fills the
/// outcome's identity fields.
///
/// The streams come from the stage cache when it holds the mix's record —
/// keyed by the identity the result store hashes, `content_string` under
/// the campaign's code version — and from a simulation otherwise, which
/// then stores them. This is the only place the cache is consulted: a
/// ladder that fails strict and retries lenient simulates once. The
/// simulation runs on the thread's last graph when it fits ([`with_graph`]).
fn run_mix(
    mix: &MixSpec,
    code_version: &str,
    attempt: MixAttempt,
    cache: Option<&grade10::core::cache::StageCache>,
) -> Result<MixOutcome, grade10::core::Grade10Error> {
    use grade10::core::Grade10Error;
    let bad = Grade10Error::Serialization;
    let dataset = parse_dataset(&mix.dataset, mix.seed).map_err(bad)?;
    let algorithm = parse_algorithm(&mix.algorithm).map_err(bad)?;
    let engine = parse_engine(&mix.engine, Some(mix.machines as usize)).map_err(bad)?;
    let spec = WorkloadSpec {
        dataset,
        algorithm,
        engine,
    };
    let key = mix.content_string(code_version);
    let (events, monitoring) = match cache.and_then(|c| c.lookup_streams(&key)) {
        Some(streams) => streams,
        None => {
            // The fault seed is the mix seed: the damage is part of the
            // mix's identity, deterministic across retries and resumes.
            let plan = match mix.fault.as_str() {
                "none" => None,
                fault => Some(parse_fault_classes(fault, mix.seed).map_err(bad)?),
            };
            let run = with_graph(spec.dataset, |graph| simulate_workload(&spec, graph));
            MIXES_SIMULATED.fetch_add(1, Ordering::Relaxed);
            let streams = collected_streams(&run.sim, plan.as_ref());
            if let Some(c) = cache {
                c.store_streams(&key, &streams.0, &streams.1);
            }
            streams
        }
    };
    let expert = spec.engine.expert_input();
    let supervise = grade10::core::supervise::SuperviseConfig::default();
    let cfg = pipeline_config(attempt.mode != MixMode::Strict, 10, None, supervise);
    let p = characterize_events_under(
        attempt.mode == MixMode::Partial,
        &expert.model,
        &expert.rules_tuned,
        &events,
        &monitoring,
        &cfg,
    )?;
    Ok(MixOutcome {
        mix: mix.clone(),
        hash: 0,
        makespan_ns: p.characterization.base_makespan,
        classes: p.characterization.issue_classes(&expert.model),
        incidents: p.incidents.len() as u32,
        degraded: !p.is_complete(),
        attempts: 0,
        mode: String::new(),
    })
}

thread_local! {
    /// The input graph this claimant thread generated last, with the
    /// dataset it was generated from.
    static LAST_GRAPH: RefCell<Option<(Dataset, CsrGraph)>> = const { RefCell::new(None) };
}

/// Graphs the campaign runner generated and mixes it simulated in this
/// process, for the `substrate:` stderr line.
static GRAPHS_GENERATED: AtomicUsize = AtomicUsize::new(0);
static MIXES_SIMULATED: AtomicUsize = AtomicUsize::new(0);

/// Calls `f` on `dataset`'s graph, generating it only when this thread's
/// last graph came from another dataset. The scheduler claims mixes grouped
/// by dataset and seed, so consecutive mixes on a thread usually share the
/// graph. The old graph is dropped before the new one is generated, so a
/// thread never holds more than one, and only while it simulates anyway.
fn with_graph<R>(dataset: Dataset, f: impl FnOnce(&CsrGraph) -> R) -> R {
    LAST_GRAPH.with(|slot| {
        let mut slot = slot.borrow_mut();
        let graph = match slot.take() {
            Some((d, graph)) if d == dataset => graph,
            stale => {
                drop(stale);
                GRAPHS_GENERATED.fetch_add(1, Ordering::Relaxed);
                dataset.generate()
            }
        };
        f(&slot.insert((dataset, graph)).1)
    })
}

/// What a run's collectors shipped: the bridged event stream and
/// monitoring series, with `plan`'s faults applied to the simulator's
/// output first.
fn collected_streams(
    sim: &grade10::cluster::SimOutput,
    plan: Option<&FaultPlan>,
) -> (Vec<RawEvent>, Vec<RawSeries>) {
    use grade10::engines::bridge::{to_raw_events, to_raw_series};
    match plan {
        None => (to_raw_events(&sim.logs), to_raw_series(&sim.series, 8)),
        Some(plan) => (
            to_raw_events(&plan.inject_logs(&sim.logs)),
            to_raw_series(&plan.inject_series(&sim.series), 8),
        ),
    }
}

/// The one call every command makes: runs the lifecycle over raw collected
/// streams — supervised under `--partial`, inline otherwise — and prints the
/// characterization, under `--partial` followed by the incidents and
/// coverage tables. Maps the outcome to an exit status: `Partial` when any
/// incident was recorded.
fn characterize_and_report(
    model: &grade10::core::model::ExecutionModel,
    rules: &grade10::core::model::RuleSet,
    events: &[RawEvent],
    monitoring: &[RawSeries],
    cfg: &CharacterizationConfig,
    flags: &Flags,
    title: &str,
) -> Result<RunStatus, CliError> {
    let partial = flags.contains_key("--partial");
    // Under `--self-profile` the pipeline's own execution is recorded...
    let recording = flags.contains_key("--self-profile").then(obs::start);
    let p = characterize_events_under(partial, model, rules, events, monitoring, cfg)
        .map_err(|e| ingest_error(&e, cfg.ingest.mode))?;
    eprintln!(
        "analyzed {title} ({} phase instances, {} events)",
        p.trace.instances().len(),
        events.len()
    );
    print_characterization(
        model,
        &p.trace,
        &p.characterization,
        flags.contains_key("--gantt"),
    );
    if partial {
        print_supervision(&p);
    }
    // ...and characterized once the normal report is out.
    if let Some(recording) = recording {
        let meta = characterize_meta(&recording.finish())
            .map_err(|e| format!("self-characterization failed: {e}"))?;
        print_self_profile(&meta);
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
fn print_supervision(p: &PartialCharacterization) {
    println!("\nsupervision summary: {}", p.coverage.summary());
    if p.incidents.is_empty() {
        println!("  no incidents");
    } else {
        println!("\nincidents:");
        print!("{}", incident_table(&p.incidents).render());
    }
    println!("\ncoverage:");
    print!("{}", coverage_table(&p.coverage).render());
}

/// Builds the pipeline config from the shared CLI flags: `--lenient` picks
/// the ingestion mode and, with it, demand-based estimation of slices whose
/// monitoring was lost; `--deadline-ms` and `--max-retries` tune the
/// supervision layer used by `--partial`; `--threads` pins the width of
/// the run's worker pool (beating `GRADE10_THREADS`, which beats the
/// machine size).
fn characterization_config(flags: &Flags, slice_ms: u64) -> Result<CharacterizationConfig, CliError> {
    let mut supervise = grade10::core::supervise::SuperviseConfig::default();
    if let Some(ms) = number(flags, "--deadline-ms", "deadline")? {
        supervise.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(n) = number(flags, "--max-retries", "retry count")? {
        supervise.max_retries = n;
    }
    let lenient = flags.contains_key("--lenient");
    Ok(pipeline_config(
        lenient,
        slice_ms,
        threads(flags)?,
        supervise,
    ))
}

/// The pipeline config of a run: lenient ingestion comes with demand-based
/// estimation of slices whose monitoring was lost, and `threads` pins the
/// width of whichever fan-out the run reaches first — the supervised units,
/// or the upsampling rows when no unit pool encloses them. Pools never
/// nest, so a fan-out reached on a pool worker (a campaign mix, a
/// supervised unit) runs inline whatever `threads` says.
fn pipeline_config(
    lenient: bool,
    slice_ms: u64,
    threads: Option<usize>,
    mut supervise: grade10::core::supervise::SuperviseConfig,
) -> CharacterizationConfig {
    supervise.threads = threads;
    CharacterizationConfig {
        profile: grade10::core::attribution::ProfileConfig {
            slice: slice_ms * MILLIS,
            estimate_missing: lenient,
            threads,
            ..Default::default()
        },
        ingest: IngestConfig {
            mode: if lenient {
                IngestMode::Lenient
            } else {
                IngestMode::Strict
            },
        },
        supervise,
        ..Default::default()
    }
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
    Ok(Some(parse_fault_classes(spec, seed).map_err(CliError::Usage)?))
}

/// Parses a fault-class spec (`all`, `hostile`, or a comma-separated class
/// list) into a seeded plan. Shared by `--inject` and the campaign fault
/// axis.
fn parse_fault_classes(spec: &str, seed: u64) -> Result<FaultPlan, String> {
    if spec == "all" {
        return Ok(FaultPlan::all(seed));
    }
    if spec == "hostile" {
        return Ok(FaultPlan::hostile(seed));
    }
    let mut plan = FaultPlan::clean(seed);
    for name in spec.split(',') {
        let class = FaultClass::from_name(name.trim())
            .ok_or_else(|| format!("unknown fault class '{name}'"))?;
        plan.enable(class);
    }
    Ok(plan)
}

/// Parses an algorithm name shared by `demo --algorithm` and the campaign
/// workload axis.
fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    match name {
        "pr" => Ok(Algorithm::PageRank { iterations: 8 }),
        "bfs" => Ok(Algorithm::Bfs { root: 0 }),
        "wcc" => Ok(Algorithm::Wcc),
        "cdlp" => Ok(Algorithm::Cdlp { iterations: 8 }),
        "sssp" => Ok(Algorithm::Sssp { root: 0 }),
        "lcc" => Ok(Algorithm::Lcc),
        "prc" => Ok(Algorithm::PageRankConverge {
            epsilon_millionths: 100,
        }),
        other => Err(format!("unknown algorithm '{other}'")),
    }
}

/// Parses a graph-engine name shared by `demo --engine`, `export-model
/// --engine` and the campaign engine axis: the engine's default
/// configuration, on `machines` machines when given.
fn parse_engine(name: &str, machines: Option<usize>) -> Result<EngineKind, String> {
    let mut engine = match name {
        "giraph" => EngineKind::Giraph(PregelConfig::default()),
        "powergraph" => EngineKind::PowerGraph(GasConfig::default()),
        other => return Err(format!("unknown engine '{other}'")),
    };
    if let Some(n) = machines {
        match &mut engine {
            EngineKind::Giraph(cfg) => cfg.machines = n,
            EngineKind::PowerGraph(cfg) => cfg.machines = n,
        }
    }
    Ok(engine)
}

/// Runs a GraphX-flavored job on the Spark-like dataflow engine (§V).
fn demo_spark(dataset: Dataset, algorithm: Algorithm, flags: &Flags) -> Result<RunStatus, CliError> {
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
    let out = run_dataflow(&job, &cfg);
    eprintln!("done: simulated runtime {:.2}s", out.end_time.as_secs_f64());

    let (model, phases) = dataflow_model();
    let rules = dataflow_rules_tuned(&phases, cfg.cores);
    let (events, monitoring) = collected_streams(&out, None);
    let cfg = CharacterizationConfig::default();
    let title = format!("{}-{}-spark", algorithm.name(), dataset.name());
    characterize_and_report(&model, &rules, &events, &monitoring, &cfg, flags, &title)
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
/// [`read_resources`] rejects. A trace that carries one (a stage-cache
/// record keeps the samples the `monitoring` fault makes NaN) cannot be
/// exported as text.
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

fn parse_dataset(spec: &str, seed: u64) -> Result<Dataset, String> {
    let (kind, size) = spec
        .split_once(':')
        .ok_or_else(|| format!("dataset spec '{spec}' must be kind:size"))?;
    match kind {
        "rmat" => Ok(Dataset::Rmat {
            scale: size.parse().map_err(|_| format!("bad scale '{size}'"))?,
            seed,
        }),
        "social" => Ok(Dataset::Social {
            vertices: size.parse().map_err(|_| format!("bad size '{size}'"))?,
            seed,
        }),
        other => Err(format!("unknown dataset kind '{other}'")),
    }
}

fn export_model(flags: &Flags) -> Result<RunStatus, CliError> {
    let engine = parse_engine(
        required(flags, "--engine", "export-model needs --engine")?,
        None,
    )
    .map_err(CliError::Usage)?;
    let (resources, cores) = match &engine {
        EngineKind::Giraph(cfg) => (pregel_resource_model(), cfg.cores),
        EngineKind::PowerGraph(cfg) => (gas_resource_model(), cfg.cores),
    };
    let ExpertInput {
        model, rules_tuned, ..
    } = engine.expert_input();
    let bundle = ModelBundle {
        framework: engine.name().into(),
        notes: format!("tuned rules assume {cores} cores per machine"),
        rules: rules_tuned,
        resources,
        execution: model,
    };
    match flags.get("-o") {
        Some(path) => {
            atomic_write(Path::new(path), bundle.to_json().as_bytes())
                .map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{}", bundle.to_json()),
    }
    Ok(RunStatus::Clean)
}

fn analyze(flags: &Flags) -> Result<RunStatus, CliError> {
    let bundle_path = required(flags, "--model", "analyze needs --model")?;
    let slice_ms = number(flags, "--slice-ms", "slice")?.unwrap_or(10);

    let bundle = ModelBundle::load(open(bundle_path)?).map_err(|e| e.to_string())?;
    let (events, resources) = if let Some(trace_path) = flags.get("--trace") {
        // Binary container: events plus (usually) embedded monitoring.
        // The reader checks the container — magic, version, section
        // checksums — and any damage surfaces as a classified error here
        // instead of a garbage characterization; the streams it returns
        // are what was written.
        let bt =
            read_trace_file(Path::new(trace_path)).map_err(|e| format!("{trace_path}: {e}"))?;
        let resources = match flags.get("--resources") {
            // An explicit monitoring file overrides the embedded section.
            Some(rp) => read_resources(rp)?,
            None => bt.resources.ok_or_else(|| {
                format!(
                    "{trace_path} has no monitoring section; pass --resources RESOURCES.json"
                )
            })?,
        };
        (bt.events, resources)
    } else {
        let events_path = required(flags, "--events", "analyze needs --events (or --trace)")?;
        let resources_path =
            required(flags, "--resources", "analyze needs --resources (or --trace)")?;
        (read_events(events_path)?, read_resources(resources_path)?)
    };

    // Neither reader validates the monitoring payload (NaN or negative
    // samples pass straight through serde and the binary decoder alike), so
    // both streams enter through the ingestion layer: strict mode rejects
    // damage with a classified error, `--lenient` repairs it and reports
    // the repairs.
    let monitoring = RawSeries::from_trace(&resources);
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
fn print_self_profile(meta: &MetaCharacterization) {
    println!("\nself-profile: the pipeline characterized by itself");
    println!(
        "  {} spans on {} recorder threads over {}",
        meta.raw.spans.len(),
        meta.raw.num_threads(),
        SimDuration::from_nanos(meta.raw.end)
    );
    println!("\npipeline stage profile:");
    print!("{}", self_profile_table(meta).render());
    println!("\nrecorder-thread utilization:");
    print!("{}", machine_table(&meta.result.profile).render());
    println!("\npipeline bottlenecks, most impactful first:");
    if meta.result.issues.is_empty() {
        println!("  (none above threshold)");
    }
    for line in meta.result.summary(&meta.model) {
        println!("  - {line}");
    }
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
    model: &grade10::core::model::ExecutionModel,
    trace: &ExecutionTrace,
    result: &grade10::core::pipeline::Characterization,
    gantt: bool,
) {
    // Under --self-profile the rendering work is itself a pipeline stage.
    let _span = obs::span(obs::Stage::Report);
    if !result.ingest.is_clean() {
        println!("ingestion repaired a degraded input:");
        print!("{}", ingest_table(&result.ingest).render());
        println!();
    }
    println!(
        "baseline makespan (replayed): {:.2}s",
        result.base_makespan as f64 / 1e9
    );
    println!("\ncluster utilization:");
    print!("{}", machine_table(&result.profile).render());
    println!("\nattributed consumption by phase type:");
    print!("{}", usage_table(&result.profile, model, trace).render());
    println!("\nblocked time by phase type:");
    let mut any = false;
    for ((ty, res), secs) in result.bottlenecks.blocked_time_by_type(trace) {
        if secs > 0.01 {
            println!("  {} blocked on {res}: {secs:.2}s", model.type_path(ty));
            any = true;
        }
    }
    if !any {
        println!("  (none above 10 ms)");
    }
    println!("\nissues, most impactful first:");
    if result.issues.is_empty() {
        println!("  (none above threshold)");
    }
    for line in result.summary(model) {
        println!("  - {line}");
    }
    println!("\ncritical path (replayed), time per phase type:");
    let cp = critical_path(model, trace, &Default::default());
    for (path, secs) in cp.rows(model) {
        println!("  {path:<55} {secs:>7.2}s");
    }
    if gantt {
        println!("\nexecution gantt (top 3 levels):");
        print!("{}", render_gantt(model, trace, &GanttConfig::default()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn dataset_spec_parsing() {
        assert_eq!(
            parse_dataset("rmat:12", 1).unwrap(),
            Dataset::Rmat { scale: 12, seed: 1 }
        );
        assert_eq!(
            parse_dataset("social:5000", 2).unwrap(),
            Dataset::Social {
                vertices: 5000,
                seed: 2
            }
        );
        assert!(parse_dataset("nope", 1).is_err());
        assert!(parse_dataset("rmat:abc", 1).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }
}
