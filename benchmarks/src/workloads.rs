//! The seven workloads: what each one runs, on which generated inputs, and
//! the frozen sizes those inputs have.
//!
//! Every workload derives `variants` inputs from `--seed` and one *op* is
//! one pass over all of them: a single R-MAT graph's cost moves several
//! percent with its seed (partition balance, BFS depth, simulated makespan),
//! and averaging a fixed number of seed-derived inputs inside every op is
//! what keeps a run's numbers comparable with a run on another seed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use grade10_cluster::{FaultClass, FaultPlan};
use grade10_core::hash::{fnv1a, fnv1a_extend};
use grade10_core::model::ModelBundle;
use grade10_core::trace::repair::ingest_monitoring;
use grade10_core::trace::{encode_trace, write_trace_file, IngestConfig, IngestReport};
use grade10_engines::bridge::{to_raw_events, to_raw_series};
use grade10_engines::models::{pregel_model, pregel_resource_model, pregel_rules_tuned};
use grade10_engines::pregel::PregelConfig;
use grade10_engines::{Algorithm, Dataset, EngineKind, WorkloadSpec};
use serde::Value;

use crate::hops;
use crate::json::{get, obj};
use crate::spans::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Demo,
    AnalyzeText,
    AnalyzeBinary,
    AnalyzeDamaged,
    CampaignCold,
    CampaignWarm,
    CampaignFleet,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::Demo,
        Workload::AnalyzeText,
        Workload::AnalyzeBinary,
        Workload::AnalyzeDamaged,
        Workload::CampaignCold,
        Workload::CampaignWarm,
        Workload::CampaignFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Demo => "demo",
            Workload::AnalyzeText => "analyze_text",
            Workload::AnalyzeBinary => "analyze_binary",
            Workload::AnalyzeDamaged => "analyze_damaged",
            Workload::CampaignCold => "campaign_cold",
            Workload::CampaignWarm => "campaign_warm",
            Workload::CampaignFleet => "campaign_fleet",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_campaign(self) -> bool {
        matches!(
            self,
            Workload::CampaignCold | Workload::CampaignWarm | Workload::CampaignFleet
        )
    }

    /// Why the workload exists; `BENCHMARK.json` carries the same lines.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Demo => {
                "graph generation, partitioning, the algorithm and the cluster simulation do the \
                 work and core almost none; write side of the text formats"
            }
            Workload::AnalyzeText => {
                "offline analysis of exported JSON logs: JSON decode dominates, the simulator is absent"
            }
            Workload::AnalyzeBinary => {
                "the same run from a G10TRACE container: decode is cheap, so the paper's pipeline \
                 dominates; single-threaded baseline"
            }
            Workload::AnalyzeDamaged => {
                "the same run with every stream fault injected, lenient and supervised: repair \
                 instead of validate, plus pool dispatch and catch_unwind"
            }
            Workload::CampaignCold => {
                "mix matrix into a fresh directory with an empty stage cache: journal fsync, \
                 store put, cache hash and store on top of the runs"
            }
            Workload::CampaignWarm => {
                "the same matrix against a stage cache filled at set-up: hash, lookup, decode; \
                 does a 100%-hit rerun save wall time"
            }
            Workload::CampaignFleet => {
                "the same matrix drained by two worker processes: spawn, leases, heartbeats and \
                 journal contention"
            }
        }
    }
}

/// Input sizes, calibrated once on a 2-core machine and then frozen: a run
/// never calibrates. Thread counts in the commands never exceed 2.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Seed-derived inputs per op, for `demo`, `analyze_*` and `campaign_*`.
    pub variants: [usize; 3],
    pub demo_rmat: u32,
    pub analyze_rmat: u32,
    pub analyze_machines: usize,
    pub analyze_threads: usize,
    pub analyze_iterations: usize,
    pub campaign_rmat: u32,
    pub campaign_machines: u32,
    /// Ops measured at the least, however short `--seconds` is.
    pub min_reps: usize,
    /// Times set-up is repeated; `setup_s` is estimated over them like the
    /// other timed metrics.
    pub setups: usize,
}

pub const FULL: Scale = Scale {
    name: "full",
    variants: [4, 4, 1],
    demo_rmat: 12,
    analyze_rmat: 10,
    analyze_machines: 8,
    analyze_threads: 8,
    analyze_iterations: 8,
    campaign_rmat: 12,
    campaign_machines: 4,
    min_reps: 3,
    setups: 3,
};

/// Every workload at tiny scale, one op, for a quick end-to-end check.
pub const SMOKE: Scale = Scale {
    name: "smoke",
    variants: [1, 1, 1],
    demo_rmat: 8,
    analyze_rmat: 8,
    analyze_machines: 2,
    analyze_threads: 4,
    analyze_iterations: 3,
    campaign_rmat: 6,
    campaign_machines: 2,
    min_reps: 1,
    setups: 1,
};

impl Scale {
    pub fn to_value(self) -> Value {
        let n = |v: usize| Value::UInt(v as u64);
        obj(vec![
            ("name", Value::Str(self.name.to_string())),
            (
                "variants",
                Value::Array(self.variants.iter().map(|&v| n(v)).collect()),
            ),
            ("demo_rmat", n(self.demo_rmat as usize)),
            ("analyze_rmat", n(self.analyze_rmat as usize)),
            ("analyze_machines", n(self.analyze_machines)),
            ("analyze_threads", n(self.analyze_threads)),
            ("analyze_iterations", n(self.analyze_iterations)),
            ("campaign_rmat", n(self.campaign_rmat as usize)),
            ("campaign_machines", n(self.campaign_machines as usize)),
            ("min_reps", n(self.min_reps)),
            ("setups", n(self.setups)),
        ])
    }
}

pub const DEMO_ENGINES: [&str; 2] = ["giraph", "powergraph"];
pub const ANALYZE_SLICE_MS: u64 = 1;

/// One seed-derived input of a workload and the directory holding it.
#[derive(Clone, Debug)]
pub struct Variant {
    pub seed: u64,
    pub dir: PathBuf,
}

pub fn variants(workload: Workload, work_dir: &Path, scale: &Scale, seed: u64) -> Vec<Variant> {
    let count = match workload {
        Workload::Demo => scale.variants[0],
        w if w.is_campaign() => scale.variants[2],
        _ => scale.variants[1],
    };
    (0..count)
        .map(|i| Variant {
            seed: seed.wrapping_mul(64).wrapping_add(i as u64),
            dir: work_dir.join(format!("v{i}")),
        })
        .collect()
}

/// The long Giraph PageRank run the `analyze_*` workloads are fed.
pub fn analyze_spec(scale: &Scale, seed: u64) -> (WorkloadSpec, PregelConfig) {
    let cfg = PregelConfig {
        machines: scale.analyze_machines,
        threads: scale.analyze_threads,
        ..Default::default()
    };
    let spec = WorkloadSpec {
        dataset: Dataset::Rmat {
            scale: scale.analyze_rmat,
            seed,
        },
        algorithm: Algorithm::PageRank {
            iterations: scale.analyze_iterations,
        },
        engine: EngineKind::Giraph(cfg.clone()),
    };
    (spec, cfg)
}

/// The campaign spec: 2 algorithms × 2 engines × 2 seeds, fault-free.
pub fn campaign_spec_json(scale: &Scale, seed: u64) -> String {
    format!(
        "{{\"name\":\"bench\",\"algorithms\":[\"pr\",\"bfs\"],\"datasets\":[\"rmat:{}\"],\
         \"engines\":[\"giraph\",\"powergraph\"],\"machines\":[{}],\"seeds\":[{},{}]}}\n",
        scale.campaign_rmat,
        scale.campaign_machines,
        seed.wrapping_mul(2),
        seed.wrapping_mul(2).wrapping_add(1),
    )
}

pub const CAMPAIGN_MIXES: u64 = 8;

/// The damage `analyze_damaged` is fed: every stream-damage class of
/// `FaultPlan::all` except `reorder`. Reordered records leave about one
/// lenient-repaired trace in four on which `critical_path` (the last thing
/// `analyze` prints) does not finish — minutes and gigabytes on a run that
/// otherwise takes 100 ms — and the benchmark measures ops that complete.
pub fn damage_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::clean(seed);
    for class in FaultClass::STREAM_DAMAGE {
        if class != FaultClass::Reorder {
            plan.enable(class);
        }
    }
    plan
}

/// What a workload's generated inputs are, so that two results can be told
/// apart when a generator change fed them different data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixtureInfo {
    /// FNV-1a over every generated input, in generation order.
    pub fixture_hash: u64,
    /// Log events one op characterizes.
    pub input_events: u64,
    /// Bytes of generated files one op reads.
    pub input_bytes: u64,
}

impl FixtureInfo {
    pub fn to_value(self) -> Value {
        obj(vec![
            (
                "fixture_hash",
                Value::Str(format!("{:016x}", self.fixture_hash)),
            ),
            ("input.events", Value::UInt(self.input_events)),
            ("input.bytes", Value::UInt(self.input_bytes)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<FixtureInfo> {
        let (Some(Value::Str(hash)), Some(Value::UInt(events)), Some(Value::UInt(bytes))) = (
            get(v, "fixture_hash"),
            get(v, "input.events"),
            get(v, "input.bytes"),
        ) else {
            return None;
        };
        Some(FixtureInfo {
            fixture_hash: u64::from_str_radix(hash, 16).ok()?,
            input_events: *events,
            input_bytes: *bytes,
        })
    }

    fn absorb_file(&mut self, path: &Path, read_by_op: bool) -> io::Result<()> {
        let bytes = fs::read(path)?;
        self.fixture_hash = fnv1a_extend(self.fixture_hash, &bytes);
        if read_by_op {
            self.input_bytes += bytes.len() as u64;
        }
        Ok(())
    }
}

fn io_other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Generates every input of `workload` under `work_dir` (one directory per
/// variant) through the crates' public functions, each call inside a span
/// of `tracer`. The program under test later sees only these files and the
/// seeds in its arguments.
pub fn generate_fixtures(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    work_dir: &Path,
    tracer: &Tracer,
) -> io::Result<FixtureInfo> {
    let mut info = FixtureInfo {
        fixture_hash: fnv1a(workload.name().as_bytes()),
        ..Default::default()
    };
    for v in variants(workload, work_dir, scale, seed) {
        let _ = fs::remove_dir_all(&v.dir);
        fs::create_dir_all(&v.dir)?;
        match workload {
            Workload::Demo => {
                // Nothing to write: `demo` generates its own input from the
                // seed. The run is repeated here to learn what that input is.
                for engine in DEMO_ENGINES {
                    let spec = hops::demo_spec(scale.demo_rmat, v.seed, engine);
                    let run = hops::run_workload(tracer, &spec);
                    let events = to_raw_events(&run.sim.logs);
                    info.input_events += events.len() as u64;
                    info.fixture_hash =
                        fnv1a_extend(info.fixture_hash, &encode_trace(&events, None));
                }
            }
            Workload::AnalyzeText | Workload::AnalyzeBinary | Workload::AnalyzeDamaged => {
                let (spec, cfg) = analyze_spec(scale, v.seed);
                let run = hops::run_workload(tracer, &spec);
                let (execution, phases) = pregel_model();
                let bundle = ModelBundle {
                    framework: "giraph".into(),
                    notes: format!("tuned rules assume {} cores per machine", cfg.cores),
                    rules: pregel_rules_tuned(&phases, cfg.cores),
                    resources: pregel_resource_model(),
                    execution,
                };
                fs::write(v.dir.join("bundle.json"), bundle.to_json())?;
                info.absorb_file(&v.dir.join("bundle.json"), true)?;
                if workload == Workload::AnalyzeDamaged {
                    let plan = damage_plan(v.seed);
                    let logs = tracer.span(
                        "cluster.faults",
                        || plan.inject_logs(&run.sim.logs),
                        |l| l.len() as u64,
                    );
                    let series = tracer.span(
                        "cluster.faults",
                        || plan.inject_series(&run.sim.series),
                        |s| s.len() as u64,
                    );
                    let events = hops::raw_events(tracer, &logs);
                    // The container's reader validates monitoring, so it can
                    // only carry what lenient ingestion lets through: invalid
                    // windows arrive as the gaps their removal leaves.
                    let raw = tracer.span("engines.bridge", || to_raw_series(&series, 8), |_| 0);
                    let resources = tracer
                        .span(
                            "core.trace.repair.lenient",
                            || {
                                ingest_monitoring(
                                    &raw,
                                    &IngestConfig::lenient(),
                                    &mut IngestReport::default(),
                                )
                            },
                            |_| 0,
                        )
                        .map_err(io_other)?;
                    info.input_events += events.len() as u64;
                    let path = v.dir.join("damaged.g10t");
                    tracer
                        .span(
                            "core.trace.binary.encode",
                            || write_trace_file(&path, &events, Some(&resources)),
                            |_| fs::metadata(&path).map_or(0, |m| m.len()),
                        )
                        .map_err(io_other)?;
                    info.absorb_file(&path, true)?;
                } else {
                    let events = hops::raw_events(tracer, &run.sim.logs);
                    let resources = tracer.span("engines.bridge", || run.resource_trace(8), |_| 0);
                    info.input_events += events.len() as u64;
                    fs::write(
                        v.dir.join("events.jsonl"),
                        hops::events_jsonl(tracer, &events)?,
                    )?;
                    let json = hops::resources_json(tracer, &resources).map_err(io_other)?;
                    fs::write(v.dir.join("resources.json"), json)?;
                    let path = v.dir.join("trace.g10t");
                    tracer
                        .span(
                            "core.trace.binary.encode",
                            || write_trace_file(&path, &events, Some(&resources)),
                            |_| fs::metadata(&path).map_or(0, |m| m.len()),
                        )
                        .map_err(io_other)?;
                    let text = workload == Workload::AnalyzeText;
                    info.absorb_file(&v.dir.join("events.jsonl"), text)?;
                    info.absorb_file(&v.dir.join("resources.json"), text)?;
                    info.absorb_file(&path, !text)?;
                }
            }
            Workload::CampaignCold | Workload::CampaignWarm | Workload::CampaignFleet => {
                let spec_path = v.dir.join("spec.json");
                fs::write(&spec_path, campaign_spec_json(scale, v.seed))?;
                info.absorb_file(&spec_path, true)?;
                // As for `demo`: the mixes are simulated inside the program,
                // so repeat them here to learn what it characterizes.
                let spec =
                    grade10_core::campaign::CampaignSpec::load(&spec_path).map_err(io_other)?;
                for mix in spec.expand() {
                    let run = hops::run_workload(tracer, &hops::mix_spec(&mix).map_err(io_other)?);
                    let events = to_raw_events(&run.sim.logs);
                    info.input_events += events.len() as u64;
                    info.fixture_hash =
                        fnv1a_extend(info.fixture_hash, &encode_trace(&events, None));
                }
            }
        }
    }
    Ok(info)
}

/// One run of the `grade10` binary and what it must produce.
#[derive(Clone, Debug)]
pub struct Invocation {
    pub args: Vec<String>,
    pub expect_code: i32,
    /// Files the program writes whose content is checked with its stdout.
    pub outputs: Vec<PathBuf>,
    /// Directories to empty before the (untimed) start of the invocation.
    pub fresh_dirs: Vec<PathBuf>,
    /// `(from, to)`: directory copied before the start, outside the timed
    /// region — the filled stage cache of `campaign_warm`.
    pub copy_dir: Option<(PathBuf, PathBuf)>,
    /// Characterized runs ("mixes") the invocation completes.
    pub mixes: u64,
}

fn strs(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn analyze_invocation(v: &Variant, binary: bool) -> Invocation {
    let mut args = strs(&["analyze", "--model"]);
    args.push(path_str(&v.dir.join("bundle.json")));
    if binary {
        args.extend([("--trace").to_string(), path_str(&v.dir.join("trace.g10t"))]);
    } else {
        args.extend([
            "--events".to_string(),
            path_str(&v.dir.join("events.jsonl")),
        ]);
        args.extend([
            "--resources".to_string(),
            path_str(&v.dir.join("resources.json")),
        ]);
    }
    args.extend(strs(&[
        "--slice-ms",
        &ANALYZE_SLICE_MS.to_string(),
        "--threads",
        "1",
    ]));
    Invocation {
        args,
        expect_code: 0,
        outputs: Vec::new(),
        fresh_dirs: Vec::new(),
        copy_dir: None,
        mixes: 1,
    }
}

fn campaign_invocation(
    v: &Variant,
    dir: PathBuf,
    extra: &[&str],
    cache: Option<PathBuf>,
) -> Invocation {
    let mut args = strs(&["campaign", "--spec"]);
    args.push(path_str(&v.dir.join("spec.json")));
    args.extend(["--dir".to_string(), path_str(&dir)]);
    if let Some(cache) = &cache {
        args.extend(["--cache".to_string(), path_str(cache)]);
    }
    args.extend(strs(extra));
    Invocation {
        args,
        expect_code: 0,
        outputs: vec![dir.join("report.txt"), dir.join("report.json")],
        fresh_dirs: vec![dir],
        copy_dir: None,
        mixes: CAMPAIGN_MIXES,
    }
}

/// The invocations that make up one variant's share of an op.
pub fn invocations(workload: Workload, scale: &Scale, v: &Variant) -> Vec<Invocation> {
    let out = v.dir.join("out");
    match workload {
        Workload::Demo => DEMO_ENGINES
            .iter()
            .map(|engine| {
                let logs = out.join(engine);
                let html = logs.join("report.html");
                let mut args = strs(&["demo", "--dataset", &format!("rmat:{}", scale.demo_rmat)]);
                args.extend(strs(&[
                    "--seed",
                    &v.seed.to_string(),
                    "--threads",
                    "2",
                    "--gantt",
                ]));
                args.extend(["--export-logs".to_string(), path_str(&logs)]);
                args.extend(["--html".to_string(), path_str(&html)]);
                args.extend(strs(&["--engine", engine]));
                Invocation {
                    args,
                    expect_code: 0,
                    outputs: vec![logs.join("events.jsonl"), logs.join("resources.json"), html],
                    fresh_dirs: vec![logs],
                    copy_dir: None,
                    mixes: 1,
                }
            })
            .collect(),
        Workload::AnalyzeText => vec![analyze_invocation(v, false)],
        Workload::AnalyzeBinary => vec![analyze_invocation(v, true)],
        Workload::AnalyzeDamaged => {
            let mut args = strs(&["analyze", "--model"]);
            args.push(path_str(&v.dir.join("bundle.json")));
            args.extend(["--trace".to_string(), path_str(&v.dir.join("damaged.g10t"))]);
            args.extend(strs(&["--slice-ms", &ANALYZE_SLICE_MS.to_string()]));
            args.extend(strs(&["--lenient", "--partial", "--threads", "2"]));
            vec![Invocation {
                args,
                expect_code: 0,
                outputs: Vec::new(),
                fresh_dirs: Vec::new(),
                copy_dir: None,
                mixes: 1,
            }]
        }
        Workload::CampaignCold => {
            vec![campaign_invocation(
                v,
                out.join("campaign"),
                &["--threads", "1"],
                None,
            )]
        }
        Workload::CampaignWarm => {
            let cache = out.join("cache");
            let mut inv = campaign_invocation(
                v,
                out.join("campaign"),
                &["--threads", "1"],
                Some(cache.clone()),
            );
            inv.fresh_dirs.push(cache.clone());
            inv.copy_dir = Some((filled_cache(v), cache));
            vec![inv]
        }
        Workload::CampaignFleet => vec![campaign_invocation(
            v,
            out.join("campaign"),
            &["--workers", "2", "--threads", "1"],
            None,
        )],
    }
}

/// The stage cache the set-up run of a campaign workload fills.
pub fn filled_cache(v: &Variant) -> PathBuf {
    v.dir.join("ref-cache")
}

/// The invocations whose output is the reference the measured ones must
/// reproduce. `analyze_text` takes its reference from the binary form and
/// `analyze_binary` from the text form, so every op re-proves the two byte
/// identical; the three campaign workloads all take theirs from one cold
/// run (which also fills the cache `campaign_warm` reads), so their reports
/// are proved identical to each other.
pub fn reference_invocations(workload: Workload, scale: &Scale, v: &Variant) -> Vec<Invocation> {
    match workload {
        Workload::AnalyzeText => vec![analyze_invocation(v, true)],
        Workload::AnalyzeBinary => vec![analyze_invocation(v, false)],
        w if w.is_campaign() => {
            let dir = v.dir.join("ref").join("campaign");
            let cache = filled_cache(v);
            let mut inv = campaign_invocation(v, dir, &["--threads", "1"], Some(cache.clone()));
            inv.fresh_dirs.push(cache);
            vec![inv]
        }
        _ => invocations(workload, scale, v),
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_valid_metric_names() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::stats::valid_metric_name(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn variants_depend_on_the_seed_alone() {
        let a = variants(Workload::Demo, Path::new("w"), &FULL, 46);
        let b = variants(Workload::Demo, Path::new("w"), &FULL, 46);
        let c = variants(Workload::AnalyzeText, Path::new("w"), &FULL, 47);
        assert_eq!((a.len(), c.len()), (FULL.variants[0], FULL.variants[1]));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.seed == y.seed && x.dir == y.dir));
        assert!(a.iter().all(|x| c.iter().all(|y| x.seed != y.seed)));
    }

    #[test]
    fn campaign_spec_parses_into_eight_mixes() {
        let spec =
            grade10_core::campaign::CampaignSpec::parse("spec.json", &campaign_spec_json(&FULL, 5))
                .unwrap();
        assert_eq!(spec.expand().len() as u64, CAMPAIGN_MIXES);
    }

    #[test]
    fn cross_form_references() {
        let v = Variant {
            seed: 1,
            dir: PathBuf::from("w/v0"),
        };
        let text = invocations(Workload::AnalyzeText, &FULL, &v);
        let binary_ref = reference_invocations(Workload::AnalyzeBinary, &FULL, &v);
        assert_eq!(text[0].args, binary_ref[0].args);
        assert!(reference_invocations(Workload::AnalyzeText, &FULL, &v)[0]
            .args
            .contains(&"--trace".to_string()));
        let fleet = invocations(Workload::CampaignFleet, &FULL, &v);
        assert!(fleet[0].args.windows(2).any(|w| w == ["--workers", "2"]));
        assert!(fleet[0].args.windows(2).any(|w| w == ["--threads", "1"]));
        let warm = &invocations(Workload::CampaignWarm, &FULL, &v)[0];
        assert_eq!(
            warm.copy_dir.as_ref().map(|(from, _)| from.clone()),
            Some(filled_cache(&v))
        );
    }

    #[test]
    fn fixture_info_round_trips() {
        let info = FixtureInfo {
            fixture_hash: u64::MAX - 3,
            input_events: 9,
            input_bytes: 10,
        };
        assert_eq!(FixtureInfo::from_value(&info.to_value()), Some(info));
    }
}
