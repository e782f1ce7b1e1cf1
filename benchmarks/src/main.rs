//! `g10bench` — end-to-end and per-layer benchmark of the `grade10` CLI.
//!
//! ```text
//! g10bench bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     One workload, as the benchmark driver calls it. `--trace 0` measures
//!     the release `grade10` binary from outside; `--trace 1` replays the
//!     same hops in-process with spans. The last line of stdout is the
//!     result as one JSON object.
//! g10bench run | trace --workload W --seed N [--seconds S] [--smoke]
//!     `bench` with `--trace 0` | `--trace 1`.
//! g10bench all --seed N [--seconds S] [--smoke] [--out FILE]
//!     Every workload, both ways; prints every metric by name with its
//!     unit and writes a result file (default benchmarks/out/result-N.json).
//! g10bench agree A.json B.json
//!     Exits non-zero when two result files of one commit disagree.
//! g10bench manifest
//!     Prints BENCHMARK.json, generated from the metric and workload lists.
//! ```
//!
//! Run it through `benchmarks/run.sh`, which builds both binaries first.
//! The working directory must be the repository root.

mod e2e;
mod hops;
mod json;
mod metrics;
mod proc;
mod result;
mod spans;
mod stations;
mod stats;
mod traced;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use grade10_core::obs;
use serde::Value;

use e2e::Env;
use metrics::{MetricSpec, END_TO_END, PER_LAYER};
use spans::Tracer;
use workloads::{Scale, Workload, FULL, SMOKE};

/// The program under test counts allocations through this allocator; the
/// replay runs the same code under the same one.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("g10bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if key == "--smoke" {
            flags.insert(key.clone(), String::new());
            i += 1;
        } else if key.starts_with("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag {key} needs a value"))?;
            flags.insert(key.clone(), value.clone());
            i += 2;
        } else {
            return Err(format!("unexpected argument '{key}'"));
        }
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|s| s.parse().map_err(|_| format!("bad value '{s}' for {key}")))
        .transpose()
}

fn workload_flag(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let name = flags.get("--workload").ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))
}

fn scale_flag(flags: &HashMap<String, String>) -> Result<Scale, String> {
    match flags.get("--scale").map(String::as_str) {
        _ if flags.contains_key("--smoke") => Ok(SMOKE),
        None | Some("full") => Ok(FULL),
        Some("smoke") => Ok(SMOKE),
        Some(other) => Err(format!("unknown scale '{other}'")),
    }
}

/// Both binaries sit side by side in the cargo target directory.
fn env() -> Result<Env, String> {
    let g10bench = std::env::current_exe().map_err(|e| format!("locating g10bench: {e}"))?;
    let grade10 = g10bench.with_file_name("grade10");
    if !grade10.is_file() {
        return Err(format!(
            "{} not found; build it first (benchmarks/run.sh does)",
            grade10.display()
        ));
    }
    if !Path::new("benchmarks").is_dir() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the repository root".to_string());
    }
    let out_dir = PathBuf::from("benchmarks").join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    Ok(Env {
        grade10,
        g10bench,
        out_dir,
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("no command; see benchmarks/README.md")?;
    if cmd == "agree" {
        return agree(rest);
    }
    if cmd == "manifest" {
        print!("{}", metrics::manifest());
        return Ok(ExitCode::SUCCESS);
    }
    let flags = parse_flags(rest)?;
    let scale = scale_flag(&flags)?;
    let seed: u64 = flag(&flags, "--seed")?.unwrap_or(46);
    let seconds: f64 = flag(&flags, "--seconds")?.unwrap_or(if scale.min_reps == 1 {
        0.0
    } else {
        metrics::RUN_SECONDS as f64
    });
    match cmd.as_str() {
        "fixtures" => {
            let workload = workload_flag(&flags)?;
            let dir = PathBuf::from("benchmarks")
                .join("out")
                .join("work")
                .join(workload.name());
            let info =
                workloads::generate_fixtures(workload, &scale, seed, &dir, &Tracer::new(false))
                    .map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&info.to_value()).map_err(|e| e.to_string())?
            );
            Ok(ExitCode::SUCCESS)
        }
        "bench" | "run" | "trace" => {
            let traced = match cmd.as_str() {
                "run" => false,
                "trace" => true,
                _ => flag::<u8>(&flags, "--trace")?.ok_or("--trace 0|1 is required")? != 0,
            };
            let workload = workload_flag(&flags)?;
            let env = env()?;
            let (failed, line, record) = if traced {
                let r = traced::run(&env, workload, &scale, seed, seconds)
                    .map_err(|e| e.to_string())?;
                r.notes
                    .iter()
                    .for_each(|note| eprintln!("{}: {note}", workload.name()));
                print_metrics(workload, &PER_LAYER, &r.values);
                (
                    r.failed,
                    result::driver_line(&PER_LAYER, &r.values, r.attempted, r.failed),
                    result::traced_record(&r),
                )
            } else {
                let r =
                    e2e::run(&env, workload, &scale, seed, seconds).map_err(|e| e.to_string())?;
                print_metrics(workload, &END_TO_END, &r.values);
                (
                    r.failed,
                    result::driver_line(&END_TO_END, &r.values, r.attempted, r.failed),
                    result::e2e_record(&r),
                )
            };
            let path = record_path(&env, workload, traced);
            let text = serde_json::to_string(&record).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
            if failed > 0 {
                eprintln!("{}: {failed} ops failed their check", workload.name());
            }
            println!("{line}");
            Ok(ExitCode::SUCCESS)
        }
        "all" => all(&flags, &scale, seed, seconds),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn print_metrics(workload: Workload, specs: &[MetricSpec], values: &[(&'static str, f64)]) {
    for (spec, (name, value)) in specs.iter().zip(values) {
        println!(
            "{:<16} {name:<44} {value:>16.6} {}",
            workload.name(),
            spec.unit
        );
    }
}

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Runs one workload one way in a process of its own and returns the
/// record it wrote. The end-to-end measurer must stay small (a child's
/// peak RSS starts from its parent's), so nothing is measured in here.
fn run_in_child(
    env: &Env,
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Value, String> {
    let out = Command::new(&env.g10bench)
        .args([
            "bench",
            "--workload",
            workload.name(),
            "--scale",
            scale.name,
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning g10bench: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {traced}) did not finish",
            workload.name()
        ));
    }
    // Every line but the last, which is the driver's JSON.
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    lines[..lines.len().saturating_sub(1)]
        .iter()
        .for_each(|line| println!("{line}"));
    let path = record_path(env, workload, traced);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn record_path(env: &Env, workload: Workload, traced: bool) -> PathBuf {
    let kind = if traced { "traced" } else { "e2e" };
    env.out_dir
        .join(format!("record-{}-{kind}.json", workload.name()))
}

fn all(
    flags: &HashMap<String, String>,
    scale: &Scale,
    seed: u64,
    seconds: f64,
) -> Result<ExitCode, String> {
    let env = env()?;
    let baseline = std::fs::read_to_string("benchmarks/baseline.json")
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok());
    let mut records = Vec::new();
    let mut failed = false;
    for workload in Workload::ALL {
        let e = run_in_child(&env, workload, scale, seed, seconds, false)?;
        let t = run_in_child(&env, workload, scale, seed, seconds, true)?;
        let record = result::workload_record(&e, &t);
        let count = |key: &str| match json::get(&record, key) {
            Some(Value::UInt(n)) => *n,
            _ => 0,
        };
        println!(
            "{:<16} {:<44} {:>16} ops ({} attempted)",
            workload.name(),
            "failed",
            count("failed"),
            count("attempted")
        );
        failed |= count("failed") > 0;
        let fixture = json::get(&record, "fixture");
        if fixture != json::get(&record, "traced_fixture") {
            eprintln!(
                "warning: {}: the two runs generated different inputs",
                workload.name()
            );
        }
        let known = baseline
            .as_ref()
            .and_then(|b| json::get(b, "workloads"))
            .and_then(|w| json::get(w, workload.name()))
            .and_then(|r| json::get(r, "fixture"));
        if scale.name == "full" && known.is_some_and(|k| Some(k) != fixture) {
            eprintln!(
                "warning: {}: inputs differ from benchmarks/baseline.json (another seed, or a \
                 generator changed): this run and the baseline measured different data",
                workload.name()
            );
        }
        records.push((workload.name().to_string(), record));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let captured = |program: &str, args: &[&str]| {
        Value::Str(capture(program, args).unwrap_or_else(|| "unknown".into()))
    };
    let doc = json::obj(vec![
        ("commit", captured("git", &["rev-parse", "HEAD"])),
        ("date", captured("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ("nproc", Value::UInt(nproc)),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("scale", scale.to_value()),
        ("workloads", Value::Object(records)),
    ]);
    let out = flags
        .get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| env.out_dir.join(format!("result-{seed}.json")));
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn agree(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("agree takes two result files".to_string());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let verdict = result::agree(&load(a)?, &load(b)?);
    if verdict.is_empty() {
        println!("agree: every end-to-end metric within its bound, every count identical");
        return Ok(ExitCode::SUCCESS);
    }
    verdict.iter().for_each(|line| println!("{line}"));
    Ok(ExitCode::FAILURE)
}
