//! The traced run: the workload's hop sequence replayed in-process with a
//! span around each call, the stations, and the per-layer metrics computed
//! from the spans. End-to-end numbers never come from here.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use grade10_core::campaign::CampaignSpec;
use grade10_engines::bridge::{to_raw_events, to_raw_series};
use serde::Value;

use crate::e2e::{invoke, Env};
use crate::hops::{self, AnalyzeInput};
use crate::json::obj;
use crate::metrics::PER_LAYER;
use crate::spans::{self, LayerTotal, Span, Tracer, ASIDE};
use crate::stations::{self, Primary};
use crate::stats::faster_half_mean;
use crate::workloads::{
    self, FixtureInfo, Scale, Variant, Workload, ANALYZE_SLICE_MS, DEMO_ENGINES,
};

/// Result of a traced run of one workload.
pub struct Traced {
    pub fixture: FixtureInfo,
    pub attempted: u64,
    pub failed: u64,
    /// Why an op failed its check, for the human reading the run.
    pub notes: Vec<String>,
    /// Metric values by name, in `metrics::PER_LAYER` order.
    pub values: Vec<(&'static str, f64)>,
    /// Counts that must repeat exactly from run to run of one commit.
    pub counts: BTreeMap<String, u64>,
}

/// Times the real program runs each slot in a traced run.
const REFERENCE_PASSES: usize = 3;

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Replays one variant's share of an op and returns what the program would
/// have printed, one text (and exit code) per invocation.
fn replay_variant(
    t: &Tracer,
    workload: Workload,
    scale: &Scale,
    v: &Variant,
) -> Result<Vec<(String, i32)>, String> {
    let replay_dir = v.dir.join("replay");
    let _ = fs::remove_dir_all(&replay_dir);
    let bundle = v.dir.join("bundle.json");
    match workload {
        Workload::Demo => DEMO_ENGINES
            .iter()
            .map(|engine| {
                let logs = replay_dir.join(engine);
                let spec = hops::demo_spec(scale.demo_rmat, v.seed, engine);
                hops::demo(t, &spec, &logs, &logs.join("report.html")).map(|text| (text, 0))
            })
            .collect(),
        Workload::AnalyzeText => {
            let (events, resources) = (v.dir.join("events.jsonl"), v.dir.join("resources.json"));
            let input = AnalyzeInput::Text {
                events: &events,
                resources: &resources,
            };
            Ok(vec![hops::analyze(
                t,
                &bundle,
                &input,
                ANALYZE_SLICE_MS,
                false,
                false,
            )?])
        }
        Workload::AnalyzeBinary => {
            let input = AnalyzeInput::Binary(&v.dir.join("trace.g10t"));
            Ok(vec![hops::analyze(
                t,
                &bundle,
                &input,
                ANALYZE_SLICE_MS,
                false,
                false,
            )?])
        }
        Workload::AnalyzeDamaged => {
            let input = AnalyzeInput::Binary(&v.dir.join("damaged.g10t"));
            Ok(vec![hops::analyze(
                t,
                &bundle,
                &input,
                ANALYZE_SLICE_MS,
                true,
                true,
            )?])
        }
        Workload::CampaignCold | Workload::CampaignWarm | Workload::CampaignFleet => {
            let dir = replay_dir.join("campaign");
            let cache = replay_dir.join("cache");
            if workload == Workload::CampaignWarm {
                workloads::copy_dir(&workloads::filled_cache(v), &cache)
                    .map_err(|e| e.to_string())?;
            }
            Ok(vec![(
                hops::campaign(t, &v.dir.join("spec.json"), &dir, &cache)?,
                0,
            )])
        }
    }
}

/// One of the workload's own inputs for the stations to work on.
fn primary(t: &Tracer, workload: Workload, scale: &Scale, v: &Variant) -> Result<Primary, String> {
    let simulated = |spec| {
        let run = hops::run_workload(t, &spec);
        Primary {
            events: to_raw_events(&run.sim.logs),
            monitoring: to_raw_series(&run.sim.series, 8),
            model: run.model,
            rules: run.rules_tuned,
            slice_ms: 10,
            lenient: false,
        }
    };
    match workload {
        Workload::Demo => Ok(simulated(hops::demo_spec(
            scale.demo_rmat,
            v.seed,
            DEMO_ENGINES[0],
        ))),
        Workload::AnalyzeText | Workload::AnalyzeBinary | Workload::AnalyzeDamaged => {
            let damaged = workload == Workload::AnalyzeDamaged;
            let path = v.dir.join(if damaged {
                "damaged.g10t"
            } else {
                "trace.g10t"
            });
            let loaded =
                hops::analyze_load(t, &v.dir.join("bundle.json"), &AnalyzeInput::Binary(&path))?;
            Ok(Primary {
                model: loaded.bundle.execution,
                rules: loaded.bundle.rules,
                events: loaded.events,
                monitoring: loaded.monitoring,
                slice_ms: ANALYZE_SLICE_MS,
                lenient: damaged,
            })
        }
        _ => {
            let spec = CampaignSpec::load(&v.dir.join("spec.json")).map_err(|e| e.to_string())?;
            let first = spec
                .expand()
                .into_iter()
                .next()
                .ok_or("campaign spec has no mixes")?;
            Ok(simulated(hops::mix_spec(&first)?))
        }
    }
}

pub fn run(
    env: &Env,
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
) -> io::Result<Traced> {
    let work_dir = env.work_dir(workload);
    let stdout_path = work_dir.join("stdout.txt");
    let variants = workloads::variants(workload, &work_dir, scale, seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let tracer = Tracer::new(true);

    // Set-up in-process, so the generation layers get spans too.
    let setup_start = Instant::now();
    let _ = fs::remove_dir_all(&work_dir);
    fs::create_dir_all(&work_dir)?;
    let fixture = workloads::generate_fixtures(workload, scale, seed, &work_dir, &tracer)?;

    // The real program on every slot: the text the replay must reproduce
    // and the cost the spans must add up to (each slot's typical run of
    // `REFERENCE_PASSES`, estimated as in the end-to-end run). Campaign
    // workloads also fill the warm cache here, as the end-to-end set-up does.
    let mut expected: Vec<Vec<(String, i32)>> = Vec::new();
    let (mut reference_wall, mut reference_cpu, mut invocations) = (0.0, 0.0, 0u64);
    for v in &variants {
        if workload.is_campaign() {
            for inv in workloads::reference_invocations(workload, scale, v) {
                invoke(env, &inv, &stdout_path)?;
            }
        }
        let mut texts = Vec::new();
        for inv in workloads::invocations(workload, scale, v) {
            let (mut wall, mut cpu) = (Vec::new(), Vec::new());
            for _ in 0..REFERENCE_PASSES.min(scale.min_reps) {
                let (exit, observed) = invoke(env, &inv, &stdout_path)?;
                attempted += 1;
                if observed.code != Some(inv.expect_code) {
                    failed += 1;
                    notes.push(format!(
                        "{}: exit {:?}, expected {}",
                        inv.args[0], observed.code, inv.expect_code
                    ));
                }
                wall.push(exit.wall_s);
                cpu.push(exit.cpu_s);
            }
            reference_wall += faster_half_mean(&wall);
            reference_cpu += faster_half_mean(&cpu);
            invocations += 1;
            texts.push((fs::read_to_string(&stdout_path)?, inv.expect_code));
        }
        expected.push(texts);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    // Replay whole ops, alternately with and without spans, until the time
    // is up; the difference between the two is the tracing overhead.
    let silent = Tracer::new(false);
    let start = Instant::now();
    let (mut traced_s, mut untraced_s, mut ops) = (0.0, 0.0, 0u32);
    while (ops as usize) < scale.min_reps || start.elapsed().as_secs_f64() < seconds {
        for t in [&tracer, &silent] {
            t.set_op(ops);
            let op_start = Instant::now();
            let texts = t
                .span(
                    "replay.op",
                    || {
                        variants
                            .iter()
                            .map(|v| replay_variant(t, workload, scale, v))
                            .collect::<Result<Vec<_>, _>>()
                    },
                    |_| 0,
                )
                .map_err(other)?;
            let elapsed = op_start.elapsed().as_secs_f64();
            if std::ptr::eq(t, &tracer) {
                traced_s += elapsed;
                attempted += invocations;
                if texts != expected {
                    failed += invocations;
                    notes.push(format!(
                        "op {ops}: the replay's output differs from the program's"
                    ));
                }
            } else {
                untraced_s += elapsed;
            }
        }
        ops += 1;
    }

    tracer.set_op(ASIDE);
    let first = variants
        .first()
        .ok_or_else(|| other("scale has no variants"))?;
    let station_counts = primary(&tracer, workload, scale, first)
        .and_then(|p| stations::run(&tracer, &p, &work_dir.join("stations"), &env.grade10))
        .map_err(other)?;

    let spans = tracer.into_spans();
    let all = spans::totals(&spans, |_| true);
    let on_path = spans::totals(&spans, |s| s.op != ASIDE);
    let layer = |name: &str| all.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| {
        let t = layer(name);
        if t.calls == 0 {
            0.0
        } else {
            t.self_s / t.calls as f64
        }
    };
    let rate = |name: &str, scale: f64| {
        let t = layer(name);
        if t.self_s > 0.0 {
            t.work as f64 / scale / t.self_s
        } else {
            0.0
        }
    };
    let count = |name: &str| station_counts.get(name).copied().unwrap_or(0.0);

    let startup_s = count("cli.startup_s");
    let glue = on_path.get("replay.op").copied().unwrap_or_default();
    let layers_s: f64 = on_path
        .iter()
        .filter(|(name, _)| **name != "replay.op")
        .map(|(_, t)| t.self_s)
        .sum();
    let n_ops = f64::from(ops);
    // Above 1 where the program overlaps what the replay runs back to back
    // (two supervised units, two worker processes).
    let coverage = (layers_s / n_ops + invocations as f64 * startup_s) / reference_wall;
    let profile_never = per_call("core.attribution.profile.never");
    // Workloads whose hop sequence never builds a profile on its own still
    // report the layer, from the station's sequential build.
    let profile = match layer("core.attribution.profile") {
        t if t.calls > 0 => t,
        _ => layer("core.attribution.profile.never"),
    };
    // The plain pipeline on the stations' input: what supervision and the
    // cache are compared against.
    let plain = count("station.plain_s");
    let (cold, warm) = (per_call("core.cache.cold"), per_call("core.cache.warm"));

    let value = |name: &str| -> f64 {
        match name {
            "core.model.persist.load_s" => per_call("core.model.persist"),
            "core.trace.binary.open_mmap_us" => per_call("core.trace.binary.open_mmap") * 1e6,
            "core.trace.binary.open_read_us" => per_call("core.trace.binary.open_read") * 1e6,
            "core.fs.atomic_write_us" => per_call("core.fs.atomic_write") * 1e6,
            "core.attribution.profile.slices_per_s" if profile.self_s > 0.0 => {
                profile.work as f64 / profile.self_s
            }
            "core.attribution.profile.busy_s" if profile.calls > 0 => {
                profile.self_s / profile.calls as f64
            }
            "core.attribution.upsample.busy_s" => (profile_never
                - per_call("core.attribution.demand")
                - per_call("core.attribution.attribute"))
            .max(0.0),
            "core.supervise.overhead_ratio" => per_call("core.supervise.w1") / plain,
            "core.cache.store_overhead_s" => cold - plain,
            "core.cache.saved_s_per_hit" => (cold - warm) / count("core.cache.hits").max(1.0),
            "core.campaign.journal.append_fsync_us" => {
                per_call("core.campaign.journal.append") * 1e6
            }
            "core.campaign.journal.replay_records_per_s" => {
                rate("core.campaign.journal.replay", 1.0)
            }
            "core.campaign.store.put_us" => per_call("core.campaign.store.put") * 1e6,
            "core.campaign.store.load_us" => per_call("core.campaign.store.load") * 1e6,
            "core.campaign.envelope_us_per_mix" => {
                let t = layer("core.campaign.envelope");
                if t.work == 0 {
                    0.0
                } else {
                    t.self_s * 1e6 / t.work as f64
                }
            }
            "cli.startup_ms" => startup_s * 1e3,
            "replay.glue.busy_s" => glue.self_s / n_ops,
            "replay.op_s" => traced_s / n_ops,
            "replay.ops" => n_ops,
            "reference.cpu_s" => reference_cpu,
            "reference.wall_s" => reference_wall,
            "trace.coverage" => coverage,
            "trace.overhead_ratio" => traced_s / untraced_s,
            "trace.spans" => spans.len() as f64,
            "trace.setup_s" => setup_s,
            _ => {
                if let Some(name) = name.strip_suffix(".busy_s") {
                    per_call(name)
                } else if let Some(name) = name.strip_suffix(".mb_per_s") {
                    rate(name, 1e6)
                } else if let Some((name, _)) = name
                    .rsplit_once('.')
                    .filter(|(_, unit)| unit.ends_with("_per_s"))
                {
                    rate(name, 1.0)
                } else {
                    count(name)
                }
            }
        }
    };
    let values: Vec<(&'static str, f64)> =
        PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();

    // Counts that do not depend on how many ops fit into the time.
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for name in [
        "core.issues.found",
        "core.trace.repair.lenient.repairs",
        "core.attribution.profile.cells",
        "core.supervise.incidents",
        "core.cache.hits",
        "core.cache.record_bytes",
    ] {
        counts.insert(name.to_string(), count(name) as u64);
    }
    for (name, total) in spans::totals(&spans, |s| s.op == 0 || s.op == ASIDE) {
        counts.insert(format!("{name}.work"), total.work);
        counts.insert(format!("{name}.calls"), total.calls);
    }

    write_trace(
        &env.out_dir.join(format!("trace-{}.json", workload.name())),
        workload,
        seed,
        &spans,
        &all,
    )?;
    Ok(Traced {
        fixture,
        attempted,
        failed,
        notes,
        values,
        counts,
    })
}

fn write_trace(
    path: &Path,
    workload: Workload,
    seed: u64,
    spans: &[Span],
    totals: &BTreeMap<&'static str, LayerTotal>,
) -> io::Result<()> {
    let layers = totals
        .iter()
        .map(|(name, t)| {
            let total = obj(vec![
                ("self_s", Value::Float(t.self_s)),
                ("calls", Value::UInt(t.calls)),
                ("work", Value::UInt(t.work)),
            ]);
            (name.to_string(), total)
        })
        .collect();
    let doc = obj(vec![
        ("workload", Value::Str(workload.name().to_string())),
        ("seed", Value::UInt(seed)),
        ("layers", Value::Object(layers)),
        ("spans", spans::spans_to_value(spans)),
    ]);
    fs::write(path, serde_json::to_string(&doc).map_err(other)?)
}
