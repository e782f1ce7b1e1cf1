//! Layer measurements made on the side of the replayed ops: one layer at a
//! time on one input, so that envelope costs the hop sequence cannot
//! separate (cache, journal, store, supervision, mmap) still get a number.
//! Every call is a span tagged `ASIDE`; counts that are not a span's work
//! go into the returned map.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use grade10_core::attribution::attribute::attribute;
use grade10_core::attribution::demand::estimate_demand;
use grade10_core::attribution::PerformanceProfile;
use grade10_core::cache::StageCache;
use grade10_core::campaign::{
    run_campaign, CampaignOptions, CampaignSpec, Journal, MixOutcome, MixSpec, Store,
};
use grade10_core::model::{ExecutionModel, RuleSet};
use grade10_core::parse::{read_events_json, RawEvent};
use grade10_core::pipeline::characterize_events;
use grade10_core::report::campaign_report;
use grade10_core::supervise::characterize_events_supervised;
use grade10_core::trace::binary::map_trace_file;
use grade10_core::trace::{decode_trace, encode_trace, RawSeries, ResourceIdx, ResourceTrace};
use grade10_core::{build_profile, Parallelism};

use crate::hops;
use crate::proc;
use crate::spans::Tracer;
use crate::stats::median;

/// The run the stations work on: one of the workload's own inputs.
pub struct Primary {
    pub model: ExecutionModel,
    pub rules: RuleSet,
    pub events: Vec<RawEvent>,
    pub monitoring: Vec<RawSeries>,
    pub slice_ms: u64,
    pub lenient: bool,
}

const JOURNAL_APPENDS: u64 = 32;
const STORE_OUTCOMES: u64 = 16;
const ENVELOPE_MIXES: u64 = 64;
const STARTUPS: usize = 5;

fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn outcome(i: u64) -> MixOutcome {
    let mix = MixSpec {
        algorithm: "pr".into(),
        dataset: "rmat:8".into(),
        engine: "giraph".into(),
        machines: 4,
        seed: i,
        fault: "none".into(),
    };
    MixOutcome {
        hash: mix.content_hash("station"),
        mix,
        makespan_ns: 1_000_000_000 + i,
        classes: vec!["bottleneck:cpu".into(), "blocking:gc".into()],
        incidents: 0,
        degraded: false,
        attempts: 1,
        mode: "strict".into(),
    }
}

/// The two laws attribution must obey, checked on one profile: upsampled
/// consumption never exceeds capacity, and what was measured is either
/// attributed, left unattributed, or counted as overflow.
pub fn check_conservation(
    profile: &PerformanceProfile,
    resources: &ResourceTrace,
) -> Result<(), String> {
    let slice_secs = profile.grid.slice_secs();
    let mut attributed = vec![0.0f64; profile.resources.len()];
    for usage in &profile.usages {
        attributed[usage.resource.0 as usize] += usage.usage.iter().sum::<f64>();
    }
    for (r, instance) in profile.resources.iter().enumerate() {
        let cap = instance.capacity;
        if let Some(over) = profile
            .consumption
            .row(r)
            .iter()
            .find(|&&c| c > cap * (1.0 + 1e-9))
        {
            return Err(format!(
                "{}: consumption {over} above capacity {cap}",
                instance.label()
            ));
        }
        let consumed: f64 = profile.consumption.row(r).iter().sum();
        let unattributed: f64 = profile.unattributed.row(r).iter().sum();
        let measured = resources.total_consumption(ResourceIdx(r as u32));
        let scale = measured
            .abs()
            .max(consumed.abs() * slice_secs)
            .max(f64::MIN_POSITIVE);
        let upsampled = consumed * slice_secs + profile.overflow[r];
        // Estimated cells (lenient runs) add consumption nobody measured.
        if profile.estimated.count_set() == 0 && (upsampled - measured).abs() > 1e-9 * scale {
            return Err(format!(
                "{}: measured {measured} but upsampled + overflow {upsampled}",
                instance.label()
            ));
        }
        if (attributed[r] + unattributed - consumed).abs()
            > 1e-9 * consumed.abs().max(f64::MIN_POSITIVE)
        {
            return Err(format!(
                "{}: attributed {} + unattributed {unattributed} != consumed {consumed}",
                instance.label(),
                attributed[r]
            ));
        }
    }
    Ok(())
}

fn dir_files(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(meta) = entry.metadata() {
            files += 1;
            bytes += meta.len();
        }
    }
    (files, bytes)
}

/// Runs every station once on `p`, writing its files under `scratch`.
pub fn run(
    t: &Tracer,
    p: &Primary,
    scratch: &Path,
    grade10: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut counts = BTreeMap::new();
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(err_str)?;
    let n_events = p.events.len() as u64;
    let cfg = hops::pipeline_config(p.slice_ms, p.lenient);

    // Whole pipeline in one call: the cross-check for the per-stage spans
    // and the baseline supervision and the cache are compared against.
    let started = Instant::now();
    let whole = t
        .span(
            "core.pipeline.characterize_events",
            || characterize_events(&p.model, &p.rules, &p.events, &p.monitoring, &cfg),
            |_| n_events,
        )
        .map_err(err_str)?;
    counts.insert("station.plain_s", started.elapsed().as_secs_f64());
    counts.insert("core.issues.found", whole.issues.len() as f64);
    counts.insert(
        "core.trace.repair.lenient.repairs",
        whole.ingest.event_repairs() as f64,
    );

    // Attribution split three ways: demand and attribute alone, upsampling
    // as what is left of a sequential build_profile.
    let quiet = Tracer::new(false);
    let (trace, resources, _) =
        hops::ingest(&quiet, &p.model, &p.events, &p.monitoring, &cfg.ingest).map_err(err_str)?;
    let mut never = cfg.profile.clone();
    never.parallelism = Parallelism::Never;
    let profile = t.span(
        "core.attribution.profile.never",
        || build_profile(&p.model, &p.rules, &trace, &resources, &never),
        |pr| pr.grid.num_slices() as u64,
    );
    counts.insert(
        "core.attribution.profile.cells",
        (profile.grid.num_slices() * profile.resources.len()) as f64,
    );
    let slices = profile.grid.num_slices() as u64;
    let dm = t.span(
        "core.attribution.demand",
        || estimate_demand(&p.model, &p.rules, &trace, &resources, &profile.grid),
        |_| slices,
    );
    t.span(
        "core.attribution.attribute",
        || attribute(&dm, &profile.consumption),
        |_| slices,
    );
    check_conservation(&profile, &resources)?;

    // Supervision at width 1 and 2 on the same input.
    for (name, width) in [("core.supervise.w1", 1), ("core.supervise.w2", 2)] {
        let mut sup = cfg.clone();
        sup.supervise.threads = Some(width);
        let partial = t
            .span(
                name,
                || {
                    characterize_events_supervised(
                        &p.model,
                        &p.rules,
                        &p.events,
                        &p.monitoring,
                        &sup,
                    )
                },
                |_| n_events,
            )
            .map_err(err_str)?;
        counts.insert("core.supervise.incidents", partial.incidents.len() as f64);
    }

    // Stage cache: the same call against an empty, then a filled cache.
    let cache = Arc::new(StageCache::open(&scratch.join("stage-cache")).map_err(err_str)?);
    let mut cached = cfg.clone();
    cached.supervise.cache = Some(cache.clone());
    let mut misses_cold = 0;
    for name in ["core.cache.cold", "core.cache.warm"] {
        t.span(
            name,
            || characterize_events(&p.model, &p.rules, &p.events, &p.monitoring, &cached),
            |_| n_events,
        )
        .map_err(err_str)?;
        if name == "core.cache.cold" {
            misses_cold = cache.stats().misses;
        }
    }
    let stats = cache.stats();
    let warm_lookups = stats.hits + stats.misses - misses_cold;
    counts.insert("core.cache.hits", stats.hits as f64);
    counts.insert(
        "core.cache.hit_share",
        stats.hits as f64 / warm_lookups.max(1) as f64,
    );
    let (files, bytes) = dir_files(cache.dir());
    counts.insert(
        "core.cache.record_bytes",
        bytes as f64 / files.max(1) as f64,
    );

    // Journal: durable appends, then a replay of what was appended.
    let journal_path = scratch.join("journal.jsonl");
    let mut journal = Journal::create(&journal_path, "station").map_err(err_str)?;
    for i in 0..JOURNAL_APPENDS {
        t.span(
            "core.campaign.journal.append",
            || journal.record_finished("mix", i, 1),
            |_| 1,
        )
        .map_err(err_str)?;
    }
    drop(journal);
    t.span(
        "core.campaign.journal.replay",
        || Journal::replay_snapshot(&journal_path),
        |_| JOURNAL_APPENDS + 1,
    )
    .map_err(err_str)?;

    // Result store.
    let store = Store::open(&scratch.join("store")).map_err(err_str)?;
    let outcomes: Vec<MixOutcome> = (0..ENVELOPE_MIXES).map(outcome).collect();
    for out in outcomes.iter().take(STORE_OUTCOMES as usize) {
        t.span("core.campaign.store.put", || store.put(out), |_| 1)
            .map_err(err_str)?;
    }
    for out in outcomes.iter().take(STORE_OUTCOMES as usize) {
        let loaded = t.span(
            "core.campaign.store.load",
            || store.load(out.hash, &out.mix),
            |_| 1,
        );
        if loaded.as_ref() != Some(out) {
            return Err(format!("store lost outcome {}", out.mix.id()));
        }
    }

    // The campaign envelope alone: a matrix whose runner does no work.
    let spec = CampaignSpec {
        name: "station".into(),
        code_version: "station".into(),
        algorithms: vec!["pr".into()],
        datasets: vec!["rmat:8".into()],
        engines: vec!["giraph".into()],
        machines: vec![4],
        seeds: (0..ENVELOPE_MIXES).collect(),
        faults: vec!["none".into()],
    };
    let opts = CampaignOptions::new(scratch.join("envelope"));
    let run = t
        .span(
            "core.campaign.envelope",
            || run_campaign(&spec, &opts, |mix, _| Ok(outcome(mix.seed))),
            |_| ENVELOPE_MIXES,
        )
        .map_err(err_str)?;
    if run.outcomes.len() as u64 != ENVELOPE_MIXES || !run.is_clean() {
        return Err("envelope campaign did not finish clean".to_string());
    }
    t.span(
        "core.campaign.report",
        || campaign_report("station", &outcomes, &[]),
        |_| ENVELOPE_MIXES,
    );

    // Both codecs on the primary's events, and both ways to open the file.
    let jsonl = hops::events_jsonl(t, &p.events).map_err(err_str)?;
    let back = t
        .span(
            "core.parse.read_json",
            || read_events_json(jsonl.as_slice()),
            |_| jsonl.len() as u64,
        )
        .map_err(err_str)?;
    let container = t.span(
        "core.trace.binary.encode",
        || encode_trace(&p.events, None),
        |b| b.len() as u64,
    );
    let decoded = t
        .span(
            "core.trace.binary.decode",
            || decode_trace(&container),
            |_| container.len() as u64,
        )
        .map_err(err_str)?;
    if back != p.events || decoded.events != p.events {
        return Err("a codec did not round-trip the primary's events".to_string());
    }
    let trace_path = scratch.join("primary.g10t");
    std::fs::write(&trace_path, &container).map_err(err_str)?;
    for _ in 0..STARTUPS {
        let mapped = t
            .span(
                "core.trace.binary.open_mmap",
                || map_trace_file(&trace_path),
                |_| container.len() as u64,
            )
            .map_err(err_str)?;
        let read = t
            .span(
                "core.trace.binary.open_read",
                || std::fs::read(&trace_path),
                |_| container.len() as u64,
            )
            .map_err(err_str)?;
        if mapped[..] != read[..] {
            return Err("mmap and read disagree on the trace file".to_string());
        }
    }

    // Process floor: the cheapest command the program has.
    let mut startups = Vec::new();
    for _ in 0..STARTUPS {
        let exit = proc::run(
            Command::new(grade10)
                .args(["export-model", "--engine", "giraph", "-o"])
                .arg(scratch.join("model.json"))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
            proc::LIMIT,
        )
        .map_err(err_str)?;
        if exit.code != Some(0) {
            return Err(format!("export-model exited with {:?}", exit.code));
        }
        startups.push(exit.wall_s);
    }
    counts.insert("cli.startup_s", median(&startups));
    Ok(counts)
}
