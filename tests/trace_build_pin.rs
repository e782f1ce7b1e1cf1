//! Bit-level pin of §III-C's log → execution-trace step.
//!
//! Every command that characterizes anything builds its execution trace
//! from a raw event stream first, so instance ids, parents, keys, times,
//! pinning and blocking events must come out the same whatever the builder
//! keys its bookkeeping on. Each line below is the FNV-1a hash of one
//! complete built [`ExecutionTrace`] — every instance's id, type, parent,
//! key, start, end, machine and thread, then every blocking event in order
//! — for:
//!
//! * strict Giraph-, PowerGraph- and Spark-like streams;
//! * the same streams after a `G10TRACE` encode/decode;
//! * lenient-repaired `FaultPlan::all` streams at three seeds;
//! * the supervised per-machine merge at pool width 2, strict on the clean
//!   stream and lenient on the damaged one.
//!
//! A second hash golden pins the repair itself, not only the trace built
//! from it: per fixture and seed, the FNV-1a of the repaired stream's
//! `G10TRACE` encoding (so its exact record order, ties included) and the
//! `IngestReport` its repair counted, plus the report of the supervised
//! lenient run.
//!
//! The Giraph-like stream itself is committed as a `G10TRACE` golden too,
//! for the unit tests of `critical_path` (which cannot run an engine).
//!
//! A second golden pins the exact text of every strict rejection, in the
//! order the checks run, on one stream per rejection that also carries
//! every later defect: the earlier check must win.
//!
//! A third pins `trace::ingest` with the fixtures' monitoring: per fixture,
//! the hash of the trace it builds, of its resource trace (every instance,
//! then every measurement) and its `IngestReport`, for the clean streams
//! strict and the `FaultPlan::all` streams lenient at three seeds.
//!
//! The last test holds `trace::ingest` to the pipeline's error order: it
//! is the pipeline's `ingest` row, so a stream damaged where only the trace
//! build looks, with bad monitoring beside it, fails the same way through
//! either.
//!
//! The container test pins every byte of the `G10TRACE` containers that
//! carry monitoring as well as events: each fixture with its monitoring,
//! the stage-cache record of one simulated campaign mix (with its `KEY`),
//! and a hand-built stream whose monitoring kinds repeat a blocking
//! resource and a path segment. Their string pools list names in the order
//! `EVENTS` first references them, then the new `RESOURCES` kinds.
//!
//! Bless with `UPDATE_GOLDENS=1 cargo test --test trace_build_pin`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use grade10::cluster::{FaultPlan, SimOutput};
use grade10::core::cache::StageCache;
use grade10::core::campaign::{MixAttempt, MixMode, MixSpec};
use grade10::core::hash::{fnv1a, fnv1a_extend};
use grade10::core::model::execution::{ExecutionModelBuilder, Repeat};
use grade10::core::model::{ExecutionModel, RuleSet};
use grade10::core::parse::{build_execution_trace, RawEvent, RawEventKind};
use grade10::core::pipeline::{characterize_events, CharacterizationConfig};
use grade10::core::supervise::characterize_events_supervised;
use grade10::core::trace::{
    decode_trace, encode_trace, ingest, repair_events, ExecutionTrace, IngestConfig, IngestReport,
    IngestedInput, Measurement, RawSeries, ResourceIdx, ResourceInstance, ResourceTrace, MILLIS,
};
use grade10::engines::bridge::{
    collected_streams, to_raw_events, to_raw_series, to_resource_trace,
};
use grade10::engines::dataflow::{
    dataflow_model, dataflow_rules_tuned, run_dataflow, DataflowConfig, JobSpec,
};
use grade10::engines::gas::GasConfig;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{
    run_mix, run_workload, Algorithm, Dataset, EngineKind, WorkloadRun, WorkloadSpec,
};
use grade10::graph::partition::EdgeCutPartition;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Diffs `actual` against the checked-in golden, or re-blesses it when
/// `UPDATE_GOLDENS=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless it with UPDATE_GOLDENS=1"));
    if expected != actual {
        panic!(
            "trace build drifted from golden {name}; every characterization \
             moves with it. Re-bless with UPDATE_GOLDENS=1 only together with \
             a CODE_VERSION bump\n--- expected ---\n{expected}\
             \n--- actual ---\n{actual}"
        );
    }
}

/// [`check_golden`] for a binary stream.
fn check_stream_golden(name: &str, actual: &[u8]) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1") {
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless it with UPDATE_GOLDENS=1"));
    assert!(expected == actual, "stream drifted from golden {name}");
}

/// FNV-1a over every field of a built trace, little-endian; `None` parents
/// and pins hash as a distinct tag byte.
fn trace_hash(trace: &ExecutionTrace) -> u64 {
    let mut h = fnv1a(&(trace.instances().len() as u64).to_le_bytes());
    let opt = |h: u64, v: Option<u32>| match v {
        None => fnv1a_extend(h, &[0]),
        Some(v) => fnv1a_extend(fnv1a_extend(h, &[1]), &v.to_le_bytes()),
    };
    for i in trace.instances() {
        h = fnv1a_extend(h, &i.id.0.to_le_bytes());
        h = fnv1a_extend(h, &i.type_id.0.to_le_bytes());
        h = opt(h, i.parent.map(|p| p.0));
        h = fnv1a_extend(h, &i.key.to_le_bytes());
        h = fnv1a_extend(h, &i.start.to_le_bytes());
        h = fnv1a_extend(h, &i.end.to_le_bytes());
        h = opt(h, i.machine.map(u32::from));
        h = opt(h, i.thread.map(u32::from));
    }
    h = fnv1a_extend(h, &(trace.blocking().len() as u64).to_le_bytes());
    for b in trace.blocking() {
        h = fnv1a_extend(h, &(b.resource.len() as u64).to_le_bytes());
        h = fnv1a_extend(h, b.resource.as_bytes());
        h = fnv1a_extend(h, &b.instance.0.to_le_bytes());
        h = fnv1a_extend(h, &b.start.to_le_bytes());
        h = fnv1a_extend(h, &b.end.to_le_bytes());
    }
    h
}

/// FNV-1a over every instance of a resource trace (kind, machine,
/// capacity bits), then every instance's measurements (start, end, average
/// bits), little-endian.
fn resources_hash(rt: &ResourceTrace) -> u64 {
    let mut h = fnv1a(&(rt.instances().len() as u64).to_le_bytes());
    for i in rt.instances() {
        h = fnv1a_extend(h, &(i.kind.len() as u64).to_le_bytes());
        h = fnv1a_extend(h, i.kind.as_bytes());
        h = match i.machine {
            None => fnv1a_extend(h, &[0]),
            Some(m) => fnv1a_extend(fnv1a_extend(h, &[1]), &m.to_le_bytes()),
        };
        h = fnv1a_extend(h, &i.capacity.to_bits().to_le_bytes());
    }
    for r in 0..rt.instances().len() {
        let measurements = rt.measurements(ResourceIdx(r as u32));
        h = fnv1a_extend(h, &(measurements.len() as u64).to_le_bytes());
        for m in measurements {
            h = fnv1a_extend(h, &m.start.to_le_bytes());
            h = fnv1a_extend(h, &m.end.to_le_bytes());
            h = fnv1a_extend(h, &m.avg.to_bits().to_le_bytes());
        }
    }
    h
}

fn line(out: &mut String, name: &str, trace: &ExecutionTrace) {
    writeln!(
        out,
        "{name} instances={} blocking={} fnv1a={:016x}",
        trace.instances().len(),
        trace.blocking().len(),
        trace_hash(trace)
    )
    .unwrap();
}

/// One simulated run per engine family, with the model its events name.
struct Fixture {
    name: &'static str,
    model: ExecutionModel,
    run: SimOutput,
    rules: grade10::core::model::RuleSet,
}

fn engine_run(engine: EngineKind) -> WorkloadRun {
    run_workload(&WorkloadSpec {
        dataset: Dataset::Rmat { scale: 8, seed: 46 },
        algorithm: Algorithm::PageRank { iterations: 3 },
        engine,
    })
}

fn fixtures() -> Vec<Fixture> {
    let giraph = engine_run(EngineKind::Giraph(PregelConfig {
        machines: 3,
        threads: 2,
        ..Default::default()
    }));
    let powergraph = engine_run(EngineKind::PowerGraph(GasConfig {
        machines: 3,
        ..Default::default()
    }));
    let cfg = DataflowConfig {
        machines: 2,
        ..Default::default()
    };
    let graph = Dataset::Rmat { scale: 8, seed: 46 }.generate();
    let part = EdgeCutPartition::hash(&graph, cfg.machines * cfg.executors * 2);
    let work = Algorithm::PageRank { iterations: 3 }.run(&graph, &part);
    let job = JobSpec::from_work_profile(&work, 1.0e-4, 200.0, cfg.machines);
    let (spark_model, phases) = dataflow_model();
    vec![
        Fixture {
            name: "giraph",
            model: giraph.model,
            run: giraph.sim,
            rules: giraph.rules_tuned,
        },
        Fixture {
            name: "powergraph",
            model: powergraph.model,
            run: powergraph.sim,
            rules: powergraph.rules_tuned,
        },
        Fixture {
            name: "spark",
            model: spark_model,
            run: run_dataflow(&job, &cfg),
            rules: dataflow_rules_tuned(&phases, cfg.cores),
        },
    ]
}

#[test]
fn built_traces_are_pinned() {
    let (mut out, mut repairs) = (String::new(), String::new());
    for f in fixtures() {
        let events = to_raw_events(&f.run.logs);
        let strict = ingest(&f.model, &events, &[], &IngestConfig::default())
            .unwrap_or_else(|e| panic!("{}: clean stream rejected: {e}", f.name));
        line(&mut out, &format!("{} strict", f.name), &strict.trace);
        assert_eq!(
            trace_hash(&build_execution_trace(&f.model, &events).unwrap()),
            trace_hash(&strict.trace),
        );

        let encoded = encode_trace(&events, None);
        if f.name == "giraph" {
            // The unit tests of `critical_path` replay this stream.
            check_stream_golden("trace_build_giraph.g10t", &encoded);
        }
        let decoded = decode_trace(&encoded).unwrap().events;
        let trace = build_execution_trace(&f.model, &decoded).unwrap();
        line(&mut out, &format!("{} g10trace", f.name), &trace);

        for seed in [3, 11, 46] {
            let damaged = to_raw_events(&FaultPlan::all(seed).inject_logs(&f.run.logs));
            let mut report = IngestReport::default();
            let repaired = repair_events(&damaged, &mut report);
            let stream = fnv1a(&encode_trace(&repaired, None));
            let name = format!("{} lenient all seed={seed}", f.name);
            writeln!(
                repairs,
                "{name} events={} fnv1a={stream:016x}",
                repaired.len()
            )
            .unwrap();
            writeln!(repairs, "{name} {report:?}").unwrap();
            let trace = build_execution_trace(&f.model, &repaired).unwrap_or_else(|e| {
                panic!("{} seed {seed}: repaired stream rejected: {e}", f.name)
            });
            line(
                &mut out,
                &format!("{} lenient all seed={seed}", f.name),
                &trace,
            );
        }

        // Supervised at width 2; only the unit pool is pinned.
        let config = |lenient| {
            let mut cfg = CharacterizationConfig::new(lenient, 10 * MILLIS, None);
            cfg.supervise.threads = Some(2);
            cfg
        };
        let cfg = config(false);
        let monitoring = to_raw_series(&f.run.series, 8);
        let p = characterize_events_supervised(&f.model, &f.rules, &events, &monitoring, &cfg)
            .unwrap_or_else(|e| panic!("{}: supervised strict run failed: {e}", f.name));
        line(
            &mut out,
            &format!("{} supervised strict w2", f.name),
            &p.trace,
        );

        let cfg = config(true);
        let plan = FaultPlan::all(46);
        let (damaged, monitoring) = collected_streams(&f.run, Some(&plan));
        let p = characterize_events_supervised(&f.model, &f.rules, &damaged, &monitoring, &cfg)
            .unwrap_or_else(|e| panic!("{}: supervised lenient run failed: {e}", f.name));
        line(
            &mut out,
            &format!("{} supervised lenient all w2", f.name),
            &p.trace,
        );
        let report = &p.characterization.ingest;
        writeln!(repairs, "{} supervised lenient all w2 {report:?}", f.name).unwrap();
    }
    check_golden("trace_build_hashes.txt", &out);
    check_golden("trace_build_repairs.txt", &repairs);
}

/// One golden line per half of an [`IngestedInput`].
fn ingested_lines(out: &mut String, name: &str, input: &IngestedInput) {
    line(out, name, &input.trace);
    let rt = &input.resources;
    writeln!(
        out,
        "{name} resources={} fnv1a={:016x}",
        rt.instances().len(),
        resources_hash(rt)
    )
    .unwrap();
    writeln!(out, "{name} {:?}", input.report).unwrap();
}

#[test]
fn ingest_with_monitoring_is_pinned() {
    let mut out = String::new();
    for f in fixtures() {
        let (events, monitoring) = collected_streams(&f.run, None);
        let strict = ingest(&f.model, &events, &monitoring, &IngestConfig::default())
            .unwrap_or_else(|e| panic!("{}: clean streams rejected: {e}", f.name));
        ingested_lines(&mut out, &format!("{} strict", f.name), &strict);
        for seed in [3, 11, 46] {
            let plan = FaultPlan::all(seed);
            let (damaged, monitoring) = collected_streams(&f.run, Some(&plan));
            let lenient = ingest(&f.model, &damaged, &monitoring, &IngestConfig::lenient())
                .unwrap_or_else(|e| panic!("{} seed {seed}: repair failed: {e}", f.name));
            let name = format!("{} lenient all seed={seed}", f.name);
            ingested_lines(&mut out, &name, &lenient);
        }
    }
    check_golden("trace_ingest_monitoring.txt", &out);
}

// ---------------------------------------------------------------------------
// Strict rejections.
// ---------------------------------------------------------------------------

/// `job -> step (sequential) -> task (parallel)`.
fn tiny_model() -> ExecutionModel {
    let mut b = ExecutionModelBuilder::new("job");
    let r = b.root();
    let step = b.child(r, "step", Repeat::Sequential);
    let _ = b.child(step, "task", Repeat::Parallel);
    b.build()
}

fn start(time: u64, thread: u16, path: &[(&str, u32)]) -> RawEvent {
    let path = path.iter().map(|(n, k)| (n.to_string(), *k)).collect();
    RawEvent {
        time,
        machine: 0,
        thread,
        kind: RawEventKind::PhaseStart { path },
    }
}

fn end(time: u64, thread: u16, path: &[(&str, u32)]) -> RawEvent {
    let RawEventKind::PhaseStart { path } = start(time, thread, path).kind else {
        unreachable!()
    };
    RawEvent {
        time,
        machine: 0,
        thread,
        kind: RawEventKind::PhaseEnd { path },
    }
}

fn block(time: u64, thread: u16, resource: &str, open: bool) -> RawEvent {
    let resource = resource.to_string();
    RawEvent {
        time,
        machine: 0,
        thread,
        kind: if open {
            RawEventKind::BlockStart { resource }
        } else {
            RawEventKind::BlockEnd { resource }
        },
    }
}

/// A well-formed stream: one task that blocks on `gc` once.
fn clean_stream() -> Vec<RawEvent> {
    let (job, step, task) = (
        [("job", 0)],
        [("job", 0), ("step", 0)],
        [("job", 0), ("step", 0), ("task", 0)],
    );
    vec![
        start(10, 0, &job),
        start(10, 0, &step),
        start(10, 1, &task),
        block(20, 1, "gc", true),
        block(30, 1, "gc", false),
        end(40, 1, &task),
        end(50, 0, &step),
        end(60, 0, &job),
    ]
}

/// Every strict rejection, in the order the checks run, each as the records
/// that add exactly that defect to [`clean_stream`]. The scan rejections
/// (started twice, ended without starting, block ended without starting)
/// fire on the first offending record in time, so their defects are placed
/// in that order.
fn defects() -> Vec<(&'static str, Vec<RawEvent>)> {
    vec![
        ("out of order", vec![]), // appended last, below
        (
            "duplicate record",
            vec![start(10, 0, &[("job", 0), ("step", 0)])],
        ),
        (
            "started twice",
            vec![
                start(100, 0, &[("job", 0), ("step", 1)]),
                start(101, 0, &[("job", 0), ("step", 1)]),
            ],
        ),
        (
            "ended without starting",
            vec![end(110, 0, &[("job", 0), ("step", 2)])],
        ),
        (
            "block ended without starting",
            vec![block(120, 5, "net", false)],
        ),
        (
            "never ended",
            vec![start(130, 0, &[("job", 0), ("step", 3)])],
        ),
        ("block never ended", vec![block(140, 6, "disk", true)]),
        (
            "root mismatch",
            vec![start(150, 7, &[("bogus", 0)]), end(160, 7, &[("bogus", 0)])],
        ),
        (
            "unknown phase type",
            vec![
                start(170, 7, &[("job", 0), ("nope", 0)]),
                end(180, 7, &[("job", 0), ("nope", 0)]),
            ],
        ),
        (
            "missing parent",
            vec![
                start(190, 7, &[("job", 0), ("step", 9), ("task", 0)]),
                end(200, 7, &[("job", 0), ("step", 9), ("task", 0)]),
            ],
        ),
        (
            "duplicate instance path",
            vec![
                start(210, 1, &[("job", 0), ("step", 0), ("task", 0)]),
                end(220, 1, &[("job", 0), ("step", 0), ("task", 0)]),
            ],
        ),
    ]
}

#[test]
fn strict_rejection_texts_are_pinned() {
    let model = tiny_model();
    let clean = ingest(&model, &clean_stream(), &[], &IngestConfig::default()).unwrap();
    assert_eq!(clean.trace.instances().len(), 3);
    let defects = defects();
    // The clean stream plus the given defects, in time order except for
    // the out-of-order record, which arrives right after the job ends.
    let stream = |with: &[(&str, Vec<RawEvent>)], late: bool| {
        let mut events = clean_stream();
        events.extend(with.iter().flat_map(|(_, records)| records.iter().cloned()));
        events.sort_by_key(|e| e.time);
        if late {
            let at = events
                .iter()
                .position(|e| e.time > 60)
                .unwrap_or(events.len());
            events.insert(at, block(1, 0, "late", true));
        }
        events
    };
    let reject = |events: &[RawEvent], name: &str| match ingest(
        &model,
        events,
        &[],
        &IngestConfig::default(),
    ) {
        Ok(_) => panic!("{name}: strict ingestion accepted the stream"),
        Err(e) => e.to_string(),
    };
    let mut out = String::new();
    for (i, (name, _)) in defects.iter().enumerate() {
        let err = reject(&stream(&defects[i..], i == 0), name);
        // The same text whether or not the later defects ride along.
        let alone = reject(&stream(&defects[i..=i], i == 0), name);
        assert_eq!(alone, err, "{name}");
        writeln!(out, "{name}: {err}").unwrap();
    }
    check_golden("trace_build_errors.txt", &out);
}

/// Every defect only the trace build finds (all but the first two, which
/// the stream checks catch), on a stream whose strict monitoring carries
/// one NaN window: `trace::ingest` walks the pipeline's `ingest` row, which
/// checks each unit's monitoring before `ingest/assemble` builds the trace,
/// so it fails with `characterize_events`'s error, the monitoring one.
#[test]
fn ingest_fails_in_the_pipelines_order() {
    let (model, rules) = (tiny_model(), RuleSet::new());
    let monitoring = [RawSeries {
        instance: ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        },
        measurements: vec![Measurement {
            start: 0,
            end: 100,
            avg: f64::NAN,
        }],
    }];
    let cfg = CharacterizationConfig::default();
    let defects = defects();
    assert_eq!(defects.len() - 2, 9);
    for (name, records) in &defects[2..] {
        let mut events = clean_stream();
        events.extend(records.iter().cloned());
        events.sort_by_key(|e| e.time);
        let ingested = match ingest(&model, &events, &monitoring, &cfg.ingest) {
            Ok(_) => panic!("{name}: strict ingestion accepted the stream"),
            Err(e) => e.to_string(),
        };
        let characterized = match characterize_events(&model, &rules, &events, &monitoring, &cfg) {
            Ok(_) => panic!("{name}: strict characterization accepted the stream"),
            Err(e) => e.to_string(),
        };
        assert_eq!(ingested, characterized, "{name}");
        assert!(
            ingested.contains("non-finite sample NaN"),
            "{name}: {ingested}"
        );
    }
}

// ---------------------------------------------------------------------------
// Container bytes.
// ---------------------------------------------------------------------------

/// One golden line per container: its length and FNV-1a.
fn container_line(out: &mut String, name: &str, bytes: &[u8]) {
    writeln!(
        out,
        "{name} bytes={} fnv1a={:016x}",
        bytes.len(),
        fnv1a(bytes)
    )
    .unwrap();
}

/// Every byte of the containers that carry more than events: each
/// fixture's stream with its monitoring, the stage-cache record of one
/// simulated campaign mix (`RESOURCES` and `KEY`), and a hand-built stream
/// whose monitoring kinds repeat a blocking resource and a path segment,
/// so the string pool's order and its dedup across sections are fixed.
#[test]
fn containers_are_pinned() {
    let mut out = String::new();
    for f in fixtures() {
        let events = to_raw_events(&f.run.logs);
        let rt = to_resource_trace(&f.run.series, 8);
        let name = format!("{} with monitoring", f.name);
        container_line(&mut out, &name, &encode_trace(&events, Some(&rt)));
    }

    let dir = std::env::temp_dir().join(format!("g10-container-pin-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = StageCache::open(&dir).expect("open cache");
    let mix = MixSpec {
        algorithm: "pr".into(),
        dataset: "rmat:6".into(),
        engine: "giraph".into(),
        machines: 2,
        seed: 46,
        fault: "all".into(),
    };
    let attempt = MixAttempt {
        index: 0,
        mode: MixMode::Lenient,
    };
    run_mix(&mix, "container-pin", attempt, Some(&cache)).expect("a lenient mix");
    let mut records: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .collect();
    records.sort();
    // The rung succeeded, so its outcome record sits beside the streams.
    let names: Vec<String> = records
        .iter()
        .map(|p| {
            p.file_name()
                .expect("a file")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert!(
        matches!(&names[..], [o, s] if o.starts_with("outcome-") && s.starts_with("streams-")),
        "{names:?}"
    );
    let record = fs::read(&records[1]).expect("record");
    container_line(&mut out, "stage-cache record", &record);
    let _ = fs::remove_dir_all(&dir);

    let mut rt = ResourceTrace::new();
    for (kind, machine) in [("cpu", Some(0)), ("gc", Some(0)), ("step", None)] {
        let r = rt.add_resource(ResourceInstance {
            kind: kind.into(),
            machine,
            capacity: 2.0,
        });
        rt.add_series(r, 0, 20, &[0.5, 1.5, 0.25]);
    }
    let mut events = clean_stream();
    events.push(start(70, 2, &[]));
    events.push(end(80, 2, &[]));
    container_line(&mut out, "hand-built", &encode_trace(&events, Some(&rt)));
    container_line(&mut out, "hand-built events", &encode_trace(&events, None));
    check_golden("container_bytes.txt", &out);
}
