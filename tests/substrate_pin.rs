//! Bit-level pin of the simulated substrate: graph construction, the
//! PowerGraph greedy vertex cut and the cluster simulator.
//!
//! Everything Grade10 characterizes in this repository is produced by these
//! three layers, and every downstream golden and benchmark fixture inherits
//! their output. Each test below hashes one layer's complete output with
//! FNV-1a and compares it with a committed golden, so an optimization of
//! the substrate must reproduce it byte for byte:
//!
//! * R-MAT's raw sample stream (`generate_edges`, before any dedup or
//!   sorting, in draw order), which the CSR pin cannot see reordered;
//! * the CSR adjacency (`neighbors` and `in_neighbors` of every vertex) of
//!   R-MAT and social graphs;
//! * `VertexCutPartition::greedy`'s owner of every edge at 1, 3, 32 and 64
//!   parts, including the benchmark's campaign shape (`rmat:12`, 32 parts);
//! * the simulator's log stream, as the `G10TRACE` encoding of its bridged
//!   events, and the bits of every ground-truth utilization sample, for
//!   Giraph- and PowerGraph-like runs on both dataset families, at the
//!   default configurations and off them, and for Spark-like dataflow runs;
//! * the fault harness's corrupted log and monitoring streams, for every
//!   fault class alone and the `all` and `hostile` presets, at three seeds.
//!
//! Bless with `UPDATE_GOLDENS=1 cargo test --test substrate_pin`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use grade10::cluster::{FaultClass, FaultPlan, SimOutput};
use grade10::core::hash::{fnv1a, fnv1a_extend};
use grade10::core::trace::encode_trace;
use grade10::engines::bridge::to_raw_events;
use grade10::engines::dataflow::{run_dataflow, DataflowConfig, JobSpec};
use grade10::engines::gas::GasConfig;
use grade10::engines::pregel::PregelConfig;
use grade10::engines::{
    run_workload, simulate_workload, Algorithm, Dataset, EngineKind, WorkloadSpec,
};
use grade10::graph::generators::rmat::RmatConfig;
use grade10::graph::partition::{EdgeCutPartition, VertexCutPartition};
use grade10::graph::CsrGraph;

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
            "substrate output drifted from golden {name}; every downstream golden \
             and benchmark fixture moves with it. Re-bless with UPDATE_GOLDENS=1 \
             only together with a CODE_VERSION bump\n--- expected ---\n{expected}\
             \n--- actual ---\n{actual}"
        );
    }
}

const DATASETS: [Dataset; 3] = [
    Dataset::Rmat {
        scale: 10,
        seed: 46,
    },
    Dataset::Social {
        vertices: 3000,
        seed: 46,
    },
    Dataset::Rmat {
        scale: 12,
        seed: 46,
    },
];

fn label(d: &Dataset) -> String {
    match d {
        Dataset::Rmat { scale, seed } => format!("rmat:{scale} seed={seed}"),
        Dataset::Social { vertices, seed } => format!("social:{vertices} seed={seed}"),
    }
}

/// Hashes a vertex-indexed adjacency: each vertex's length, then its
/// entries, all little-endian, so equal hashes mean equal offsets and
/// targets.
fn adjacency_hash<'a>(g: &'a CsrGraph, adj: impl Fn(u32) -> &'a [u32]) -> u64 {
    let mut h = fnv1a(&(g.num_vertices() as u64).to_le_bytes());
    for v in g.vertices() {
        let list = adj(v);
        h = fnv1a_extend(h, &(list.len() as u64).to_le_bytes());
        for &t in list {
            h = fnv1a_extend(h, &t.to_le_bytes());
        }
    }
    h
}

#[test]
fn rmat_sample_stream_is_pinned() {
    let mut configs: Vec<RmatConfig> = [10, 12]
        .into_iter()
        .flat_map(|scale| [46, 47].map(|seed| RmatConfig::graph500(scale, seed)))
        .collect();
    // Off the Graph500 point, with b != c so a swapped src/dst bit shows.
    configs.push(RmatConfig {
        scale: 11,
        edge_factor: 8,
        a: 0.45,
        b: 0.25,
        c: 0.15,
        seed: 5,
        clean: false,
    });
    let mut out = String::new();
    for cfg in &configs {
        let edges = cfg.generate_edges();
        let stream = edges.iter().fold(fnv1a(&[]), |h, &(s, t)| {
            fnv1a_extend(fnv1a_extend(h, &s.to_le_bytes()), &t.to_le_bytes())
        });
        writeln!(
            out,
            "rmat:{} ef={} a={} b={} c={} seed={} samples={} stream={stream:016x}",
            cfg.scale,
            cfg.edge_factor,
            cfg.a,
            cfg.b,
            cfg.c,
            cfg.seed,
            edges.len(),
        )
        .unwrap();
    }
    check_golden("substrate_rmat_samples.txt", &out);
}

#[test]
fn csr_adjacency_is_pinned() {
    let mut out = String::new();
    for d in &DATASETS {
        let g = d.generate();
        writeln!(
            out,
            "{} vertices={} edges={} out={:016x} in={:016x}",
            label(d),
            g.num_vertices(),
            g.num_edges(),
            adjacency_hash(&g, |v| g.neighbors(v)),
            adjacency_hash(&g, |v| g.in_neighbors(v)),
        )
        .unwrap();
    }
    check_golden("substrate_csr.txt", &out);
}

#[test]
fn greedy_vertex_cut_is_pinned() {
    let mut out = String::new();
    for d in &DATASETS {
        let g = d.generate();
        for parts in [1, 3, 32, 64] {
            let p = VertexCutPartition::greedy(&g, parts);
            let owners = (0..g.num_edges() as u64).fold(fnv1a(&[]), |h, e| {
                fnv1a_extend(h, &p.edge_owner(e).to_le_bytes())
            });
            writeln!(
                out,
                "{} parts={parts} loads={:?} owners={owners:016x}",
                label(d),
                p.edge_loads(),
            )
            .unwrap();
        }
    }
    check_golden("substrate_greedy.txt", &out);
}

/// One line of a simulator pin: the run's end time, its record count, the
/// `G10TRACE` encoding of its bridged events and the bits of every
/// ground-truth utilization sample.
fn sim_line(out: &mut String, name: &str, sim: &SimOutput) {
    let events = encode_trace(&to_raw_events(&sim.logs), None);
    let mut series = fnv1a(&[]);
    for s in &sim.series {
        series = fnv1a_extend(series, s.spec.label().as_bytes());
        series = fnv1a_extend(series, &s.interval.as_nanos().to_le_bytes());
        for x in &s.samples {
            series = fnv1a_extend(series, &x.to_bits().to_le_bytes());
        }
    }
    writeln!(
        out,
        "{name} end_ns={} records={} events={:016x} series={series:016x}",
        sim.end_time.0,
        sim.logs.len(),
        fnv1a(&events),
    )
    .unwrap();
}

#[test]
fn simulator_output_is_pinned() {
    let mut out = String::new();
    for seed in [46, 47] {
        let datasets = [
            Dataset::Rmat { scale: 10, seed },
            Dataset::Social {
                vertices: 3000,
                seed,
            },
        ];
        for dataset in datasets {
            for engine in [
                EngineKind::Giraph(PregelConfig::default()),
                EngineKind::PowerGraph(GasConfig::default()),
            ] {
                let name = format!("{} {}", engine.name(), label(&dataset));
                let sim = run_workload(&WorkloadSpec {
                    dataset,
                    algorithm: Algorithm::PageRank { iterations: 4 },
                    engine,
                })
                .sim;
                sim_line(&mut out, &name, &sim);
            }
        }
    }
    check_golden("substrate_sim.txt", &out);
}

/// The simulator under engine configurations off the defaults — two
/// machines, one of them 1.6x slower, Giraph with combiners and no GC,
/// PowerGraph without the sync bug — and the Spark-like dataflow engine as
/// `grade10 demo --engine spark` drives it, with and without a JVM heap.
#[test]
fn simulator_variants_are_pinned() {
    let mut out = String::new();
    for dataset in [DATASETS[0], DATASETS[1]] {
        for engine in [
            EngineKind::Giraph(PregelConfig {
                machines: 2,
                machine_work_factor: vec![1.0, 1.6],
                combiner_ratio: 0.3,
                gc: None,
                ..Default::default()
            }),
            EngineKind::PowerGraph(GasConfig {
                machines: 2,
                machine_work_factor: vec![1.0, 1.6],
                sync_bug: None,
                ..Default::default()
            }),
        ] {
            let name = format!("{} machines=2 {}", engine.name(), label(&dataset));
            let sim = run_workload(&WorkloadSpec {
                dataset,
                algorithm: Algorithm::PageRank { iterations: 4 },
                engine,
            })
            .sim;
            sim_line(&mut out, &name, &sim);
        }
        let jvm = DataflowConfig {
            machines: 2,
            gc: PregelConfig::default().gc,
            alloc_per_work: 6.0e7,
            ..Default::default()
        };
        for (variant, cfg) in [("default", DataflowConfig::default()), ("gc", jvm)] {
            let graph = dataset.generate();
            let part = EdgeCutPartition::hash(&graph, cfg.machines * cfg.executors * 2);
            let work = Algorithm::PageRank { iterations: 4 }.run(&graph, &part);
            let job = JobSpec::from_work_profile(&work, 1.0e-4, 200.0, cfg.machines);
            let name = format!("spark {variant} {}", label(&dataset));
            sim_line(&mut out, &name, &run_dataflow(&job, &cfg));
        }
    }
    check_golden("substrate_sim_variants.txt", &out);
}

/// The fault harness's raw output: for every class alone and the `all` and
/// `hostile` presets, at three seeds, the FNV-1a of the `Debug` form of the
/// corrupted log stream and of the corrupted monitoring series (`Debug`
/// prints every float exactly, and NaN where the harness writes one), plus
/// the classes each plan enables.
#[test]
fn fault_plans_are_pinned() {
    let dataset = Dataset::Rmat { scale: 8, seed: 46 };
    let graph = dataset.generate();
    let mut out = String::new();
    for engine in [
        EngineKind::Giraph(PregelConfig::default()),
        EngineKind::PowerGraph(GasConfig::default()),
    ] {
        let spec = WorkloadSpec {
            dataset,
            algorithm: Algorithm::PageRank { iterations: 4 },
            engine,
        };
        let sim = simulate_workload(&spec, &graph).sim;
        for seed in [1, 46, 7777] {
            let plans = FaultClass::ALL
                .iter()
                .map(|&c| (c.name(), FaultPlan::single(c, seed)))
                .chain([
                    ("all", FaultPlan::all(seed)),
                    ("hostile", FaultPlan::hostile(seed)),
                ]);
            for (name, plan) in plans {
                let logs = format!("{:?}", plan.inject_logs(&sim.logs));
                let series = format!("{:?}", plan.inject_series(&sim.series));
                let enabled: Vec<&str> = plan.enabled().iter().map(|c| c.name()).collect();
                writeln!(
                    out,
                    "{} seed={seed} {name} logs={:016x} series={:016x} enabled={}",
                    spec.engine.name(),
                    fnv1a(logs.as_bytes()),
                    fnv1a(series.as_bytes()),
                    enabled.join(","),
                )
                .unwrap();
            }
        }
    }
    check_golden("substrate_faults.txt", &out);
}
