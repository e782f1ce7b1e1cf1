//! Workload orchestration: dataset × algorithm × engine, one call.
//!
//! The paper's evaluation matrix is eight workloads — two Graphalytics
//! datasets × four algorithms — on each of two systems. [`WorkloadSpec`]
//! names one cell of that matrix; [`run_workload`] generates the graph,
//! runs the real algorithm to obtain its work profile, executes the profile
//! on the corresponding simulated engine, and parses the logs into Grade10
//! inputs, returning everything an experiment needs. [`simulate_workload`]
//! starts from a graph the caller generated and stops before the parsing,
//! for callers that run several workloads on one graph and hand the logs
//! on as collected streams.
//!
//! [`run_mix`] is the campaign's mix runner on top of it: a mix's spec
//! strings parse into a workload and a fault plan ([`mix_workload`]), the
//! workload simulates on the claimant thread's last graph when it fits,
//! and the collected streams — from the rung that failed before, or from
//! that simulation — are characterized at the mix's degradation-ladder
//! rung, unless the stage cache the campaign opened already holds the
//! rung's result.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use grade10_cluster::{FaultPlan, ResourceSeries, SimOutput};
use grade10_core::attribution::{build_profile, PerformanceProfile, ProfileConfig, UpsampleMode};
use grade10_core::cache::StageCache;
use grade10_core::campaign::{MixAttempt, MixMode, MixOutcome, MixSpec};
use grade10_core::model::{ExecutionModel, ModelBundle, RuleSet};
use grade10_core::parse::{build_execution_trace, EventStream};
use grade10_core::pipeline::{characterize_stream, CharacterizationConfig};
use grade10_core::trace::{ExecutionTrace, Nanos, RawSeries, ResourceTrace, MILLIS};
use grade10_core::Grade10Error;
use grade10_graph::algorithms::{bfs, cdlp, lcc, pagerank, pagerank_until, sssp, wcc, WorkProfile};
use grade10_graph::partition::{EdgeCutPartition, VertexCutPartition, WorkMapper};
use grade10_graph::CsrGraph;

use crate::bridge::{collected_streams, to_raw_events, to_resource_trace};
use crate::gas::{run_gas, GasConfig, InjectedBug};
use crate::models::{
    gas_model, gas_resource_model, gas_rules_tuned, gas_rules_untuned, pregel_model,
    pregel_resource_model, pregel_rules_tuned, pregel_rules_untuned, GasPhases, PregelPhases,
};
use crate::pregel::{run_pregel, PregelConfig};

/// The two datasets of the evaluation (synthetic stand-ins for the
/// Graphalytics Graph500 and Datagen graphs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Graph500-like R-MAT graph: `2^scale` vertices.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Generator seed.
        seed: u64,
    },
    /// Datagen-like social network.
    Social {
        /// Vertex count.
        vertices: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl Dataset {
    /// Short name used in tables ("g500", "dg").
    pub fn name(&self) -> String {
        match self {
            Dataset::Rmat { scale, .. } => format!("g500-{scale}"),
            Dataset::Social { vertices, .. } => format!("dg-{}k", vertices / 1000),
        }
    }

    /// Parses a `kind:size` spec (`rmat:SCALE`, `social:VERTICES`), the
    /// grammar of `demo --dataset` and of a campaign's dataset axis.
    pub fn parse(spec: &str, seed: u64) -> Result<Dataset, String> {
        let (kind, size) = spec
            .split_once(':')
            .ok_or_else(|| format!("dataset spec '{spec}' must be kind:size"))?;
        match kind {
            "rmat" => Ok(Dataset::Rmat {
                scale: size.parse().map_err(|_| format!("bad scale '{size}'"))?,
                seed,
            }),
            "social" => match size.parse() {
                Ok(0) => Err(format!(
                    "bad size '{size}': a graph needs at least one vertex"
                )),
                Ok(vertices) => Ok(Dataset::Social { vertices, seed }),
                Err(_) => Err(format!("bad size '{size}'")),
            },
            other => Err(format!("unknown dataset kind '{other}'")),
        }
    }

    /// Generates the graph. Both families are undirected, so the graph is
    /// its own transpose and `in_neighbors` works on it as built.
    pub fn generate(&self) -> CsrGraph {
        match *self {
            Dataset::Rmat { scale, seed } => {
                grade10_graph::generators::rmat::RmatConfig::graph500(scale, seed).generate()
            }
            Dataset::Social { vertices, seed } => {
                grade10_graph::generators::social::SocialConfig::with_size(vertices, seed)
                    .generate()
            }
        }
    }
}

/// The four Graphalytics algorithms of the paper, plus SSSP and LCC to
/// complete the Graphalytics suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Breadth-first search from `root`.
    Bfs {
        /// Source vertex.
        root: u32,
    },
    /// PageRank with a fixed iteration count.
    PageRank {
        /// Fixed iteration count (Graphalytics semantics).
        iterations: usize,
    },
    /// Weakly connected components (runs to convergence).
    Wcc,
    /// Community detection by label propagation.
    Cdlp {
        /// Fixed iteration count.
        iterations: usize,
    },
    /// Single-source shortest paths from `root`.
    Sssp {
        /// Source vertex.
        root: u32,
    },
    /// Local clustering coefficient (single pass).
    Lcc,
    /// PageRank iterated until the rank vector's L1 change drops below the
    /// threshold — the dynamically converging workload of the paper's §I.
    PageRankConverge {
        /// Convergence threshold on the L1 delta, in millionths.
        epsilon_millionths: u32,
    },
}

impl Algorithm {
    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Bfs { .. } => "bfs",
            Algorithm::PageRank { .. } => "pr",
            Algorithm::Wcc => "wcc",
            Algorithm::Cdlp { .. } => "cdlp",
            Algorithm::Sssp { .. } => "sssp",
            Algorithm::Lcc => "lcc",
            Algorithm::PageRankConverge { .. } => "prc",
        }
    }

    /// Parses an algorithm name, the grammar of `demo --algorithm` and of a
    /// campaign's workload axis.
    pub fn parse(name: &str) -> Result<Algorithm, String> {
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

    /// Executes the algorithm, returning its work profile.
    pub fn run<M: WorkMapper>(&self, graph: &CsrGraph, mapper: &M) -> WorkProfile {
        match *self {
            Algorithm::Bfs { root } => bfs(graph, mapper, root).profile,
            Algorithm::PageRank { iterations } => pagerank(graph, mapper, iterations, 0.85).profile,
            Algorithm::Wcc => wcc(graph, mapper).profile,
            Algorithm::Cdlp { iterations } => cdlp(graph, mapper, iterations).profile,
            Algorithm::Sssp { root } => sssp(graph, mapper, root).profile,
            Algorithm::Lcc => lcc(graph, mapper).profile,
            Algorithm::PageRankConverge { epsilon_millionths } => {
                pagerank_until(graph, mapper, epsilon_millionths as f64 / 1e6, 100, 0.85).profile
            }
        }
    }
}

/// Which simulated engine runs the workload.
#[derive(Clone, Debug)]
pub enum EngineKind {
    /// The Giraph-like BSP engine.
    Giraph(PregelConfig),
    /// The PowerGraph-like GAS engine.
    PowerGraph(GasConfig),
}

impl EngineKind {
    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Giraph(_) => "giraph",
            EngineKind::PowerGraph(_) => "powergraph",
        }
    }

    /// Parses a graph-engine name (`giraph`, `powergraph`) into the engine's
    /// default configuration, on `machines` machines when given.
    pub fn parse(name: &str, machines: Option<usize>) -> Result<EngineKind, String> {
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

    /// The engine's expert input as a reusable bundle — execution model,
    /// resource model and tuned attribution rules — as `export-model`
    /// writes it.
    pub fn model_bundle(&self) -> ModelBundle {
        let (resources, cores) = match self {
            EngineKind::Giraph(cfg) => (pregel_resource_model(), cfg.cores),
            EngineKind::PowerGraph(cfg) => (gas_resource_model(), cfg.cores),
        };
        let expert = self.expert_input();
        ModelBundle {
            framework: self.name().into(),
            notes: format!("tuned rules assume {cores} cores per machine"),
            rules: expert.rules_tuned,
            resources,
            execution: expert.model,
        }
    }

    /// The engine's expert input, built from its configuration alone — no
    /// graph, no simulation. [`run_workload`] attaches it to every run; a
    /// caller that already holds the run's collected streams gets the same
    /// model and rules from here without simulating again.
    pub fn expert_input(&self) -> ExpertInput {
        match self {
            EngineKind::Giraph(cfg) => {
                let (model, phases) = pregel_model();
                ExpertInput {
                    model,
                    phases: EnginePhases::Pregel(phases),
                    rules_tuned: pregel_rules_tuned(&phases, cfg.cores),
                    rules_untuned: pregel_rules_untuned(),
                }
            }
            EngineKind::PowerGraph(cfg) => {
                let (model, phases) = gas_model();
                ExpertInput {
                    model,
                    phases: EnginePhases::Gas(phases),
                    rules_tuned: gas_rules_tuned(&phases, cfg.cores),
                    rules_untuned: gas_rules_untuned(),
                }
            }
        }
    }
}

/// What an expert supplies per engine: the execution model, the handles of
/// its phase types, and the tuned and untuned attribution rules.
pub struct ExpertInput {
    /// The engine's execution model.
    pub model: ExecutionModel,
    /// Phase-type handles into `model`.
    pub phases: EnginePhases,
    /// Tuned attribution rules.
    pub rules_tuned: RuleSet,
    /// The paper's untuned default rules.
    pub rules_untuned: RuleSet,
}

/// One cell of the evaluation matrix.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Input graph.
    pub dataset: Dataset,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// System under test.
    pub engine: EngineKind,
}

impl WorkloadSpec {
    /// "pr-g500-14-giraph"-style identifier.
    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}",
            self.algorithm.name(),
            self.dataset.name(),
            self.engine.name()
        )
    }
}

/// Phase-type handles of whichever engine ran.
#[derive(Clone, Copy, Debug)]
pub enum EnginePhases {
    /// Handles for a Giraph-like run.
    Pregel(PregelPhases),
    /// Handles for a PowerGraph-like run.
    Gas(GasPhases),
}

/// Everything one workload execution produced, ready for Grade10 analysis.
pub struct WorkloadRun {
    /// The workload that ran.
    pub spec: WorkloadSpec,
    /// The engine's execution model.
    pub model: ExecutionModel,
    /// Phase-type handles of the engine that ran.
    pub phases: EnginePhases,
    /// Tuned attribution rules (the expert input).
    pub rules_tuned: RuleSet,
    /// The paper's untuned default rules.
    pub rules_untuned: RuleSet,
    /// Raw simulator output (logs, ground-truth utilization, stats).
    pub sim: SimOutput,
    /// Sync-bug injections (PowerGraph with the bug enabled only).
    pub injected_bugs: Vec<InjectedBug>,
    /// Parsed execution trace.
    pub trace: ExecutionTrace,
    /// The algorithm's work profile (for workload-level statistics).
    pub work: WorkProfile,
}

impl WorkloadRun {
    /// Coarse resource trace at `downsample` × the ground-truth interval.
    pub fn resource_trace(&self, downsample: usize) -> ResourceTrace {
        to_resource_trace(&self.sim.series, downsample)
    }

    /// Ground-truth utilization series.
    pub fn ground_truth(&self) -> &[ResourceSeries] {
        &self.sim.series
    }

    /// Runs the attribution pipeline with the given rules and settings.
    pub fn build_profile(
        &self,
        rules: &RuleSet,
        downsample: usize,
        slice: Nanos,
        mode: UpsampleMode,
    ) -> PerformanceProfile {
        let rt = self.resource_trace(downsample);
        build_profile(
            &self.model,
            rules,
            &self.trace,
            &rt,
            &ProfileConfig {
                slice,
                upsample: mode,
                ..Default::default()
            },
        )
    }
}

/// What the simulated system produced for one workload, before Grade10
/// parses any of it.
pub struct SimulatedRun {
    /// Raw simulator output (logs, ground-truth utilization, stats).
    pub sim: SimOutput,
    /// Sync-bug injections (PowerGraph with the bug enabled only).
    pub injected_bugs: Vec<InjectedBug>,
    /// The algorithm's work profile (for workload-level statistics).
    pub work: WorkProfile,
}

/// Partitions `graph`, runs the algorithm and simulates the engine: all of
/// [`run_workload`] except generating the graph and parsing the logs into
/// an execution trace. `graph` must be `spec.dataset.generate()`; a caller
/// that runs several workloads on one dataset generates it once, and one
/// that ships the logs on as collected streams needs no trace.
pub fn simulate_workload(spec: &WorkloadSpec, graph: &CsrGraph) -> SimulatedRun {
    match &spec.engine {
        EngineKind::Giraph(cfg) => {
            let part = EdgeCutPartition::hash(graph, cfg.num_parts());
            let work = spec.algorithm.run(graph, &part);
            let sim = run_pregel(&work, graph.num_vertices(), graph.num_edges(), cfg);
            SimulatedRun {
                sim,
                injected_bugs: Vec::new(),
                work,
            }
        }
        EngineKind::PowerGraph(cfg) => {
            let part = VertexCutPartition::greedy(graph, cfg.num_parts());
            let work = spec.algorithm.run(graph, &part);
            let run = run_gas(&work, graph.num_edges(), cfg);
            SimulatedRun {
                sim: run.sim,
                injected_bugs: run.injected_bugs,
                work,
            }
        }
    }
}

/// Runs one workload end to end.
pub fn run_workload(spec: &WorkloadSpec) -> WorkloadRun {
    let SimulatedRun {
        sim,
        injected_bugs,
        work,
    } = simulate_workload(spec, &spec.dataset.generate());
    let ExpertInput {
        model,
        phases,
        rules_tuned,
        rules_untuned,
    } = spec.engine.expert_input();
    let trace = build_execution_trace(&model, &to_raw_events(&sim.logs))
        .unwrap_or_else(|e| panic!("simulator-emitted logs always parse: {e}"));
    WorkloadRun {
        spec: spec.clone(),
        model,
        phases,
        rules_tuned,
        rules_untuned,
        sim,
        injected_bugs,
        trace,
        work,
    }
}

/// A campaign mix's workload and fault plan, parsed from its spec strings.
/// The fault seed is the mix seed: the damage is part of the mix's
/// identity, deterministic across retries and resumes. An error names the
/// mix, so a campaign launch can reject a bad axis value up front.
pub fn mix_workload(mix: &MixSpec) -> Result<(WorkloadSpec, Option<FaultPlan>), String> {
    let in_mix = |e: String| format!("mix {}: {e}", mix.id());
    let algorithm = Algorithm::parse(&mix.algorithm).map_err(in_mix)?;
    let dataset = Dataset::parse(&mix.dataset, mix.seed).map_err(in_mix)?;
    let engine = EngineKind::parse(&mix.engine, Some(mix.machines as usize)).map_err(in_mix)?;
    if mix.machines == 0 {
        return Err(in_mix("machines must be at least 1".to_string()));
    }
    let plan = match mix.fault.as_str() {
        "none" => None,
        fault => Some(FaultPlan::parse(fault, mix.seed).map_err(in_mix)?),
    };
    let spec = WorkloadSpec {
        dataset,
        algorithm,
        engine,
    };
    Ok((spec, plan))
}

/// Characterizes one campaign mix at one degradation-ladder rung: obtain the
/// mix's collected streams, then ingest them strictly, leniently, or under
/// full supervision per the rung. The scheduler owns retries and fills the
/// outcome's identity fields.
///
/// Under a stage cache the rung first asks for its record, keyed by the
/// identity the result store hashes (`content_string` under the campaign's
/// code version) plus the rung: a rung that ran once, in any campaign
/// sharing the cache, is answered by its stored outcome or error without
/// simulating or characterizing anything, and one that runs here stores
/// its result. A panic unwinds past this function and stores nothing.
///
/// Otherwise the streams come from the one-slot per-thread memo a failed
/// rung leaves them in, so a ladder that fails strict and retries lenient
/// simulates once, or from a simulation on the thread's last graph when it
/// fits (the per-thread graph memo), interned once by
/// [`EventStream::from_events`].
pub fn run_mix(
    mix: &MixSpec,
    code_version: &str,
    attempt: MixAttempt,
    cache: Option<&StageCache>,
) -> Result<MixOutcome, Grade10Error> {
    let (spec, plan) = mix_workload(mix).map_err(Grade10Error::Serialization)?;
    let key = mix.content_string(code_version);
    // Taken first, so a cache hit drops a stale slot too.
    let failed = FAILED_RUNG.take();
    let rung_key = format!("{key};rung={}", attempt.mode.name());
    if let Some(result) = cache.and_then(|c| c.lookup(&rung_key)) {
        return result;
    }
    let (events, monitoring) = failed
        .and_then(|(k, streams)| (k == key).then_some(streams))
        .unwrap_or_else(|| {
            let run = with_graph(spec.dataset, |graph| simulate_workload(&spec, graph));
            MIXES_SIMULATED.fetch_add(1, Ordering::Relaxed);
            let (events, monitoring) = collected_streams(&run.sim, plan.as_ref());
            (EventStream::from_events(&events), monitoring)
        });
    let expert = spec.engine.expert_input();
    let cfg = CharacterizationConfig::new(attempt.mode != MixMode::Strict, 10 * MILLIS, None);
    let result = characterize_stream(
        attempt.mode == MixMode::Partial,
        &expert.model,
        &expert.rules_tuned,
        &events,
        &monitoring,
        &cfg,
    )
    .map(|p| MixOutcome {
        mix: mix.clone(),
        hash: 0,
        makespan_ns: p.characterization.base_makespan,
        classes: p.characterization.issue_classes(&expert.model),
        incidents: p.incidents.len() as u32,
        degraded: !p.is_complete(),
        attempts: 0,
        mode: String::new(),
    });
    if let Some(c) = cache {
        c.store(&rung_key, &result);
    }
    if result.is_err() {
        FAILED_RUNG.set(Some((key, (events, monitoring))));
    }
    result
}

thread_local! {
    /// The input graph this claimant thread generated last, with the
    /// dataset it was generated from.
    static LAST_GRAPH: RefCell<Option<(Dataset, CsrGraph)>> = const { RefCell::new(None) };
    /// The key and collected streams of the rung that failed last on this
    /// claimant thread, for the next rung of the same mix. A rung that
    /// succeeds leaves the slot empty.
    static FAILED_RUNG: RefCell<Option<(String, MixStreams)>> = const { RefCell::new(None) };
}

/// A mix's collected streams as [`run_mix`] characterizes them: the event
/// stream interned, and the monitoring series.
type MixStreams = (EventStream, Vec<RawSeries>);

/// Graphs [`run_mix`] generated and mixes it simulated in this process,
/// for [`substrate_line`].
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

/// "substrate: N graphs generated for M simulated mixes": the per-thread
/// graph reuse of this process's [`run_mix`] calls.
pub fn substrate_line() -> String {
    format!(
        "substrate: {} graphs generated for {} simulated mixes",
        GRAPHS_GENERATED.load(Ordering::Relaxed),
        MIXES_SIMULATED.load(Ordering::Relaxed)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_giraph() -> WorkloadSpec {
        WorkloadSpec {
            dataset: Dataset::Rmat { scale: 9, seed: 3 },
            algorithm: Algorithm::PageRank { iterations: 2 },
            engine: EngineKind::Giraph(PregelConfig {
                machines: 2,
                threads: 2,
                cores: 2.0,
                ..Default::default()
            }),
        }
    }

    fn tiny_powergraph() -> WorkloadSpec {
        WorkloadSpec {
            dataset: Dataset::Social {
                vertices: 2000,
                seed: 5,
            },
            algorithm: Algorithm::Cdlp { iterations: 2 },
            engine: EngineKind::PowerGraph(GasConfig {
                machines: 2,
                threads: 2,
                cores: 2.0,
                ..Default::default()
            }),
        }
    }

    #[test]
    fn giraph_end_to_end_parses_and_profiles() {
        let run = run_workload(&tiny_giraph());
        assert!(run.trace.instances().len() > 10);
        let prof = run.build_profile(&run.rules_tuned, 8, 10 * MILLIS, UpsampleMode::DemandGuided);
        assert!(prof.grid.num_slices() > 10);
        // Some CPU usage must be attributed to compute threads.
        let total: f64 = prof.usages.iter().flat_map(|u| u.usage.iter()).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn powergraph_end_to_end_parses() {
        let run = run_workload(&tiny_powergraph());
        assert!(run.trace.instances().len() > 10);
        assert_eq!(run.spec.name(), "cdlp-dg-2k-powergraph");
        // PowerGraph runs carry injected bug metadata (possibly empty).
        let _ = run.injected_bugs.len();
    }

    #[test]
    fn dataset_spec_parsing() {
        assert_eq!(
            Dataset::parse("rmat:12", 1).unwrap(),
            Dataset::Rmat { scale: 12, seed: 1 }
        );
        assert_eq!(
            Dataset::parse("social:5000", 2).unwrap(),
            Dataset::Social {
                vertices: 5000,
                seed: 2
            }
        );
        assert!(Dataset::parse("nope", 1).is_err());
        assert!(Dataset::parse("rmat:abc", 1).is_err());
    }

    /// A vertex-less social graph is refused when the spec is parsed; it
    /// used to pass and panic inside PageRank.
    #[test]
    fn empty_social_dataset_is_rejected() {
        let err = Dataset::parse("social:0", 7).unwrap_err();
        assert_eq!(err, "bad size '0': a graph needs at least one vertex");
        assert!(Dataset::parse("social:1", 7).is_ok());
    }

    fn mix(engine: &str, machines: u32, fault: &str) -> MixSpec {
        MixSpec {
            algorithm: "pr".to_string(),
            dataset: "rmat:6".to_string(),
            engine: engine.to_string(),
            machines,
            seed: 46,
            fault: fault.to_string(),
        }
    }

    #[test]
    fn mix_workload_rejects_zero_machines() {
        let err = mix_workload(&mix("giraph", 0, "none")).unwrap_err();
        assert!(err.contains("machines must be at least 1"), "{err}");
    }

    #[test]
    fn mix_workload_sizes_the_engine_and_seeds_the_faults() {
        let (spec, plan) = mix_workload(&mix("powergraph", 3, "drop")).unwrap();
        assert!(matches!(spec.engine, EngineKind::PowerGraph(ref cfg) if cfg.machines == 3));
        assert_eq!(spec.dataset, Dataset::Rmat { scale: 6, seed: 46 });
        assert_eq!(plan, Some(FaultPlan::parse("drop", 46).unwrap()));
        let (spec, plan) = mix_workload(&mix("giraph", 5, "none")).unwrap();
        assert!(matches!(spec.engine, EngineKind::Giraph(ref cfg) if cfg.machines == 5));
        assert_eq!(plan, None);
    }

    #[test]
    fn mix_workload_errors_name_the_mix() {
        for bad in [mix("spark", 2, "none"), mix("giraph", 2, "bogus")] {
            let err = mix_workload(&bad).unwrap_err();
            assert!(err.starts_with(&format!("mix {}: ", bad.id())), "{err}");
        }
    }

    /// An outcome hit answers the rung before the streams are looked at,
    /// but still takes the failed-rung memo: a lenient rung served from
    /// its outcome record leaves no streams behind from the strict rung
    /// that failed before it.
    #[test]
    fn an_outcome_hit_leaves_the_failed_rung_memo_empty() {
        let dir = std::env::temp_dir().join(format!("g10-outcome-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StageCache::open(&dir).unwrap();
        let duplicated = mix("giraph", 2, "duplicate");
        let rung = |mode| MixAttempt { index: 0, mode };
        let lenient = run_mix(&duplicated, "t", rung(MixMode::Lenient), Some(&cache)).unwrap();
        assert!(run_mix(&duplicated, "t", rung(MixMode::Strict), Some(&cache)).is_err());
        assert!(
            FAILED_RUNG.with_borrow(Option::is_some),
            "the strict rung failed"
        );
        let before = cache.stats();
        let again = run_mix(&duplicated, "t", rung(MixMode::Lenient), Some(&cache)).unwrap();
        assert_eq!(again, lenient);
        assert_eq!(cache.stats().hits, before.hits + 1, "an outcome hit");
        assert!(
            FAILED_RUNG.with_borrow(Option::is_none),
            "the memo was dropped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_compose() {
        assert_eq!(tiny_giraph().spec_name_check(), "pr-g500-9-giraph");
    }

    impl WorkloadSpec {
        fn spec_name_check(&self) -> String {
            self.name()
        }
    }
}
