//! The PowerGraph-like Gather/Apply/Scatter engine simulation.
//!
//! Architectural contrasts with the Giraph-like engine, mirroring §IV-C of
//! the paper: vertex-cut partitioning (one partition per worker thread),
//! no garbage collector (native runtime), and no bounded producer queue —
//! each thread interleaves computation with communication, so messages
//! drain concurrently and compute never stalls on a full queue.
//!
//! The engine optionally reproduces the **synchronization bug** of §IV-D:
//! occasionally, after all threads find no pending messages and head to the
//! cross-thread barrier, a late message stream arrives and the last thread
//! drains it alone — its gather phase stretches by 1.1–2.9× while its peers
//! idle at the barrier. [`GasRun::injected_bugs`] records every injection
//! so experiments can validate that Grade10's imbalance analysis finds
//! them.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use grade10_cluster::{
    MachineConfig, MsgOutput, Op, PhasePath, SimDuration, SimOutput, Simulation, ThreadProgram,
};
use grade10_graph::algorithms::WorkProfile;

use crate::job::{self, Frame, LoadCost};

mod barrier {
    pub const LOAD_DONE: u32 = 1;
    pub const END: u32 = 2;

    pub fn iter_start(i: usize) -> u32 {
        10 + i as u32 * 1000
    }
    pub fn gather_global(i: usize) -> u32 {
        11 + i as u32 * 1000
    }
    pub fn apply_global(i: usize) -> u32 {
        12 + i as u32 * 1000
    }
    pub fn iter_end(i: usize) -> u32 {
        13 + i as u32 * 1000
    }
    pub fn gather_local(i: usize, m: usize) -> u32 {
        100 + i as u32 * 1000 + m as u32
    }
    pub fn apply_local(i: usize, m: usize) -> u32 {
        300 + i as u32 * 1000 + m as u32
    }
    pub fn scatter_local(i: usize, m: usize) -> u32 {
        500 + i as u32 * 1000 + m as u32
    }
}

/// The synchronization-bug injector.
#[derive(Clone, Debug)]
pub struct SyncBugConfig {
    /// Per-iteration probability that one gather thread is hit.
    pub probability: f64,
    /// The victim's gather work is multiplied by `1 + U(extra_min, extra_max)`.
    pub extra_min: f64,
    /// Upper bound of the injected extra-work fraction.
    pub extra_max: f64,
}

impl Default for SyncBugConfig {
    fn default() -> Self {
        SyncBugConfig {
            probability: 0.25,
            extra_min: 0.2,
            extra_max: 2.2,
        }
    }
}

/// One injected sync-bug occurrence (for experiment validation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectedBug {
    /// Iteration the injection hit.
    pub iteration: usize,
    /// Machine of the victim thread.
    pub machine: usize,
    /// Machine-local index of the victim thread.
    pub thread: usize,
    /// Work multiplier applied to the victim's gather (> 1).
    pub factor: f64,
}

/// Configuration and calibration of the PowerGraph-like engine.
#[derive(Clone, Debug)]
pub struct GasConfig {
    /// Number of worker machines.
    pub machines: usize,
    /// Worker threads per machine.
    pub threads: usize,
    /// CPU cores per machine.
    pub cores: f64,
    /// NIC bandwidth per direction, bytes/second.
    pub net_bps: f64,
    /// Local storage bandwidth, bytes/second.
    pub disk_bps: f64,
    /// On-disk bytes per edge read during load.
    pub disk_bytes_per_edge: f64,
    /// CPU core-seconds per edge gathered.
    pub gather_secs_per_edge: f64,
    /// CPU core-seconds per vertex applied.
    pub apply_secs_per_vertex: f64,
    /// CPU core-seconds per edge scattered.
    pub scatter_secs_per_edge: f64,
    /// Wire bytes per remote gather aggregate.
    pub bytes_per_gather_msg: f64,
    /// Wire bytes per replica-synchronization message.
    pub bytes_per_sync_msg: f64,
    /// Load phase: core-seconds per edge parsed.
    pub load_secs_per_edge: f64,
    /// Load phase: shuffle bytes per edge.
    pub load_bytes_per_edge: f64,
    /// Log-normal σ of per-thread work jitter, modeling cache locality and
    /// histogram-cost variation the edge counts alone cannot capture.
    pub jitter_sigma: f64,
    /// Per-machine work multiplier (empty = all 1.0); models degraded
    /// nodes, see the Giraph-like engine's field of the same name.
    pub machine_work_factor: Vec<f64>,
    /// The §IV-D bug; `None` runs the fixed engine.
    pub sync_bug: Option<SyncBugConfig>,
    /// Seed for jitter and bug injection.
    pub seed: u64,
    /// Simulation quantum.
    pub quantum: SimDuration,
    /// Ground-truth monitoring interval.
    pub monitor_interval: SimDuration,
}

impl Default for GasConfig {
    fn default() -> Self {
        GasConfig {
            machines: 4,
            threads: 8,
            cores: 8.0,
            net_bps: 7.0e6,
            disk_bps: 6.0e6,
            disk_bytes_per_edge: 60.0,
            gather_secs_per_edge: 1.0e-4,
            apply_secs_per_vertex: 4.0e-5,
            scatter_secs_per_edge: 2.5e-5,
            bytes_per_gather_msg: 120.0,
            bytes_per_sync_msg: 150.0,
            load_secs_per_edge: 2.0e-5,
            load_bytes_per_edge: 40.0,
            jitter_sigma: 0.22,
            machine_work_factor: Vec::new(),
            sync_bug: Some(SyncBugConfig::default()),
            seed: 7,
            quantum: SimDuration::from_millis(1),
            monitor_interval: SimDuration::from_millis(50),
        }
    }
}

impl GasConfig {
    /// Number of vertex-cut partitions (one per thread cluster-wide).
    pub fn num_parts(&self) -> usize {
        self.machines * self.threads
    }

    /// Work multiplier of machine `m` (1.0 unless configured).
    pub fn work_factor(&self, m: usize) -> f64 {
        job::work_factor(&self.machine_work_factor, m)
    }

    /// Fraction of cross-partition messages that cross machines.
    pub fn machine_remote_fraction(&self) -> f64 {
        job::remote_fraction(self.machines, self.threads)
    }
}

/// Output of a GAS engine run.
pub struct GasRun {
    /// Raw simulator output (logs, monitoring, stats).
    pub sim: SimOutput,
    /// Sync-bug injections that occurred, for validation.
    pub injected_bugs: Vec<InjectedBug>,
}

/// Standard-normal sample via Box–Muller (avoids a rand_distr dependency).
fn normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Runs `work` (produced against a `machines × threads`-way vertex-cut
/// partition) on the simulated engine.
pub fn run_gas(
    work: &WorkProfile,
    num_edges: usize,
    cfg: &GasConfig,
) -> GasRun {
    assert_eq!(
        work.num_parts,
        cfg.num_parts(),
        "work profile has {} partitions, engine expects {}",
        work.num_parts,
        cfg.num_parts()
    );
    let m_count = cfg.machines;
    let iters = work.num_iterations();
    let remote_frac = cfg.machine_remote_fraction();
    // The job coordinator only joins iteration boundaries, not the minor
    // GAS-step barriers.
    let workers_only = (m_count * (cfg.threads + 1)) as u32;

    // Deterministic jitter and bug schedule, drawn up front in a fixed
    // order so thread-program construction order cannot perturb it.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut jitter = vec![vec![[1.0f64; 3]; cfg.num_parts()]; iters];
    for it in jitter.iter_mut() {
        for part in it.iter_mut() {
            for (k, stage) in part.iter_mut().enumerate() {
                // Gather cost per edge varies more than apply/scatter: it
                // depends on the neighbor-value distribution (e.g. CDLP's
                // label histograms) on top of cache locality.
                let sigma = if k == 0 {
                    cfg.jitter_sigma * 1.4
                } else {
                    cfg.jitter_sigma
                };
                *stage = (sigma * normal(&mut rng)).exp();
            }
        }
    }
    let mut injected = Vec::new();
    if let Some(bug) = &cfg.sync_bug {
        for i in 0..iters {
            if rng.gen_bool(bug.probability) {
                let victim = rng.gen_range(0..cfg.num_parts());
                let factor = 1.0 + rng.gen_range(bug.extra_min..bug.extra_max);
                injected.push(InjectedBug {
                    iteration: i,
                    machine: victim / cfg.threads,
                    thread: victim % cfg.threads,
                    factor,
                });
            }
        }
    }

    let frame = Frame {
        job: PhasePath::root().child("powergraph_job", 0),
        step: "iteration",
        machines: m_count,
        threads: cfg.threads,
        load_done: barrier::LOAD_DONE,
        job_done: barrier::END,
        step_start: barrier::iter_start,
        step_end: barrier::iter_end,
    };
    let load = LoadCost {
        edges: num_edges,
        disk_bytes_per_edge: cfg.disk_bytes_per_edge,
        secs_per_edge: cfg.load_secs_per_edge,
        bytes_per_edge: cfg.load_bytes_per_edge,
        alloc_per_work: 0.0,
    };
    let execute = frame.execute();
    let machine = MachineConfig {
        cores: cfg.cores,
        net_out_bps: cfg.net_bps,
        net_in_bps: cfg.net_bps,
        disk_bps: cfg.disk_bps,
        gc: None,              // native C++ runtime
        out_queue_bytes: None, // interleaved comm never stalls producers
    };
    let ccfg = job::cluster(m_count, machine, cfg.quantum, cfg.monitor_interval);
    let mut sim = Simulation::new(ccfg);
    sim.add_thread(frame.coordinator(iters));

    // --- Per-machine coordinator thread: load, worker/stage containers,
    //     exchange ---
    for m in 0..m_count {
        let mut p = ThreadProgram::new(m as u16);
        frame.load(&mut p, m, cfg.work_factor(m), &load);
        for i in 0..iters {
            let worker = execute.child("iteration", i as u32).child("worker", m as u32);
            p.push(frame.barrier(barrier::iter_start(i)));
            p.push(Op::PhaseStart(worker.clone()));
            for (stage, local_b, global_b) in [
                ("gather", barrier::gather_local(i, m), Some(barrier::gather_global(i))),
                ("apply", barrier::apply_local(i, m), Some(barrier::apply_global(i))),
                ("scatter", barrier::scatter_local(i, m), None),
            ] {
                let container = worker.child(stage, 0);
                p.push(Op::PhaseStart(container.clone()));
                p.push(frame.machine_barrier(local_b));
                p.push(Op::PhaseEnd(container));
                if let Some(g) = global_b {
                    p.push(Op::Barrier {
                        id: g,
                        participants: workers_only,
                    });
                }
            }
            let exchange = worker.child("exchange", 0);
            p.push(Op::PhaseStart(exchange.clone()));
            p.push(Op::FlushWait);
            p.push(Op::PhaseEnd(exchange));
            // The iteration barrier wait lands on the worker as a blocking
            // event rather than inflating the exchange phase.
            p.push(frame.barrier(barrier::iter_end(i)));
            p.push(Op::PhaseEnd(worker));
        }
        p.push(frame.barrier(barrier::END));
        sim.add_thread(p);
    }

    // --- Worker threads ---
    for m in 0..m_count {
        for t in 0..cfg.threads {
            let part = m * cfg.threads + t;
            let mut p = ThreadProgram::new(m as u16);
            p.push(frame.barrier(barrier::LOAD_DONE));
            for i in 0..iters {
                let w = &work.iterations[i].per_part[part];
                let worker = execute.child("iteration", i as u32).child("worker", m as u32);
                p.push(frame.barrier(barrier::iter_start(i)));

                // Gather: scan in-edges, push partial aggregates to remote
                // masters (interleaved with compute via the shared queue).
                let bug_factor = injected
                    .iter()
                    .find(|b| b.iteration == i && b.machine == m && b.thread == t)
                    .map(|b| b.factor)
                    .unwrap_or(1.0);
                let gwork = w.edges_scanned as f64
                    * cfg.gather_secs_per_edge
                    * jitter[i][part][0]
                    * bug_factor
                    * cfg.work_factor(m);
                let gbytes = w.msgs_remote as f64 * cfg.bytes_per_gather_msg * remote_frac;
                stage_ops(
                    &mut p,
                    &worker.child("gather", 0).child("thread", t as u32),
                    gwork,
                    job::uniform_msgs(m, m_count, gbytes),
                );
                p.push(frame.machine_barrier(barrier::gather_local(i, m)));
                p.push(Op::Barrier {
                    id: barrier::gather_global(i),
                    participants: workers_only,
                });

                // Apply: update masters, emit replica sync traffic.
                let awork = w.active_vertices as f64
                    * cfg.apply_secs_per_vertex
                    * jitter[i][part][1]
                    * cfg.work_factor(m);
                let abytes = w.sync_messages as f64 * cfg.bytes_per_sync_msg * remote_frac;
                stage_ops(
                    &mut p,
                    &worker.child("apply", 0).child("thread", t as u32),
                    awork,
                    job::uniform_msgs(m, m_count, abytes),
                );
                p.push(frame.machine_barrier(barrier::apply_local(i, m)));
                p.push(Op::Barrier {
                    id: barrier::apply_global(i),
                    participants: workers_only,
                });

                // Scatter: signal neighbors along out-edges.
                let swork = w.edges_scanned as f64
                    * cfg.scatter_secs_per_edge
                    * jitter[i][part][2]
                    * cfg.work_factor(m);
                stage_ops(
                    &mut p,
                    &worker.child("scatter", 0).child("thread", t as u32),
                    swork,
                    MsgOutput::none(),
                );
                p.push(frame.machine_barrier(barrier::scatter_local(i, m)));
                p.push(frame.barrier(barrier::iter_end(i)));
            }
            p.push(frame.barrier(barrier::END));
            sim.add_thread(p);
        }
    }

    GasRun {
        sim: sim.run(),
        injected_bugs: injected,
    }
}

fn stage_ops(p: &mut ThreadProgram, path: &PhasePath, work: f64, msgs: MsgOutput) {
    if work <= 0.0 {
        return;
    }
    p.push(Op::PhaseStart(path.clone()));
    p.push(Op::Compute {
        work,
        max_cores: 1.0,
        alloc_per_work: 0.0,
        msgs,
    });
    p.push(Op::PhaseEnd(path.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use grade10_graph::algorithms::cdlp;
    use grade10_graph::generators::social::SocialConfig;
    use grade10_graph::partition::VertexCutPartition;

    fn small_cfg() -> GasConfig {
        GasConfig {
            machines: 2,
            threads: 2,
            cores: 2.0,
            ..Default::default()
        }
    }

    fn small_run(cfg: &GasConfig) -> GasRun {
        let g = SocialConfig::with_size(2000, 5).generate();
        let part = VertexCutPartition::greedy(&g, cfg.num_parts());
        let r = cdlp(&g, &part, 3, );
        run_gas(&r.profile, g.num_edges(), cfg)
    }

    #[test]
    fn emits_gas_phase_hierarchy() {
        let cfg = small_cfg();
        let run = small_run(&cfg);
        let phases = run.sim.phase_intervals();
        let names: Vec<String> = phases.iter().map(|(p, _, _)| p.to_string()).collect();
        assert!(names.iter().any(|n| n.contains("gather.thread")));
        assert!(names.iter().any(|n| n.contains("apply.thread")));
        assert!(names.iter().any(|n| n.contains("scatter.thread")));
        assert!(names.iter().any(|n| n.contains("exchange")));
        assert!(names.iter().any(|n| n == "powergraph_job"));
    }

    #[test]
    fn no_gc_and_no_queue_stalls() {
        let cfg = small_cfg();
        let run = small_run(&cfg);
        assert!(run.sim.stats.gc_pauses.is_empty());
        assert_eq!(run.sim.stats.queue_stall_time, SimDuration::ZERO);
    }

    #[test]
    fn sync_bug_injections_are_recorded_and_deterministic() {
        let mut cfg = small_cfg();
        cfg.sync_bug = Some(SyncBugConfig {
            probability: 1.0,
            ..Default::default()
        });
        let a = small_run(&cfg);
        let b = small_run(&cfg);
        assert!(!a.injected_bugs.is_empty());
        assert_eq!(a.injected_bugs, b.injected_bugs);
        assert_eq!(a.sim.end_time, b.sim.end_time);
    }

    #[test]
    fn disabling_bug_removes_injections_and_speeds_up() {
        let mut buggy = small_cfg();
        buggy.sync_bug = Some(SyncBugConfig {
            probability: 1.0,
            extra_min: 1.0,
            extra_max: 1.5,
        });
        let mut fixed = small_cfg();
        fixed.sync_bug = None;
        let b = small_run(&buggy);
        let f = small_run(&fixed);
        assert!(f.injected_bugs.is_empty());
        assert!(
            f.sim.end_time < b.sim.end_time,
            "fixed {} !< buggy {}",
            f.sim.end_time,
            b.sim.end_time
        );
    }

    #[test]
    fn victim_thread_is_visibly_slower() {
        let mut cfg = small_cfg();
        cfg.jitter_sigma = 0.0;
        cfg.sync_bug = Some(SyncBugConfig {
            probability: 1.0,
            extra_min: 1.5,
            extra_max: 1.6,
        });
        let run = small_run(&cfg);
        let bug = run.injected_bugs[0];
        let phases = run.sim.phase_intervals();
        // Gather-thread durations of the bug iteration.
        let durs: Vec<(u32, u32, u64)> = phases
            .iter()
            .filter(|(p, _, _)| {
                p.depth() == 6
                    && p.0[2].instance == bug.iteration as u32
                    && p.0[4].phase_type == "gather"
            })
            .map(|(p, s, e)| (p.0[3].instance, p.0[5].instance, e.since(*s).as_nanos()))
            .collect();
        let victim = durs
            .iter()
            .find(|&&(m, t, _)| m == bug.machine as u32 && t == bug.thread as u32)
            .unwrap();
        let other_max = durs
            .iter()
            .filter(|&&(m, t, _)| !(m == bug.machine as u32 && t == bug.thread as u32))
            .map(|&(_, _, d)| d)
            .max()
            .unwrap();
        assert!(
            victim.2 as f64 > 1.3 * other_max as f64,
            "victim {} vs other max {other_max}",
            victim.2
        );
    }
}
