//! The Giraph-like BSP engine simulation.
//!
//! Executes a [`WorkProfile`] (per-superstep, per-partition work counts from
//! a real algorithm run) as thread programs on the cluster simulator. Each
//! machine hosts one worker with `threads` compute threads plus a
//! communication thread; supersteps are separated by global barriers.
//! Compute threads burn CPU proportional to the edges/vertices their
//! partition processed, allocate heap (driving the stop-the-world GC), and
//! produce message bytes into the machine's *bounded* outbound queue — when
//! the network cannot drain it fast enough, producers stall in bursts,
//! exactly the Giraph behavior Grade10's Fig. 3 region ③ dissects.

use grade10_cluster::{
    GcConfig, MachineConfig, MsgOutput, Op, PhasePath, SimDuration, SimOutput, Simulation,
    ThreadProgram,
};
use grade10_graph::algorithms::WorkProfile;

use crate::job::{self, Frame, LoadCost};

/// Barrier-id layout. Barrier ids must be globally unique per rendezvous.
mod barrier {
    pub const LOAD_DONE: u32 = 1;
    pub const OUTPUT_DONE: u32 = 2;

    /// Superstep-start barrier (global).
    pub fn superstep_start(s: usize) -> u32 {
        10 + s as u32 * 1000
    }
    /// Superstep-end barrier (global).
    pub fn superstep_end(s: usize) -> u32 {
        11 + s as u32 * 1000
    }
    /// Machine-local compute-done barrier.
    pub fn compute_done(s: usize, machine: usize) -> u32 {
        100 + s as u32 * 1000 + machine as u32
    }
    /// Machine-local prepare-done barrier.
    pub fn prepare_done(s: usize, machine: usize) -> u32 {
        300 + s as u32 * 1000 + machine as u32
    }
}

/// Configuration and calibration of the Giraph-like engine.
#[derive(Clone, Debug)]
pub struct PregelConfig {
    /// Number of worker machines.
    pub machines: usize,
    /// Compute threads per worker.
    pub threads: usize,
    /// CPU cores per machine.
    pub cores: f64,
    /// NIC bandwidth per direction, bytes/second.
    pub net_bps: f64,
    /// Local storage bandwidth, bytes/second.
    pub disk_bps: f64,
    /// On-disk bytes per edge read during load.
    pub disk_bytes_per_edge: f64,
    /// On-disk bytes per vertex written during output.
    pub disk_bytes_per_vertex: f64,
    /// Outbound message queue bound, bytes.
    pub queue_bytes: f64,
    /// JVM garbage collector model (`None` disables GC).
    pub gc: Option<GcConfig>,
    /// CPU core-seconds per edge scanned.
    pub secs_per_edge: f64,
    /// CPU core-seconds per active vertex.
    pub secs_per_vertex: f64,
    /// Wire bytes per remote message.
    pub bytes_per_msg: f64,
    /// Remote-volume multiplier modeling message combiners (Giraph's
    /// classic optimization: pre-aggregating messages per destination
    /// vertex before they hit the wire). 1.0 = no combiner; 0.3 means
    /// combiners shrink remote traffic to 30 %.
    pub combiner_ratio: f64,
    /// Heap bytes allocated per core-second of compute.
    pub alloc_per_work: f64,
    /// Load phase: core-seconds per edge parsed.
    pub load_secs_per_edge: f64,
    /// Load phase: shuffle bytes per edge.
    pub load_bytes_per_edge: f64,
    /// Output phase: core-seconds per vertex written.
    pub output_secs_per_vertex: f64,
    /// Per-superstep worker preparation cost, core-seconds (the paper's
    /// P2.x.1 phase: registering partitions, rotating message stores).
    pub prepare_secs: f64,
    /// Per-machine work multiplier (empty = all 1.0). A factor above 1.0
    /// models a degraded node — older CPU, thermal throttling, a noisy
    /// neighbor — whose compute takes proportionally longer. Classic
    /// straggler scenarios for the imbalance analysis.
    pub machine_work_factor: Vec<f64>,
    /// Simulation quantum.
    pub quantum: SimDuration,
    /// Ground-truth monitoring interval (the paper's 50 ms).
    pub monitor_interval: SimDuration,
}

impl Default for PregelConfig {
    fn default() -> Self {
        PregelConfig {
            machines: 4,
            threads: 8,
            cores: 8.0,
            net_bps: 1.2e7,
            disk_bps: 6.0e6,
            disk_bytes_per_edge: 60.0,
            disk_bytes_per_vertex: 40.0,
            queue_bytes: 1.0e6,
            gc: Some(GcConfig {
                heap_bytes: 6.0e8,
                trigger_fraction: 0.8,
                pause_per_byte: 0.3 / 1e9,
                min_pause_secs: 0.045,
                live_fraction: 0.25,
            }),
            secs_per_edge: 1.0e-4,
            secs_per_vertex: 2.0e-5,
            bytes_per_msg: 300.0,
            combiner_ratio: 1.0,
            alloc_per_work: 6.0e7,
            load_secs_per_edge: 2.0e-5,
            load_bytes_per_edge: 40.0,
            output_secs_per_vertex: 1.0e-5,
            prepare_secs: 0.02,
            machine_work_factor: Vec::new(),
            quantum: SimDuration::from_millis(1),
            monitor_interval: SimDuration::from_millis(50),
        }
    }
}

impl PregelConfig {
    /// Number of graph partitions (one per compute thread cluster-wide).
    pub fn num_parts(&self) -> usize {
        self.machines * self.threads
    }

    /// Work multiplier of machine `m` (1.0 unless configured).
    pub fn work_factor(&self, m: usize) -> f64 {
        job::work_factor(&self.machine_work_factor, m)
    }

    /// Fraction of cross-partition messages that cross *machines* under
    /// hash partitioning (the rest land on sibling partitions of the same
    /// worker and never touch the network).
    pub fn machine_remote_fraction(&self) -> f64 {
        job::remote_fraction(self.machines, self.threads)
    }
}

/// Runs `work` (produced against a `machines × threads`-way edge-cut
/// partition) on the simulated engine. `num_vertices`/`num_edges` size the
/// load and output phases.
pub fn run_pregel(
    work: &WorkProfile,
    num_vertices: usize,
    num_edges: usize,
    cfg: &PregelConfig,
) -> SimOutput {
    assert_eq!(
        work.num_parts,
        cfg.num_parts(),
        "work profile has {} partitions, engine expects {}",
        work.num_parts,
        cfg.num_parts()
    );
    let m_count = cfg.machines;
    let supersteps = work.num_iterations();
    let remote_frac = cfg.machine_remote_fraction();

    let frame = Frame {
        job: PhasePath::root().child("giraph_job", 0),
        step: "superstep",
        machines: m_count,
        threads: cfg.threads,
        load_done: barrier::LOAD_DONE,
        job_done: barrier::OUTPUT_DONE,
        step_start: barrier::superstep_start,
        step_end: barrier::superstep_end,
    };
    let load = LoadCost {
        edges: num_edges,
        disk_bytes_per_edge: cfg.disk_bytes_per_edge,
        secs_per_edge: cfg.load_secs_per_edge,
        bytes_per_edge: cfg.load_bytes_per_edge,
        alloc_per_work: cfg.alloc_per_work,
    };
    let execute = frame.execute();

    let machine = MachineConfig {
        cores: cfg.cores,
        net_out_bps: cfg.net_bps,
        net_in_bps: cfg.net_bps,
        disk_bps: cfg.disk_bps,
        gc: cfg.gc.clone(),
        out_queue_bytes: Some(cfg.queue_bytes),
    };
    let ccfg = job::cluster(m_count, machine, cfg.quantum, cfg.monitor_interval);
    let mut sim = Simulation::new(ccfg);
    sim.add_thread(frame.coordinator(supersteps));

    // --- Communication thread per machine: load, worker containers,
    //     communicate, sync, output ---
    for m in 0..m_count {
        let mut p = ThreadProgram::new(m as u16);
        frame.load(&mut p, m, cfg.work_factor(m), &load);
        for s in 0..supersteps {
            let worker = execute
                .child("superstep", s as u32)
                .child("worker", m as u32);
            let compute = worker.child("compute", 0);
            let communicate = worker.child("communicate", 0);
            p.push(frame.barrier(barrier::superstep_start(s)));
            p.push(Op::PhaseStart(worker.clone()));
            // Prepare the worker before its threads compute.
            let prepare = worker.child("prepare", 0);
            p.push(Op::PhaseStart(prepare.clone()));
            p.push(Op::Compute {
                work: cfg.prepare_secs * cfg.work_factor(m),
                max_cores: 1.0,
                alloc_per_work: 0.0,
                msgs: MsgOutput::none(),
            });
            p.push(Op::PhaseEnd(prepare));
            p.push(frame.machine_barrier(barrier::prepare_done(s, m)));
            p.push(Op::PhaseStart(compute.clone()));
            p.push(frame.machine_barrier(barrier::compute_done(s, m)));
            p.push(Op::PhaseEnd(compute));
            // Residual queue drain after the last thread finishes; messages
            // sent during compute already drained concurrently.
            p.push(Op::PhaseStart(communicate.clone()));
            p.push(Op::FlushWait);
            p.push(Op::PhaseEnd(communicate));
            // The end-of-superstep barrier wait lands on the worker as a
            // blocking event, not as a phase.
            p.push(frame.barrier(barrier::superstep_end(s)));
            p.push(Op::PhaseEnd(worker));
        }
        // Output: write this machine's share of the result.
        let output = frame.job.child("output", m as u32);
        p.push(Op::PhaseStart(output.clone()));
        p.push(Op::Compute {
            work: num_vertices as f64 / m_count as f64 * cfg.output_secs_per_vertex
                * cfg.work_factor(m),
            max_cores: cfg.threads as f64,
            alloc_per_work: 0.0,
            msgs: MsgOutput::none(),
        });
        // Write this machine's result partition to local storage.
        p.push(Op::DiskIo {
            bytes: num_vertices as f64 / m_count as f64 * cfg.disk_bytes_per_vertex,
        });
        p.push(Op::PhaseEnd(output));
        p.push(frame.barrier(barrier::OUTPUT_DONE));
        sim.add_thread(p);
    }

    // --- Compute threads ---
    for m in 0..m_count {
        for t in 0..cfg.threads {
            let part = m * cfg.threads + t;
            let mut p = ThreadProgram::new(m as u16);
            p.push(frame.barrier(barrier::LOAD_DONE));
            for s in 0..supersteps {
                let w = &work.iterations[s].per_part[part];
                let thread_phase = execute
                    .child("superstep", s as u32)
                    .child("worker", m as u32)
                    .child("compute", 0)
                    .child("thread", t as u32);
                p.push(frame.barrier(barrier::superstep_start(s)));
                p.push(frame.machine_barrier(barrier::prepare_done(s, m)));
                let cpu_work = (w.edges_scanned as f64 * cfg.secs_per_edge
                    + w.active_vertices as f64 * cfg.secs_per_vertex)
                    * cfg.work_factor(m);
                if cpu_work > 0.0 {
                    let remote_bytes = w.msgs_remote as f64
                        * cfg.bytes_per_msg
                        * remote_frac
                        * cfg.combiner_ratio;
                    p.push(Op::PhaseStart(thread_phase.clone()));
                    p.push(Op::Compute {
                        work: cpu_work,
                        max_cores: 1.0,
                        alloc_per_work: cfg.alloc_per_work,
                        msgs: job::uniform_msgs(m, m_count, remote_bytes),
                    });
                    p.push(Op::PhaseEnd(thread_phase));
                }
                p.push(frame.machine_barrier(barrier::compute_done(s, m)));
                p.push(frame.barrier(barrier::superstep_end(s)));
            }
            p.push(frame.barrier(barrier::OUTPUT_DONE));
            sim.add_thread(p);
        }
    }

    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grade10_cluster::LogEvent;
    use grade10_graph::algorithms::pagerank;
    use grade10_graph::generators::rmat::RmatConfig;
    use grade10_graph::partition::EdgeCutPartition;

    fn small_run() -> (SimOutput, PregelConfig, usize) {
        // Scaled-down cluster with a slow NIC, a small queue, and a small
        // heap so the small test graph still produces queue stalls and GC.
        let cfg = PregelConfig {
            machines: 2,
            threads: 2,
            cores: 2.0,
            net_bps: 2.0e6,
            queue_bytes: 2.0e5,
            gc: Some(GcConfig {
                heap_bytes: 1.2e8,
                trigger_fraction: 0.8,
                pause_per_byte: 0.3 / 1e9,
                min_pause_secs: 0.045,
                live_fraction: 0.25,
            }),
            ..Default::default()
        };
        let g = RmatConfig::graph500(9, 42).generate();
        let part = EdgeCutPartition::hash(&g, cfg.num_parts());
        let pr = pagerank(&g, &part, 3, 0.85);
        let out = run_pregel(&pr.profile, g.num_vertices(), g.num_edges(), &cfg);
        (out, cfg, 3)
    }

    #[test]
    fn emits_complete_phase_hierarchy() {
        let (out, cfg, supersteps) = small_run();
        let phases = out.phase_intervals();
        let count = |prefix: &str| {
            phases
                .iter()
                .filter(|(p, _, _)| p.to_string().contains(prefix))
                .count()
        };
        // Per superstep: the container itself plus, per machine, worker /
        // prepare / compute / communicate containers and the thread leaves.
        assert_eq!(count("superstep"), supersteps * (1 + cfg.machines * (4 + cfg.threads)));
        // load container + read + parse leaves per machine.
        assert_eq!(count("load"), 3 * cfg.machines);
        assert_eq!(count("output"), cfg.machines);
        // job + execute present exactly once.
        assert_eq!(
            phases
                .iter()
                .filter(|(p, _, _)| p.to_string() == "giraph_job")
                .count(),
            1
        );
    }

    #[test]
    fn queue_stalls_and_gc_occur() {
        let (out, _, _) = small_run();
        assert!(
            out.stats.queue_stall_time > SimDuration::ZERO,
            "expected message-queue stalls"
        );
        assert!(!out.stats.gc_pauses.is_empty(), "expected GC pauses");
        assert!(out.logs.iter().any(
            |r| matches!(&r.event, LogEvent::BlockStart { resource } if resource == "msgq")
        ));
    }

    #[test]
    fn deterministic() {
        let (a, _, _) = small_run();
        let (b, _, _) = small_run();
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.logs.len(), b.logs.len());
    }

    #[test]
    fn remote_fraction_formula() {
        let cfg = PregelConfig {
            machines: 4,
            threads: 8,
            ..Default::default()
        };
        let f = cfg.machine_remote_fraction();
        assert!((f - 24.0 / 31.0).abs() < 1e-12);
        let single = PregelConfig {
            machines: 1,
            threads: 8,
            ..Default::default()
        };
        assert_eq!(single.machine_remote_fraction(), 0.0);
    }

    #[test]
    fn phases_nest_within_parents() {
        let (out, _, _) = small_run();
        let phases = out.phase_intervals();
        // Every thread phase lies within its superstep's span.
        for (p, start, end) in &phases {
            if p.leaf_type() == "thread" {
                let ss_key = p.0[2].instance; // giraph_job.execute.superstep[k]...
                let ss = phases
                    .iter()
                    .find(|(q, _, _)| {
                        q.depth() == 3
                            && q.0[2].phase_type == "superstep"
                            && q.0[2].instance == ss_key
                    })
                    .unwrap();
                assert!(*start >= ss.1 && *end <= ss.2);
            }
        }
    }
}
