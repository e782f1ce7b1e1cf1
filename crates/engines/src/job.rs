//! The job scaffold the simulated engines share.
//!
//! The Giraph-like and the PowerGraph-like engine differ above all in
//! their per-iteration work. Both run a coordinator on
//! machine 0 that frames the job, its execute phase and one container per
//! iteration between job-wide barriers, and both load their input the same
//! way: each machine reads its share of the edges from local storage, then
//! parses it and shuffles it to the owners. [`Frame`] writes those programs
//! once; each engine supplies its own phase names, barrier ids and
//! calibration. [`cluster`] assembles the simulated cluster of every
//! engine, the dataflow one included.

use grade10_cluster::{
    ClusterConfig, MachineConfig, MsgOutput, Op, PhasePath, SimDuration, ThreadProgram,
};

/// The job-level structure of one graph-engine run.
pub(crate) struct Frame {
    /// The root phase, `<engine>_job`.
    pub job: PhasePath,
    /// Phase type of one iteration under the execute phase.
    pub step: &'static str,
    /// Worker machines.
    pub machines: usize,
    /// Compute threads per machine.
    pub threads: usize,
    /// Job-wide barrier every thread passes once the input is loaded.
    pub load_done: u32,
    /// Job-wide barrier every thread passes before the job ends.
    pub job_done: u32,
    /// Job-wide barriers opening and closing iteration `i`.
    pub step_start: fn(usize) -> u32,
    /// See `step_start`.
    pub step_end: fn(usize) -> u32,
}

/// Calibration of the load phase.
pub(crate) struct LoadCost {
    /// Edges in the input, split evenly over the machines.
    pub edges: usize,
    /// On-disk bytes per edge read.
    pub disk_bytes_per_edge: f64,
    /// Core-seconds per edge parsed.
    pub secs_per_edge: f64,
    /// Shuffle bytes per edge.
    pub bytes_per_edge: f64,
    /// Heap bytes allocated per core-second of parsing.
    pub alloc_per_work: f64,
}

impl Frame {
    /// The execute phase, parent of every iteration.
    pub fn execute(&self) -> PhasePath {
        self.job.child("execute", 0)
    }

    /// A job-wide barrier: the coordinator and, on every machine, the
    /// communication thread and the compute threads meet at it.
    pub fn barrier(&self, id: u32) -> Op {
        Op::Barrier {
            id,
            participants: (self.machines * (self.threads + 1) + 1) as u32,
        }
    }

    /// A machine-local barrier: the machine's communication thread and
    /// its compute threads meet at it.
    pub fn machine_barrier(&self, id: u32) -> Op {
        Op::Barrier {
            id,
            participants: self.threads as u32 + 1,
        }
    }

    /// The coordinator's program: the job and execute containers and one
    /// container per iteration, each opened and closed at the job-wide
    /// barriers.
    pub fn coordinator(&self, steps: usize) -> ThreadProgram {
        let execute = self.execute();
        let mut p = ThreadProgram::new(0);
        p.push(Op::PhaseStart(self.job.clone()));
        p.push(self.barrier(self.load_done));
        p.push(Op::PhaseStart(execute.clone()));
        for i in 0..steps {
            let step = execute.child(self.step, i as u32);
            p.push(self.barrier((self.step_start)(i)));
            p.push(Op::PhaseStart(step.clone()));
            p.push(self.barrier((self.step_end)(i)));
            p.push(Op::PhaseEnd(step));
        }
        p.push(Op::PhaseEnd(execute));
        p.push(self.barrier(self.job_done));
        p.push(Op::PhaseEnd(self.job.clone()));
        p
    }

    /// Appends machine `m`'s load phase to its communication thread: read
    /// the machine's share of the edges from local storage, then parse it
    /// (`factor` × slower on a degraded machine) on all its threads and
    /// shuffle it to the owners, then wait for every machine to finish.
    pub fn load(&self, p: &mut ThreadProgram, m: usize, factor: f64, cost: &LoadCost) {
        let load = self.job.child("load", m as u32);
        let edges_here = cost.edges as f64 / self.machines as f64;
        p.push(Op::PhaseStart(load.clone()));
        let read = load.child("read", 0);
        p.push(Op::PhaseStart(read.clone()));
        p.push(Op::DiskIo {
            bytes: edges_here * cost.disk_bytes_per_edge,
        });
        p.push(Op::PhaseEnd(read));
        let parse = load.child("parse", 0);
        p.push(Op::PhaseStart(parse.clone()));
        p.push(Op::Compute {
            work: edges_here * cost.secs_per_edge * factor,
            max_cores: self.threads as f64,
            alloc_per_work: cost.alloc_per_work,
            msgs: uniform_msgs(
                m,
                self.machines,
                edges_here * cost.bytes_per_edge * remote_fraction(self.machines, self.threads),
            ),
        });
        p.push(Op::FlushWait);
        p.push(Op::PhaseEnd(parse));
        p.push(Op::PhaseEnd(load));
        p.push(self.barrier(self.load_done));
    }
}

/// Fraction of cross-partition messages that cross *machines* when
/// `machines × threads` partitions are hashed uniformly (the rest land on
/// sibling partitions of the same machine and never touch the network).
pub(crate) fn remote_fraction(machines: usize, threads: usize) -> f64 {
    let parts = (machines * threads) as f64;
    if parts <= 1.0 {
        return 0.0;
    }
    (machines as f64 - 1.0) * threads as f64 / (parts - 1.0)
}

/// Entry `m` of a per-machine work multiplier list; 1.0 past its end.
pub(crate) fn work_factor(factors: &[f64], m: usize) -> f64 {
    factors.get(m).copied().unwrap_or(1.0)
}

/// The simulated cluster an engine runs on: `machines` copies of
/// `machine`, stepped every `quantum` and monitored every
/// `monitor_interval`.
pub(crate) fn cluster(
    machines: usize,
    machine: MachineConfig,
    quantum: SimDuration,
    monitor_interval: SimDuration,
) -> ClusterConfig {
    let mut cfg = ClusterConfig::homogeneous(machines, machine);
    cfg.quantum = quantum;
    cfg.monitor_interval = monitor_interval;
    cfg
}

/// Message bytes spread uniformly over all machines but `src`.
pub(crate) fn uniform_msgs(src: usize, machines: usize, total_bytes: f64) -> MsgOutput {
    if machines <= 1 || total_bytes <= 0.0 {
        return MsgOutput::none();
    }
    let per = total_bytes / (machines - 1) as f64;
    MsgOutput {
        per_dst: (0..machines)
            .filter(|&d| d != src)
            .map(|d| (d as u16, per))
            .collect(),
    }
}
