//! The fluid-flow cluster simulator.
//!
//! Time advances in fixed quanta (default 1 ms). Every quantum the simulator
//! computes a max–min fair allocation of each machine's CPU among runnable
//! threads and of NIC bandwidth among active flows, advances all work and
//! transfers by the quantum, and processes state transitions: operations
//! completing, queues filling and draining (with hysteresis, so producers
//! stall in bursts as real bounded queues make them), stop-the-world GC
//! pauses, and barrier rendezvous. A machine whose CPU demand vector is
//! bit-equal to the last one it solved reuses that allocation, which is
//! the same numbers solving again would give.
//!
//! The outputs are exactly what a real SUT gives Grade10: a structured
//! execution log (phase and blocking events) and per-resource utilization
//! series sampled by the monitor — plus the fine-grained ground truth that a
//! real system could not easily provide, which powers the Table II accuracy
//! experiments.

use crate::alloc::FairShare;
use crate::config::{ClusterConfig, MachineId};
use crate::logging::{LogEvent, LogRecord, PhasePath};
use crate::monitor::{Monitor, ResourceSeries, ResourceSpec};
use crate::ops::{Op, ThreadProgram};
use crate::time::{SimDuration, SimTime};

/// Blocking-resource names the simulator emits.
pub mod blocking_resources {
    /// Stop-the-world garbage collection.
    pub const GC: &str = "gc";
    /// Outbound message queue full.
    pub const MSGQ: &str = "msgq";
    /// Waiting at a synchronization barrier.
    pub const BARRIER: &str = "barrier";
    /// Waiting for the outbound queue to drain.
    pub const FLUSH: &str = "flush";
}

/// Fraction of the queue bound below which stalled producers resume. The
/// gap between full (1.0) and this watermark is what produces the bursty
/// stall/run pattern of bounded producer queues (Fig. 3, region ③).
const QUEUE_RESUME_FRACTION: f64 = 0.5;

const EPS: f64 = 1e-9;

#[derive(Clone, Debug, PartialEq)]
enum Status {
    Ready,
    Computing,
    Sending,
    DiskIo,
    WaitFlush,
    WaitBarrier(u32),
    Sleeping(SimTime),
    Done,
}

struct ThreadState {
    machine: usize,
    ops: Vec<Op>,
    pc: usize,
    status: Status,
    // Compute-op progress.
    remaining_work: f64,
    max_cores: f64,
    alloc_per_work: f64,
    /// Message bytes still to produce, per destination, per unit work.
    msg_rate: Vec<(usize, f64)>,
    produces_remote: bool,
    queue_stalled: bool,
    // Send-op progress.
    send_dst: usize,
    send_remaining: f64,
    // DiskIo-op progress.
    disk_remaining: f64,
    /// Open blocking record, if any.
    blocked_on: Option<&'static str>,
}

struct MachineState {
    /// Outbound queue backlog per destination machine, bytes.
    backlog: Vec<f64>,
    heap_used: f64,
    gc_until: Option<SimTime>,
    gc_pauses: u64,
    gc_paused_threads: Vec<usize>,
}

impl MachineState {
    /// Total queued bytes. Computed from the per-destination backlogs on
    /// demand — an incrementally maintained total accumulates float drift
    /// and can strand FlushWait above the emptiness epsilon forever.
    fn backlog_total(&self) -> f64 {
        self.backlog.iter().sum()
    }
}

#[derive(Default)]
struct BarrierState {
    arrived: u32,
    waiting: Vec<usize>,
}

/// One completed GC pause (for engine statistics and tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GcPause {
    /// The machine the pause occurred on.
    pub machine: MachineId,
    /// When the pause began.
    pub start: SimTime,
    /// How long the collector ran.
    pub duration: SimDuration,
}

/// Aggregate statistics of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Every completed stop-the-world GC pause.
    pub gc_pauses: Vec<GcPause>,
    /// Total thread-time spent stalled on full message queues.
    pub queue_stall_time: SimDuration,
    /// Total thread-time spent waiting at barriers.
    pub barrier_wait_time: SimDuration,
    /// Number of quanta simulated.
    pub quanta: u64,
}

/// Everything a simulation run produces.
pub struct SimOutput {
    /// Structured execution log (phase and blocking events), time-ordered.
    pub logs: Vec<LogRecord>,
    /// Ground-truth utilization series, one per resource instance.
    pub series: Vec<ResourceSeries>,
    /// Resource instances and capacities of the cluster.
    pub resources: Vec<ResourceSpec>,
    /// Instant the last thread finished.
    pub end_time: SimTime,
    /// Aggregate statistics of the run.
    pub stats: SimStats,
}

/// Builds and runs one simulation.
pub struct Simulation {
    config: ClusterConfig,
    programs: Vec<ThreadProgram>,
}

impl Simulation {
    /// Creates a simulation over `config`. Panics on invalid configs.
    pub fn new(config: ClusterConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid cluster config: {e}");
        }
        Simulation {
            config,
            programs: Vec::new(),
        }
    }

    /// Adds a thread program; returns its cluster-wide thread index.
    pub fn add_thread(&mut self, program: ThreadProgram) -> usize {
        assert!(
            (program.machine as usize) < self.config.machines.len(),
            "thread bound to unknown machine {}",
            program.machine
        );
        self.programs.push(program);
        self.programs.len() - 1
    }

    /// Runs to completion and returns the outputs.
    pub fn run(self) -> SimOutput {
        Runner::new(self.config, self.programs).run()
    }
}

/// A network flow the allocator rates: a queue backlog between two
/// machines, or a thread's explicit send.
enum FlowRef {
    Queue { src: usize, dst: usize },
    Send { tid: usize },
}

/// The last CPU allocation solved on one machine, and the demand vector it
/// was solved for.
#[derive(Default)]
struct CpuAlloc {
    demands: Vec<f64>,
    alloc: Vec<f64>,
}

/// Buffers the quantum loop refills every quantum instead of allocating.
struct QuantumScratch {
    solver: FairShare,
    /// Demands of the allocation being set up (CPU, network, then disk).
    demands: Vec<f64>,
    /// Per machine: the threads competing for its CPU, then for its disk.
    machine_threads: Vec<Vec<usize>>,
    cpu_last: Vec<CpuAlloc>,
    /// Links of each network flow: its source's out link, its
    /// destination's in link.
    flow_links: Vec<[usize; 2]>,
    flow_refs: Vec<FlowRef>,
    /// Out-link capacities of every machine, then in-link capacities.
    net_capacities: Vec<f64>,
}

impl QuantumScratch {
    fn new(config: &ClusterConfig) -> Self {
        let nm = config.machines.len();
        let net_capacities = (config.machines.iter().map(|m| m.net_out_bps))
            .chain(config.machines.iter().map(|m| m.net_in_bps))
            .collect();
        QuantumScratch {
            solver: FairShare::default(),
            demands: Vec::new(),
            machine_threads: vec![Vec::new(); nm],
            cpu_last: (0..nm).map(|_| CpuAlloc::default()).collect(),
            flow_links: Vec::new(),
            flow_refs: Vec::new(),
            net_capacities,
        }
    }
}

/// Whether two vectors hold the same floats, bit for bit.
fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

struct Runner {
    config: ClusterConfig,
    threads: Vec<ThreadState>,
    machines: Vec<MachineState>,
    barriers: std::collections::BTreeMap<u32, BarrierState>,
    /// Machine-local thread index per global thread (for log records).
    local_idx: Vec<u16>,
    logs: Vec<LogRecord>,
    monitor: Monitor,
    stats: SimStats,
    now: SimTime,
}

impl Runner {
    fn new(config: ClusterConfig, programs: Vec<ThreadProgram>) -> Self {
        let nm = config.machines.len();
        let mut per_machine_count = vec![0u16; nm];
        let mut local_idx = Vec::with_capacity(programs.len());
        let threads: Vec<ThreadState> = programs
            .into_iter()
            .map(|p| {
                let m = p.machine as usize;
                local_idx.push(per_machine_count[m]);
                per_machine_count[m] += 1;
                ThreadState {
                    machine: m,
                    ops: p.ops,
                    pc: 0,
                    status: Status::Ready,
                    remaining_work: 0.0,
                    max_cores: 1.0,
                    alloc_per_work: 0.0,
                    msg_rate: Vec::new(),
                    produces_remote: false,
                    queue_stalled: false,
                    send_dst: 0,
                    send_remaining: 0.0,
                    disk_remaining: 0.0,
                    blocked_on: None,
                }
            })
            .collect();
        let machines = (0..nm)
            .map(|_| MachineState {
                backlog: vec![0.0; nm],
                heap_used: 0.0,
                gc_until: None,
                gc_pauses: 0,
                gc_paused_threads: Vec::new(),
            })
            .collect();
        let monitor = Monitor::new(&config);
        Runner {
            config,
            threads,
            machines,
            barriers: std::collections::BTreeMap::new(),
            local_idx,
            logs: Vec::new(),
            monitor,
            stats: SimStats::default(),
            now: SimTime::ZERO,
        }
    }

    fn log(&mut self, tid: usize, event: LogEvent) {
        self.logs.push(LogRecord {
            time: self.now,
            machine: self.threads[tid].machine as u16,
            thread: self.local_idx[tid],
            event,
        });
    }

    fn set_blocked(&mut self, tid: usize, resource: Option<&'static str>) {
        if self.threads[tid].blocked_on == resource {
            return;
        }
        if let Some(old) = self.threads[tid].blocked_on {
            self.log(
                tid,
                LogEvent::BlockEnd {
                    resource: old.to_string(),
                },
            );
        }
        if let Some(new) = resource {
            self.log(
                tid,
                LogEvent::BlockStart {
                    resource: new.to_string(),
                },
            );
        }
        self.threads[tid].blocked_on = resource;
    }

    /// Advances thread programs through all zero-duration transitions until
    /// a fixpoint: phase logs, barrier releases, flush completions, and the
    /// start of durative ops.
    fn advance_programs(&mut self) {
        loop {
            let mut progressed = false;
            for tid in 0..self.threads.len() {
                // Re-check waiting states that may now be satisfied.
                match self.threads[tid].status {
                    Status::WaitFlush
                        if self.machines[self.threads[tid].machine].backlog_total() <= EPS => {
                            self.set_blocked(tid, None);
                            self.threads[tid].status = Status::Ready;
                            self.threads[tid].pc += 1;
                            progressed = true;
                        }
                    Status::Sleeping(until)
                        if self.now >= until => {
                            self.threads[tid].status = Status::Ready;
                            self.threads[tid].pc += 1;
                            progressed = true;
                        }
                    _ => {}
                }
                if self.threads[tid].status != Status::Ready {
                    continue;
                }
                progressed |= self.start_next_op(tid);
            }
            // Release barriers whose quorum arrived.
            let ready_ids: Vec<u32> = self
                .barriers
                .iter()
                .filter_map(|(&id, st)| {
                    let participants = match self.find_barrier_participants(id) {
                        Some(p) => p,
                        None => return None,
                    };
                    (st.arrived >= participants).then_some(id)
                })
                .collect();
            for id in ready_ids {
                let Some(st) = self.barriers.remove(&id) else {
                    unreachable!("barrier {id:?} was collected from this map above");
                };
                for tid in st.waiting {
                    self.set_blocked(tid, None);
                    self.threads[tid].status = Status::Ready;
                    self.threads[tid].pc += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Looks up the participant count of barrier `id` from any thread
    /// currently waiting on it (all arrivals must agree; checked).
    fn find_barrier_participants(&self, id: u32) -> Option<u32> {
        let st = self.barriers.get(&id)?;
        let tid = *st.waiting.first()?;
        match &self.threads[tid].ops[self.threads[tid].pc] {
            Op::Barrier { participants, .. } => Some(*participants),
            _ => None,
        }
    }

    /// Starts the op at the current pc of `tid`. Returns true if the thread
    /// made progress (consumed a zero-cost op or entered a durative state).
    fn start_next_op(&mut self, tid: usize) -> bool {
        let pc = self.threads[tid].pc;
        if pc >= self.threads[tid].ops.len() {
            if self.threads[tid].status != Status::Done {
                self.set_blocked(tid, None);
                self.threads[tid].status = Status::Done;
                return true;
            }
            return false;
        }
        let op = self.threads[tid].ops[pc].clone();
        match op {
            Op::PhaseStart(path) => {
                self.log(tid, LogEvent::PhaseStart { path });
                self.threads[tid].pc += 1;
                true
            }
            Op::PhaseEnd(path) => {
                self.log(tid, LogEvent::PhaseEnd { path });
                self.threads[tid].pc += 1;
                true
            }
            Op::Compute {
                work,
                max_cores,
                alloc_per_work,
                msgs,
            } => {
                if work <= EPS {
                    self.threads[tid].pc += 1;
                    return true;
                }
                let machine = self.threads[tid].machine;
                let mut msg_rate = Vec::new();
                let mut produces_remote = false;
                for (dst, bytes) in msgs.per_dst {
                    if bytes > 0.0 && dst as usize != machine {
                        msg_rate.push((dst as usize, bytes / work));
                        produces_remote = true;
                    }
                }
                let t = &mut self.threads[tid];
                t.remaining_work = work;
                t.max_cores = max_cores.max(EPS);
                t.alloc_per_work = alloc_per_work;
                t.msg_rate = msg_rate;
                t.produces_remote = produces_remote;
                t.queue_stalled = false;
                t.status = Status::Computing;
                true
            }
            Op::Send { dst, bytes } => {
                if bytes <= EPS || dst as usize == self.threads[tid].machine {
                    self.threads[tid].pc += 1;
                    return true;
                }
                let t = &mut self.threads[tid];
                t.send_dst = dst as usize;
                t.send_remaining = bytes;
                t.status = Status::Sending;
                true
            }
            Op::DiskIo { bytes } => {
                if bytes <= EPS {
                    self.threads[tid].pc += 1;
                    return true;
                }
                let t = &mut self.threads[tid];
                t.disk_remaining = bytes;
                t.status = Status::DiskIo;
                true
            }
            Op::FlushWait => {
                if self.machines[self.threads[tid].machine].backlog_total() <= EPS {
                    self.threads[tid].pc += 1;
                    true
                } else {
                    self.threads[tid].status = Status::WaitFlush;
                    self.set_blocked(tid, Some(blocking_resources::FLUSH));
                    true
                }
            }
            Op::Barrier { id, .. } => {
                let st = self.barriers.entry(id).or_default();
                st.arrived += 1;
                st.waiting.push(tid);
                self.threads[tid].status = Status::WaitBarrier(id);
                self.set_blocked(tid, Some(blocking_resources::BARRIER));
                true
            }
            Op::Sleep { dur } => {
                if dur.is_zero() {
                    self.threads[tid].pc += 1;
                    true
                } else {
                    self.threads[tid].status = Status::Sleeping(self.now + dur);
                    true
                }
            }
        }
    }

    /// Starts and ends GC pauses at quantum boundaries.
    fn gc_transitions(&mut self) {
        for m in 0..self.machines.len() {
            // End a pause that has run its course.
            if let Some(until) = self.machines[m].gc_until {
                if self.now >= until {
                    let Some(gc) = self.config.machines[m].gc.as_ref() else {
                        unreachable!("machine {m} has gc_until set, so it has a GC config");
                    };
                    self.machines[m].heap_used *= gc.live_fraction;
                    self.machines[m].gc_until = None;
                    let paused = std::mem::take(&mut self.machines[m].gc_paused_threads);
                    for tid in paused {
                        self.set_blocked(tid, None);
                    }
                }
            }
            // Start a pause if the heap crossed the trigger.
            if self.machines[m].gc_until.is_none() {
                if let Some(gc) = &self.config.machines[m].gc {
                    if self.machines[m].heap_used >= gc.trigger_fraction * gc.heap_bytes {
                        let pause_secs =
                            gc.min_pause_secs + gc.pause_per_byte * self.machines[m].heap_used;
                        let dur = SimDuration::from_secs_f64(pause_secs)
                            .max(self.config.quantum);
                        self.machines[m].gc_until = Some(self.now + dur);
                        self.machines[m].gc_pauses += 1;
                        self.stats.gc_pauses.push(GcPause {
                            machine: m as MachineId,
                            start: self.now,
                            duration: dur,
                        });
                        let affected: Vec<usize> = (0..self.threads.len())
                            .filter(|&tid| {
                                self.threads[tid].machine == m
                                    && self.threads[tid].status == Status::Computing
                            })
                            .collect();
                        for &tid in &affected {
                            self.set_blocked(tid, Some(blocking_resources::GC));
                        }
                        self.machines[m].gc_paused_threads = affected;
                    }
                }
            }
        }
    }

    /// Updates queue-stall flags with hysteresis and maintains their
    /// blocking records.
    fn queue_stall_transitions(&mut self) {
        for tid in 0..self.threads.len() {
            if self.threads[tid].status != Status::Computing
                || !self.threads[tid].produces_remote
            {
                continue;
            }
            let m = self.threads[tid].machine;
            // GC blocking takes precedence over queue accounting.
            if self.machines[m].gc_until.is_some() {
                continue;
            }
            let cap = match self.config.machines[m].out_queue_bytes {
                Some(c) => c,
                None => continue,
            };
            let total = self.machines[m].backlog_total();
            let stalled = self.threads[tid].queue_stalled;
            let new_stalled = if stalled {
                total > cap * QUEUE_RESUME_FRACTION
            } else {
                total >= cap
            };
            self.threads[tid].queue_stalled = new_stalled;
            self.set_blocked(
                tid,
                new_stalled.then_some(blocking_resources::MSGQ),
            );
        }
    }

    fn run(mut self) -> SimOutput {
        let dt = self.config.quantum;
        let dt_secs = dt.as_secs_f64();
        let max_quanta = self.config.max_sim_time / dt;
        let nm = self.machines.len();
        let mut s = QuantumScratch::new(&self.config);

        self.advance_programs();
        let mut end_time = self.now;

        for _ in 0..max_quanta {
            if self
                .threads
                .iter()
                .all(|t| t.status == Status::Done)
            {
                let drained = self
                    .machines
                    .iter()
                    .all(|m| m.backlog_total() <= EPS);
                if drained {
                    break;
                }
            }
            self.stats.quanta += 1;

            self.gc_transitions();
            self.queue_stall_transitions();

            // ---- CPU allocation (per machine) ----
            let mut cpu_used = vec![0.0f64; nm];
            for tids in &mut s.machine_threads {
                tids.clear();
            }
            for tid in 0..self.threads.len() {
                let t = &self.threads[tid];
                if t.status == Status::Computing
                    && !t.queue_stalled
                    && self.machines[t.machine].gc_until.is_none()
                {
                    s.machine_threads[t.machine].push(tid);
                }
            }
            let mut shares: Vec<f64> = vec![0.0; self.threads.len()];
            for m in 0..nm {
                if self.machines[m].gc_until.is_some() {
                    // Stop-the-world collection burns the whole machine.
                    cpu_used[m] = self.config.machines[m].cores;
                    continue;
                }
                let tids = &s.machine_threads[m];
                if tids.is_empty() {
                    continue;
                }
                s.demands.clear();
                s.demands.extend(tids.iter().map(|&tid| {
                    let t = &self.threads[tid];
                    t.max_cores.min(t.remaining_work / dt_secs)
                }));
                // The allocation is a pure function of the demand vector
                // (the capacity is fixed per machine), so a bit-equal
                // vector gets the last solution back unchanged.
                let last = &mut s.cpu_last[m];
                if !bit_equal(&last.demands, &s.demands) {
                    let alloc =
                        s.solver
                            .solve(&s.demands, |_| &[0], &[self.config.machines[m].cores]);
                    last.alloc.clear();
                    last.alloc.extend_from_slice(alloc);
                    last.demands.clear();
                    last.demands.extend_from_slice(&s.demands);
                }
                for (i, &tid) in tids.iter().enumerate() {
                    shares[tid] = last.alloc[i];
                    cpu_used[m] += last.alloc[i];
                }
            }

            // ---- Network allocation ----
            // Links: out link of machine m = index m; in link = nm + m.
            // Queue backlogs first, then sends.
            s.demands.clear();
            s.flow_links.clear();
            s.flow_refs.clear();
            for src in 0..nm {
                for dst in 0..nm {
                    let pending = self.machines[src].backlog[dst];
                    if pending > EPS {
                        s.demands.push(pending / dt_secs);
                        s.flow_links.push([src, nm + dst]);
                        s.flow_refs.push(FlowRef::Queue { src, dst });
                    }
                }
            }
            for tid in 0..self.threads.len() {
                let t = &self.threads[tid];
                if t.status == Status::Sending && t.send_remaining > EPS {
                    s.demands.push(t.send_remaining / dt_secs);
                    s.flow_links.push([t.machine, nm + t.send_dst]);
                    s.flow_refs.push(FlowRef::Send { tid });
                }
            }
            let rates = s
                .solver
                .solve(&s.demands, |i| &s.flow_links[i], &s.net_capacities);

            // ---- Advance by one quantum ----
            let mut net_out_used = vec![0.0f64; nm];
            let mut net_in_used = vec![0.0f64; nm];
            for (i, fr) in s.flow_refs.iter().enumerate() {
                let moved = rates[i] * dt_secs;
                match *fr {
                    FlowRef::Queue { src, dst } => {
                        let b = &mut self.machines[src].backlog[dst];
                        let moved = moved.min(*b);
                        *b -= moved;
                        // Snap near-empty backlogs to exactly zero so
                        // FlushWait terminates despite float rounding.
                        if *b < 1e-6 {
                            *b = 0.0;
                        }
                        net_out_used[src] += moved / dt_secs;
                        net_in_used[dst] += moved / dt_secs;
                    }
                    FlowRef::Send { tid } => {
                        let (src, dst, rem) = {
                            let t = &self.threads[tid];
                            (t.machine, t.send_dst, t.send_remaining)
                        };
                        let moved = moved.min(rem);
                        self.threads[tid].send_remaining -= moved;
                        net_out_used[src] += moved / dt_secs;
                        net_in_used[dst] += moved / dt_secs;
                    }
                }
            }

            // ---- Disk allocation (per machine) ----
            let mut disk_used = vec![0.0f64; nm];
            for tids in &mut s.machine_threads {
                tids.clear();
            }
            for tid in 0..self.threads.len() {
                if self.threads[tid].status == Status::DiskIo {
                    s.machine_threads[self.threads[tid].machine].push(tid);
                }
            }
            for m in 0..nm {
                let tids = &s.machine_threads[m];
                if tids.is_empty() {
                    continue;
                }
                s.demands.clear();
                s.demands.extend(
                    tids.iter()
                        .map(|&tid| self.threads[tid].disk_remaining / dt_secs),
                );
                let alloc =
                    s.solver
                        .solve(&s.demands, |_| &[0], &[self.config.machines[m].disk_bps]);
                for (i, &tid) in tids.iter().enumerate() {
                    let moved = (alloc[i] * dt_secs).min(self.threads[tid].disk_remaining);
                    self.threads[tid].disk_remaining -= moved;
                    disk_used[m] += moved / dt_secs;
                }
            }

            for tid in 0..self.threads.len() {
                let share = shares[tid];
                match self.threads[tid].status {
                    Status::Computing => {
                        if self.threads[tid].queue_stalled {
                            self.stats.queue_stall_time += dt;
                            continue;
                        }
                        if self.machines[self.threads[tid].machine].gc_until.is_some() {
                            continue;
                        }
                        let done = (share * dt_secs).min(self.threads[tid].remaining_work);
                        self.threads[tid].remaining_work -= done;
                        let m = self.threads[tid].machine;
                        self.machines[m].heap_used +=
                            self.threads[tid].alloc_per_work * done;
                        let msg_rate = std::mem::take(&mut self.threads[tid].msg_rate);
                        for &(dst, per_work) in &msg_rate {
                            let bytes = per_work * done;
                            self.machines[m].backlog[dst] += bytes;
                        }
                        self.threads[tid].msg_rate = msg_rate;
                        if self.threads[tid].remaining_work <= EPS {
                            self.threads[tid].status = Status::Ready;
                            self.threads[tid].pc += 1;
                        }
                    }
                    Status::Sending
                        if self.threads[tid].send_remaining <= EPS => {
                            self.threads[tid].status = Status::Ready;
                            self.threads[tid].pc += 1;
                        }
                    Status::DiskIo
                        if self.threads[tid].disk_remaining <= EPS => {
                            self.threads[tid].status = Status::Ready;
                            self.threads[tid].pc += 1;
                        }
                    Status::WaitBarrier(_) => {
                        self.stats.barrier_wait_time += dt;
                    }
                    _ => {}
                }
            }

            // ---- Monitoring ----
            let mut runnable = vec![0.0f64; nm];
            for t in &self.threads {
                // Threads that want CPU this quantum: computing (even while
                // paused by GC — they would run if they could), but not
                // stalled on a full queue, which is a downstream wait.
                if t.status == Status::Computing && !t.queue_stalled {
                    runnable[t.machine] += 1.0;
                }
            }
            self.monitor.record_quantum(
                &cpu_used,
                &net_out_used,
                &net_in_used,
                &disk_used,
                &runnable,
                dt,
            );

            self.now += dt;
            self.advance_programs();
            end_time = self.now;
        }

        let unfinished: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.threads[t].status != Status::Done)
            .collect();
        assert!(
            unfinished.is_empty(),
            "simulation hit max_sim_time with unfinished threads {unfinished:?} \
             (statuses: {:?})",
            unfinished
                .iter()
                .map(|&t| self.threads[t].status.clone())
                .collect::<Vec<_>>()
        );

        // Close any blocking records left open (defensive; normally none).
        for tid in 0..self.threads.len() {
            self.set_blocked(tid, None);
        }

        let (series, resources) = self.monitor.finish();
        SimOutput {
            logs: self.logs,
            series,
            resources,
            end_time,
            stats: self.stats,
        }
    }
}

impl SimOutput {
    /// Convenience: all phase start/end pairs as `(path, start, end)`,
    /// matched per (machine, thread) in log order.
    pub fn phase_intervals(&self) -> Vec<(PhasePath, SimTime, SimTime)> {
        let mut open: std::collections::HashMap<(u16, u16, String), Vec<(PhasePath, SimTime)>> =
            std::collections::HashMap::new();
        let mut out = Vec::new();
        for rec in &self.logs {
            match &rec.event {
                LogEvent::PhaseStart { path } => {
                    open.entry((rec.machine, rec.thread, path.to_string()))
                        .or_default()
                        .push((path.clone(), rec.time));
                }
                LogEvent::PhaseEnd { path } => {
                    if let Some(stack) =
                        open.get_mut(&(rec.machine, rec.thread, path.to_string()))
                    {
                        if let Some((p, start)) = stack.pop() {
                            out.push((p, start, rec.time));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }
}

