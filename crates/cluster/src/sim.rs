//! The fluid-flow cluster simulator.
//!
//! Time advances in fixed quanta (default 1 ms). Each quantum takes four
//! steps. First the transitions at its start: stop-the-world GC pauses
//! begin and end, and queues fill and drain with hysteresis, so producers
//! stall in bursts as real bounded queues make them. Then `solve_rates`
//! solves every rate and moves nothing: a max–min fair allocation of each
//! machine's CPU and of its disk among its threads, and of NIC bandwidth
//! among active flows. Then `advance` moves all transfers and work by the
//! quantum at those rates and records usage. Last, threads whose ops
//! completed move on, through phase logs and barrier rendezvous, to their
//! next durative op. CPU and disk share one per-machine solve. For CPU, a
//! machine whose demand vector is bit-equal to the last one it solved
//! reuses that allocation, which is the same numbers solving again would
//! give; a disk demand moves every quantum an I/O progresses, so disk
//! solves afresh.
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
    /// Message bytes produced per unit of work, per remote destination;
    /// empty when the op sends nothing off its machine.
    msg_rate: Vec<(usize, f64)>,
    queue_stalled: bool,
    // Send-op progress.
    send_dst: usize,
    send_remaining: f64,
    // DiskIo-op progress.
    disk_remaining: f64,
    /// Open blocking record, if any.
    blocked_on: Option<&'static str>,
}

impl ThreadState {
    /// Completes the op at the pc: the thread is ready for the next one.
    fn finish_op(&mut self) {
        self.status = Status::Ready;
        self.pc += 1;
    }
}

struct MachineState {
    /// Outbound queue backlog per destination machine, bytes.
    backlog: Vec<f64>,
    heap_used: f64,
    gc_until: Option<SimTime>,
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

/// A barrier generation: the quorum its first arrival named, and the
/// threads waiting on it, in arrival order.
struct BarrierState {
    participants: u32,
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

/// One machine's CPU or disk, shared max–min fairly among its threads: the
/// threads competing for it this quantum and, for CPU, the last demand
/// vector solved with its allocation. A disk demand is the bytes left over
/// the quantum, which moves every quantum an I/O progresses, so disk keeps
/// no memo.
struct LocalShare {
    tids: Vec<usize>,
    memo: Option<(Vec<f64>, Vec<f64>)>,
}

impl LocalShare {
    fn new(memo: bool) -> Self {
        let memo = memo.then(Default::default);
        LocalShare {
            tids: Vec::new(),
            memo,
        }
    }

    /// Writes the fair share of `capacity` of every competing thread into
    /// `rate`, where thread `tid` demands `demand(tid)`. The allocation is a
    /// pure function of the demand vector (the capacity is fixed per
    /// machine), so with a memo a vector bit-equal to the last one solved
    /// gets that solution back unchanged.
    fn solve(
        &mut self,
        solver: &mut FairShare,
        demands: &mut Vec<f64>,
        capacity: f64,
        demand: impl Fn(usize) -> f64,
        rate: &mut [f64],
    ) {
        if self.tids.is_empty() {
            return;
        }
        demands.clear();
        demands.extend(self.tids.iter().map(|&tid| demand(tid)));
        let alloc = match &mut self.memo {
            None => solver.solve(demands, |_| &[0], &[capacity]),
            Some((last, alloc)) => {
                if !bit_equal(last, demands) {
                    alloc.clear();
                    alloc.extend_from_slice(solver.solve(demands, |_| &[0], &[capacity]));
                    std::mem::swap(last, demands);
                }
                alloc
            }
        };
        for (&tid, &r) in self.tids.iter().zip(alloc) {
            rate[tid] = r;
        }
    }
}

/// What one quantum solves and measures, kept from quantum to quantum so
/// the loop allocates nothing: the rates `solve_rates` fills and `advance`
/// applies, and the usage `advance` hands the monitor.
struct QuantumScratch {
    solver: FairShare,
    /// Demands of the allocation being set up.
    demands: Vec<f64>,
    /// Per machine: its CPU, and its disk.
    cpu: Vec<LocalShare>,
    disk: Vec<LocalShare>,
    /// Per thread: its CPU share while computing, its disk rate while in
    /// disk I/O.
    rate: Vec<f64>,
    /// Links of each network flow: its source's out link, its
    /// destination's in link.
    flow_links: Vec<[usize; 2]>,
    flow_refs: Vec<FlowRef>,
    flow_rates: Vec<f64>,
    /// Out-link capacities of every machine, then in-link capacities.
    net_capacities: Vec<f64>,
    /// Per machine usage this quantum: cores, NIC and disk bytes/second,
    /// and threads wanting CPU.
    cpu_used: Vec<f64>,
    net_out_used: Vec<f64>,
    net_in_used: Vec<f64>,
    disk_used: Vec<f64>,
    runnable: Vec<f64>,
}

impl QuantumScratch {
    fn new(config: &ClusterConfig, threads: usize) -> Self {
        let nm = config.machines.len();
        let net_capacities = (config.machines.iter().map(|m| m.net_out_bps))
            .chain(config.machines.iter().map(|m| m.net_in_bps))
            .collect();
        let shares = |memo| (0..nm).map(|_| LocalShare::new(memo)).collect();
        QuantumScratch {
            solver: FairShare::default(),
            demands: Vec::new(),
            cpu: shares(true),
            disk: shares(false),
            rate: vec![0.0; threads],
            flow_links: Vec::new(),
            flow_refs: Vec::new(),
            flow_rates: Vec::new(),
            net_capacities,
            cpu_used: vec![0.0; nm],
            net_out_used: vec![0.0; nm],
            net_in_used: vec![0.0; nm],
            disk_used: vec![0.0; nm],
            runnable: vec![0.0; nm],
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
                let t = &self.threads[tid];
                match t.status {
                    Status::WaitFlush if self.machines[t.machine].backlog_total() <= EPS => {
                        self.set_blocked(tid, None);
                        self.threads[tid].finish_op();
                    }
                    Status::Sleeping(until) if self.now >= until => self.threads[tid].finish_op(),
                    Status::Ready => {}
                    _ => continue,
                }
                self.start_next_op(tid);
                progressed = true;
            }
            // Release barriers whose quorum arrived.
            let mut released = Vec::new();
            self.barriers.retain(|_, st| {
                let quorum = st.waiting.len() >= st.participants as usize;
                if quorum {
                    released.append(&mut st.waiting);
                }
                !quorum
            });
            for tid in released {
                self.set_blocked(tid, None);
                self.threads[tid].finish_op();
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Starts the op at the current pc of `tid`: logs a phase or consumes a
    /// free op and moves on, or enters the op's durative state.
    fn start_next_op(&mut self, tid: usize) {
        let t = &self.threads[tid];
        let Some(op) = t.ops.get(t.pc).cloned() else {
            self.set_blocked(tid, None);
            self.threads[tid].status = Status::Done;
            return;
        };
        let machine = t.machine;
        match op {
            Op::PhaseStart(path) => self.log(tid, LogEvent::PhaseStart { path }),
            Op::PhaseEnd(path) => self.log(tid, LogEvent::PhaseEnd { path }),
            Op::Compute { work, .. } if work <= EPS => {}
            Op::Send { dst, bytes } if bytes <= EPS || dst as usize == machine => {}
            Op::DiskIo { bytes } if bytes <= EPS => {}
            Op::FlushWait if self.machines[machine].backlog_total() <= EPS => {}
            Op::Sleep { dur } if dur.is_zero() => {}
            Op::Compute {
                work,
                max_cores,
                alloc_per_work,
                msgs,
            } => {
                let t = &mut self.threads[tid];
                t.remaining_work = work;
                t.max_cores = max_cores.max(EPS);
                t.alloc_per_work = alloc_per_work;
                t.msg_rate.clear();
                t.msg_rate.extend(
                    (msgs.per_dst.into_iter())
                        .filter(|&(dst, bytes)| bytes > 0.0 && dst as usize != machine)
                        .map(|(dst, bytes)| (dst as usize, bytes / work)),
                );
                t.queue_stalled = false;
                t.status = Status::Computing;
                // An op started during a pause waits for it like the ops
                // the pause caught.
                if self.machines[machine].gc_until.is_some() {
                    self.machines[machine].gc_paused_threads.push(tid);
                    self.set_blocked(tid, Some(blocking_resources::GC));
                }
                return;
            }
            Op::Send { dst, bytes } => {
                let t = &mut self.threads[tid];
                t.send_dst = dst as usize;
                t.send_remaining = bytes;
                t.status = Status::Sending;
                return;
            }
            Op::DiskIo { bytes } => {
                let t = &mut self.threads[tid];
                t.disk_remaining = bytes;
                t.status = Status::DiskIo;
                return;
            }
            Op::FlushWait => {
                self.threads[tid].status = Status::WaitFlush;
                self.set_blocked(tid, Some(blocking_resources::FLUSH));
                return;
            }
            Op::Barrier { id, participants } => {
                let st = self.barriers.entry(id).or_insert_with(|| BarrierState {
                    participants,
                    waiting: Vec::new(),
                });
                assert!(
                    st.participants == participants,
                    "barrier {id} reached by thread {tid} with {participants} participants, \
                     but its first arrival said {}",
                    st.participants
                );
                st.waiting.push(tid);
                self.threads[tid].status = Status::WaitBarrier(id);
                self.set_blocked(tid, Some(blocking_resources::BARRIER));
                return;
            }
            Op::Sleep { dur } => {
                self.threads[tid].status = Status::Sleeping(self.now + dur);
                return;
            }
        }
        self.threads[tid].finish_op();
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
                        let dur = SimDuration::from_secs_f64(pause_secs).max(self.config.quantum);
                        self.machines[m].gc_until = Some(self.now + dur);
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
            let t = &self.threads[tid];
            if t.status != Status::Computing || t.msg_rate.is_empty() {
                continue;
            }
            let m = t.machine;
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
            self.set_blocked(tid, new_stalled.then_some(blocking_resources::MSGQ));
        }
    }

    /// Solves this quantum's rates into `s` and moves nothing: each
    /// computing thread's CPU share and each disk thread's rate, max–min
    /// fair per machine, and each network flow's rate, max–min fair over
    /// every NIC link. A demand is capped at what finishes within `dt`.
    fn solve_rates(&self, s: &mut QuantumScratch, dt: SimDuration) {
        let dt_secs = dt.as_secs_f64();
        let nm = self.machines.len();
        for share in s.cpu.iter_mut().chain(&mut s.disk) {
            share.tids.clear();
        }
        for (tid, t) in self.threads.iter().enumerate() {
            match t.status {
                Status::Computing
                    if !t.queue_stalled && self.machines[t.machine].gc_until.is_none() =>
                {
                    s.cpu[t.machine].tids.push(tid)
                }
                Status::DiskIo => s.disk[t.machine].tids.push(tid),
                _ => {}
            }
        }
        let threads = &self.threads;
        for (m, mc) in self.config.machines.iter().enumerate() {
            let cpu_demand = |tid: usize| {
                let t = &threads[tid];
                t.max_cores.min(t.remaining_work / dt_secs)
            };
            let disk_demand = |tid: usize| threads[tid].disk_remaining / dt_secs;
            let (solver, demands, rate) = (&mut s.solver, &mut s.demands, &mut s.rate);
            s.cpu[m].solve(solver, demands, mc.cores, cpu_demand, rate);
            s.disk[m].solve(solver, demands, mc.disk_bps, disk_demand, rate);
        }

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
        for (tid, t) in self.threads.iter().enumerate() {
            if t.status == Status::Sending && t.send_remaining > EPS {
                s.demands.push(t.send_remaining / dt_secs);
                s.flow_links.push([t.machine, nm + t.send_dst]);
                s.flow_refs.push(FlowRef::Send { tid });
            }
        }
        let rates = s
            .solver
            .solve(&s.demands, |i| &s.flow_links[i], &s.net_capacities);
        s.flow_rates.clear();
        s.flow_rates.extend_from_slice(rates);
    }

    /// Applies the rates in `s` for `dt`: network flows first, so bytes a
    /// compute op queues in this quantum leave in the next one, then each
    /// thread's disk I/O or compute, completing the ops that finish.
    /// Accumulates usage and stats, records the monitor sample and moves
    /// `now` by `dt`.
    fn advance(&mut self, s: &mut QuantumScratch, dt: SimDuration) {
        let dt_secs = dt.as_secs_f64();
        for (m, machine) in self.machines.iter().enumerate() {
            // Stop-the-world collection burns the whole machine.
            s.cpu_used[m] = match machine.gc_until {
                Some(_) => self.config.machines[m].cores,
                None => 0.0,
            };
        }
        s.net_out_used.fill(0.0);
        s.net_in_used.fill(0.0);
        s.disk_used.fill(0.0);
        s.runnable.fill(0.0);

        for (fr, &rate) in s.flow_refs.iter().zip(&s.flow_rates) {
            let moved = rate * dt_secs;
            let (src, dst, moved) = match *fr {
                FlowRef::Queue { src, dst } => {
                    let b = &mut self.machines[src].backlog[dst];
                    let moved = moved.min(*b);
                    *b -= moved;
                    // Snap near-empty backlogs to exactly zero so
                    // FlushWait terminates despite float rounding.
                    if *b < 1e-6 {
                        *b = 0.0;
                    }
                    (src, dst, moved)
                }
                FlowRef::Send { tid } => {
                    let t = &mut self.threads[tid];
                    let moved = moved.min(t.send_remaining);
                    t.send_remaining -= moved;
                    (t.machine, t.send_dst, moved)
                }
            };
            s.net_out_used[src] += moved / dt_secs;
            s.net_in_used[dst] += moved / dt_secs;
        }

        for (tid, t) in self.threads.iter_mut().enumerate() {
            let m = t.machine;
            match t.status {
                Status::Computing if t.queue_stalled => self.stats.queue_stall_time += dt,
                Status::Computing if self.machines[m].gc_until.is_none() => {
                    s.cpu_used[m] += s.rate[tid];
                    let done = (s.rate[tid] * dt_secs).min(t.remaining_work);
                    t.remaining_work -= done;
                    let machine = &mut self.machines[m];
                    machine.heap_used += t.alloc_per_work * done;
                    for &(dst, per_work) in &t.msg_rate {
                        machine.backlog[dst] += per_work * done;
                    }
                    if t.remaining_work <= EPS {
                        t.finish_op();
                    }
                }
                Status::Sending if t.send_remaining <= EPS => t.finish_op(),
                Status::DiskIo => {
                    let moved = (s.rate[tid] * dt_secs).min(t.disk_remaining);
                    t.disk_remaining -= moved;
                    s.disk_used[m] += moved / dt_secs;
                    if t.disk_remaining <= EPS {
                        t.finish_op();
                    }
                }
                Status::WaitBarrier(_) => self.stats.barrier_wait_time += dt,
                _ => {}
            }
        }

        for t in &self.threads {
            // Threads that want CPU this quantum: computing (even while
            // paused by GC — they would run if they could), but not
            // stalled on a full queue, which is a downstream wait.
            if t.status == Status::Computing && !t.queue_stalled {
                s.runnable[t.machine] += 1.0;
            }
        }
        self.monitor.record_quantum(
            &s.cpu_used,
            &s.net_out_used,
            &s.net_in_used,
            &s.disk_used,
            &s.runnable,
            dt,
        );
        self.now += dt;
    }

    fn run(mut self) -> SimOutput {
        let dt = self.config.quantum;
        let max_quanta = self.config.max_sim_time / dt;
        let mut s = QuantumScratch::new(&self.config, self.threads.len());

        self.advance_programs();
        for _ in 0..max_quanta {
            if self.threads.iter().all(|t| t.status == Status::Done)
                && self.machines.iter().all(|m| m.backlog_total() <= EPS)
            {
                break;
            }
            self.stats.quanta += 1;
            self.gc_transitions();
            self.queue_stall_transitions();
            self.solve_rates(&mut s, dt);
            self.advance(&mut s, dt);
            self.advance_programs();
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
            end_time: self.now,
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
                    if let Some(stack) = open.get_mut(&(rec.machine, rec.thread, path.to_string()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GcConfig, MachineConfig};
    use crate::ops::MsgOutput;

    /// A compute op that starts while its machine is paused waits for the
    /// pause like the ops the pause caught, and logs it as a `gc` block.
    #[test]
    fn compute_started_during_a_pause_logs_a_gc_block() {
        let mut cfg = ClusterConfig::homogeneous(
            1,
            MachineConfig {
                cores: 2.0,
                net_out_bps: 1000.0,
                net_in_bps: 1000.0,
                disk_bps: 1000.0,
                gc: Some(GcConfig {
                    heap_bytes: 1000.0,
                    trigger_fraction: 0.8,
                    pause_per_byte: 0.0,
                    min_pause_secs: 0.1,
                    live_fraction: 0.1,
                }),
                out_queue_bytes: None,
            },
        );
        cfg.monitor_interval = SimDuration::from_millis(10);
        let mut sim = Simulation::new(cfg);
        // 800 bytes allocated after 0.4 core-seconds: paused 0.40–0.50 s.
        let mut allocator = ThreadProgram::new(0);
        allocator.push(Op::Compute {
            work: 0.6,
            max_cores: 1.0,
            alloc_per_work: 2000.0,
            msgs: MsgOutput::none(),
        });
        sim.add_thread(allocator);
        let b = PhasePath::root().child("b", 0);
        let mut late = ThreadProgram::new(0);
        late.push(Op::Sleep {
            dur: SimDuration::from_millis(450),
        })
        .push(Op::PhaseStart(b.clone()))
        .push(Op::compute(0.1))
        .push(Op::PhaseEnd(b.clone()));
        sim.add_thread(late);
        let out = sim.run();

        let pause = out.stats.gc_pauses[0];
        assert!(
            (pause.start.as_secs_f64() - 0.40).abs() < 0.005,
            "{pause:?}"
        );
        let (_, start, end) = out
            .phase_intervals()
            .into_iter()
            .find(|(p, _, _)| *p == b)
            .unwrap();
        assert!(
            (start.as_secs_f64() - 0.45).abs() < 0.005,
            "b starts at {start:?}"
        );
        assert!(
            (end.as_secs_f64() - 0.60).abs() < 0.005,
            "b ends at {end:?}"
        );
        let gc_blocks: Vec<(bool, f64)> = (out.logs.iter())
            .filter(|r| r.thread == 1)
            .filter_map(|r| match &r.event {
                LogEvent::BlockStart { resource } if resource == blocking_resources::GC => {
                    Some((true, r.time.as_secs_f64()))
                }
                LogEvent::BlockEnd { resource } if resource == blocking_resources::GC => {
                    Some((false, r.time.as_secs_f64()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(gc_blocks.len(), 2, "{gc_blocks:?}");
        assert!(
            gc_blocks[0].0 && (gc_blocks[0].1 - 0.45).abs() < 0.005,
            "{gc_blocks:?}"
        );
        assert!(
            !gc_blocks[1].0 && (gc_blocks[1].1 - 0.50).abs() < 0.005,
            "{gc_blocks:?}"
        );
    }
}
