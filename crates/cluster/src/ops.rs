//! Thread programs: the operations a simulated engine thread executes.
//!
//! Engines compile a workload into one [`ThreadProgram`] per simulated thread
//! (compute threads, communication threads, loaders). The simulator executes
//! programs under closed-loop resource dynamics: CPU is fair-shared, message
//! production stalls on full queues, GC pauses everything on a machine, and
//! barriers rendezvous across machines — so the *durations* of the phases an
//! engine declares emerge from contention rather than being scripted.

use crate::config::MachineId;
use crate::logging::PhasePath;
use crate::time::SimDuration;

/// Message bytes produced by a compute op, split by destination machine.
#[derive(Clone, Debug, Default)]
pub struct MsgOutput {
    /// `(destination, bytes)` pairs; the destination may equal the sender
    /// (local messages never touch the network and bypass the queue).
    pub per_dst: Vec<(MachineId, f64)>,
}

impl MsgOutput {
    /// No messages.
    pub fn none() -> Self {
        MsgOutput::default()
    }

    /// Total remote bytes (excluding self-destined traffic).
    pub fn remote_bytes(&self, self_machine: MachineId) -> f64 {
        self.per_dst
            .iter()
            .filter(|(d, _)| *d != self_machine)
            .map(|(_, b)| *b)
            .sum()
    }
}

/// One operation in a thread program.
#[derive(Clone, Debug)]
pub enum Op {
    /// Emit a phase-start log record.
    PhaseStart(PhasePath),
    /// Emit a phase-end log record.
    PhaseEnd(PhasePath),
    /// Burn CPU. Messages are produced into the machine's outbound queue
    /// proportionally to work progress; heap bytes are allocated likewise.
    Compute {
        /// Core-seconds of work.
        work: f64,
        /// Maximum cores this op can use concurrently (1.0 for a worker
        /// thread, >1 for phases modeled as a single multi-core op).
        max_cores: f64,
        /// Heap bytes allocated per core-second of work (drives GC).
        alloc_per_work: f64,
        /// Messages produced over the lifetime of this op.
        msgs: MsgOutput,
    },
    /// Synchronously transfer bytes to another machine (bypasses the
    /// message queue; the thread resumes when the transfer completes).
    Send {
        /// Destination machine.
        dst: MachineId,
        /// Bytes to transfer.
        bytes: f64,
    },
    /// Transfer bytes to or from local storage; the thread resumes when
    /// the transfer completes. Reads and writes share the disk bandwidth.
    DiskIo {
        /// Bytes to transfer.
        bytes: f64,
    },
    /// Wait until this machine's outbound message queue is fully drained.
    FlushWait,
    /// Wait until `participants` threads (cluster-wide) have arrived at
    /// barrier `id`. Each barrier id is released once; engines use fresh ids
    /// per superstep.
    Barrier {
        /// Barrier identifier; each id is released once.
        id: u32,
        /// Threads that must arrive before anyone proceeds.
        participants: u32,
    },
    /// Idle for a fixed duration (models I/O waits and think time).
    Sleep {
        /// How long to idle.
        dur: SimDuration,
    },
}

impl Op {
    /// Plain CPU work with no messages or allocation.
    pub fn compute(work: f64) -> Op {
        Op::Compute {
            work,
            max_cores: 1.0,
            alloc_per_work: 0.0,
            msgs: MsgOutput::none(),
        }
    }
}

/// A thread's whole program, bound to a machine.
#[derive(Clone, Debug)]
pub struct ThreadProgram {
    /// Machine the thread runs on.
    pub machine: MachineId,
    /// Operations, executed in order.
    pub ops: Vec<Op>,
}

impl ThreadProgram {
    /// Creates an empty program on `machine`.
    pub fn new(machine: MachineId) -> Self {
        ThreadProgram {
            machine,
            ops: Vec::new(),
        }
    }

    /// Appends an op (builder style).
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_output_remote_bytes_excludes_self() {
        let m = MsgOutput {
            per_dst: vec![(0, 100.0), (1, 50.0), (2, 25.0)],
        };
        assert_eq!(m.remote_bytes(0), 75.0);
        assert_eq!(m.remote_bytes(3), 175.0);
        assert_eq!(MsgOutput::none().remote_bytes(0), 0.0);
    }

    #[test]
    fn program_builder() {
        let mut p = ThreadProgram::new(2);
        p.push(Op::compute(1.0)).push(Op::FlushWait);
        assert_eq!(p.machine, 2);
        assert_eq!(p.ops.len(), 2);
    }
}
