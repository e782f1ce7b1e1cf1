//! Simulated cluster infrastructure for the Grade10 reproduction.
//!
//! The Grade10 paper characterizes graph-processing frameworks running on a
//! real cluster. This crate provides the stand-in: a deterministic,
//! fluid-flow simulation of machines (CPU cores, NIC bandwidth, managed
//! heaps with stop-the-world GC, bounded outbound message queues) on which
//! the engine models in `grade10-engines` execute their thread programs.
//!
//! What the simulation produces is exactly what a real system-under-test
//! hands to Grade10:
//!
//! * a structured [execution log](logging::LogRecord) of phase start/end and
//!   blocking start/end events, and
//! * [monitoring data](monitor::ResourceSeries): average resource utilization
//!   per interval, with a fine-grained ground-truth series that the Table II
//!   upsampling-accuracy experiment downsamples and compares against.
//!
//! See `DESIGN.md` §2 for why this substitution preserves the behaviors the
//! paper studies.

#![warn(missing_docs)]
// Library code must classify failures, not abort: unwrap/expect are only
// acceptable where an invariant makes failure impossible (and then a
// targeted allow with a reason documents why).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
pub mod config;
pub mod faults;
pub mod logging;
pub mod monitor;
pub mod ops;
pub mod sim;
pub mod time;

pub use config::{ClusterConfig, GcConfig, MachineConfig, MachineId};
pub use faults::{FaultClass, FaultPlan};
pub use logging::{LogEvent, LogRecord, PathSeg, PhasePath};
pub use monitor::{ResourceKind, ResourceSeries, ResourceSpec};
pub use ops::{MsgOutput, Op, ThreadProgram};
pub use sim::{blocking_resources, GcPause, SimOutput, SimStats, Simulation};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(n: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::homogeneous(
            n,
            MachineConfig {
                cores: 2.0,
                net_out_bps: 1000.0, // tiny numbers keep tests readable
                net_in_bps: 1000.0,
                disk_bps: 1000.0,
                gc: None,
                out_queue_bytes: None,
            },
        );
        cfg.monitor_interval = SimDuration::from_millis(10);
        cfg
    }

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_thread_compute_duration() {
        let mut sim = Simulation::new(small_cluster(1));
        let mut p = ThreadProgram::new(0);
        p.push(Op::PhaseStart(PhasePath::root().child("work", 0)))
            .push(Op::compute(2.0))
            .push(Op::PhaseEnd(PhasePath::root().child("work", 0)));
        sim.add_thread(p);
        let out = sim.run();
        // 2 core-seconds at 1 core on a 2-core machine: 2 seconds.
        assert!((secs(out.end_time) - 2.0).abs() < 0.01, "{}", out.end_time);
        let phases = out.phase_intervals();
        assert_eq!(phases.len(), 1);
        assert!((phases[0].2.since(phases[0].1).as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn cpu_contention_fair_shares() {
        // 4 threads x 1 core-second of work on 2 cores: 2 seconds.
        let mut sim = Simulation::new(small_cluster(1));
        for _ in 0..4 {
            let mut p = ThreadProgram::new(0);
            p.push(Op::compute(1.0));
            sim.add_thread(p);
        }
        let out = sim.run();
        assert!((secs(out.end_time) - 2.0).abs() < 0.01, "{}", out.end_time);
    }

    #[test]
    fn multi_core_op_uses_machine() {
        let mut sim = Simulation::new(small_cluster(1));
        let mut p = ThreadProgram::new(0);
        p.push(Op::Compute {
            work: 2.0,
            max_cores: 2.0,
            alloc_per_work: 0.0,
            msgs: MsgOutput::none(),
        });
        sim.add_thread(p);
        let out = sim.run();
        assert!((secs(out.end_time) - 1.0).abs() < 0.01, "{}", out.end_time);
    }

    #[test]
    fn send_duration_matches_bandwidth() {
        let mut sim = Simulation::new(small_cluster(2));
        let mut p = ThreadProgram::new(0);
        p.push(Op::Send {
            dst: 1,
            bytes: 500.0,
        });
        sim.add_thread(p);
        let out = sim.run();
        // 500 bytes at 1000 B/s: 0.5 seconds.
        assert!((secs(out.end_time) - 0.5).abs() < 0.01, "{}", out.end_time);
    }

    #[test]
    fn incast_shares_receiver_bandwidth() {
        // Machines 0 and 1 both send 500 B to machine 2: the receiver's
        // 1000 B/s in-link is the bottleneck, so the pair takes ~1 s.
        let mut sim = Simulation::new(small_cluster(3));
        for src in 0..2 {
            let mut p = ThreadProgram::new(src);
            p.push(Op::Send {
                dst: 2,
                bytes: 500.0,
            });
            sim.add_thread(p);
        }
        let out = sim.run();
        assert!((secs(out.end_time) - 1.0).abs() < 0.02, "{}", out.end_time);
    }

    #[test]
    fn bounded_queue_stalls_producer() {
        let mut cfg = small_cluster(2);
        cfg.machines[0].out_queue_bytes = Some(100.0);
        let mut sim = Simulation::new(cfg);
        let mut p = ThreadProgram::new(0);
        // 0.1 core-seconds of work producing 2000 bytes: production rate
        // (20 kB/s) far exceeds the 1 kB/s NIC, so the queue bound gates
        // progress and the run is network-bound: ~2 s.
        p.push(Op::Compute {
            work: 0.1,
            max_cores: 1.0,
            alloc_per_work: 0.0,
            msgs: MsgOutput {
                per_dst: vec![(1, 2000.0)],
            },
        })
        .push(Op::FlushWait);
        sim.add_thread(p);
        let out = sim.run();
        assert!(
            (secs(out.end_time) - 2.0).abs() < 0.1,
            "network-bound run took {}",
            out.end_time
        );
        assert!(out.stats.queue_stall_time > SimDuration::from_millis(500));
        let stalls = out
            .logs
            .iter()
            .filter(|r| {
                matches!(&r.event, LogEvent::BlockStart { resource } if resource == "msgq")
            })
            .count();
        assert!(stalls >= 1, "expected msgq blocking events");
    }

    #[test]
    fn queue_stall_is_bursty() {
        // With hysteresis the producer alternates stall/run repeatedly.
        let mut cfg = small_cluster(2);
        cfg.machines[0].out_queue_bytes = Some(50.0);
        let mut sim = Simulation::new(cfg);
        let mut p = ThreadProgram::new(0);
        p.push(Op::Compute {
            work: 0.5,
            max_cores: 1.0,
            alloc_per_work: 0.0,
            msgs: MsgOutput {
                per_dst: vec![(1, 3000.0)],
            },
        })
        .push(Op::FlushWait);
        sim.add_thread(p);
        let out = sim.run();
        let stalls = out
            .logs
            .iter()
            .filter(|r| {
                matches!(&r.event, LogEvent::BlockStart { resource } if resource == "msgq")
            })
            .count();
        assert!(stalls >= 3, "expected repeated bursts, saw {stalls}");
    }

    #[test]
    fn gc_pauses_trigger_and_block() {
        let mut cfg = small_cluster(1);
        cfg.machines[0].gc = Some(GcConfig {
            heap_bytes: 1000.0,
            trigger_fraction: 0.8,
            pause_per_byte: 0.0,
            min_pause_secs: 0.1,
            live_fraction: 0.1,
        });
        let mut sim = Simulation::new(cfg);
        let mut p = ThreadProgram::new(0);
        // 2 core-seconds allocating 2000 bytes/core-second: crosses the
        // 800-byte trigger several times.
        p.push(Op::Compute {
            work: 2.0,
            max_cores: 1.0,
            alloc_per_work: 2000.0,
            msgs: MsgOutput::none(),
        });
        sim.add_thread(p);
        let out = sim.run();
        assert!(
            out.stats.gc_pauses.len() >= 2,
            "expected repeated GC, saw {:?}",
            out.stats.gc_pauses.len()
        );
        // GC time extends the run beyond the pure 2 s of compute.
        let gc_total: f64 = out
            .stats
            .gc_pauses
            .iter()
            .map(|g| g.duration.as_secs_f64())
            .sum();
        assert!((secs(out.end_time) - (2.0 + gc_total)).abs() < 0.05);
        assert!(out.logs.iter().any(|r| {
            matches!(&r.event, LogEvent::BlockStart { resource } if resource == "gc")
        }));
    }

    #[test]
    fn barrier_rendezvous() {
        let mut sim = Simulation::new(small_cluster(2));
        let mut fast = ThreadProgram::new(0);
        fast.push(Op::compute(0.5)).push(Op::Barrier {
            id: 1,
            participants: 2,
        });
        let mut slow = ThreadProgram::new(1);
        slow.push(Op::compute(1.5)).push(Op::Barrier {
            id: 1,
            participants: 2,
        });
        sim.add_thread(fast);
        sim.add_thread(slow);
        let out = sim.run();
        assert!((secs(out.end_time) - 1.5).abs() < 0.01);
        assert!(out.stats.barrier_wait_time >= SimDuration::from_millis(900));
        assert!(out.logs.iter().any(|r| {
            matches!(&r.event, LogEvent::BlockStart { resource } if resource == "barrier")
        }));
    }

    #[test]
    fn flush_wait_until_queue_drains() {
        let mut sim = Simulation::new(small_cluster(2));
        let mut p = ThreadProgram::new(0);
        p.push(Op::Compute {
            work: 0.1,
            max_cores: 1.0,
            alloc_per_work: 0.0,
            msgs: MsgOutput {
                per_dst: vec![(1, 800.0)],
            },
        })
        .push(Op::FlushWait);
        sim.add_thread(p);
        let out = sim.run();
        // 800 bytes at 1000 B/s dominate the 0.1 s of compute.
        assert!(secs(out.end_time) >= 0.79, "{}", out.end_time);
    }

    #[test]
    fn local_messages_bypass_queue_and_network() {
        let mut sim = Simulation::new(small_cluster(2));
        let mut p = ThreadProgram::new(0);
        p.push(Op::Compute {
            work: 0.2,
            max_cores: 1.0,
            alloc_per_work: 0.0,
            msgs: MsgOutput {
                per_dst: vec![(0, 1e9)], // self-destined
            },
        })
        .push(Op::FlushWait);
        sim.add_thread(p);
        let out = sim.run();
        assert!((secs(out.end_time) - 0.2).abs() < 0.01, "{}", out.end_time);
        let net: f64 = out
            .series
            .iter()
            .filter(|s| {
                matches!(s.spec.kind, ResourceKind::NetOut | ResourceKind::NetIn)
            })
            .map(|s| s.total_consumption())
            .sum();
        assert_eq!(net, 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut cfg = small_cluster(2);
            cfg.machines[0].out_queue_bytes = Some(100.0);
            let mut sim = Simulation::new(cfg);
            for m in 0..2u16 {
                let mut p = ThreadProgram::new(m);
                p.push(Op::Compute {
                    work: 0.3,
                    max_cores: 1.0,
                    alloc_per_work: 0.0,
                    msgs: MsgOutput {
                        per_dst: vec![(1 - m, 500.0)],
                    },
                })
                .push(Op::FlushWait)
                .push(Op::Barrier {
                    id: 9,
                    participants: 2,
                });
                sim.add_thread(p);
            }
            sim.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.logs, b.logs);
        assert_eq!(a.end_time, b.end_time);
        for (x, y) in a.series.iter().zip(&b.series) {
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn monitor_captures_cpu_usage() {
        let mut sim = Simulation::new(small_cluster(1));
        let mut p = ThreadProgram::new(0);
        p.push(Op::compute(1.0));
        sim.add_thread(p);
        let out = sim.run();
        let cpu = out
            .series
            .iter()
            .find(|s| s.spec.kind == ResourceKind::Cpu)
            .unwrap();
        // 1 core-second of total consumption.
        assert!((cpu.total_consumption() - 1.0).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "unfinished")]
    fn deadlocked_barrier_panics_at_max_time() {
        let mut cfg = small_cluster(1);
        cfg.max_sim_time = SimDuration::from_millis(100);
        let mut sim = Simulation::new(cfg);
        let mut p = ThreadProgram::new(0);
        p.push(Op::Barrier {
            id: 1,
            participants: 2, // nobody else ever arrives
        });
        sim.add_thread(p);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "first arrival said 2")]
    fn barrier_arrivals_disagreeing_on_participants_panic() {
        let mut sim = Simulation::new(small_cluster(1));
        for participants in [2, 3] {
            let mut p = ThreadProgram::new(0);
            p.push(Op::Barrier {
                id: 1,
                participants,
            });
            sim.add_thread(p);
        }
        sim.run();
    }

    #[test]
    fn disk_io_duration_matches_bandwidth() {
        let mut sim = Simulation::new(small_cluster(1));
        let mut p = ThreadProgram::new(0);
        p.push(Op::DiskIo { bytes: 500.0 });
        sim.add_thread(p);
        let out = sim.run();
        // 500 bytes at 1000 B/s of disk bandwidth: 0.5 seconds.
        assert!((secs(out.end_time) - 0.5).abs() < 0.01, "{}", out.end_time);
        let disk = out
            .series
            .iter()
            .find(|s| s.spec.kind == ResourceKind::Disk)
            .unwrap();
        assert!((disk.total_consumption() - 500.0).abs() < 5.0);
    }

    #[test]
    fn concurrent_disk_io_shares_bandwidth() {
        let mut sim = Simulation::new(small_cluster(1));
        for _ in 0..2 {
            let mut p = ThreadProgram::new(0);
            p.push(Op::DiskIo { bytes: 500.0 });
            sim.add_thread(p);
        }
        let out = sim.run();
        // Two 500-byte transfers sharing 1000 B/s: 1 second.
        assert!((secs(out.end_time) - 1.0).abs() < 0.02, "{}", out.end_time);
    }

    #[test]
    fn unequal_concurrent_disk_reads_share_then_speed_up() {
        // 1000 B and 3000 B on a 1000 B/s disk: 500 B/s each until the
        // small read ends at 2 s, then the large one alone until 4 s.
        let mut sim = Simulation::new(small_cluster(1));
        for (i, bytes) in [1000.0, 3000.0].into_iter().enumerate() {
            let phase = PhasePath::root().child("read", i as u32);
            let mut p = ThreadProgram::new(0);
            p.push(Op::PhaseStart(phase.clone()))
                .push(Op::DiskIo { bytes })
                .push(Op::PhaseEnd(phase));
            sim.add_thread(p);
        }
        let out = sim.run();
        let quantum = 0.001 + 1e-9;
        let ends: Vec<f64> = (0..2)
            .map(|i| {
                let phase = PhasePath::root().child("read", i);
                let found = out
                    .phase_intervals()
                    .into_iter()
                    .find(|(p, _, _)| *p == phase);
                secs(found.expect("read phase logged").2)
            })
            .collect();
        assert!(
            (ends[0] - 2.0).abs() <= quantum,
            "small read ended at {}",
            ends[0]
        );
        assert!(
            (ends[1] - 4.0).abs() <= quantum,
            "large read ended at {}",
            ends[1]
        );
        let disk = out
            .series
            .iter()
            .find(|s| s.spec.kind == ResourceKind::Disk)
            .unwrap();
        assert!((disk.total_consumption() - 4000.0).abs() < 5.0);
    }

    #[test]
    fn cpu_demand_vector_returning_gets_the_same_shares() {
        // Demand vectors A = [1.5] (0-1 s), B = [1.5, 1.0] (1-2 s), then A
        // again (2-3 s) on 2 cores: 1.5 cores, 1 + 1, 1.5 cores.
        let mut sim = Simulation::new(small_cluster(1));
        let mut x = ThreadProgram::new(0);
        x.push(Op::Compute {
            work: 4.0,
            max_cores: 1.5,
            alloc_per_work: 0.0,
            msgs: MsgOutput::none(),
        });
        sim.add_thread(x);
        let mut y = ThreadProgram::new(0);
        y.push(Op::Sleep {
            dur: SimDuration::from_secs(1),
        })
        .push(Op::compute(1.0));
        sim.add_thread(y);
        let out = sim.run();
        assert!(
            (secs(out.end_time) - 3.0).abs() <= 0.001 + 1e-9,
            "{}",
            out.end_time
        );
        let cpu = out
            .series
            .iter()
            .find(|s| s.spec.kind == ResourceKind::Cpu)
            .unwrap();
        // 10 ms windows: A is windows 0..100 and 200..300, B is 100..200.
        let first_a = &cpu.samples[5..95];
        let second_a = &cpu.samples[205..295];
        assert!(
            first_a.iter().all(|&c| (c - 1.5).abs() < 1e-9),
            "{first_a:?}"
        );
        assert!(
            first_a
                .iter()
                .zip(second_a)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "A solved twice gave different shares: {first_a:?} vs {second_a:?}"
        );
        assert!(cpu.samples[105..195]
            .iter()
            .all(|&c| (c - 2.0).abs() < 1e-9));
    }

    #[test]
    fn zero_byte_disk_io_is_free() {
        let mut sim = Simulation::new(small_cluster(1));
        let mut p = ThreadProgram::new(0);
        p.push(Op::DiskIo { bytes: 0.0 }).push(Op::compute(0.1));
        sim.add_thread(p);
        let out = sim.run();
        assert!((secs(out.end_time) - 0.1).abs() < 0.01, "{}", out.end_time);
    }

    #[test]
    fn max_cores_beyond_machine_is_clamped_by_capacity() {
        let mut sim = Simulation::new(small_cluster(1));
        let mut p = ThreadProgram::new(0);
        p.push(Op::Compute {
            work: 4.0,
            max_cores: 100.0, // machine has 2 cores
            alloc_per_work: 0.0,
            msgs: MsgOutput::none(),
        });
        sim.add_thread(p);
        let out = sim.run();
        assert!((secs(out.end_time) - 2.0).abs() < 0.01, "{}", out.end_time);
    }

    #[test]
    fn barrier_ids_are_reusable_sequentially() {
        // Two generations of the same barrier id, used by the same pair.
        let mut sim = Simulation::new(small_cluster(1));
        for _ in 0..2 {
            let mut p = ThreadProgram::new(0);
            p.push(Op::Barrier { id: 5, participants: 2 })
                .push(Op::compute(0.1))
                .push(Op::Barrier { id: 5, participants: 2 });
            sim.add_thread(p);
        }
        let out = sim.run();
        assert!((secs(out.end_time) - 0.1).abs() < 0.01, "{}", out.end_time);
    }

    #[test]
    fn heterogeneous_machine_capacities_respected() {
        let mut cfg = small_cluster(2);
        cfg.machines[1].cores = 4.0; // machine 1 is twice as big
        let mut sim = Simulation::new(cfg);
        for m in 0..2u16 {
            for _ in 0..4 {
                let mut p = ThreadProgram::new(m);
                p.push(Op::compute(1.0));
                sim.add_thread(p);
            }
        }
        let out = sim.run();
        // Machine 0: 4 core-s on 2 cores = 2 s; machine 1: 4 on 4 = 1 s.
        assert!((secs(out.end_time) - 2.0).abs() < 0.01, "{}", out.end_time);
        let cpu1 = out
            .series
            .iter()
            .find(|s| s.spec.kind == ResourceKind::Cpu && s.spec.machine == 1)
            .unwrap();
        assert!((cpu1.total_consumption() - 4.0).abs() < 0.05);
    }

    #[test]
    fn sleep_idles_without_resource_usage() {
        let mut sim = Simulation::new(small_cluster(1));
        let mut p = ThreadProgram::new(0);
        p.push(Op::Sleep {
            dur: SimDuration::from_millis(300),
        });
        sim.add_thread(p);
        let out = sim.run();
        assert!((secs(out.end_time) - 0.3).abs() < 0.01);
        let cpu = out
            .series
            .iter()
            .find(|s| s.spec.kind == ResourceKind::Cpu)
            .unwrap();
        assert!(cpu.total_consumption() < 1e-9);
    }
}
