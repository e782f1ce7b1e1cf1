//! Cluster, machine, and runtime-service configuration.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Identifier of a machine in the cluster.
pub type MachineId = u16;

/// Garbage-collector model of a managed runtime (JVM-like). The collector is
/// stop-the-world: while it runs, no thread on the machine makes progress and
/// the machine's CPU is fully occupied by collection work.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GcConfig {
    /// Heap size in bytes.
    pub heap_bytes: f64,
    /// Collection starts when `used >= trigger_fraction * heap_bytes`.
    pub trigger_fraction: f64,
    /// Pause seconds per byte of used heap at collection time.
    pub pause_per_byte: f64,
    /// Minimum pause per collection, seconds.
    pub min_pause_secs: f64,
    /// Fraction of the used heap that survives collection.
    pub live_fraction: f64,
}

/// One machine: CPU cores, NIC bandwidth, optional managed heap, and an
/// optional bounded outbound message queue (Giraph-style engines).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// CPU capacity in cores.
    pub cores: f64,
    /// Outbound NIC bandwidth, bytes/second.
    pub net_out_bps: f64,
    /// Inbound NIC bandwidth, bytes/second.
    pub net_in_bps: f64,
    /// Local storage bandwidth (reads and writes share it), bytes/second.
    pub disk_bps: f64,
    /// Managed-runtime GC, if the engine runs on one.
    pub gc: Option<GcConfig>,
    /// Capacity of the outbound message queue in bytes; `None` means
    /// unbounded (engines that send directly never stall producers).
    pub out_queue_bytes: Option<f64>,
}

impl MachineConfig {
    /// A commodity cluster node: 16 cores, 1.25 GB/s (10 Gbit/s) NIC.
    pub fn commodity() -> Self {
        MachineConfig {
            cores: 16.0,
            net_out_bps: 1.25e9,
            net_in_bps: 1.25e9,
            disk_bps: 5.0e8,
            gc: None,
            out_queue_bytes: None,
        }
    }
}

/// The whole simulated cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// The machines, indexed by `MachineId`.
    pub machines: Vec<MachineConfig>,
    /// Fluid-flow time step. Phase durations and monitoring intervals should
    /// be large multiples of this.
    pub quantum: SimDuration,
    /// Interval of the ground-truth utilization series the monitor records.
    /// Must be a multiple of `quantum`.
    pub monitor_interval: SimDuration,
    /// Hard stop: the simulation fails rather than running past this point
    /// (guards against dead-locked thread programs).
    pub max_sim_time: SimDuration,
}

impl ClusterConfig {
    /// `n` identical commodity machines with 1 ms quantum and 50 ms
    /// monitoring (the paper's ground-truth interval).
    pub fn homogeneous(n: usize, machine: MachineConfig) -> Self {
        ClusterConfig {
            machines: vec![machine; n],
            quantum: SimDuration::from_millis(1),
            monitor_interval: SimDuration::from_millis(50),
            max_sim_time: SimDuration::from_secs(3600),
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines.is_empty() {
            return Err("cluster has no machines".into());
        }
        if self.quantum.is_zero() {
            return Err("quantum must be positive".into());
        }
        if !self.monitor_interval.as_nanos().is_multiple_of(self.quantum.as_nanos()) {
            return Err(format!(
                "monitor_interval {} is not a multiple of quantum {}",
                self.monitor_interval, self.quantum
            ));
        }
        for (i, m) in self.machines.iter().enumerate() {
            if m.cores <= 0.0 || m.net_out_bps <= 0.0 || m.net_in_bps <= 0.0
                || m.disk_bps <= 0.0
            {
                return Err(format!("machine {i} has non-positive capacities"));
            }
            if let Some(gc) = &m.gc {
                if gc.heap_bytes <= 0.0 || !(0.0..=1.0).contains(&gc.trigger_fraction) {
                    return Err(format!("machine {i} has an invalid GC config"));
                }
            }
            if let Some(q) = m.out_queue_bytes {
                if q <= 0.0 {
                    return Err(format!("machine {i} has a non-positive queue bound"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_validates() {
        let cfg = ClusterConfig::homogeneous(4, MachineConfig::commodity());
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.machines.len(), 4);
    }

    #[test]
    fn misaligned_monitor_interval_rejected() {
        let mut cfg = ClusterConfig::homogeneous(1, MachineConfig::commodity());
        cfg.monitor_interval = SimDuration::from_micros(1500);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_machine_rejected() {
        let mut cfg = ClusterConfig::homogeneous(1, MachineConfig::commodity());
        cfg.machines[0].cores = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn empty_cluster_rejected() {
        let cfg = ClusterConfig {
            machines: vec![],
            quantum: SimDuration::from_millis(1),
            monitor_interval: SimDuration::from_millis(50),
            max_sim_time: SimDuration::from_secs(1),
        };
        assert!(cfg.validate().is_err());
    }
}
