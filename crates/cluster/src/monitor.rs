//! Resource-utilization monitoring.
//!
//! The monitor integrates per-quantum resource usage and emits one sample per
//! `monitor_interval`: the *average* absolute usage over the interval, which
//! is exactly the data shape a Ganglia-style cluster monitor reports. The
//! interval configured in [`crate::config::ClusterConfig`] is the *ground
//! truth* granularity (50 ms in the paper); coarser monitoring inputs for
//! Grade10 are produced by [`ResourceSeries::downsample`], mirroring how the
//! paper's Table II experiment averages up to 64 consecutive measurements.

use serde::{Deserialize, Serialize};

use crate::config::{ClusterConfig, MachineId};
use crate::time::SimDuration;

/// Kinds of consumable resources the cluster exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU, measured in cores.
    Cpu,
    /// Outbound NIC bandwidth, bytes/second.
    NetOut,
    /// Inbound NIC bandwidth, bytes/second.
    NetIn,
    /// Local storage bandwidth, bytes/second.
    Disk,
    /// Runnable threads wanting CPU (an *indicator*: monitored, but not a
    /// capacity to attribute — see `grade10_core::indicator`).
    RunQueue,
}

impl ResourceKind {
    /// Stable textual name, used in models and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::NetOut => "net_out",
            ResourceKind::NetIn => "net_in",
            ResourceKind::Disk => "disk",
            ResourceKind::RunQueue => "runq",
        }
    }
}

/// One monitored resource instance (a kind on a machine) and its capacity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// What is being measured.
    pub kind: ResourceKind,
    /// The machine this instance lives on.
    pub machine: MachineId,
    /// Capacity in the kind's units (cores or bytes/second).
    pub capacity: f64,
}

impl ResourceSpec {
    /// `cpu@3`-style display name.
    pub fn label(&self) -> String {
        format!("{}@{}", self.kind.name(), self.machine)
    }
}

/// A utilization time series: average absolute usage per fixed interval,
/// starting at time zero.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceSeries {
    /// The resource this series measures.
    pub spec: ResourceSpec,
    /// Length of each sample window.
    pub interval: SimDuration,
    /// Average absolute usage per window, from time zero.
    pub samples: Vec<f64>,
}

impl ResourceSeries {
    /// Averages `factor` consecutive samples into one, producing the coarse
    /// monitoring data Grade10 receives. A trailing partial window is
    /// averaged over its actual length.
    pub fn downsample(&self, factor: usize) -> ResourceSeries {
        assert!(factor >= 1);
        let samples = self
            .samples
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        ResourceSeries {
            spec: self.spec.clone(),
            interval: self.interval * factor as u64,
            samples,
        }
    }

    /// Total consumption (usage × time) over the series, in unit-seconds.
    pub fn total_consumption(&self) -> f64 {
        self.samples.iter().sum::<f64>() * self.interval.as_secs_f64()
    }
}

/// Accumulates quantum-level usage into interval samples.
pub struct Monitor {
    specs: Vec<ResourceSpec>,
    interval: SimDuration,
    quanta_per_interval: u64,
    quanta_in_window: u64,
    /// Usage integral (usage × seconds) accumulated in the open window,
    /// indexed like `specs`.
    window_integral: Vec<f64>,
    samples: Vec<Vec<f64>>,
}

impl Monitor {
    /// Creates a monitor for all resources of `config`.
    pub fn new(config: &ClusterConfig) -> Self {
        let mut specs = Vec::new();
        for (m, mc) in config.machines.iter().enumerate() {
            specs.push(ResourceSpec {
                kind: ResourceKind::Cpu,
                machine: m as MachineId,
                capacity: mc.cores,
            });
            specs.push(ResourceSpec {
                kind: ResourceKind::NetOut,
                machine: m as MachineId,
                capacity: mc.net_out_bps,
            });
            specs.push(ResourceSpec {
                kind: ResourceKind::NetIn,
                machine: m as MachineId,
                capacity: mc.net_in_bps,
            });
            specs.push(ResourceSpec {
                kind: ResourceKind::Disk,
                machine: m as MachineId,
                capacity: mc.disk_bps,
            });
            specs.push(ResourceSpec {
                kind: ResourceKind::RunQueue,
                machine: m as MachineId,
                // Nominal scale for plotting; a run queue has no capacity.
                capacity: mc.cores,
            });
        }
        let n = specs.len();
        Monitor {
            specs,
            interval: config.monitor_interval,
            quanta_per_interval: config.monitor_interval / config.quantum,
            quanta_in_window: 0,
            window_integral: vec![0.0; n],
            samples: vec![Vec::new(); n],
        }
    }

    /// Records one quantum's usage. Slices are indexed by machine.
    pub fn record_quantum(
        &mut self,
        cpu_used: &[f64],
        net_out_used: &[f64],
        net_in_used: &[f64],
        disk_used: &[f64],
        runnable: &[f64],
        dt: SimDuration,
    ) {
        let dt_secs = dt.as_secs_f64();
        for (i, spec) in self.specs.iter().enumerate() {
            let usage = match spec.kind {
                ResourceKind::Cpu => cpu_used[spec.machine as usize],
                ResourceKind::NetOut => net_out_used[spec.machine as usize],
                ResourceKind::NetIn => net_in_used[spec.machine as usize],
                ResourceKind::Disk => disk_used[spec.machine as usize],
                ResourceKind::RunQueue => runnable[spec.machine as usize],
            };
            self.window_integral[i] += usage * dt_secs;
        }
        self.quanta_in_window += 1;
        if self.quanta_in_window == self.quanta_per_interval {
            let window_secs = self.interval.as_secs_f64();
            for i in 0..self.specs.len() {
                self.samples[i].push(self.window_integral[i] / window_secs);
                self.window_integral[i] = 0.0;
            }
            self.quanta_in_window = 0;
        }
    }

    /// Flushes any partial window and returns the series and specs.
    pub fn finish(mut self) -> (Vec<ResourceSeries>, Vec<ResourceSpec>) {
        if self.quanta_in_window > 0 {
            // Average the partial window over the *full* interval so a quiet
            // tail does not read as artificially busy.
            let window_secs = self.interval.as_secs_f64();
            for i in 0..self.specs.len() {
                self.samples[i].push(self.window_integral[i] / window_secs);
            }
        }
        let series = self
            .specs
            .iter()
            .cloned()
            .zip(self.samples)
            .map(|(spec, samples)| ResourceSeries {
                spec,
                interval: self.interval,
                samples,
            })
            .collect();
        (series, self.specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn monitor_1machine() -> Monitor {
        let mut cfg = ClusterConfig::homogeneous(1, MachineConfig::commodity());
        cfg.quantum = SimDuration::from_millis(1);
        cfg.monitor_interval = SimDuration::from_millis(2);
        Monitor::new(&cfg)
    }

    #[test]
    fn samples_average_over_window() {
        let mut m = monitor_1machine();
        m.record_quantum(&[4.0], &[0.0], &[0.0], &[0.0], &[0.0], SimDuration::from_millis(1));
        m.record_quantum(&[8.0], &[0.0], &[0.0], &[0.0], &[0.0], SimDuration::from_millis(1));
        let (series, _) = m.finish();
        let cpu = &series[0];
        assert_eq!(cpu.samples.len(), 1);
        assert!((cpu.samples[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn partial_window_flushed_on_finish() {
        let mut m = monitor_1machine();
        m.record_quantum(&[4.0], &[0.0], &[0.0], &[0.0], &[0.0], SimDuration::from_millis(1));
        let (series, _) = m.finish();
        // One quantum of 4 cores over a 2 ms window averages to 2 cores.
        assert!((series[0].samples[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn downsample_averages_and_scales_interval() {
        let s = ResourceSeries {
            spec: ResourceSpec {
                kind: ResourceKind::Cpu,
                machine: 0,
                capacity: 16.0,
            },
            interval: SimDuration::from_millis(50),
            samples: vec![1.0, 3.0, 5.0, 7.0, 9.0],
        };
        let d = s.downsample(2);
        assert_eq!(d.interval, SimDuration::from_millis(100));
        assert_eq!(d.samples, vec![2.0, 6.0, 9.0]);
    }

    #[test]
    fn downsample_preserves_total_consumption_for_exact_factor() {
        let s = ResourceSeries {
            spec: ResourceSpec {
                kind: ResourceKind::NetOut,
                machine: 0,
                capacity: 1e9,
            },
            interval: SimDuration::from_millis(50),
            samples: vec![10.0, 20.0, 30.0, 40.0],
        };
        let d = s.downsample(2);
        assert!((d.total_consumption() - s.total_consumption()).abs() < 1e-9);
    }

    #[test]
    fn specs_enumerate_three_resources_per_machine() {
        let cfg = ClusterConfig::homogeneous(3, MachineConfig::commodity());
        let m = Monitor::new(&cfg);
        let (_, specs) = m.finish();
        assert_eq!(specs.len(), 15);
        assert_eq!(specs[0].label(), "cpu@0");
        assert_eq!(specs[3].label(), "disk@0");
        assert_eq!(specs[4].label(), "runq@0");
        assert_eq!(specs[6].label(), "net_out@1");
    }
}
