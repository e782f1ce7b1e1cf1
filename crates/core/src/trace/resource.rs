//! The resource trace: monitored utilization of every resource instance
//! (§III-C).
//!
//! A resource *instance* is a resource kind on a particular machine (or a
//! cluster-global resource). Consumable instances carry coarse-grained
//! [`Measurement`]s — each the *average* usage rate since the previous
//! measurement, exactly what periodic cluster monitoring reports. Blocking
//! resources do not appear here; their events live in the execution trace.

use serde::{Deserialize, Serialize};

use crate::error::Grade10Error;
use crate::trace::repair::RawSeries;
use crate::trace::timeslice::Nanos;

/// Index of a resource instance within a [`ResourceTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceIdx(pub u32);

/// A concrete monitored resource: a kind, an optional machine scope, and a
/// capacity in the kind's units.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceInstance {
    /// Kind name; must match the resource model and attribution rules.
    pub kind: String,
    /// Machine this instance lives on; `None` for cluster-global resources.
    pub machine: Option<u16>,
    /// Capacity (cores, bytes/second, ...).
    pub capacity: f64,
}

impl ResourceInstance {
    /// `cpu@3`-style label.
    pub fn label(&self) -> String {
        match self.machine {
            Some(m) => format!("{}@{m}", self.kind),
            None => self.kind.clone(),
        }
    }
}

/// One monitoring measurement: average usage over `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Window start, nanoseconds.
    pub start: Nanos,
    /// Window end, nanoseconds (exclusive).
    pub end: Nanos,
    /// Average absolute usage over the window (same units as capacity).
    pub avg: f64,
}

/// All monitored resources of one execution, with their measurements.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ResourceTrace {
    instances: Vec<ResourceInstance>,
    measurements: Vec<Vec<Measurement>>,
}

impl ResourceTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace of `series` as written, with no checks: the inverse of
    /// [`RawSeries::from_trace`], and the same trust a deserialized
    /// `resources.json` gets. Ingestion validates or repairs it.
    pub fn from_series(series: Vec<RawSeries>) -> Self {
        let (instances, measurements) = series
            .into_iter()
            .map(|s| (s.instance, s.measurements))
            .unzip();
        ResourceTrace {
            instances,
            measurements,
        }
    }

    /// Registers a resource instance.
    ///
    /// Panics on a non-positive capacity; use
    /// [`try_add_resource`](Self::try_add_resource) for untrusted input.
    pub fn add_resource(&mut self, instance: ResourceInstance) -> ResourceIdx {
        assert!(instance.capacity > 0.0, "capacity must be positive");
        self.instances.push(instance);
        self.measurements.push(Vec::new());
        ResourceIdx(self.instances.len() as u32 - 1)
    }

    /// Fallible [`add_resource`](Self::add_resource): rejects non-finite or
    /// non-positive capacities with a classified error instead of panicking.
    pub fn try_add_resource(
        &mut self,
        instance: ResourceInstance,
    ) -> Result<ResourceIdx, Grade10Error> {
        if !(instance.capacity.is_finite() && instance.capacity > 0.0) {
            return Err(Grade10Error::InvalidMonitoring(format!(
                "resource '{}' has invalid capacity {}",
                instance.label(),
                instance.capacity
            )));
        }
        Ok(self.add_resource(instance))
    }

    /// Appends one measurement. Measurements must be added in time order
    /// and must not overlap.
    ///
    /// Panics on contract violations; use
    /// [`try_add_measurement`](Self::try_add_measurement) for untrusted
    /// input.
    pub fn add_measurement(&mut self, r: ResourceIdx, m: Measurement) {
        assert!(m.end > m.start, "empty measurement window");
        assert!(m.avg >= 0.0, "negative usage");
        let list = &mut self.measurements[r.0 as usize];
        if let Some(last) = list.last() {
            assert!(
                m.start >= last.end,
                "measurements out of order: {} < {}",
                m.start,
                last.end
            );
        }
        list.push(m);
    }

    /// Fallible [`add_measurement`](Self::add_measurement): rejects empty
    /// windows, non-finite or negative usage, and out-of-order windows with
    /// a classified [`Grade10Error`] instead of panicking — the entry point
    /// strict-mode ingestion uses on monitoring data from the outside world.
    pub fn try_add_measurement(
        &mut self,
        r: ResourceIdx,
        m: Measurement,
    ) -> Result<(), Grade10Error> {
        let label = |rt: &Self| rt.instances[r.0 as usize].label();
        if m.end <= m.start {
            return Err(Grade10Error::InvalidMonitoring(format!(
                "empty measurement window [{}, {}) on '{}'",
                m.start,
                m.end,
                label(self)
            )));
        }
        if !m.avg.is_finite() {
            return Err(Grade10Error::InvalidMonitoring(format!(
                "non-finite sample {} on '{}'",
                m.avg,
                label(self)
            )));
        }
        if m.avg < 0.0 {
            return Err(Grade10Error::InvalidMonitoring(format!(
                "negative sample {} on '{}'",
                m.avg,
                label(self)
            )));
        }
        if let Some(last) = self.measurements[r.0 as usize].last() {
            if m.start < last.end {
                return Err(Grade10Error::InvalidMonitoring(format!(
                    "measurements out of order on '{}': {} < {}",
                    label(self),
                    m.start,
                    last.end
                )));
            }
        }
        self.measurements[r.0 as usize].push(m);
        Ok(())
    }

    /// Appends a uniform series of measurements starting at `start`, one per
    /// `interval`, with the given average values.
    pub fn add_series(&mut self, r: ResourceIdx, start: Nanos, interval: Nanos, avgs: &[f64]) {
        let mut t = start;
        for &avg in avgs {
            self.add_measurement(
                r,
                Measurement {
                    start: t,
                    end: t + interval,
                    avg,
                },
            );
            t += interval;
        }
    }

    /// All resource instances.
    pub fn instances(&self) -> &[ResourceInstance] {
        &self.instances
    }

    /// One instance.
    pub fn instance(&self, r: ResourceIdx) -> &ResourceInstance {
        &self.instances[r.0 as usize]
    }

    /// Measurements of one instance.
    pub fn measurements(&self, r: ResourceIdx) -> &[Measurement] {
        &self.measurements[r.0 as usize]
    }

    /// Index of the instance with the given kind and machine.
    pub fn find(&self, kind: &str, machine: Option<u16>) -> Option<ResourceIdx> {
        self.instances
            .iter()
            .position(|i| i.kind == kind && i.machine == machine)
            .map(|i| ResourceIdx(i as u32))
    }

    /// Latest measurement end over all instances.
    pub fn end(&self) -> Nanos {
        self.measurements
            .iter()
            .filter_map(|m| m.last())
            .map(|m| m.end)
            .max()
            .unwrap_or(0)
    }

    /// Total measured consumption (usage × seconds) of one instance.
    pub fn total_consumption(&self, r: ResourceIdx) -> f64 {
        self.measurements(r)
            .iter()
            .map(|m| m.avg * (m.end - m.start) as f64 / 1e9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::timeslice::MILLIS;

    #[test]
    fn add_and_query() {
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 16.0,
        });
        rt.add_series(cpu, 0, 100 * MILLIS, &[4.0, 8.0, 2.0]);
        assert_eq!(rt.measurements(cpu).len(), 3);
        assert_eq!(rt.end(), 300 * MILLIS);
        assert!((rt.total_consumption(cpu) - (4.0 + 8.0 + 2.0) * 0.1).abs() < 1e-12);
        assert_eq!(rt.find("cpu", Some(0)), Some(cpu));
        assert_eq!(rt.find("cpu", Some(1)), None);
        assert_eq!(rt.instance(cpu).label(), "cpu@0");
    }

    #[test]
    fn global_resource_label() {
        let r = ResourceInstance {
            kind: "lock".into(),
            machine: None,
            capacity: 1.0,
        };
        assert_eq!(r.label(), "lock");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn overlapping_measurements_rejected() {
        let mut rt = ResourceTrace::new();
        let r = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: None,
            capacity: 1.0,
        });
        rt.add_measurement(
            r,
            Measurement {
                start: 0,
                end: 100,
                avg: 0.5,
            },
        );
        rt.add_measurement(
            r,
            Measurement {
                start: 50,
                end: 150,
                avg: 0.5,
            },
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let mut rt = ResourceTrace::new();
        rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: None,
            capacity: 0.0,
        });
    }
}
