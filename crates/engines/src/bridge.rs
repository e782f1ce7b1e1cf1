//! Adapters from `grade10-cluster` simulator output to `grade10-core`
//! inputs — the role framework-specific log parsers play for a real SUT.

use grade10_cluster::{FaultPlan, LogEvent, LogRecord, ResourceSeries, SimOutput};
use grade10_core::parse::{RawEvent, RawEventKind, RawPath};
use grade10_core::trace::{Measurement, RawSeries, ResourceInstance, ResourceTrace};

/// Converts simulator log records into Grade10 raw events.
pub fn to_raw_events(logs: &[LogRecord]) -> Vec<RawEvent> {
    logs.iter()
        .map(|rec| {
            let kind = match &rec.event {
                LogEvent::PhaseStart { path } => RawEventKind::PhaseStart {
                    path: convert_path(path),
                },
                LogEvent::PhaseEnd { path } => RawEventKind::PhaseEnd {
                    path: convert_path(path),
                },
                LogEvent::BlockStart { resource } => RawEventKind::BlockStart {
                    resource: resource.clone(),
                },
                LogEvent::BlockEnd { resource } => RawEventKind::BlockEnd {
                    resource: resource.clone(),
                },
            };
            RawEvent {
                time: rec.time.0,
                machine: rec.machine,
                thread: rec.thread,
                kind,
            }
        })
        .collect()
}

fn convert_path(path: &grade10_cluster::PhasePath) -> RawPath {
    path.0
        .iter()
        .map(|seg| (seg.phase_type.clone(), seg.instance))
        .collect()
}

/// Converts monitor series into a Grade10 resource trace, averaging every
/// `downsample` ground-truth samples into one coarse measurement — the
/// knob the Table II experiment sweeps.
pub fn to_resource_trace(series: &[ResourceSeries], downsample: usize) -> ResourceTrace {
    let mut rt = ResourceTrace::new();
    for s in series {
        let coarse = s.downsample(downsample);
        let idx = rt.add_resource(ResourceInstance {
            kind: coarse.spec.kind.name().to_string(),
            machine: Some(coarse.spec.machine),
            capacity: coarse.spec.capacity,
        });
        rt.add_series(idx, 0, coarse.interval.as_nanos(), &coarse.samples);
    }
    rt
}

/// Converts monitor series into *unvalidated* raw series for the ingestion
/// layer. Unlike [`to_resource_trace`] this performs no validation and
/// preserves whatever the (possibly fault-injected) monitoring stream
/// contains — NaN samples, negative readings, truncated series — exactly as
/// a parser of real monitoring dumps would. Coarse windows that average over
/// a NaN sample become NaN themselves (a missed window).
pub fn to_raw_series(series: &[ResourceSeries], downsample: usize) -> Vec<RawSeries> {
    series
        .iter()
        .map(|s| {
            let coarse = s.downsample(downsample);
            let step = coarse.interval.as_nanos();
            RawSeries {
                instance: ResourceInstance {
                    kind: coarse.spec.kind.name().to_string(),
                    machine: Some(coarse.spec.machine),
                    capacity: coarse.spec.capacity,
                },
                measurements: coarse
                    .samples
                    .iter()
                    .enumerate()
                    .map(|(i, &avg)| Measurement {
                        start: step * i as u64,
                        end: step * (i as u64 + 1),
                        avg,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// A run's collected streams: the event stream and the monitoring series.
pub type Streams = (Vec<RawEvent>, Vec<RawSeries>);

/// What a run's collectors shipped: the bridged event stream and the
/// monitoring series at the recommended 8× downsampling, with `plan`'s
/// faults applied to the simulator's output first.
pub fn collected_streams(sim: &SimOutput, plan: Option<&FaultPlan>) -> Streams {
    match plan {
        None => (to_raw_events(&sim.logs), to_raw_series(&sim.series, 8)),
        Some(plan) => (
            to_raw_events(&plan.inject_logs(&sim.logs)),
            to_raw_series(&plan.inject_series(&sim.series), 8),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grade10_cluster::monitor::{ResourceKind, ResourceSpec};
    use grade10_cluster::{PhasePath, SimDuration, SimTime};

    #[test]
    fn events_convert_with_paths() {
        let logs = vec![
            LogRecord {
                time: SimTime(5),
                machine: 1,
                thread: 2,
                event: LogEvent::PhaseStart {
                    path: PhasePath::root().child("job", 0).child("superstep", 3),
                },
            },
            LogRecord {
                time: SimTime(9),
                machine: 1,
                thread: 2,
                event: LogEvent::BlockStart {
                    resource: "gc".into(),
                },
            },
        ];
        let raw = to_raw_events(&logs);
        assert_eq!(raw.len(), 2);
        assert_eq!(raw[0].time, 5);
        match &raw[0].kind {
            RawEventKind::PhaseStart { path } => {
                assert_eq!(
                    path,
                    &vec![("job".to_string(), 0), ("superstep".to_string(), 3)]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&raw[1].kind, RawEventKind::BlockStart { resource } if resource == "gc"));
    }

    #[test]
    fn resource_trace_downsamples() {
        let series = vec![ResourceSeries {
            spec: ResourceSpec {
                kind: ResourceKind::Cpu,
                machine: 0,
                capacity: 8.0,
            },
            interval: SimDuration::from_millis(50),
            samples: vec![2.0, 4.0, 6.0, 8.0],
        }];
        let rt = to_resource_trace(&series, 2);
        let cpu = rt.find("cpu", Some(0)).unwrap();
        let ms = rt.measurements(cpu);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].avg, 3.0);
        assert_eq!(ms[1].avg, 7.0);
        assert_eq!(ms[0].end - ms[0].start, 100_000_000);
        assert_eq!(rt.instance(cpu).capacity, 8.0);
    }

    #[test]
    fn raw_series_preserves_corruption() {
        let series = vec![ResourceSeries {
            spec: ResourceSpec {
                kind: ResourceKind::Cpu,
                machine: 1,
                capacity: 8.0,
            },
            interval: SimDuration::from_millis(50),
            samples: vec![2.0, f64::NAN, -3.0, 8.0],
        }];
        let raw = to_raw_series(&series, 1);
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].instance.kind, "cpu");
        assert_eq!(raw[0].measurements.len(), 4);
        assert!(raw[0].measurements[1].avg.is_nan());
        assert_eq!(raw[0].measurements[2].avg, -3.0);
        // Downsampling over a NaN poisons the coarse window.
        let coarse = to_raw_series(&series, 2);
        assert!(coarse[0].measurements[0].avg.is_nan());
        assert_eq!(coarse[0].measurements[1].avg, 2.5);
    }
}
