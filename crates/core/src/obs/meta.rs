//! The meta-models: Grade10's own pipeline described in Grade10's terms.
//!
//! The *meta execution model* is the hand-written phase hierarchy of the
//! characterization pipeline itself (ingest → demand → upsample →
//! attribute → bottleneck → report, with parallel upsampling workers
//! nested under `upsample`). The *meta resource model* is one CPU of
//! capacity 1.0 per recorder thread. A recorded [`MetaTrace`] converts
//! into the standard raw-input formats ([`RawEvent`] stream + monitoring
//! [`RawSeries`]), so the self-trace flows through the exact same
//! ingestion and attribution code as any external framework's logs.

use crate::model::{
    AttributionRule, ExecutionModel, ExecutionModelBuilder, ModelBundle, Repeat, ResourceModel,
    RuleSet,
};
use crate::obs::recorder::{MetaTrace, SpanRecord, Stage};
use crate::parse::{RawEvent, RawEventKind, RawPath};
use crate::trace::repair::RawSeries;
use crate::trace::resource::{Measurement, ResourceInstance};
use crate::trace::Nanos;

/// Resource kind used for recorder-thread CPU in the meta resource model.
pub const META_CPU: &str = "cpu";

/// Name of the meta execution model's root phase type.
pub const META_ROOT: &str = "pipeline";

/// Builds the meta execution model and its attribution rules: every
/// pipeline stage demands its thread's CPU as `Variable(1.0)`.
pub fn meta_model() -> (ExecutionModel, RuleSet) {
    let mut b = ExecutionModelBuilder::new(META_ROOT);
    let root = b.root();
    // Sequential: one characterization runs each stage once, but a session
    // may record several runs back to back.
    let ingest = b.child(root, Stage::Ingest.name(), Repeat::Sequential);
    let demand = b.child(root, Stage::Demand.name(), Repeat::Sequential);
    let upsample = b.child(root, Stage::Upsample.name(), Repeat::Sequential);
    let attribute = b.child(root, Stage::Attribute.name(), Repeat::Sequential);
    let bottleneck = b.child(root, Stage::Bottleneck.name(), Repeat::Sequential);
    let report = b.child(root, Stage::Report.name(), Repeat::Sequential);
    let worker = b.child(upsample, Stage::Worker.name(), Repeat::Parallel);
    // Incident spans (failed supervised attempts) can appear anywhere in
    // the run, so the stage is unordered with respect to the others.
    let incident = b.child(root, Stage::Incident.name(), Repeat::Sequential);
    b.edge(ingest, demand);
    b.edge(demand, upsample);
    b.edge(upsample, attribute);
    b.edge(attribute, bottleneck);
    b.edge(bottleneck, report);
    let model = b.build();

    let mut rules = RuleSet::new().with_default(AttributionRule::None);
    for ty in [
        ingest, demand, upsample, attribute, bottleneck, report, worker, incident,
    ] {
        rules = rules.rule(ty, META_CPU, AttributionRule::Variable(1.0));
    }
    (model, rules)
}

/// The meta resource model: recorder-thread CPU as a consumable.
pub fn meta_resource_model() -> ResourceModel {
    ResourceModel::new().consumable(META_CPU)
}

/// The complete meta-model bundle, exportable like any framework model so
/// `analyze` can round-trip an exported self-trace.
pub fn meta_bundle() -> ModelBundle {
    let (execution, rules) = meta_model();
    ModelBundle {
        framework: "grade10-self".to_string(),
        notes: "Grade10's own characterization pipeline: phases are the \
                pipeline stages, resources are recorder threads (capacity \
                1.0 CPU each). Recorded by grade10_core::obs."
            .to_string(),
        execution,
        rules,
        resources: meta_resource_model(),
    }
}

fn path(segs: &[(&str, u32)]) -> RawPath {
    segs.iter().map(|(n, k)| (n.to_string(), *k)).collect()
}

fn phase_events(
    out: &mut Vec<(Nanos, u8, u32, RawEvent)>,
    p: RawPath,
    start: Nanos,
    end: Nanos,
    machine: u16,
) {
    let depth = p.len() as u32;
    out.push((
        start,
        0,
        depth,
        RawEvent {
            time: start,
            machine,
            thread: 0,
            kind: RawEventKind::PhaseStart { path: p.clone() },
        },
    ));
    // At equal timestamps children must close before their parents, so end
    // events sort by *descending* depth.
    out.push((
        end,
        1,
        u32::MAX - depth,
        RawEvent {
            time: end,
            machine,
            thread: 0,
            kind: RawEventKind::PhaseEnd { path: p },
        },
    ));
}

impl MetaTrace {
    /// Converts the recorded spans into a Grade10 raw event stream against
    /// [`meta_model`]: one `pipeline` root spanning the session, one phase
    /// instance per stage span (keyed by occurrence), worker spans nested
    /// under the `upsample` instance that contains them. The stream is
    /// sorted and satisfies the strict ingestion contract.
    pub fn to_raw_events(&self) -> Vec<RawEvent> {
        let mut out: Vec<(Nanos, u8, u32, RawEvent)> = Vec::new();
        phase_events(&mut out, path(&[(META_ROOT, 0)]), 0, self.end, 0);

        // Stage instances on the recording thread, keyed per occurrence.
        let mut next_key = [0u32; Stage::ALL.len()];
        let key_slot = |stage: Stage| Stage::ALL.iter().position(|&s| s == stage).unwrap_or(0);
        let mut upsamples: Vec<(Nanos, Nanos, u32, u32)> = Vec::new(); // (start, end, key, next worker key)
        for s in self.spans.iter().filter(|s| s.stage != Stage::Worker) {
            let slot = key_slot(s.stage);
            let key = next_key[slot];
            next_key[slot] += 1;
            if s.stage == Stage::Upsample {
                upsamples.push((s.start, s.end, key, 0));
            }
            phase_events(
                &mut out,
                path(&[(META_ROOT, 0), (s.stage.name(), key)]),
                s.start,
                s.end,
                s.thread,
            );
        }

        // Worker spans nest under the upsample occurrence containing them.
        for w in self.spans.iter().filter(|s| s.stage == Stage::Worker) {
            let Some(u) = upsamples
                .iter_mut()
                .find(|u| u.0 <= w.start && w.end <= u.1)
            else {
                // A worker outside every upsample span. The one pool opens
                // worker spans only for the upsampling fan-out, so this is
                // foreign input (recorded input is data, not an oracle).
                continue;
            };
            let wkey = u.3;
            u.3 += 1;
            let ukey = u.2;
            phase_events(
                &mut out,
                path(&[
                    (META_ROOT, 0),
                    (Stage::Upsample.name(), ukey),
                    (Stage::Worker.name(), wkey),
                ]),
                w.start,
                w.end,
                w.thread,
            );
        }

        out.sort_by_key(|a| (a.0, a.1, a.2));
        out.into_iter().map(|(_, _, _, ev)| ev).collect()
    }

    /// Synthesizes per-thread CPU monitoring from the spans: each recorder
    /// thread becomes a `cpu` resource of capacity 1.0 whose windows carry
    /// the thread's busy fraction (union of its open spans). `window` is
    /// the monitoring window width in nanoseconds — keep it a small
    /// multiple of the characterization timeslice so upsampling has
    /// something to do, exactly like real coarse monitoring.
    pub fn to_raw_series(&self, window: Nanos) -> Vec<RawSeries> {
        let window = window.max(1);
        if self.end == 0 {
            return Vec::new();
        }
        let mut threads: Vec<u16> = self.spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        if threads.is_empty() {
            threads.push(0);
        }

        threads
            .into_iter()
            .map(|t| {
                let spans: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.thread == t).collect();
                let busy = merge_intervals(&spans);
                let mut measurements = Vec::new();
                let mut w0 = 0;
                while w0 < self.end {
                    let w1 = (w0 + window).min(self.end);
                    let occupied: u128 = busy
                        .iter()
                        .map(|&(a, b)| (b.min(w1).saturating_sub(a.max(w0))) as u128)
                        .sum();
                    measurements.push(Measurement {
                        start: w0,
                        end: w1,
                        avg: occupied as f64 / (w1 - w0) as f64,
                    });
                    w0 = w1;
                }
                RawSeries {
                    instance: ResourceInstance {
                        kind: META_CPU.to_string(),
                        machine: Some(t),
                        capacity: 1.0,
                    },
                    measurements,
                }
            })
            .collect()
    }
}

/// Union of (possibly nested) span intervals, sorted and disjoint.
fn merge_intervals(spans: &[&SpanRecord]) -> Vec<(Nanos, Nanos)> {
    let mut iv: Vec<(Nanos, Nanos)> = spans.iter().map(|s| (s.start, s.end)).collect();
    iv.sort_unstable();
    let mut out: Vec<(Nanos, Nanos)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::repair::{ingest, IngestConfig};

    fn sample_trace() -> MetaTrace {
        let spans = vec![
            SpanRecord {
                stage: Stage::Ingest,
                thread: 0,
                start: 0,
                end: 100,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Demand,
                thread: 0,
                start: 100,
                end: 250,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Upsample,
                thread: 0,
                start: 250,
                end: 600,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Worker,
                thread: 1,
                start: 260,
                end: 500,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Worker,
                thread: 2,
                start: 270,
                end: 590,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Attribute,
                thread: 0,
                start: 600,
                end: 800,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Bottleneck,
                thread: 0,
                start: 800,
                end: 950,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Report,
                thread: 0,
                start: 950,
                end: 1000,
                allocs: 0,
                alloc_bytes: 0,
            },
        ];
        MetaTrace { spans, end: 1000 }
    }

    #[test]
    fn meta_model_has_all_stages() {
        let (model, rules) = meta_model();
        for stage in Stage::ALL {
            let ty = model
                .find_by_name(stage.name())
                .unwrap_or_else(|| panic!("missing stage {stage:?}"));
            assert_eq!(rules.get(ty, META_CPU), AttributionRule::Variable(1.0));
        }
        assert!(meta_resource_model().find(META_CPU).is_some());
        let bundle = meta_bundle();
        let round = ModelBundle::from_json(&bundle.to_json()).expect("bundle round-trips");
        assert_eq!(round.framework, "grade10-self");
    }

    #[test]
    fn raw_events_pass_strict_ingestion() {
        let trace = sample_trace();
        let (model, _rules) = meta_model();
        let events = trace.to_raw_events();
        let series = trace.to_raw_series(200);
        let input = ingest(&model, &events, &series, &IngestConfig::default())
            .expect("meta trace must satisfy the strict contract");
        assert!(input.report.is_clean());
        // Root + 6 stage spans + 2 workers.
        assert_eq!(input.trace.instances().len(), 9);
        assert_eq!(input.trace.makespan_end(), 1000);
        // Workers are children of the upsample instance.
        let worker_ty = model.find_by_name("worker").expect("worker type");
        for w in input.trace.instances_of_type(worker_ty) {
            let parent = w.parent.expect("worker has a parent");
            let upsample_ty = model.find_by_name("upsample").expect("upsample type");
            assert_eq!(input.trace.instance(parent).type_id, upsample_ty);
        }
    }

    #[test]
    fn monitoring_matches_busy_fractions() {
        let trace = sample_trace();
        let series = trace.to_raw_series(200);
        // Threads 0, 1, 2 each get a cpu resource.
        assert_eq!(series.len(), 3);
        for s in &series {
            assert_eq!(s.instance.kind, META_CPU);
            assert_eq!(s.instance.capacity, 1.0);
            let covered: Nanos = s.measurements.iter().map(|m| m.end - m.start).sum();
            assert_eq!(covered, 1000);
            for m in &s.measurements {
                assert!((0.0..=1.0).contains(&m.avg), "busy fraction {}", m.avg);
            }
        }
        // Thread 0 is busy 0..1000 end to end: every window fully busy.
        let t0 = &series[0];
        assert!(t0.measurements.iter().all(|m| (m.avg - 1.0).abs() < 1e-12));
        // Thread 1 is busy 260..500: total busy time 240 ns.
        let t1_busy: f64 = series[1]
            .measurements
            .iter()
            .map(|m| m.avg * (m.end - m.start) as f64)
            .sum();
        assert!((t1_busy - 240.0).abs() < 1e-9, "{t1_busy}");
    }

    #[test]
    fn repeated_stages_get_distinct_keys() {
        let spans = vec![
            SpanRecord {
                stage: Stage::Demand,
                thread: 0,
                start: 0,
                end: 10,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Demand,
                thread: 0,
                start: 10,
                end: 30,
                allocs: 0,
                alloc_bytes: 0,
            },
        ];
        let trace = MetaTrace { spans, end: 30 };
        let events = trace.to_raw_events();
        let starts: Vec<&RawPath> = events
            .iter()
            .filter_map(|e| match &e.kind {
                RawEventKind::PhaseStart { path } if path.len() == 2 => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0][1], ("demand".to_string(), 0));
        assert_eq!(starts[1][1], ("demand".to_string(), 1));
    }
}
