//! The meta-models: Grade10's own pipeline described in Grade10's terms.
//!
//! The *meta execution model* is the phase hierarchy of the
//! characterization pipeline itself, read off the stage table
//! (`Stage::TABLE`): ingest → demand → upsample → attribute →
//! bottleneck → replay → issues → report, with parallel upsampling workers
//! nested under `upsample` and failed supervised attempts (`incident`)
//! outside the chain. The *meta resource model* is one CPU of
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

/// Builds the meta execution model and its attribution rules from the
/// stage table (`Stage::TABLE`): one phase type per stage, nested as the
/// table says, precedence edges along the table's chain, and every stage
/// demanding its thread's CPU as `Variable(1.0)`.
pub fn meta_model() -> (ExecutionModel, RuleSet) {
    let mut b = ExecutionModelBuilder::new(META_ROOT);
    let mut rules = RuleSet::new().with_default(AttributionRule::None);
    let (mut types, mut chain) = (Vec::with_capacity(Stage::ALL.len()), None);
    for row in Stage::TABLE {
        // Sequential: one characterization runs each stage once, but a
        // session may record several runs back to back.
        let (parent, repeat) = match row.parent {
            Some(parent) => (types[parent as usize], Repeat::Parallel),
            None => (b.root(), Repeat::Sequential),
        };
        let ty = b.child(parent, row.name, repeat);
        if row.chained {
            if let Some(prev) = chain.replace(ty) {
                b.edge(prev, ty);
            }
        }
        rules = rules.rule(ty, META_CPU, AttributionRule::Variable(1.0));
        types.push(ty);
    }
    (b.build(), rules)
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
    /// instance per stage span (keyed by occurrence), the spans of a nested
    /// stage (`worker`) under the instance of its parent stage (`upsample`)
    /// that contains them. The stream is sorted and satisfies the strict
    /// ingestion contract.
    pub fn to_raw_events(&self) -> Vec<RawEvent> {
        let mut out: Vec<(Nanos, u8, u32, RawEvent)> = Vec::new();
        phase_events(&mut out, path(&[(META_ROOT, 0)]), 0, self.end, 0);

        // Top-level stage instances, keyed per occurrence; each keeps its
        // span and the next key of a span nested under it.
        let mut next_key = [0u32; Stage::ALL.len()];
        let mut tops: Vec<(&SpanRecord, u32, u32)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.stage.row().parent.is_none()) {
            let key = next_key[s.stage as usize];
            next_key[s.stage as usize] += 1;
            tops.push((s, key, 0));
            let p = path(&[(META_ROOT, 0), (s.stage.name(), key)]);
            phase_events(&mut out, p, s.start, s.end, s.thread);
        }

        // A nested span nests under the occurrence of its parent stage
        // that contains it.
        for s in &self.spans {
            let Some(parent) = s.stage.row().parent else {
                continue;
            };
            let within = |t: &&mut (&SpanRecord, u32, u32)| {
                t.0.stage == parent && t.0.start <= s.start && s.end <= t.0.end
            };
            let Some((_, pkey, next)) = tops.iter_mut().find(within) else {
                // A nested span outside every span of its parent stage. The
                // one pool opens worker spans only for the upsampling
                // fan-out, so this is foreign input (recorded input is data,
                // not an oracle).
                continue;
            };
            let p = path(&[
                (META_ROOT, 0),
                (parent.name(), *pkey),
                (s.stage.name(), *next),
            ]);
            *next += 1;
            phase_events(&mut out, p, s.start, s.end, s.thread);
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
    use crate::model::PhaseTypeId;
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
                end: 850,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Replay,
                thread: 0,
                start: 850,
                end: 900,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                stage: Stage::Issues,
                thread: 0,
                start: 900,
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
        let type_of = |stage: Stage| {
            model
                .find_by_name(stage.name())
                .unwrap_or_else(|| panic!("missing stage {stage:?}"))
        };
        let mut chain = Vec::new();
        for row in Stage::TABLE {
            let ty = type_of(row.stage);
            let parent = row.parent.map_or(model.root(), type_of);
            assert_eq!(model.parent(ty), Some(parent), "{:?}", row.stage);
            let repeat = row.parent.map_or(Repeat::Sequential, |_| Repeat::Parallel);
            assert_eq!(model.repeat(ty), repeat, "{:?}", row.stage);
            assert_eq!(rules.get(ty, META_CPU), AttributionRule::Variable(1.0));
            if row.chained {
                assert_eq!(
                    parent,
                    model.root(),
                    "{:?}: only top-level stages chain",
                    row.stage
                );
                chain.push(ty);
            }
        }
        // The precedence edges are the chain's links in table order, and
        // there are no others.
        let links: Vec<_> = chain.windows(2).map(|w| (w[0], w[1])).collect();
        assert_eq!(model.edges(model.root()), links.as_slice());
        let edges: usize = (0..model.num_types() as u32)
            .map(|t| model.edges(PhaseTypeId(t)).len())
            .sum();
        assert_eq!(edges, links.len());
        assert_eq!(model.num_types(), Stage::TABLE.len() + 1);
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
        // Root + 8 stage spans + 2 workers.
        assert_eq!(input.trace.instances().len(), 11);
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
