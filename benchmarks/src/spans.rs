//! Spans around calls into the layers, kept in memory until the run ends.
//!
//! The benchmark records spans from its own files only: one around each
//! call it makes into a crate. A span remembers the span that caused it, so
//! a layer's *self time* is its duration minus what its children cover.
//!
//! Spans are opened from one thread at a time (the replay runs every pool
//! at width 1), so one stack under the mutex is enough; the mutex is there
//! because the campaign runner closure must be `Sync`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

use crate::json::obj;

/// One call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    /// Which operation of the run the call belongs to (spans of one
    /// operation share it); `ASIDE` marks calls outside the hop sequence.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done, in the layer's own unit (edges, events, bytes, ...).
    pub work: u64,
}

/// `op` of spans that measure a layer on the side, not as part of a
/// replayed operation. They are excluded from coverage.
pub const ASIDE: u32 = u32::MAX;

struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

/// Collects spans; a disabled tracer runs the calls and records nothing,
/// which is how the tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                op: ASIDE,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every update leaves the vectors valid, so a poisoned lock (a
        // panicking layer call) still holds usable data.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Tags the spans that follow with operation number `op`.
    pub fn set_op(&self, op: u32) {
        self.lock().op = op;
    }

    /// Runs `call` inside a span named `name`; `work` reads the amount of
    /// work off the result.
    pub fn span<T>(
        &self,
        name: &'static str,
        call: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.enabled {
            return call();
        }
        let id = {
            let mut inner = self.lock();
            let id = inner.spans.len() as u32;
            let (parent, op) = (inner.stack.last().copied(), inner.op);
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            inner.spans.push(Span {
                name,
                id,
                parent,
                op,
                start_ns,
                end_ns: start_ns,
                work: 0,
            });
            inner.stack.push(id);
            id
        };
        let out = call();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let work = work(&out);
        let mut inner = self.lock();
        inner.stack.pop();
        let span = &mut inner.spans[id as usize];
        span.end_ns = end_ns;
        span.work = work;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .spans
    }
}

/// Self time of every span, indexed like `spans`: duration minus the part
/// of the interval its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let covered = span
                .end_ns
                .min(p.end_ns)
                .saturating_sub(span.start_ns.max(p.start_ns));
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// Totals of one layer over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    pub self_s: f64,
    pub calls: u64,
    pub work: u64,
}

/// Sums self time, calls and work per span name over the spans `keep`
/// selects.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, LayerTotal> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        if keep(span) {
            let t = out.entry(span.name).or_default();
            t.self_s += self_ns as f64 / 1e9;
            t.calls += 1;
            t.work += span.work;
        }
    }
    out
}

pub fn spans_to_value(spans: &[Span]) -> Value {
    let id = |n: u32| Value::UInt(u64::from(n));
    Value::Array(
        spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("id", id(s.id)),
                    ("parent", s.parent.map_or(Value::Null, id)),
                    ("op", if s.op == ASIDE { Value::Null } else { id(s.op) }),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    ("work", Value::UInt(s.work)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            id,
            parent,
            op: 0,
            start_ns,
            end_ns,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0: [0,100) with children 1: [10,40) and 2: [50,90); 3: [55,60) under 2.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 55, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 35, 5]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn child_running_past_its_parent_is_clipped() {
        let spans = vec![span(0, None, 0, 50), span(1, Some(0), 40, 70)];
        assert_eq!(self_times_ns(&spans), vec![40, 30]);
    }

    #[test]
    fn tracer_nests_and_tags_operations() {
        let t = Tracer::new(true);
        t.set_op(3);
        let v = t.span("outer", || t.span("inner", || 7u64, |v| *v) + 1, |v| *v);
        assert_eq!(v, 8);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].work, spans[0].op),
            ("outer", None, 8, 3)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].work),
            ("inner", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 2, |_| 9), 2);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn totals_group_by_name_and_filter() {
        let mut spans = vec![span(0, None, 0, 10), span(1, None, 10, 30)];
        spans[1].name = "y";
        spans[1].op = ASIDE;
        let all = totals(&spans, |_| true);
        assert_eq!(
            all["x"],
            LayerTotal {
                self_s: 10e-9,
                calls: 1,
                work: 1
            }
        );
        assert_eq!(all["y"].calls, 1);
        let on_path = totals(&spans, |s| s.op != ASIDE);
        assert!(!on_path.contains_key("y"));
    }
}
