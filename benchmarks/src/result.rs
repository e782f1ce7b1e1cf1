//! Result records: the one-line form the driver reads, the file `all`
//! writes, and `agree`, which compares two such files.

use std::collections::BTreeMap;

use serde::Value;

use crate::e2e::E2e;
use crate::json::{entries, get, number, obj};
use crate::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use crate::traced::Traced;

fn metric_values(specs: &[MetricSpec], values: &[(&'static str, f64)]) -> Value {
    Value::Object(
        specs
            .iter()
            .zip(values)
            .map(|(spec, (name, value))| {
                debug_assert_eq!(spec.name, *name);
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Value::Float(*value)),
                        ("unit", Value::Str(spec.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn driver_line(
    specs: &[MetricSpec],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
) -> String {
    let line = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metric_values(specs, values)),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

/// The full record of an end-to-end run, written next to the driver line
/// so that `all` (a separate, small process) can assemble the result file.
pub fn e2e_record(e2e: &E2e) -> Value {
    let spread: Vec<(&str, Value)> = e2e
        .spread
        .iter()
        .map(|(name, s)| (*name, s.to_value()))
        .collect();
    obj(vec![
        ("fixture", e2e.fixture.to_value()),
        ("attempted", Value::UInt(e2e.attempted)),
        ("failed", Value::UInt(e2e.failed)),
        ("end_to_end", metric_values(&END_TO_END, &e2e.values)),
        ("spread_over_ops", obj(spread)),
        (
            "wall_samples",
            Value::Array(
                e2e.samples
                    .iter()
                    .map(|slot| Value::Array(slot.iter().map(|&w| Value::Float(w)).collect()))
                    .collect(),
            ),
        ),
        (
            "output_hash",
            Value::Str(format!("{:016x}", e2e.output_hash)),
        ),
    ])
}

/// The full record of a traced run.
pub fn traced_record(traced: &Traced) -> Value {
    let counts = traced
        .counts
        .iter()
        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
        .collect();
    obj(vec![
        ("fixture", traced.fixture.to_value()),
        ("attempted", Value::UInt(traced.attempted)),
        ("failed", Value::UInt(traced.failed)),
        ("per_layer", metric_values(&PER_LAYER, &traced.values)),
        ("counts", Value::Object(counts)),
    ])
}

/// One workload's entry in a result file, from its two run records.
pub fn workload_record(e2e: &Value, traced: &Value) -> Value {
    let field = |record: &Value, key: &str| get(record, key).cloned().unwrap_or(Value::Null);
    let sum = |key: &str| match (get(e2e, key), get(traced, key)) {
        (Some(Value::UInt(a)), Some(Value::UInt(b))) => Value::UInt(a + b),
        _ => Value::Null,
    };
    let mut counts = entries(&field(traced, "counts")).to_vec();
    counts.push(("output_hash".to_string(), field(e2e, "output_hash")));
    obj(vec![
        ("fixture", field(e2e, "fixture")),
        ("traced_fixture", field(traced, "fixture")),
        ("attempted", sum("attempted")),
        ("failed", sum("failed")),
        ("end_to_end", field(e2e, "end_to_end")),
        ("spread_over_ops", field(e2e, "spread_over_ops")),
        ("wall_samples", field(e2e, "wall_samples")),
        ("per_layer", field(traced, "per_layer")),
        ("counts", Value::Object(counts)),
    ])
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better): the driver's regression measure.
fn worse_by(spec: &MetricSpec, first: f64, second: f64) -> f64 {
    let by = if spec.better == "lower" {
        second - first
    } else {
        first - second
    };
    if first == 0.0 {
        f64::INFINITY
    } else {
        by / first
    }
}

/// Compares two result files of the same commit. Returns one line per
/// disagreement: an end-to-end metric worse in one file than in the other by
/// more than its bound, a count or fixture field that
/// differs at all, a failed op, or a workload missing from one side.
pub fn agree(a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let (wa, wb) = (get(a, "workloads"), get(b, "workloads"));
    let names: BTreeMap<&str, ()> = [wa, wb]
        .into_iter()
        .flatten()
        .flat_map(|w| entries(w).iter().map(|(k, _)| (k.as_str(), ())))
        .collect();
    if names.is_empty() {
        out.push("no workloads in either file".to_string());
    }
    for name in names.keys() {
        let (Some(ra), Some(rb)) = (wa.and_then(|w| get(w, name)), wb.and_then(|w| get(w, name)))
        else {
            out.push(format!("{name}: present in one file only"));
            continue;
        };
        for side in [ra, rb] {
            if get(side, "failed") != Some(&Value::UInt(0)) {
                out.push(format!("{name}: has failed ops"));
            }
        }
        for spec in &END_TO_END {
            let read = |r| {
                get(r, "end_to_end")
                    .and_then(|m| get(m, spec.name))
                    .and_then(|m| get(m, "value"))
                    .and_then(number)
            };
            // The driver's rule applied both ways, since neither file is
            // the parent.
            let within = |first, second| worse_by(spec, first, second) <= spec.bound;
            match (read(ra), read(rb)) {
                (Some(x), Some(y)) if within(x, y) && within(y, x) => {}
                (x, y) => out.push(format!(
                    "{name}: {} differs by more than {:.0}%: {x:?} vs {y:?}",
                    spec.name,
                    spec.bound * 100.0
                )),
            }
        }
        for key in ["fixture", "traced_fixture", "counts"] {
            let (ca, cb) = (get(ra, key), get(rb, key));
            if ca.is_none() || ca != cb {
                let differing: Vec<&str> = entries(ca.unwrap_or(&Value::Null))
                    .iter()
                    .filter(|(k, v)| cb.and_then(|c| get(c, k)) != Some(v))
                    .map(|(k, _)| k.as_str())
                    .collect();
                out.push(format!("{name}: {key} differ ({})", differing.join(", ")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(wall: f64, hash: &str, failed: u64) -> Value {
        let metrics: Vec<(&str, Value)> = END_TO_END
            .iter()
            .map(|m| {
                let value = if m.name == "wall_s" { wall } else { 2.0 };
                (
                    m.name,
                    obj(vec![
                        ("value", Value::Float(value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let fixture = obj(vec![("fixture_hash", Value::Str(hash.to_string()))]);
        let record = obj(vec![
            ("fixture", fixture.clone()),
            ("traced_fixture", fixture),
            ("failed", Value::UInt(failed)),
            ("end_to_end", obj(metrics)),
            ("counts", obj(vec![("core.issues.found", Value::UInt(3))])),
        ]);
        obj(vec![("workloads", obj(vec![("demo", record)]))])
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let (wall, rate) = (&END_TO_END[0], &END_TO_END[1]);
        assert_eq!((wall.better, rate.better), ("lower", "higher"));
        assert_eq!(worse_by(wall, 2.0, 2.5), 0.25);
        assert_eq!(worse_by(wall, 2.0, 1.5), -0.25);
        assert_eq!(worse_by(rate, 100.0, 75.0), 0.25);
        assert_eq!(worse_by(rate, 100.0, 150.0), -0.5);
        assert_eq!(worse_by(wall, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn same_results_agree() {
        assert_eq!(
            agree(&file(1.0, "aa", 0), &file(1.05, "aa", 0)),
            Vec::<String>::new()
        );
        assert_eq!(
            agree(&file(1.0, "aa", 0), &file(0.95, "aa", 0)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_metric_beyond_its_bound_disagrees() {
        let verdict = agree(&file(1.0, "aa", 0), &file(1.3, "aa", 0));
        assert_eq!(verdict.len(), 1);
        assert!(verdict[0].contains("wall_s"), "{verdict:?}");
        assert_eq!(agree(&file(1.0, "aa", 0), &file(0.7, "aa", 0)).len(), 1);
    }

    #[test]
    fn any_count_or_fixture_difference_disagrees() {
        let verdict = agree(&file(1.0, "aa", 0), &file(1.0, "ab", 0));
        assert_eq!(verdict.len(), 2, "{verdict:?}");
        assert!(verdict.iter().all(|line| line.contains("fixture_hash")));
        let mut b = file(1.0, "aa", 0);
        if let Value::Object(top) = &mut b {
            if let Value::Object(workloads) = &mut top[0].1 {
                if let Value::Object(record) = &mut workloads[0].1 {
                    record[4].1 = obj(vec![("core.issues.found", Value::UInt(4))]);
                }
            }
        }
        let verdict = agree(&file(1.0, "aa", 0), &b);
        assert_eq!(verdict, ["demo: counts differ (core.issues.found)"]);
    }

    #[test]
    fn failures_and_missing_workloads_disagree() {
        assert!(agree(&file(1.0, "aa", 1), &file(1.0, "aa", 0))[0].contains("failed"));
        let empty = obj(vec![("workloads", obj(vec![]))]);
        assert_eq!(
            agree(&file(1.0, "aa", 0), &empty),
            ["demo: present in one file only"]
        );
        assert!(!agree(&empty, &empty).is_empty());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let values: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line: Value = serde_json::from_str(&driver_line(&END_TO_END, &values, 10, 0)).unwrap();
        let keys: Vec<&str> = entries(&line).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)));
        let metrics = get(&line, "metrics").unwrap();
        assert_eq!(entries(metrics).len(), END_TO_END.len());
        let wall = get(metrics, "wall_s").unwrap();
        assert_eq!(
            entries(wall)
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            ["value", "unit"]
        );
    }
}
