//! Profile summary tables: total attributed consumption per phase type and
//! resource — the "where did the resources go" view analysts start from.

use std::collections::BTreeMap;

use crate::attribution::PerformanceProfile;
use crate::model::execution::{ExecutionModel, PhaseTypeId};
use crate::report::table::{eng, Table};
use crate::trace::execution::ExecutionTrace;
use crate::trace::repair::IngestReport;

/// Total attributed consumption (unit-seconds) per (leaf phase type,
/// resource kind), summed over instances and machines.
pub fn usage_by_type(
    profile: &PerformanceProfile,
    trace: &ExecutionTrace,
) -> BTreeMap<(PhaseTypeId, String), f64> {
    let mut out = BTreeMap::new();
    let slice_secs = profile.grid.slice_secs();
    for u in &profile.usages {
        let ty = trace.instance(u.instance).type_id;
        let kind = profile.resources[u.resource.0 as usize].kind.clone();
        *out.entry((ty, kind)).or_insert(0.0) += u.usage.iter().sum::<f64>() * slice_secs;
    }
    out
}

/// Renders the usage-by-type matrix as an aligned table: one row per leaf
/// phase type, one column per resource kind, cells in unit-seconds.
pub fn usage_table(
    profile: &PerformanceProfile,
    model: &ExecutionModel,
    trace: &ExecutionTrace,
) -> Table {
    let usage = usage_by_type(profile, trace);
    let mut kinds: Vec<String> = profile
        .resources
        .iter()
        .map(|r| r.kind.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    kinds.sort();
    let mut types: Vec<PhaseTypeId> = usage.keys().map(|(t, _)| *t).collect();
    types.sort();
    types.dedup();

    let mut headers = vec!["phase type".to_string()];
    headers.extend(kinds.iter().map(|k| format!("{k} (unit-s)")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    for ty in types {
        let mut row = vec![model.type_path(ty)];
        for kind in &kinds {
            let v = usage.get(&(ty, kind.clone())).copied().unwrap_or(0.0);
            row.push(eng(v));
        }
        table.row(&row);
    }
    table
}

/// Per-resource-instance infrastructure view: total consumption, mean and
/// peak utilization — the "is the cluster even busy" table.
pub fn machine_table(profile: &PerformanceProfile) -> Table {
    let mut table = Table::new(&["resource", "total (unit-s)", "mean util", "peak util"]);
    let slice_secs = profile.grid.slice_secs();
    for (r, res) in profile.resources.iter().enumerate() {
        let row = &profile.consumption[r];
        let total: f64 = row.iter().sum::<f64>() * slice_secs;
        let mean = row.iter().sum::<f64>() / row.len().max(1) as f64 / res.capacity;
        let peak = row.iter().cloned().fold(0.0f64, f64::max) / res.capacity;
        table.row(&[
            res.label(),
            eng(total),
            format!("{:.1}%", 100.0 * mean),
            format!("{:.1}%", 100.0 * peak),
        ]);
    }
    table
}

/// Data-quality view of a degraded ingestion: one row per repair kind that
/// actually fired, plus the overall quality score and, when attribution
/// estimated unmonitored timeslices, the estimated share of the grid.
/// Empty (headers only) for a clean report — callers typically guard with
/// [`IngestReport::is_clean`].
pub fn ingest_table(report: &IngestReport) -> Table {
    let mut table = Table::new(&["input damage repaired", "count"]);
    for line in report.summary_lines() {
        // summary_lines renders "{count} {description}"; split back apart
        // so the table aligns counts in their own column.
        let (count, what) = line.split_once(' ').unwrap_or(("?", line.as_str()));
        table.row(&[what.to_string(), count.to_string()]);
    }
    let score = report.quality_score();
    table.row(&[
        "quality score (1.00 = clean)".to_string(),
        // Light damage rounds to 1.00; never display a repaired input as
        // indistinguishable from a clean one.
        if score > 0.995 && !report.is_clean() {
            "<1.00".to_string()
        } else {
            format!("{score:.2}")
        },
    ]);
    if report.slices_estimated > 0 && report.slices_total > 0 {
        table.row(&[
            "share of timeslices estimated".to_string(),
            format!(
                "{:.1}%",
                100.0 * report.slices_estimated as f64 / report.slices_total as f64
            ),
        ]);
    }
    table
}

/// Blocked-time analysis summary (the Ousterhout-style view the paper
/// generalizes): per blocking resource, total blocked leaf time and its
/// share of all leaf execution time.
pub fn blocked_time_table(trace: &ExecutionTrace) -> Table {
    let total_leaf: f64 = trace.leaves().map(|i| i.duration() as f64 / 1e9).sum();
    let mut per_resource: BTreeMap<String, f64> = BTreeMap::new();
    for ev in trace.blocking() {
        *per_resource.entry(ev.resource.clone()).or_insert(0.0) += (ev.end - ev.start) as f64 / 1e9;
    }
    let mut table = Table::new(&["blocking resource", "blocked (s)", "share of leaf time"]);
    for (res, secs) in per_resource {
        table.row(&[
            res,
            format!("{secs:.2}"),
            if total_leaf > 0.0 {
                format!("{:.1}%", 100.0 * secs / total_leaf)
            } else {
                "-".to_string()
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::{build_profile, ProfileConfig};
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::model::rules::{AttributionRule, RuleSet};
    use crate::trace::execution::TraceBuilder;
    use crate::trace::resource::{ResourceInstance, ResourceTrace};
    use crate::trace::timeslice::MILLIS;

    fn setup() -> (ExecutionModel, ExecutionTrace, ResourceTrace, RuleSet) {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let a = b.child(r, "a", Repeat::Parallel);
        let model = b.build();
        let trace = {
            let mut tb = TraceBuilder::new(&model);
            tb.add_phase(&[("job", 0)], 0, 100 * MILLIS, None, None)
                .unwrap();
            tb.add_phase(&[("job", 0), ("a", 0)], 0, 100 * MILLIS, Some(0), Some(0))
                .unwrap();
            tb.add_phase(&[("job", 0), ("a", 1)], 0, 100 * MILLIS, Some(0), Some(1))
                .unwrap();
            tb.build().unwrap()
        };
        let mut rt = ResourceTrace::new();
        let cpu = rt.add_resource(ResourceInstance {
            kind: "cpu".into(),
            machine: Some(0),
            capacity: 4.0,
        });
        rt.add_series(cpu, 0, 50 * MILLIS, &[2.0, 2.0]);
        let rules = RuleSet::new().rule(a, "cpu", AttributionRule::Variable(1.0));
        (model, trace, rt, rules)
    }

    #[test]
    fn blocked_time_table_shares() {
        let (model, _, _, _) = setup();
        let mut tb = TraceBuilder::new(&model);
        tb.add_phase(&[("job", 0)], 0, 100 * MILLIS, None, None)
            .unwrap();
        let a = tb
            .add_phase(&[("job", 0), ("a", 0)], 0, 100 * MILLIS, Some(0), Some(0))
            .unwrap();
        tb.add_blocking(a, "gc", 0, 25 * MILLIS);
        tb.add_blocking(a, "msgq", 50 * MILLIS, 75 * MILLIS);
        let trace = tb.build().unwrap();
        let t = blocked_time_table(&trace);
        let out = t.render();
        assert!(out.contains("gc"));
        assert!(out.contains("msgq"));
        // Each block is 25 of 100 ms of leaf time.
        assert_eq!(out.matches("25.0%").count(), 2, "{out}");
    }

    #[test]
    fn usage_by_type_sums_instances() {
        let (model, trace, rt, rules) = setup();
        let profile = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let usage = usage_by_type(&profile, &trace);
        let a = model.find_by_name("a").unwrap();
        let total = usage.get(&(a, "cpu".to_string())).copied().unwrap();
        // 2 cores × 0.1 s, split over two instances, summed back: 0.2.
        assert!((total - 0.2).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn machine_table_reports_utilization() {
        let (model, trace, rt, rules) = setup();
        let profile = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let t = machine_table(&profile);
        let out = t.render();
        assert!(out.contains("cpu@0"));
        // 2 of 4 cores for the whole run: 50% mean and peak.
        assert!(out.contains("50.0%"), "{out}");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ingest_table_rows_per_repair_kind() {
        let report = IngestReport {
            events_total: 100,
            duplicates_dropped: 3,
            missing_ends_synthesized: 1,
            slices_estimated: 10,
            slices_total: 40,
            ..Default::default()
        };
        let t = ingest_table(&report);
        let out = t.render();
        assert!(out.contains("duplicate records dropped"), "{out}");
        assert!(out.contains("missing end events synthesized"), "{out}");
        assert!(out.contains("quality score"), "{out}");
        assert!(out.contains("25.0%"), "{out}");
        // 3 repair rows + quality + estimated share.
        assert_eq!(t.len(), 5, "{out}");
    }

    #[test]
    fn table_has_row_per_type_and_column_per_kind() {
        let (model, trace, rt, rules) = setup();
        let profile = build_profile(&model, &rules, &trace, &rt, &ProfileConfig::default());
        let t = usage_table(&profile, &model, &trace);
        let rendered = t.render();
        assert!(rendered.contains("job.a"));
        assert!(rendered.contains("cpu (unit-s)"));
        assert!(rendered.contains("0.20"));
        assert!(!rendered.contains("NaN"));
        assert_eq!(t.len(), 1);
    }
}
