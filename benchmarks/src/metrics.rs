//! The metric lists, by name, and `BENCHMARK.json`, which is generated from
//! them (`g10bench manifest`); a unit test keeps the committed file in step.

use serde::Value;

use crate::json::obj;
use crate::workloads::Workload;

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the program sees, per workload. Failures are not a
/// metric here: they are the `failed`/`attempted` pair of every result.
///
/// The time bounds are the largest the contract allows because the 2-core
/// VM this was calibrated on drifts by ±5 % over minutes: ten runs of one
/// workload on ten seeds spread (interquartile, as a share of the median)
/// 2–15 % depending on the quarter of an hour, with the same seed as much as
/// with different ones. Memory repeats within 1 %.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("events_per_s", "1/s", "higher", 0.25),
    e2e("mixes_per_s", "1/s", "higher", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("peak_rss_bytes", "B", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Single layers, from the traced in-process replay. `X.busy_s` is the
/// mean self time of one call into layer X; a rate is the layer's work over
/// its self time across every call of the run; both are 0 when the
/// workload (set-up and stations included) never enters the layer.
pub const PER_LAYER: [MetricSpec; 76] = [
    layer("graph.generators.busy_s", "s", "lower"),
    layer("graph.generators.edges_per_s", "edges/s", "higher"),
    layer("graph.partition.busy_s", "s", "lower"),
    layer("graph.partition.edges_per_s", "edges/s", "higher"),
    layer("graph.algorithms.busy_s", "s", "lower"),
    layer("graph.algorithms.edges_per_s", "edges/s", "higher"),
    layer("engines.pregel.busy_s", "s", "lower"),
    layer("engines.pregel.events_per_s", "records/s", "higher"),
    layer("engines.gas.busy_s", "s", "lower"),
    layer("engines.gas.events_per_s", "records/s", "higher"),
    layer("engines.bridge.busy_s", "s", "lower"),
    layer("engines.bridge.events_per_s", "events/s", "higher"),
    layer("cluster.faults.busy_s", "s", "lower"),
    layer("core.parse.write_json.busy_s", "s", "lower"),
    layer("core.parse.write_json.mb_per_s", "MB/s", "higher"),
    layer("core.parse.read_json.busy_s", "s", "lower"),
    layer("core.parse.read_json.mb_per_s", "MB/s", "higher"),
    layer("core.model.persist.load_s", "s", "lower"),
    layer("core.trace.binary.decode.busy_s", "s", "lower"),
    layer("core.trace.binary.decode.mb_per_s", "MB/s", "higher"),
    layer("core.trace.binary.encode.busy_s", "s", "lower"),
    layer("core.trace.binary.encode.mb_per_s", "MB/s", "higher"),
    layer("core.trace.binary.open_mmap_us", "us", "lower"),
    layer("core.trace.binary.open_read_us", "us", "lower"),
    layer("core.parse.build_trace.busy_s", "s", "lower"),
    layer("core.parse.build_trace.events_per_s", "events/s", "higher"),
    layer("core.trace.repair.strict.busy_s", "s", "lower"),
    layer(
        "core.trace.repair.strict.events_per_s",
        "events/s",
        "higher",
    ),
    layer("core.trace.repair.lenient.busy_s", "s", "lower"),
    layer(
        "core.trace.repair.lenient.events_per_s",
        "events/s",
        "higher",
    ),
    layer("core.trace.repair.lenient.repairs", "count", "lower"),
    layer("core.attribution.profile.busy_s", "s", "lower"),
    layer(
        "core.attribution.profile.slices_per_s",
        "slices/s",
        "higher",
    ),
    layer("core.attribution.profile.cells", "count", "lower"),
    layer("core.attribution.demand.busy_s", "s", "lower"),
    layer("core.attribution.upsample.busy_s", "s", "lower"),
    layer("core.attribution.attribute.busy_s", "s", "lower"),
    layer("core.bottleneck.busy_s", "s", "lower"),
    layer("core.bottleneck.slices_per_s", "slices/s", "higher"),
    layer("core.replay.busy_s", "s", "lower"),
    layer("core.replay.instances_per_s", "instances/s", "higher"),
    layer("core.issues.busy_s", "s", "lower"),
    layer("core.issues.found", "count", "lower"),
    layer("core.report.text.busy_s", "s", "lower"),
    layer("core.report.gantt.busy_s", "s", "lower"),
    layer("core.report.html.busy_s", "s", "lower"),
    layer("core.fs.atomic_write_us", "us", "lower"),
    layer("core.pipeline.characterize_events.busy_s", "s", "lower"),
    layer("core.supervise.busy_s", "s", "lower"),
    layer("core.supervise.w1.busy_s", "s", "lower"),
    layer("core.supervise.w2.busy_s", "s", "lower"),
    layer("core.supervise.overhead_ratio", "ratio", "lower"),
    layer("core.supervise.incidents", "count", "lower"),
    layer("core.cache.cold.busy_s", "s", "lower"),
    layer("core.cache.warm.busy_s", "s", "lower"),
    layer("core.cache.store_overhead_s", "s", "lower"),
    layer("core.cache.saved_s_per_hit", "s", "higher"),
    layer("core.cache.hit_share", "ratio", "higher"),
    layer("core.cache.record_bytes", "B", "lower"),
    layer("core.campaign.run_campaign.busy_s", "s", "lower"),
    layer("core.campaign.journal.append_fsync_us", "us", "lower"),
    layer(
        "core.campaign.journal.replay_records_per_s",
        "records/s",
        "higher",
    ),
    layer("core.campaign.store.put_us", "us", "lower"),
    layer("core.campaign.store.load_us", "us", "lower"),
    layer("core.campaign.envelope_us_per_mix", "us", "lower"),
    layer("core.campaign.report.busy_s", "s", "lower"),
    layer("cli.startup_ms", "ms", "lower"),
    layer("replay.glue.busy_s", "s", "lower"),
    layer("replay.op_s", "s", "lower"),
    layer("replay.ops", "count", "higher"),
    layer("reference.cpu_s", "s", "lower"),
    layer("reference.wall_s", "s", "lower"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("trace.setup_s", "s", "lower"),
];

/// Seconds one run measures; 158 runs of the driver's schedule must fit
/// into its 57 minutes together with their set-up and two builds.
pub const RUN_SECONDS: u64 = 8;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut entries = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better)),
        ];
        if bounded {
            entries.push(("bound", Value::Float(m.bound)));
        }
        obj(entries)
    };
    let doc = obj(vec![
        (
            "command",
            Value::Array(vec![text("bash"), text("benchmarks/run.sh"), text("bench")]),
        ),
        ("paths", Value::Array(vec![text("benchmarks")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_default() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!((1..=16).contains(&m.unit.len()), "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"));
            assert!((0.0..=0.25).contains(&m.bound));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `g10bench manifest`"
        );
        assert!(manifest().len() <= 64 * 1024);
    }
}
