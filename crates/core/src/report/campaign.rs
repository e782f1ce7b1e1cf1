//! Cross-campaign report: the ranked view over a whole mix matrix.
//!
//! Rendered from stored outcomes only — no wall-clock timestamps, cache
//! statistics, or filesystem paths — so the report is a pure function of
//! (spec, outcomes, incidents) and a resumed campaign produces the same
//! bytes as an uninterrupted one. That byte-identity is load-bearing: the
//! chaos tests diff reports across kill/resume schedules and pool widths.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Serialize, Value};

use crate::campaign::MixOutcome;
use crate::report::incidents::incident_table;
use crate::report::table::{secs, Table};
use crate::supervise::Incident;

/// A fully rendered campaign report in both output formats.
#[derive(Debug)]
pub struct CampaignReport {
    /// Aligned-table text rendering.
    pub text: String,
    /// Pretty-printed JSON rendering (trailing newline included).
    pub json: String,
}

/// Outcomes ranked by makespan impact: slowest first, ties broken by mix
/// id so the order is total and stable.
fn ranked(outcomes: &[MixOutcome]) -> Vec<&MixOutcome> {
    let mut sorted: Vec<&MixOutcome> = outcomes.iter().collect();
    sorted.sort_by(|a, b| {
        b.makespan_ns
            .cmp(&a.makespan_ns)
            .then_with(|| a.mix.id().cmp(&b.mix.id()))
    });
    sorted
}

/// Issue classes that only part of the matrix exhibits, with the mixes
/// showing them. A class every mix shares says something about the
/// workload; a class only one configuration shows says something about
/// that configuration — those are the screening hits.
fn class_flags(outcomes: &[MixOutcome]) -> Vec<(String, Vec<String>)> {
    let mut by_class: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for o in outcomes {
        for c in &o.classes {
            by_class.entry(c.as_str()).or_default().push(o.mix.id());
        }
    }
    by_class
        .into_iter()
        .filter(|(_, mixes)| !mixes.is_empty() && mixes.len() < outcomes.len())
        .map(|(class, mut mixes)| {
            mixes.sort();
            (class.to_string(), mixes)
        })
        .collect()
}

/// Renders the campaign report over the surviving outcomes and the
/// campaign-level incident log.
pub fn campaign_report(
    campaign: &str,
    outcomes: &[MixOutcome],
    incidents: &[Incident],
) -> CampaignReport {
    let sorted = ranked(outcomes);
    let best = sorted.iter().map(|o| o.makespan_ns).min().unwrap_or(0);
    let degraded = sorted
        .iter()
        .filter(|o| o.degraded || o.incidents > 0)
        .count();

    // --- Text ---
    let mut text = String::new();
    let _ = writeln!(text, "campaign {campaign}");
    let _ = writeln!(text, "{}", "=".repeat(9 + campaign.len()));
    let _ = writeln!(
        text,
        "mixes: {} characterized, {} failed, {} degraded",
        sorted.len(),
        incidents.len(),
        degraded
    );
    text.push('\n');
    let mut table = Table::new(&["mix", "makespan", "vs best", "mode", "attempts", "classes"]);
    for o in &sorted {
        let vs_best = if best == 0 {
            "-".to_string()
        } else {
            format!("x{:.2}", o.makespan_ns as f64 / best as f64)
        };
        let mut status = o.mode.clone();
        if o.degraded || o.incidents > 0 {
            status.push_str(" (partial)");
        }
        table.row(&[
            o.mix.id(),
            secs(o.makespan_ns),
            vs_best,
            status,
            o.attempts.to_string(),
            if o.classes.is_empty() {
                "-".to_string()
            } else {
                o.classes.join(",")
            },
        ]);
    }
    text.push_str(&table.render());
    text.push('\n');
    let flags = class_flags(outcomes);
    text.push_str("class flags (issue classes not shared by the whole matrix):\n");
    if flags.is_empty() {
        text.push_str("  none\n");
    } else {
        for (class, mixes) in &flags {
            let _ = writeln!(text, "  {class}: only in {}", mixes.join(", "));
        }
    }
    text.push('\n');
    if incidents.is_empty() {
        text.push_str("incidents: none\n");
    } else {
        text.push_str("incidents:\n");
        text.push_str(&incident_table(incidents).render());
    }

    // --- JSON ---
    let ranking: Vec<Value> = sorted.iter().map(|o| o.to_value()).collect();
    let flag_values: Vec<Value> = flags
        .iter()
        .map(|(class, mixes)| {
            Value::Object(vec![
                ("class".to_string(), Value::Str(class.clone())),
                (
                    "mixes".to_string(),
                    Value::Array(mixes.iter().map(|m| Value::Str(m.clone())).collect()),
                ),
            ])
        })
        .collect();
    let incident_values: Vec<Value> = incidents
        .iter()
        .map(|i| {
            Value::Object(vec![
                ("unit".to_string(), Value::Str(i.unit.clone())),
                ("kind".to_string(), Value::Str(i.kind.name().to_string())),
                ("attempts".to_string(), Value::UInt(u64::from(i.attempts))),
                ("detail".to_string(), Value::Str(i.detail.clone())),
            ])
        })
        .collect();
    let root = Value::Object(vec![
        ("campaign".to_string(), Value::Str(campaign.to_string())),
        ("format".to_string(), Value::UInt(1)),
        ("ranking".to_string(), Value::Array(ranking)),
        ("flags".to_string(), Value::Array(flag_values)),
        ("incidents".to_string(), Value::Array(incident_values)),
    ]);
    let mut json = serde_json::to_string_pretty(&root).unwrap_or_default();
    json.push('\n');

    CampaignReport { text, json }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::MixSpec;
    use crate::supervise::{IncidentKind, IncidentOutcome};

    fn outcome(alg: &str, makespan: u64, classes: &[&str]) -> MixOutcome {
        MixOutcome {
            mix: MixSpec {
                algorithm: alg.into(),
                dataset: "rmat:6".into(),
                engine: "giraph".into(),
                machines: 2,
                seed: 46,
                fault: "none".into(),
            },
            hash: 1,
            makespan_ns: makespan,
            classes: classes.iter().map(|s| s.to_string()).collect(),
            incidents: 0,
            degraded: false,
            attempts: 1,
            mode: "strict".into(),
        }
    }

    #[test]
    fn ranks_worst_first_and_flags_partial_classes() {
        let outcomes = vec![
            outcome("pr", 1_000_000_000, &["bottleneck:cpu"]),
            outcome("bfs", 3_000_000_000, &["bottleneck:cpu", "blocking:net"]),
        ];
        let r = campaign_report("t", &outcomes, &[]);
        let bfs = r.text.find("bfs-").expect("bfs row");
        let pr = r.text.find("pr-").expect("pr row");
        assert!(bfs < pr, "slowest mix ranks first:\n{}", r.text);
        assert!(r.text.contains("x3.00"), "relative makespan:\n{}", r.text);
        assert!(
            r.text.contains("blocking:net: only in bfs-"),
            "partial class flagged:\n{}",
            r.text
        );
        assert!(
            !r.text.contains("bottleneck:cpu: only in"),
            "shared class not flagged:\n{}",
            r.text
        );
        assert!(r.text.contains("incidents: none"));
        assert!(r.json.contains("\"campaign\": \"t\""));
    }

    #[test]
    fn incident_log_is_included() {
        let incidents = vec![Incident {
            stage: "campaign",
            unit: "bfs-rmat:6-giraph-m2-s46-none".into(),
            kind: IncidentKind::Panic,
            detail: "boom".into(),
            attempts: 3,
            outcome: IncidentOutcome::Dropped,
        }];
        let r = campaign_report("t", &[outcome("pr", 1, &[])], &incidents);
        assert!(r.text.contains("incidents:\n"));
        assert!(r.text.contains("boom"));
        assert!(r.json.contains("\"kind\": \"panic\""));
    }

    #[test]
    fn report_is_deterministic() {
        let outcomes = vec![outcome("pr", 5, &["a"]), outcome("bfs", 5, &["b"])];
        let a = campaign_report("t", &outcomes, &[]);
        let rev: Vec<MixOutcome> = outcomes.iter().rev().cloned().collect();
        let b = campaign_report("t", &rev, &[]);
        assert_eq!(a.text, b.text, "input order does not matter");
        assert_eq!(a.json, b.json);
    }
}
