//! Incident and coverage tables for supervised runs: the "what failed,
//! what degraded, what is missing" view a partial characterization ships
//! with.

use crate::report::table::Table;
use crate::supervise::{Coverage, Incident, IncidentOutcome};

/// Renders the incident log as an aligned table, one row per incident, in
/// pipeline order. Empty input yields a headers-only table (callers
/// usually print "no incidents" instead).
pub fn incident_table(incidents: &[Incident]) -> Table {
    let mut table = Table::new(&["stage", "unit", "kind", "attempts", "outcome", "detail"]);
    for i in incidents {
        let outcome = match &i.outcome {
            IncidentOutcome::Recovered { degradation } => format!("recovered: {degradation}"),
            IncidentOutcome::Dropped => "dropped".to_string(),
        };
        table.row(&[
            i.stage.to_string(),
            i.unit.clone(),
            i.kind.name().to_string(),
            i.attempts.to_string(),
            outcome,
            i.detail.clone(),
        ]);
    }
    table
}

/// Renders the per-machine coverage map: one row per machine (cluster
/// resources first), with the status of its data in the characterization.
pub fn coverage_table(coverage: &Coverage) -> Table {
    let mut table = Table::new(&["unit", "coverage"]);
    for m in &coverage.machines {
        table.row(&[m.label(), m.status.name().to_string()]);
    }
    for s in &coverage.stages {
        table.row(&[format!("stage:{}", s.stage), s.status.name().to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::{IncidentKind, MachineCoverage, StageCoverage, StageStatus, UnitStatus};

    #[test]
    fn tables_render_incidents_and_coverage() {
        let incidents = vec![
            Incident {
                stage: "ingest",
                unit: "machine 1".to_string(),
                kind: IncidentKind::MissingData,
                detail: "no log events from this machine".to_string(),
                attempts: 1,
                outcome: IncidentOutcome::Recovered {
                    degradation: "monitoring-only coverage".to_string(),
                },
            },
            Incident {
                stage: "attribute",
                unit: "machine 2".to_string(),
                kind: IncidentKind::Panic,
                detail: "boom".to_string(),
                attempts: 3,
                outcome: IncidentOutcome::Dropped,
            },
        ];
        let rendered = incident_table(&incidents).render();
        assert!(rendered.contains("missing-data"));
        assert!(rendered.contains("recovered: monitoring-only coverage"));
        assert!(rendered.contains("dropped"));

        let coverage = Coverage {
            machines: vec![
                MachineCoverage {
                    machine: None,
                    status: UnitStatus::Full,
                },
                MachineCoverage {
                    machine: Some(2),
                    status: UnitStatus::Dropped,
                },
            ],
            stages: vec![StageCoverage {
                stage: "ingest",
                status: StageStatus::Degraded,
            }],
        };
        let rendered = coverage_table(&coverage).render();
        assert!(rendered.contains("cluster"));
        assert!(rendered.contains("machine 2"));
        assert!(rendered.contains("stage:ingest"));
        assert!(rendered.contains("degraded"));
    }
}
