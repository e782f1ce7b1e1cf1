//! Persistence of expert input.
//!
//! The paper's workflow: models and rules "are defined once, typically by a
//! domain expert [...] then, with calibration, they can be used repeatedly
//! by multiple users" (§III-B). [`ModelBundle`] is that reusable artifact —
//! the execution model, resource model, and attribution rules of one
//! framework, serialized as JSON.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use crate::error::Grade10Error;
use crate::model::execution::ExecutionModel;
use crate::model::resource::ResourceModel;
use crate::model::rules::RuleSet;

/// The complete expert input for one graph-processing framework.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Framework name ("giraph", "powergraph", ...).
    pub framework: String,
    /// Free-form notes (calibration setup, cores assumed by Exact rules).
    pub notes: String,
    /// The hierarchical phase-type DAG.
    pub execution: ExecutionModel,
    /// Consumable and blocking resource kinds.
    pub resources: ResourceModel,
    /// The attribution-rule matrix.
    pub rules: RuleSet,
}

impl ModelBundle {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(json) => json,
            // Every field is plain data with a derived Serialize; there is
            // no fallible state to hit.
            Err(e) => unreachable!("model bundles always serialize: {e}"),
        }
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Self, Grade10Error> {
        serde_json::from_str(json)
            .map_err(|e| Grade10Error::Serialization(format!("invalid model bundle: {e}")))
    }

    /// Writes the bundle to a writer.
    pub fn save<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        w.write_all(self.to_json().as_bytes())
    }

    /// Reads a bundle from a reader.
    pub fn load<R: Read>(mut r: R) -> std::io::Result<Self> {
        let mut buf = String::new();
        r.read_to_string(&mut buf)?;
        Self::from_json(&buf).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::execution::{ExecutionModelBuilder, Repeat};
    use crate::model::rules::AttributionRule;

    fn bundle() -> ModelBundle {
        let mut b = ExecutionModelBuilder::new("job");
        let r = b.root();
        let step = b.child(r, "step", Repeat::Sequential);
        let task = b.child(step, "task", Repeat::Parallel);
        let execution = b.build();
        let rules = RuleSet::new()
            .with_default(AttributionRule::None)
            .rule(task, "cpu", AttributionRule::Exact(0.125))
            .rule(task, "net_out", AttributionRule::Variable(1.0));
        ModelBundle {
            framework: "test-engine".into(),
            notes: "8-core machines".into(),
            execution,
            resources: ResourceModel::new().consumable("cpu").blocking("gc"),
            rules,
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let b = bundle();
        let json = b.to_json();
        let back = ModelBundle::from_json(&json).unwrap();
        assert_eq!(back.framework, "test-engine");
        // Model structure survives.
        let task = back.execution.find_by_name("task").unwrap();
        assert_eq!(back.execution.type_path(task), "job.step.task");
        assert_eq!(back.execution.repeat(task), Repeat::Parallel);
        // Rules survive, including the overridden default.
        assert_eq!(back.rules.get(task, "cpu"), AttributionRule::Exact(0.125));
        assert_eq!(
            back.rules.get(task, "net_out"),
            AttributionRule::Variable(1.0)
        );
        assert!(back.rules.get(task, "disk").is_none());
        // Resource model survives.
        assert!(back.resources.find("gc").is_some());
    }

    #[test]
    fn save_load_via_io() {
        let b = bundle();
        let mut buf = Vec::new();
        b.save(&mut buf).unwrap();
        let back = ModelBundle::load(buf.as_slice()).unwrap();
        assert_eq!(back.notes, b.notes);
    }

    #[test]
    fn invalid_json_reports_error() {
        let err = ModelBundle::from_json("{ not json").unwrap_err();
        assert!(err.detail().contains("invalid model bundle"), "{err}");
    }

    #[test]
    fn serialization_is_deterministic() {
        // Rule entries are sorted, so two saves of the same bundle are
        // byte-identical (diff-able expert input under version control).
        let b = bundle();
        assert_eq!(b.to_json(), bundle().to_json());
    }
}
