//! Resource attribution rules (§III-D1).
//!
//! A rule links the demand of a phase *type* to a resource *kind*:
//!
//! * [`AttributionRule::None`] — the phase does not use the resource;
//! * [`AttributionRule::Exact`] — the phase demands exactly a fraction of
//!   the resource's capacity (e.g. one compute thread demands exactly
//!   `1/cores` of the machine's CPU);
//! * [`AttributionRule::Variable`] — the phase's demand is unknown but has a
//!   relative weight against other variable-demand phases.
//!
//! When no rule is given, Grade10 assumes `Variable(1.0)` — exactly the
//! paper's untuned default, whose poor upsampling accuracy Table II and
//! Fig. 3a quantify.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::model::execution::PhaseTypeId;

/// How a phase type's demand for a resource kind is estimated.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttributionRule {
    /// The phase does not use the resource.
    None,
    /// Demand is exactly this fraction of the resource instance's capacity
    /// (per active instance).
    Exact(f64),
    /// Demand is unknown; the value is a relative weight.
    Variable(f64),
}

impl AttributionRule {
    /// True for `AttributionRule::None`.
    pub fn is_none(&self) -> bool {
        matches!(self, AttributionRule::None)
    }
}

/// The (phase type × resource kind) rule matrix with the implicit-default
/// semantics of the paper.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RuleSet {
    /// Serialized as a list of `(phase type, resource kind, rule)` entries;
    /// JSON maps cannot carry tuple keys.
    #[serde(with = "rules_serde")]
    rules: HashMap<(PhaseTypeId, String), AttributionRule>,
    /// Rule used when no explicit rule exists (paper default:
    /// `Variable(1.0)`).
    default: AttributionRule,
}

mod rules_serde {
    use super::*;
    use serde::{DeError, Value};

    pub fn serialize(map: &HashMap<(PhaseTypeId, String), AttributionRule>) -> Value {
        let mut entries: Vec<(&PhaseTypeId, &String, &AttributionRule)> = map
            .iter()
            .map(|((ty, kind), rule)| (ty, kind, rule))
            .collect();
        entries.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        serde::Serialize::to_value(&entries)
    }

    pub fn deserialize(
        v: &Value,
    ) -> Result<HashMap<(PhaseTypeId, String), AttributionRule>, DeError> {
        let entries: Vec<(PhaseTypeId, String, AttributionRule)> =
            serde::Deserialize::from_value(v)?;
        Ok(entries
            .into_iter()
            .map(|(ty, kind, rule)| ((ty, kind), rule))
            .collect())
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet {
            rules: HashMap::new(),
            default: AttributionRule::Variable(1.0),
        }
    }
}

impl RuleSet {
    /// An empty rule set with the paper's implicit `Variable(1.0)` default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the implicit default (e.g. `None` for models that enumerate
    /// every demand explicitly).
    pub fn with_default(mut self, default: AttributionRule) -> Self {
        self.default = default;
        self
    }

    /// Sets the rule for (phase type, resource kind). Builder style.
    pub fn rule(
        mut self,
        phase: PhaseTypeId,
        resource_kind: impl Into<String>,
        rule: AttributionRule,
    ) -> Self {
        self.set(phase, resource_kind, rule);
        self
    }

    /// Sets the rule for (phase type, resource kind).
    pub fn set(
        &mut self,
        phase: PhaseTypeId,
        resource_kind: impl Into<String>,
        rule: AttributionRule,
    ) {
        if let AttributionRule::Exact(p) = rule {
            assert!(
                (0.0..=1.0).contains(&p),
                "Exact proportion {p} out of [0, 1]"
            );
        }
        if let AttributionRule::Variable(w) = rule {
            assert!(w > 0.0, "Variable weight must be positive, got {w}");
        }
        self.rules.insert((phase, resource_kind.into()), rule);
    }

    /// Looks up the effective rule for (phase type, resource kind).
    pub fn get(&self, phase: PhaseTypeId, resource_kind: &str) -> AttributionRule {
        self.rules
            .get(&(phase, resource_kind.to_string()))
            .copied()
            .unwrap_or(self.default)
    }

    /// Number of explicit rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no explicit rules are set.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Lints the rule set against the models it will be used with,
    /// returning one message per suspicious entry. The two mistakes this
    /// catches burned real time while building the bundled engine models:
    ///
    /// * a rule on a **container** phase type — demand estimation only
    ///   considers leaves, so the rule would silently never apply;
    /// * a rule naming a resource kind the resource model does not declare
    ///   (usually a typo), which would silently never match a monitored
    ///   instance.
    pub fn lint(
        &self,
        model: &crate::model::execution::ExecutionModel,
        resources: &crate::model::resource::ResourceModel,
    ) -> Vec<String> {
        let mut issues = Vec::new();
        for ((phase, kind), rule) in &self.rules {
            if !model.is_leaf(*phase) {
                issues.push(format!(
                    "rule {rule:?} on container phase type '{}' never applies (only leaf phases carry demand)",
                    model.type_path(*phase)
                ));
            }
            if resources.find(kind).is_none() {
                issues.push(format!(
                    "rule {rule:?} for phase type '{}' names unknown resource kind '{kind}'",
                    model.type_path(*phase)
                ));
            }
        }
        issues.sort();
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_variable_one() {
        let rs = RuleSet::new();
        assert_eq!(
            rs.get(PhaseTypeId(3), "cpu"),
            AttributionRule::Variable(1.0)
        );
        assert!(rs.is_empty());
    }

    #[test]
    fn explicit_rules_override_default() {
        let rs = RuleSet::new()
            .rule(PhaseTypeId(1), "cpu", AttributionRule::Exact(0.25))
            .rule(PhaseTypeId(1), "net_out", AttributionRule::None)
            .rule(PhaseTypeId(2), "cpu", AttributionRule::Variable(2.0));
        assert_eq!(rs.get(PhaseTypeId(1), "cpu"), AttributionRule::Exact(0.25));
        assert!(rs.get(PhaseTypeId(1), "net_out").is_none());
        assert_eq!(
            rs.get(PhaseTypeId(2), "cpu"),
            AttributionRule::Variable(2.0)
        );
        assert_eq!(
            rs.get(PhaseTypeId(2), "net_out"),
            AttributionRule::Variable(1.0)
        );
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn none_default_available() {
        let rs = RuleSet::new().with_default(AttributionRule::None);
        assert!(rs.get(PhaseTypeId(0), "cpu").is_none());
    }

    #[test]
    fn lint_flags_container_rules_and_unknown_kinds() {
        use crate::model::execution::{ExecutionModelBuilder, Repeat};
        use crate::model::resource::ResourceModel;
        let mut b = ExecutionModelBuilder::new("job");
        let root = b.root();
        let step = b.child(root, "step", Repeat::Sequential);
        let task = b.child(step, "task", Repeat::Parallel);
        let model = b.build();
        let resources = ResourceModel::new().consumable("cpu");
        let rules = RuleSet::new()
            .rule(step, "cpu", AttributionRule::Variable(1.0)) // container!
            .rule(task, "cup", AttributionRule::Exact(0.5)) // typo!
            .rule(task, "cpu", AttributionRule::Exact(0.5)); // fine
        let issues = rules.lint(&model, &resources);
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert!(issues.iter().any(|i| i.contains("container")));
        assert!(issues
            .iter()
            .any(|i| i.contains("unknown resource kind 'cup'")));
        // A clean rule set lints clean.
        let clean = RuleSet::new().rule(task, "cpu", AttributionRule::Exact(0.5));
        assert!(clean.lint(&model, &resources).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn exact_out_of_range_rejected() {
        let _ = RuleSet::new().rule(PhaseTypeId(0), "cpu", AttributionRule::Exact(1.5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weight_rejected() {
        let _ = RuleSet::new().rule(PhaseTypeId(0), "cpu", AttributionRule::Variable(0.0));
    }
}
