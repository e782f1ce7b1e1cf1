//! The resource model: what resources exist in the system under test
//! (§III-B).
//!
//! Grade10 models two archetypes. *Consumable* resources (CPU, network) have
//! a capacity; exceeding demand slows phases down. *Blocking* resources
//! (locks, queues, the garbage collector) do not affect execution while
//! available but halt phases when they are not — they appear in the trace as
//! blocking events rather than utilization series.

use serde::{Deserialize, Serialize};

/// The two resource archetypes of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceClass {
    /// Capacity-limited; monitored as a utilization series.
    Consumable,
    /// Availability-gated; monitored as blocking events.
    Blocking,
}

/// A resource *kind* ("cpu", "net_out", "gc", "msgq"). Concrete instances —
/// a kind on a particular machine — live in the resource trace; attribution
/// rules are written against kinds.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceDef {
    /// Kind name ("cpu", "gc", ...), referenced by rules and traces.
    pub name: String,
    /// Consumable or blocking.
    pub class: ResourceClass,
}

/// The set of resource kinds of a system under test.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ResourceModel {
    defs: Vec<ResourceDef>,
}

impl ResourceModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a consumable resource kind (builder style).
    pub fn consumable(mut self, name: impl Into<String>) -> Self {
        self.push(name.into(), ResourceClass::Consumable);
        self
    }

    /// Adds a blocking resource kind (builder style).
    pub fn blocking(mut self, name: impl Into<String>) -> Self {
        self.push(name.into(), ResourceClass::Blocking);
        self
    }

    fn push(&mut self, name: String, class: ResourceClass) {
        assert!(
            self.find(&name).is_none(),
            "duplicate resource kind '{name}'"
        );
        self.defs.push(ResourceDef { name, class });
    }

    /// Looks a kind up by name.
    pub fn find(&self, name: &str) -> Option<&ResourceDef> {
        self.defs.iter().find(|d| d.name == name)
    }

    /// All kinds.
    pub fn defs(&self) -> &[ResourceDef] {
        &self.defs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let m = ResourceModel::new()
            .consumable("cpu")
            .consumable("net_out")
            .blocking("gc")
            .blocking("msgq");
        assert_eq!(m.defs().len(), 4);
        assert_eq!(
            m.find("cpu").map(|d| d.class),
            Some(ResourceClass::Consumable)
        );
        assert_eq!(m.find("gc").map(|d| d.class), Some(ResourceClass::Blocking));
        assert!(m.find("disk").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate resource kind")]
    fn duplicate_rejected() {
        let _ = ResourceModel::new().consumable("cpu").blocking("cpu");
    }
}
