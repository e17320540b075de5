//! The knowledge catalog: the machine-readable compendium of systems,
//! hardware, and preference rules that the paper envisions the community
//! curating (§1, §3.3).

use crate::component::{HardwareSpec, SystemSpec};
use crate::error::CatalogError;
use crate::ordering::{OrderingEdge, PreferenceOrder};
use crate::types::{Capability, Category, HardwareId, HardwareKind, SystemId};
use netarch_rt::impl_json_struct;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The knowledge catalog.
///
/// Cloning is cheap: the sections are shared behind `Arc`s and copied
/// only when a clone is modified, so a scenario and the document it was
/// loaded from can hold the same catalog.
#[derive(Clone, Default, Debug)]
pub struct Catalog {
    systems: Arc<BTreeMap<SystemId, SystemSpec>>,
    hardware: Arc<BTreeMap<HardwareId, HardwareSpec>>,
    order: Arc<PreferenceOrder>,
}

impl_json_struct!(Catalog { systems, hardware, order });

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a system encoding; rejects duplicate ids.
    pub fn add_system(&mut self, spec: SystemSpec) -> Result<(), CatalogError> {
        if self.systems.contains_key(&spec.id) {
            return Err(CatalogError::DuplicateSystem(spec.id));
        }
        Arc::make_mut(&mut self.systems).insert(spec.id.clone(), spec);
        Ok(())
    }

    /// Registers a hardware encoding; rejects duplicate ids.
    pub fn add_hardware(&mut self, spec: HardwareSpec) -> Result<(), CatalogError> {
        if self.hardware.contains_key(&spec.id) {
            return Err(CatalogError::DuplicateHardware(spec.id));
        }
        Arc::make_mut(&mut self.hardware).insert(spec.id.clone(), spec);
        Ok(())
    }

    /// Adds a preference edge. Both endpoints must already be registered —
    /// rules-of-thumb about unknown systems are probably typos.
    pub fn add_ordering(&mut self, edge: OrderingEdge) -> Result<(), CatalogError> {
        for endpoint in [&edge.better, &edge.worse] {
            if !self.systems.contains_key(endpoint) {
                return Err(CatalogError::UnknownSystem(endpoint.clone()));
            }
        }
        Arc::make_mut(&mut self.order).add(edge);
        Ok(())
    }

    /// Looks up a system.
    pub fn system(&self, id: &SystemId) -> Option<&SystemSpec> {
        self.systems.get(id)
    }

    /// Looks up a hardware model.
    pub fn hardware(&self, id: &HardwareId) -> Option<&HardwareSpec> {
        self.hardware.get(id)
    }

    /// All systems, ordered by id.
    pub fn systems(&self) -> impl Iterator<Item = &SystemSpec> {
        self.systems.values()
    }

    /// All hardware, ordered by id.
    pub fn hardware_specs(&self) -> impl Iterator<Item = &HardwareSpec> {
        self.hardware.values()
    }

    /// Systems of a category.
    pub fn systems_in(&self, category: &Category) -> Vec<&SystemSpec> {
        self.systems.values().filter(|s| &s.category == category).collect()
    }

    /// Systems claiming a capability.
    pub fn systems_solving(&self, capability: &Capability) -> Vec<&SystemSpec> {
        self.systems.values().filter(|s| s.solves(capability)).collect()
    }

    /// Hardware models of a kind.
    pub fn hardware_of_kind(&self, kind: HardwareKind) -> Vec<&HardwareSpec> {
        self.hardware.values().filter(|h| h.kind == kind).collect()
    }

    /// The preference order.
    pub fn order(&self) -> &PreferenceOrder {
        &self.order
    }

    /// Number of systems.
    pub fn num_systems(&self) -> usize {
        self.systems.len()
    }

    /// Number of hardware models.
    pub fn num_hardware(&self) -> usize {
        self.hardware.len()
    }

    /// Validates referential integrity: every system id mentioned in
    /// conflicts, conditions, and ordering edges must be registered.
    /// Returns all dangling references.
    pub fn validate(&self) -> Vec<CatalogError> {
        let mut errors = Vec::new();
        for spec in self.systems.values() {
            for other in &spec.conflicts {
                if !self.systems.contains_key(other) {
                    errors.push(CatalogError::DanglingReference {
                        from: spec.id.clone(),
                        to: other.clone(),
                    });
                }
            }
            for req in &spec.requires {
                for referenced in req.condition.referenced_systems() {
                    if !self.systems.contains_key(referenced) {
                        errors.push(CatalogError::DanglingReference {
                            from: spec.id.clone(),
                            to: referenced.clone(),
                        });
                    }
                }
            }
        }
        errors
    }

    /// Total size of the specification in "rule units": systems count each
    /// requirement/conflict/resource/capability, hardware each feature and
    /// numeric attribute, orderings one each. The paper's §3.1 success
    /// metric is that this grows linearly with the component count.
    pub fn spec_size(&self) -> usize {
        let system_units: usize = self
            .systems
            .values()
            .map(|s| {
                1 + s.solves.len() + s.requires.len() + s.conflicts.len() + s.resources.len()
                    + s.provides.len()
            })
            .sum();
        let hardware_units: usize = self
            .hardware
            .values()
            .map(|h| 1 + h.features.len() + h.numeric.len())
            .sum();
        system_units + hardware_units + self.order.edges().len()
    }
}

/// A modular catalog update — the paper's §6 "Proof modularity": "it is
/// possible for a new system (or a new version of an old system) to
/// update the properties it provides" without re-deriving anything else.
///
/// Upserts replace whole encodings by id (encodings are self-contained —
/// no semantics are attached to individual properties, so replacing one
/// is local). Removals drop the encoding and every ordering edge touching
/// it; if any *remaining* system still references the removed one (in a
/// conflict or condition), the delta is rejected so the knowledge base
/// can never silently dangle.
#[derive(Clone, Default, Debug)]
pub struct CatalogDelta {
    /// Systems to add or replace (matched by id).
    pub upsert_systems: Vec<SystemSpec>,
    /// Systems to remove.
    pub remove_systems: Vec<SystemId>,
    /// Hardware to add or replace (matched by id).
    pub upsert_hardware: Vec<HardwareSpec>,
    /// Hardware to remove.
    pub remove_hardware: Vec<HardwareId>,
    /// Ordering edges to append.
    pub add_orderings: Vec<OrderingEdge>,
}

impl_json_struct!(CatalogDelta {
    upsert_systems,
    remove_systems,
    upsert_hardware,
    remove_hardware,
    add_orderings,
});

impl CatalogDelta {
    /// A delta that replaces one system encoding (the common "new version
    /// of an old system" case).
    pub fn update_system(spec: SystemSpec) -> CatalogDelta {
        CatalogDelta { upsert_systems: vec![spec], ..CatalogDelta::default() }
    }
}

impl Catalog {
    /// Applies a delta atomically: on error the catalog is unchanged.
    pub fn apply(&mut self, delta: CatalogDelta) -> Result<(), CatalogError> {
        let mut next = self.clone();
        for id in &delta.remove_systems {
            if Arc::make_mut(&mut next.systems).remove(id).is_none() {
                return Err(CatalogError::UnknownSystem(id.clone()));
            }
        }
        for spec in delta.upsert_systems {
            Arc::make_mut(&mut next.systems).insert(spec.id.clone(), spec);
        }
        for id in &delta.remove_hardware {
            if Arc::make_mut(&mut next.hardware).remove(id).is_none() {
                return Err(CatalogError::DuplicateHardware(id.clone()));
            }
        }
        for spec in delta.upsert_hardware {
            Arc::make_mut(&mut next.hardware).insert(spec.id.clone(), spec);
        }
        // Drop edges touching removed systems; then append new edges.
        let removed: std::collections::BTreeSet<&SystemId> =
            delta.remove_systems.iter().collect();
        let kept: Vec<OrderingEdge> = next
            .order
            .edges()
            .iter()
            .filter(|e| !removed.contains(&e.better) && !removed.contains(&e.worse))
            .cloned()
            .collect();
        let mut order = PreferenceOrder::new();
        for e in kept {
            order.add(e);
        }
        for e in delta.add_orderings {
            for endpoint in [&e.better, &e.worse] {
                if !next.systems.contains_key(endpoint) {
                    return Err(CatalogError::UnknownSystem(endpoint.clone()));
                }
            }
            order.add(e);
        }
        next.order = Arc::new(order);
        // Referential integrity of the result.
        let errors = next.validate();
        if let Some(first) = errors.into_iter().next() {
            return Err(first);
        }
        *self = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ordering::OrderingEdge;
    use crate::types::Dimension;

    fn catalog_with(names: &[&str]) -> Catalog {
        let mut c = Catalog::new();
        for n in names {
            c.add_system(SystemSpec::builder(*n, Category::NetworkStack).build())
                .unwrap();
        }
        c
    }

    #[test]
    fn duplicate_system_rejected() {
        let mut c = catalog_with(&["LINUX"]);
        let err = c
            .add_system(SystemSpec::builder("LINUX", Category::NetworkStack).build())
            .unwrap_err();
        assert!(matches!(err, CatalogError::DuplicateSystem(_)));
    }

    #[test]
    fn ordering_requires_known_endpoints() {
        let mut c = catalog_with(&["LINUX"]);
        let err = c
            .add_ordering(OrderingEdge::strict("LINUX", "GHOST", Dimension::Throughput))
            .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownSystem(id) if id.as_str() == "GHOST"));
    }

    #[test]
    fn category_and_capability_lookup() {
        let mut c = Catalog::new();
        c.add_system(
            SystemSpec::builder("SIMON", Category::Monitoring)
                .solves("detect_queue_length")
                .build(),
        )
        .unwrap();
        c.add_system(
            SystemSpec::builder("ECMP", Category::LoadBalancer)
                .solves("load_balancing")
                .build(),
        )
        .unwrap();
        assert_eq!(c.systems_in(&Category::Monitoring).len(), 1);
        assert_eq!(c.systems_in(&Category::Firewall).len(), 0);
        assert_eq!(
            c.systems_solving(&Capability::new("load_balancing"))[0].id.as_str(),
            "ECMP"
        );
    }

    #[test]
    fn validate_finds_dangling_conflicts_and_conditions() {
        let mut c = Catalog::new();
        c.add_system(
            SystemSpec::builder("A", Category::Transport)
                .conflicts_with("MISSING")
                .requires("needs-ghost", Condition::system("GHOST"))
                .build(),
        )
        .unwrap();
        let errors = c.validate();
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn delta_upsert_replaces_one_encoding_locally() {
        // §6 proof modularity: a new version of SIMON changes only SIMON.
        let mut c = Catalog::new();
        c.add_system(
            SystemSpec::builder("SIMON", Category::Monitoring)
                .requires("v1-rule", Condition::nics_have("NIC_TIMESTAMPS"))
                .build(),
        )
        .unwrap();
        c.add_system(SystemSpec::builder("PINGMESH", Category::Monitoring).build())
            .unwrap();
        c.add_ordering(OrderingEdge::strict("SIMON", "PINGMESH", Dimension::MonitoringQuality))
            .unwrap();
        let v2 = SystemSpec::builder("SIMON", Category::Monitoring)
            .requires("v2-rule", Condition::nics_have("SMARTNIC_CPU"))
            .build();
        c.apply(CatalogDelta::update_system(v2)).unwrap();
        let simon = c.system(&SystemId::new("SIMON")).unwrap();
        assert_eq!(simon.requires[0].label, "v2-rule");
        // The ordering and the other system are untouched.
        assert_eq!(c.order().edges().len(), 1);
        assert!(c.system(&SystemId::new("PINGMESH")).is_some());
    }

    #[test]
    fn delta_removal_drops_touching_edges() {
        let mut c = catalog_with(&["A", "B", "C"]);
        c.add_ordering(OrderingEdge::strict("A", "B", Dimension::Throughput)).unwrap();
        c.add_ordering(OrderingEdge::strict("B", "C", Dimension::Throughput)).unwrap();
        c.apply(CatalogDelta {
            remove_systems: vec![SystemId::new("B")],
            ..CatalogDelta::default()
        })
        .unwrap();
        assert!(c.system(&SystemId::new("B")).is_none());
        assert_eq!(c.order().edges().len(), 0, "both edges touched B");
    }

    #[test]
    fn delta_rejecting_dangling_reference_leaves_catalog_unchanged() {
        let mut c = catalog_with(&["A"]);
        c.add_system(
            SystemSpec::builder("D", Category::Transport).conflicts_with("A").build(),
        )
        .unwrap();
        // Removing A would leave D's conflict dangling.
        let err = c
            .apply(CatalogDelta {
                remove_systems: vec![SystemId::new("A")],
                ..CatalogDelta::default()
            })
            .unwrap_err();
        assert!(matches!(err, CatalogError::DanglingReference { .. }));
        assert!(c.system(&SystemId::new("A")).is_some(), "atomicity: rollback");
    }

    #[test]
    fn delta_new_system_with_edges_in_one_step() {
        let mut c = catalog_with(&["LINUX"]);
        c.apply(CatalogDelta {
            upsert_systems: vec![SystemSpec::builder("NEWSTACK", Category::NetworkStack).build()],
            add_orderings: vec![OrderingEdge::strict("NEWSTACK", "LINUX", Dimension::Throughput)],
            ..CatalogDelta::default()
        })
        .unwrap();
        assert_eq!(c.num_systems(), 2);
        assert_eq!(c.order().edges().len(), 1);
    }

    #[test]
    fn delta_edge_to_unknown_system_rejected() {
        let mut c = catalog_with(&["LINUX"]);
        let err = c
            .apply(CatalogDelta {
                add_orderings: vec![OrderingEdge::strict("GHOST", "LINUX", Dimension::Throughput)],
                ..CatalogDelta::default()
            })
            .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownSystem(_)));
    }

    #[test]
    fn spec_size_grows_linearly_per_added_system() {
        let mut c = Catalog::new();
        let mut sizes = Vec::new();
        for i in 0..10 {
            c.add_system(
                SystemSpec::builder(format!("S{i}"), Category::Transport)
                    .solves("cap")
                    .requires("r", Condition::True)
                    .build(),
            )
            .unwrap();
            sizes.push(c.spec_size());
        }
        let deltas: Vec<usize> = sizes.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == deltas[0]), "growth not linear: {deltas:?}");
    }
}
