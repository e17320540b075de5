//! Compilation of a [`Scenario`] into SAT.
//!
//! The translation scheme (DESIGN.md §5):
//!
//! * one decision atom per candidate **system** and per candidate
//!   **hardware model**;
//! * role rules become cardinality constraints per category;
//! * each system's requirements become guarded implications
//!   `selected(s) → condition`, asserted as *named groups* so that
//!   infeasibility diagnoses name the offending rules-of-thumb;
//! * resource demands become pseudo-Boolean sums guarded by the hardware
//!   model that defines the capacity;
//! * the objective stack becomes lexicographic MaxSAT levels whose weights
//!   scalarize the preference partial order (dominance counts).

use crate::catalog::Catalog;
use crate::condition::{AmountExpr, Condition};
use crate::error::CompileError;
use crate::ordering::EdgeKind;
use crate::scenario::{Inventory, Objective, Pin, RoleRule, Scenario};
use crate::types::{
    Capability, Category, Feature, HardwareId, HardwareKind, Resource, SystemId,
};
use netarch_logic::pb::{gte_outputs, PbTerm};
use netarch_logic::{Atom, ClauseSink, Encoder, Formula, GroupId, GroupedAssertions, Soft};
use std::collections::{BTreeMap, BTreeSet};

/// Provenance of one compiled rule group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable label, e.g. `req:SIMON:simon-needs-nic-timestamps`.
    pub label: String,
    /// Human-readable description of what the rule enforces.
    pub description: String,
    /// Source citation when the rule came from the literature.
    pub citation: Option<String>,
}

/// One lexicographic objective level, compiled to soft constraints.
pub struct ObjectiveLevel {
    /// The objective this level realizes.
    pub objective: Objective,
    /// Its soft constraints.
    pub softs: Vec<Soft>,
}

/// Compilation size metrics (experiment E9: linear-growth claim), plus
/// session-reuse counters filled in by [`crate::query::Engine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Number of named rule groups.
    pub rules: usize,
    /// Decision atoms (systems + hardware).
    pub decision_atoms: usize,
    /// Total clauses pushed into the solver by the compile (a compile-time
    /// snapshot; see `live_clauses` for the session as it stands).
    pub clauses: usize,
    /// Total solver variables (atoms + auxiliaries) after the compile (a
    /// compile-time snapshot; see `live_vars`).
    pub solver_vars: usize,
    /// Variables the session solver can still decide: not released and
    /// not fixed at the root.
    pub live_vars: usize,
    /// Clauses (original and learnt) the session solver holds now.
    pub live_clauses: usize,
    /// Branching decisions made over the session's lifetime.
    pub decisions: u64,
    /// Literals enqueued by unit propagation over the session's lifetime.
    pub propagations: u64,
    /// Scenario recompilations performed after engine construction. The
    /// incremental session answers every query on the original compile,
    /// so this stays 0 (capacity planning with a *changed* fleet bound is
    /// the one event that re-derives a side compilation).
    pub recompiles: u64,
    /// Solver invocations served by the persistent session solver.
    pub session_solves: u64,
    /// Per-query activation literals retired back into the session.
    pub retired_activations: u64,
    /// Conflicts resolved by the session solver over its lifetime.
    pub conflicts: u64,
    /// Learned clauses currently credited to the session solver — the
    /// state a serving layer preserves when it caches compiled scenarios
    /// and routes repeat traffic back to a warm session.
    pub learnt_clauses: u64,
    /// Conflicts resolved by chronological backtracking.
    pub chrono_backtracks: u64,
}

netarch_rt::impl_json_struct!(CompileStats {
    rules,
    decision_atoms,
    clauses,
    solver_vars,
    live_vars,
    live_clauses,
    decisions,
    propagations,
    recompiles,
    session_solves,
    retired_activations,
    conflicts,
    learnt_clauses,
    chrono_backtracks,
});

/// A scenario compiled to SAT, ready for queries.
pub struct Compiled {
    /// The encoder holding the solver.
    pub encoder: Encoder,
    /// Rule groups (all must be assumed for the full scenario).
    pub groups: GroupedAssertions,
    /// Provenance per group, indexed by [`GroupId`].
    pub rules: Vec<RuleMeta>,
    /// Decision atom per candidate system.
    pub system_atoms: BTreeMap<SystemId, Atom>,
    /// Decision atom per candidate hardware model.
    pub hardware_atoms: BTreeMap<HardwareId, Atom>,
    /// Compiled objective stack.
    pub objective_levels: Vec<ObjectiveLevel>,
    /// Size metrics.
    pub stats: CompileStats,
}

impl Compiled {
    /// All decision atoms (projection set for design enumeration).
    pub fn decision_atoms(&self, include_hardware: bool) -> Vec<Atom> {
        let mut out: Vec<Atom> = self.system_atoms.values().copied().collect();
        if include_hardware {
            out.extend(self.hardware_atoms.values().copied());
        }
        out
    }

    /// Selector literals of every rule group (assume all to activate the
    /// complete scenario).
    pub fn all_selectors(&self) -> Vec<netarch_sat::Lit> {
        self.groups
            .ids()
            .into_iter()
            .map(|g| self.groups.selector(g))
            .collect()
    }

    /// Looks up rule provenance.
    pub fn rule(&self, id: GroupId) -> &RuleMeta {
        &self.rules[id.0]
    }
}

struct Compiler<'a> {
    scenario: &'a Scenario,
    encoder: Encoder,
    groups: GroupedAssertions,
    rules: Vec<RuleMeta>,
    next_atom: u32,
    system_atoms: BTreeMap<SystemId, Atom>,
    hardware_atoms: BTreeMap<HardwareId, Atom>,
    /// Capacity-planning mode: the server count is a solver variable in
    /// `[1, max]` instead of the fixed `inventory.num_servers`.
    server_count: Option<netarch_logic::OrderInt>,
}

/// A compiled scenario whose server count is a decision variable —
/// produced by [`compile_capacity`] for "how many servers do I need?"
/// queries.
pub struct CompiledCapacity {
    /// The compiled scenario (server-scaled resource rules are expressed
    /// against the variable count).
    pub compiled: Compiled,
    /// The order-encoded server count.
    pub server_count: netarch_logic::OrderInt,
}

/// The largest fleet bound [`compile_capacity`] accepts. The order
/// encoding allocates one threshold variable per fleet size, so the
/// compile's time and memory grow linearly with `max_servers`; past this
/// ceiling a capacity query is refused with
/// [`CompileError::CapacityLimit`] instead of running for seconds or
/// exhausting memory.
pub const MAX_CAPACITY_SERVERS: u64 = 100_000;

/// Compiles a scenario with the server count as a variable in
/// `[1, max_servers]`. Budget constraints, when present, price the fleet
/// at the fixed `inventory.num_servers` (documented approximation: the
/// capacity query answers fleet *size*, with cost reported afterwards).
/// A `max_servers` above [`MAX_CAPACITY_SERVERS`] is refused.
pub fn compile_capacity(
    scenario: &Scenario,
    max_servers: u64,
) -> Result<CompiledCapacity, CompileError> {
    if max_servers > MAX_CAPACITY_SERVERS {
        return Err(CompileError::CapacityLimit {
            requested: max_servers,
            limit: MAX_CAPACITY_SERVERS,
        });
    }
    let (compiled, server_count) = compile_inner(scenario, Some(max_servers.max(1)))?;
    let server_count = server_count.expect("capacity mode allocates the server-count variable");
    Ok(CompiledCapacity { compiled, server_count })
}

/// Compiles a scenario. Validates the catalog, inventory references, and
/// preference order first.
pub fn compile(scenario: &Scenario) -> Result<Compiled, CompileError> {
    Ok(compile_inner(scenario, None)?.0)
}

fn compile_inner(
    scenario: &Scenario,
    capacity_mode: Option<u64>,
) -> Result<(Compiled, Option<netarch_logic::OrderInt>), CompileError> {
    let catalog_errors = scenario.catalog.validate();
    if !catalog_errors.is_empty() {
        return Err(CompileError::InvalidCatalog(catalog_errors));
    }
    // Preference-cycle check across all dimensions appearing in edges.
    let dims: BTreeSet<_> = scenario
        .catalog
        .order()
        .edges()
        .iter()
        .map(|e| e.dimension.clone())
        .collect();
    for dim in &dims {
        if let Some(witnesses) = scenario.catalog.order().find_cycle(dim, scenario) {
            return Err(CompileError::PreferenceCycle { witnesses });
        }
    }

    // Opt-in paranoia: under NETARCH_VERIFY_PROOFS every verdict the engine
    // produces is re-validated by the independent DRAT checker (and SAT
    // models re-evaluated), panicking on any discrepancy. Tests use this to
    // make a wrong diagnosis loud instead of silently wrong.
    let mut encoder = Encoder::with_config(netarch_logic::EncodeConfig {
        verify_proofs: netarch_logic::proofs_requested(),
        ..netarch_logic::EncodeConfig::default()
    });
    let server_count = capacity_mode
        .map(|max| netarch_logic::OrderInt::new(&mut encoder, 1, max.max(1)));
    let mut c = Compiler {
        scenario,
        encoder,
        groups: GroupedAssertions::new(),
        rules: Vec::new(),
        next_atom: 0,
        system_atoms: BTreeMap::new(),
        hardware_atoms: BTreeMap::new(),
        server_count,
    };
    c.allocate_atoms()?;
    c.compile_roles()?;
    c.compile_requirements()?;
    c.compile_conflicts();
    c.compile_workload_needs();
    c.compile_performance_bounds();
    c.compile_hardware_choice();
    c.compile_resources()?;
    c.compile_pins()?;
    c.compile_budget();
    let objective_levels = c.compile_objectives();

    let stats = CompileStats {
        rules: c.rules.len(),
        decision_atoms: c.system_atoms.len() + c.hardware_atoms.len(),
        clauses: c.encoder.clause_count(),
        solver_vars: c.encoder.solver().num_vars(),
        ..CompileStats::default()
    };
    Ok((
        Compiled {
            encoder: c.encoder,
            groups: c.groups,
            rules: c.rules,
            system_atoms: c.system_atoms,
            hardware_atoms: c.hardware_atoms,
            objective_levels,
            stats,
        },
        c.server_count,
    ))
}

impl<'a> Compiler<'a> {
    fn fresh_atom(&mut self) -> Atom {
        let a = Atom(self.next_atom);
        self.next_atom += 1;
        a
    }

    fn catalog(&self) -> &Catalog {
        &self.scenario.catalog
    }

    fn allocate_atoms(&mut self) -> Result<(), CompileError> {
        let ids: Vec<SystemId> = self.catalog().systems().map(|s| s.id.clone()).collect();
        for id in ids {
            let a = self.fresh_atom();
            self.system_atoms.insert(id, a);
        }
        let inv = &self.scenario.inventory;
        for (candidates, kind) in [
            (&inv.server_candidates, HardwareKind::Server),
            (&inv.nic_candidates, HardwareKind::Nic),
            (&inv.switch_candidates, HardwareKind::Switch),
        ] {
            for id in candidates {
                let spec = self
                    .catalog()
                    .hardware(id)
                    .ok_or_else(|| CompileError::UnknownHardware(id.clone()))?;
                if spec.kind != kind {
                    return Err(CompileError::WrongHardwareKind(id.clone()));
                }
                let a = self.fresh_atom();
                self.hardware_atoms.insert(id.clone(), a);
            }
        }
        Ok(())
    }

    fn system_formula(&self, id: &SystemId) -> Formula {
        match self.system_atoms.get(id) {
            Some(&a) => Formula::Atom(a),
            None => Formula::False,
        }
    }

    fn hardware_formula(&self, id: &HardwareId) -> Formula {
        match self.hardware_atoms.get(id) {
            Some(&a) => Formula::Atom(a),
            None => Formula::False,
        }
    }

    fn add_rule(
        &mut self,
        label: impl Into<String>,
        description: impl Into<String>,
        citation: Option<String>,
        formula: &Formula,
    ) -> GroupId {
        let label = label.into();
        let id = self.groups.add_group(&mut self.encoder, label.clone(), formula);
        self.rules.push(RuleMeta {
            label,
            description: description.into(),
            citation,
        });
        debug_assert_eq!(self.rules.len(), self.groups.len());
        id
    }

    /// Selection literals of hardware candidates of `kind` that carry
    /// `feature`.
    fn hardware_with_feature(&self, kind: HardwareKind, feature: &Feature) -> Vec<Formula> {
        let candidates = self.candidates_of_kind(kind);
        candidates
            .iter()
            .filter(|id| {
                self.catalog()
                    .hardware(id)
                    .is_some_and(|h| h.has_feature(feature))
            })
            .map(|id| self.hardware_formula(id))
            .collect()
    }

    fn candidates_of_kind(&self, kind: HardwareKind) -> &[HardwareId] {
        let inv = &self.scenario.inventory;
        match kind {
            HardwareKind::Server => &inv.server_candidates,
            HardwareKind::Nic => &inv.nic_candidates,
            HardwareKind::Switch => &inv.switch_candidates,
        }
    }

    /// Compiles a (statically pre-evaluated) condition into a formula over
    /// decision atoms.
    fn condition_formula(&self, condition: &Condition) -> Formula {
        match condition {
            Condition::True => Formula::True,
            Condition::False => Formula::False,
            Condition::SystemSelected(id) => self.system_formula(id),
            Condition::CategoryFilled(cat) => Formula::or(
                self.catalog()
                    .systems_in(cat)
                    .iter()
                    .map(|s| self.system_formula(&s.id)),
            ),
            Condition::NicFeature(f) => {
                Formula::or(self.hardware_with_feature(HardwareKind::Nic, f))
            }
            Condition::SwitchFeature(f) => {
                Formula::or(self.hardware_with_feature(HardwareKind::Switch, f))
            }
            Condition::ServerFeature(f) => {
                Formula::or(self.hardware_with_feature(HardwareKind::Server, f))
            }
            Condition::ProvidedFeature(f) => {
                let mut parts: Vec<Formula> = self
                    .catalog()
                    .systems()
                    .filter(|s| s.provides.contains(f))
                    .map(|s| self.system_formula(&s.id))
                    .collect();
                for kind in [HardwareKind::Server, HardwareKind::Nic, HardwareKind::Switch] {
                    parts.extend(self.hardware_with_feature(kind, f));
                }
                Formula::or(parts)
            }
            // Static conditions should have been folded; fold defensively.
            Condition::WorkloadProperty(_) | Condition::Param(..) => {
                match condition.partial_eval(self.scenario) {
                    Condition::True => Formula::True,
                    _ => Formula::False,
                }
            }
            Condition::Not(inner) => Formula::not(self.condition_formula(inner)),
            Condition::All(parts) => {
                Formula::and(parts.iter().map(|p| self.condition_formula(p)))
            }
            Condition::Any(parts) => {
                Formula::or(parts.iter().map(|p| self.condition_formula(p)))
            }
        }
    }

    /// Role coverage cardinality per category.
    fn compile_roles(&mut self) -> Result<(), CompileError> {
        let mut categories: BTreeSet<Category> = self
            .catalog()
            .systems()
            .map(|s| s.category.clone())
            .collect();
        categories.extend(self.scenario.roles.keys().cloned());
        for cat in categories {
            let members: Vec<Formula> = self
                .catalog()
                .systems_in(&cat)
                .iter()
                .map(|s| self.system_formula(&s.id))
                .collect();
            let rule = self.scenario.role_rule(&cat);
            match rule {
                RoleRule::Required => {
                    if members.is_empty() {
                        return Err(CompileError::EmptyRole(cat));
                    }
                    let f = Formula::exactly(1, members);
                    self.add_rule(
                        format!("role:{cat}"),
                        format!("exactly one {cat} system must be deployed"),
                        None,
                        &f,
                    );
                }
                RoleRule::Optional => {
                    if members.len() >= 2 {
                        let f = Formula::at_most(1, members);
                        self.add_rule(
                            format!("role:{cat}"),
                            format!("at most one {cat} system may be deployed"),
                            None,
                            &f,
                        );
                    }
                }
                RoleRule::Forbidden => {
                    if !members.is_empty() {
                        let f = Formula::and(members.into_iter().map(Formula::not));
                        self.add_rule(
                            format!("role:{cat}"),
                            format!("no {cat} system may be deployed"),
                            None,
                            &f,
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// `selected(s) → requirement-condition` per named requirement.
    fn compile_requirements(&mut self) -> Result<(), CompileError> {
        let specs: Vec<_> = self.catalog().systems().cloned().collect();
        for spec in specs {
            let sel = self.system_formula(&spec.id);
            for req in &spec.requires {
                let folded = req.condition.partial_eval(self.scenario);
                let body = self.condition_formula(&folded);
                let f = Formula::implies(sel.clone(), body);
                self.add_rule(
                    format!("req:{}:{}", spec.id, req.label),
                    format!("{} requires: {}", spec.name, req.condition),
                    req.citation.clone(),
                    &f,
                );
            }
        }
        Ok(())
    }

    /// Pairwise conflict clauses.
    fn compile_conflicts(&mut self) {
        let pairs: Vec<(SystemId, SystemId, String)> = self
            .catalog()
            .systems()
            .flat_map(|s| {
                s.conflicts
                    .iter()
                    .map(|other| (s.id.clone(), other.clone(), s.name.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut seen: BTreeSet<(SystemId, SystemId)> = BTreeSet::new();
        for (a, b, name) in pairs {
            let key = if a <= b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
            if !seen.insert(key) {
                continue;
            }
            let f = Formula::not(Formula::and([
                self.system_formula(&a),
                self.system_formula(&b),
            ]));
            self.add_rule(
                format!("conflict:{a}:{b}"),
                format!("{name} cannot coexist with {b}"),
                None,
                &f,
            );
        }
    }

    /// Every workload need must be solved by a selected system.
    fn compile_workload_needs(&mut self) {
        let needs: Vec<(String, Capability)> = self
            .scenario
            .workloads
            .iter()
            .flat_map(|w| {
                w.needs
                    .iter()
                    .map(|c| (w.id.as_str().to_string(), c.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (wid, cap) in needs {
            let providers: Vec<Formula> = self
                .catalog()
                .systems_solving(&cap)
                .iter()
                .map(|s| self.system_formula(&s.id))
                .collect();
            let f = Formula::or(providers);
            self.add_rule(
                format!("workload:{wid}:needs:{cap}"),
                format!("workload {wid} needs capability {cap}"),
                None,
                &f,
            );
        }
    }

    /// Listing 3 performance bounds: the selected system of the reference's
    /// category must be at least as good as the reference along the bound's
    /// dimension (statically resolvable edges only).
    fn compile_performance_bounds(&mut self) {
        let bounds: Vec<(String, crate::workload::PerformanceBound)> = self
            .scenario
            .workloads
            .iter()
            .flat_map(|w| {
                w.bounds
                    .iter()
                    .map(|b| (w.id.as_str().to_string(), b.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (wid, bound) in bounds {
            let Some(reference) = self.catalog().system(&bound.better_than) else {
                // Unknown reference: the bound is unsatisfiable knowledge —
                // surface as an impossible rule so diagnosis names it.
                self.add_rule(
                    format!("bound:{wid}:{}", bound.dimension),
                    format!(
                        "workload {wid} bound references unknown system {}",
                        bound.better_than
                    ),
                    None,
                    &Formula::False,
                );
                continue;
            };
            let category = reference.category.clone();
            let order = self.catalog().order();
            let acceptable: Vec<SystemId> = self
                .catalog()
                .systems_in(&category)
                .iter()
                .filter(|s| {
                    s.id == bound.better_than
                        || order
                            .dominated_by(&s.id, &bound.dimension, self.scenario)
                            .contains(&bound.better_than)
                        || order
                            .equal_to(&s.id, &bound.dimension, self.scenario)
                            .contains(&bound.better_than)
                })
                .map(|s| s.id.clone())
                .collect();
            let f = Formula::or(acceptable.iter().map(|id| self.system_formula(id)));
            self.add_rule(
                format!("bound:{wid}:{}", bound.dimension),
                format!(
                    "workload {wid} requires {} at least as good as {}",
                    bound.dimension, bound.better_than
                ),
                None,
                &f,
            );
        }
    }

    /// Exactly one hardware model per populated inventory slot.
    fn compile_hardware_choice(&mut self) {
        for kind in [HardwareKind::Server, HardwareKind::Nic, HardwareKind::Switch] {
            let candidates: Vec<HardwareId> = self.candidates_of_kind(kind).to_vec();
            if candidates.is_empty() {
                continue;
            }
            let members: Vec<Formula> =
                candidates.iter().map(|id| self.hardware_formula(id)).collect();
            let f = Formula::exactly(1, members);
            self.add_rule(
                format!("hw:{kind}"),
                format!("exactly one {kind} model must be chosen"),
                None,
                &f,
            );
        }
    }

    /// Resource contention: for each resource with demands, and each
    /// capacity-defining hardware candidate, a guarded PB constraint.
    fn compile_resources(&mut self) -> Result<(), CompileError> {
        // Gather demands: (resource → [(system, amount)]).
        let mut demands: BTreeMap<Resource, Vec<(SystemId, u64)>> = BTreeMap::new();
        let specs: Vec<_> = self.catalog().systems().cloned().collect();
        for spec in &specs {
            for d in &spec.resources {
                let amount = self.eval_amount(&spec.id, &d.amount)?;
                if amount > 0 {
                    demands
                        .entry(d.resource.clone())
                        .or_default()
                        .push((spec.id.clone(), amount));
                }
            }
        }
        let fixed_cores: u64 = self.scenario.workloads.iter().map(|w| w.peak_cores).sum();
        if fixed_cores > 0 {
            // Workload cores must be checked against server capacity even
            // when no *system* demands cores.
            demands.entry(Resource::Cores).or_default();
        }

        for (resource, sys_demands) in demands {
            let kind = governing_kind(&resource);
            let candidates: Vec<HardwareId> = self.candidates_of_kind(kind).to_vec();
            if candidates.is_empty() {
                // No inventory for this slot: the resource is unconstrained
                // in this scenario (document: pure-software questions skip
                // hardware modeling).
                continue;
            }
            let fixed = if resource == Resource::Cores { fixed_cores } else { 0 };
            if kind == HardwareKind::Server && self.server_count.is_some() {
                self.compile_variable_server_resource(&resource, &sys_demands, fixed)?;
                continue;
            }
            let terms: Vec<PbTerm> = sys_demands
                .iter()
                .map(|(id, amount)| {
                    let atom = self.system_atoms[id];
                    let lit = self.encoder.atom_lit(atom);
                    PbTerm::new(*amount, lit)
                })
                .collect();
            for model_id in candidates {
                let spec = self
                    .catalog()
                    .hardware(&model_id)
                    .expect("validated in allocate_atoms")
                    .clone();
                let capacity = spec.capacity(&resource)
                    * capacity_scale(&resource, &self.scenario.inventory);
                let selector = {
                    let atom = self.hardware_atoms[&model_id];
                    self.encoder.atom_lit(atom)
                };
                let label = format!("resource:{resource}:{model_id}");
                let description = format!(
                    "with {model_id}, {resource} demand must fit capacity {capacity}"
                );
                if capacity < fixed {
                    // The workloads alone exceed capacity: model unusable.
                    let f = Formula::not(Formula::Atom(self.hardware_atoms[&model_id]));
                    self.add_rule(label, description, None, &f);
                    continue;
                }
                let budget = capacity - fixed;
                let total: u64 = terms.iter().map(|t| t.weight).sum();
                if total <= budget {
                    continue; // never binding
                }
                // Guarded PB: selector ∧ group-selector → Σ ≤ budget.
                // Encode the GTE unconditionally, guard the bound clauses.
                let group_sel = self.encoder.new_selector();
                let node = gte_outputs(&mut self.encoder, &terms, budget);
                for &(s, l) in &node.outputs {
                    if s > budget {
                        let clause = [!group_sel, !selector, !l];
                        ClauseSink::add_clause(&mut self.encoder, &clause);
                    }
                }
                // Register as a group by hand (assert_under already done
                // via guarded clauses): reuse add_group with True to keep
                // selector bookkeeping uniform is not possible, so register
                // the selector directly.
                self.register_manual_group(group_sel, label, description, None);
            }
        }
        Ok(())
    }

    /// Capacity-planning variant of a server-scaled resource constraint:
    /// instead of checking demand against `num_servers × cap`, derive
    /// lower bounds on the variable server count — per model `m` with
    /// per-unit capacity `c`, if the selected systems' demand reaches `s`
    /// then `n ≥ ⌈(fixed + s) / c⌉`.
    fn compile_variable_server_resource(
        &mut self,
        resource: &Resource,
        sys_demands: &[(SystemId, u64)],
        fixed: u64,
    ) -> Result<(), CompileError> {
        let n = self.server_count.clone().expect("capacity mode");
        let max_n = n.hi();
        let candidates: Vec<HardwareId> =
            self.candidates_of_kind(HardwareKind::Server).to_vec();
        let terms: Vec<PbTerm> = sys_demands
            .iter()
            .map(|(id, amount)| {
                let atom = self.system_atoms[id];
                let lit = self.encoder.atom_lit(atom);
                PbTerm::new(*amount, lit)
            })
            .collect();
        let total: u64 = terms.iter().map(|t| t.weight).sum();
        // One shared demand totalizer per resource; per-model bound rules.
        let node = gte_outputs(&mut self.encoder, &terms, total);
        for model_id in candidates {
            let spec = self
                .catalog()
                .hardware(&model_id)
                .expect("validated in allocate_atoms")
                .clone();
            let per_unit = spec.capacity(resource);
            let selector = {
                let atom = self.hardware_atoms[&model_id];
                self.encoder.atom_lit(atom)
            };
            let group_sel = self.encoder.new_selector();
            let label = format!("capacity:{resource}:{model_id}");
            let description = format!(
                "server count must cover {resource} demand on {model_id} \
                 ({per_unit}/unit, fleet ≤ {max_n})"
            );
            if per_unit == 0 {
                if fixed > 0 || total > 0 {
                    // No fleet size helps: the model cannot host this.
                    let clause = [!group_sel, !selector];
                    ClauseSink::add_clause(&mut self.encoder, &clause);
                }
                self.register_manual_group(group_sel, label, description, None);
                continue;
            }
            let base_need = fixed.div_ceil(per_unit);
            match n.ge_const(base_need) {
                netarch_logic::Bound::AlwaysTrue => {}
                netarch_logic::Bound::AlwaysFalse => {
                    let clause = [!group_sel, !selector];
                    ClauseSink::add_clause(&mut self.encoder, &clause);
                }
                netarch_logic::Bound::Lit(q) => {
                    let clause = [!group_sel, !selector, q];
                    ClauseSink::add_clause(&mut self.encoder, &clause);
                }
            }
            for &(s, l) in &node.outputs {
                let need = (fixed + s).div_ceil(per_unit);
                match n.ge_const(need) {
                    netarch_logic::Bound::AlwaysTrue => {}
                    netarch_logic::Bound::AlwaysFalse => {
                        let clause = [!group_sel, !selector, !l];
                        ClauseSink::add_clause(&mut self.encoder, &clause);
                    }
                    netarch_logic::Bound::Lit(q) => {
                        let clause = [!group_sel, !selector, !l, q];
                        ClauseSink::add_clause(&mut self.encoder, &clause);
                    }
                }
            }
            self.register_manual_group(group_sel, label, description, None);
        }
        Ok(())
    }

    /// Registers a group whose clauses were already emitted under
    /// `selector`.
    fn register_manual_group(
        &mut self,
        selector: netarch_sat::Lit,
        label: String,
        description: String,
        citation: Option<String>,
    ) {
        self.groups.adopt_selector(selector, label.clone());
        self.rules.push(RuleMeta { label, description, citation });
        debug_assert_eq!(self.rules.len(), self.groups.len());
    }

    fn eval_amount(&self, system: &SystemId, amount: &AmountExpr) -> Result<u64, CompileError> {
        amount
            .eval(&|name| self.scenario.param_value(name))
            .map_err(|param| CompileError::MissingParam { system: system.clone(), param })
    }

    /// WhatIf pins.
    fn compile_pins(&mut self) -> Result<(), CompileError> {
        let pins = self.scenario.pins.clone();
        for pin in pins {
            match pin {
                Pin::Require(id) => {
                    if !self.system_atoms.contains_key(&id) {
                        return Err(CompileError::UnknownSystem(id));
                    }
                    let f = self.system_formula(&id);
                    self.add_rule(
                        format!("pin:require:{id}"),
                        format!("architect pinned {id} as already deployed"),
                        None,
                        &f,
                    );
                }
                Pin::Forbid(id) => {
                    if !self.system_atoms.contains_key(&id) {
                        return Err(CompileError::UnknownSystem(id));
                    }
                    let f = Formula::not(self.system_formula(&id));
                    self.add_rule(
                        format!("pin:forbid:{id}"),
                        format!("architect forbade {id}"),
                        None,
                        &f,
                    );
                }
            }
        }
        Ok(())
    }

    /// Total cost ≤ budget.
    fn compile_budget(&mut self) {
        let Some(budget) = self.scenario.budget_usd else {
            return;
        };
        let terms = self.cost_terms();
        let total: u64 = terms.iter().map(|t| t.weight).sum();
        if total <= budget {
            return;
        }
        let group_sel = self.encoder.new_selector();
        let node = gte_outputs(&mut self.encoder, &terms, budget);
        for &(s, l) in &node.outputs {
            if s > budget {
                let clause = [!group_sel, !l];
                ClauseSink::add_clause(&mut self.encoder, &clause);
            }
        }
        self.register_manual_group(
            group_sel,
            "budget".to_string(),
            format!("total cost must not exceed ${budget}"),
            None,
        );
    }

    /// `(decision atom, cost)` pairs over all priced decisions.
    fn cost_items(&self) -> Vec<(Atom, u64)> {
        let mut items = Vec::new();
        for spec in self.catalog().systems() {
            if spec.cost_usd > 0 {
                items.push((self.system_atoms[&spec.id], spec.cost_usd));
            }
        }
        let inv = &self.scenario.inventory;
        for (candidates, count) in [
            (&inv.server_candidates, inv.num_servers),
            (&inv.nic_candidates, inv.num_servers), // one NIC per server
            (&inv.switch_candidates, inv.num_switches),
        ] {
            for id in candidates {
                let unit = self.catalog().hardware(id).map_or(0, |h| h.cost_usd);
                let cost = unit.saturating_mul(count.max(1));
                if cost > 0 {
                    items.push((self.hardware_atoms[id], cost));
                }
            }
        }
        items
    }

    /// Weighted cost terms over all decisions.
    fn cost_terms(&mut self) -> Vec<PbTerm> {
        self.cost_items()
            .into_iter()
            .map(|(atom, cost)| {
                let lit = self.encoder.atom_lit(atom);
                PbTerm::new(cost, lit)
            })
            .collect()
    }

    /// The objective stack, compiled to soft-constraint levels.
    fn compile_objectives(&mut self) -> Vec<ObjectiveLevel> {
        let objectives = self.scenario.objectives.clone();
        objectives
            .into_iter()
            .map(|objective| {
                let softs = match &objective {
                    Objective::MaximizeDimension(dim) => self.dimension_softs(dim),
                    Objective::MinimizeCost => self.cost_softs(),
                    Objective::PreferCapability(cap) => {
                        let providers: Vec<Formula> = self
                            .catalog()
                            .systems_solving(cap)
                            .iter()
                            .map(|s| self.system_formula(&s.id))
                            .collect();
                        vec![Soft::new(1, Formula::or(providers))]
                    }
                };
                ObjectiveLevel { objective, softs }
            })
            .collect()
    }

    /// Scalarizes the preference order on one dimension: selecting a
    /// system is penalized by how many same-category systems dominate it
    /// in context; residual (dynamic) edges add conditional penalties.
    fn dimension_softs(&mut self, dim: &crate::types::Dimension) -> Vec<Soft> {
        let mut softs = Vec::new();
        let categories: BTreeSet<Category> = self
            .catalog()
            .systems()
            .map(|s| s.category.clone())
            .collect();
        for cat in categories {
            let members: Vec<SystemId> = self
                .catalog()
                .systems_in(&cat)
                .iter()
                .map(|s| s.id.clone())
                .collect();
            if members.len() < 2 {
                continue;
            }
            let ranks = self.catalog().order().ranks(&members, dim, self.scenario);
            let max_rank = ranks.values().copied().max().unwrap_or(0);
            for id in &members {
                let penalty = (max_rank - ranks[id]) as u64;
                if penalty > 0 {
                    softs.push(Soft::new(
                        penalty,
                        Formula::not(self.system_formula(id)),
                    ));
                }
            }
        }
        // Dynamic edges: penalize the worse side when the residual
        // condition holds in the model.
        let dynamic: Vec<(SystemId, Condition)> = self
            .catalog()
            .order()
            .dynamic_edges_on(dim, self.scenario)
            .into_iter()
            .filter(|(e, _)| e.kind == EdgeKind::Strict)
            .map(|(e, residual)| (e.worse.clone(), residual))
            .collect();
        for (worse, residual) in dynamic {
            let cond = self.condition_formula(&residual);
            softs.push(Soft::new(
                1,
                Formula::not(Formula::and([cond, self.system_formula(&worse)])),
            ));
        }
        softs
    }

    /// Cost minimization as soft constraints, normalized to keep the
    /// weighted totalizer small.
    fn cost_softs(&mut self) -> Vec<Soft> {
        let items = self.cost_items();
        if items.is_empty() {
            return Vec::new();
        }
        let gcd = items.iter().fold(0u64, |acc, &(_, w)| gcd(acc, w));
        let scale = gcd.max(1);
        // Keep total distinct-sum space bounded: further scale down when
        // the normalized total is enormous.
        let total: u64 = items.iter().map(|&(_, w)| w / scale).sum();
        let extra = (total / 2_000).max(1);
        items
            .into_iter()
            .map(|(atom, w)| {
                let weight = (w / scale / extra).max(1);
                Soft::new(weight, Formula::not(Formula::Atom(atom)))
            })
            .collect()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Which hardware slot defines the capacity of a resource.
fn governing_kind(resource: &Resource) -> HardwareKind {
    match resource {
        Resource::Cores | Resource::ServerMemoryGb | Resource::Custom(_) => HardwareKind::Server,
        Resource::SwitchMemoryMb | Resource::P4Stages | Resource::QosClasses => {
            HardwareKind::Switch
        }
        Resource::SmartNicCapacity => HardwareKind::Nic,
    }
}

/// How capacity scales with inventory counts: per-deployment resources
/// multiply by unit count; per-device resources (pipeline stages, QoS
/// classes, SmartNIC share) do not.
fn capacity_scale(resource: &Resource, inventory: &Inventory) -> u64 {
    match resource {
        Resource::Cores | Resource::ServerMemoryGb | Resource::Custom(_) => {
            inventory.num_servers.max(1)
        }
        Resource::SwitchMemoryMb => inventory.num_switches.max(1),
        Resource::P4Stages | Resource::QosClasses | Resource::SmartNicCapacity => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{HardwareSpec, SystemSpec};
    use crate::condition::CmpOp;
    use crate::scenario::Pin;
    use crate::types::Dimension;
    use crate::workload::Workload;

    fn one_system_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_system(SystemSpec::builder("X", Category::Monitoring).solves("m").build())
            .unwrap();
        c
    }

    #[test]
    fn unknown_hardware_in_inventory_rejected() {
        let scenario = Scenario::new(one_system_catalog()).with_inventory(
            crate::scenario::Inventory {
                nic_candidates: vec![HardwareId::new("GHOST_NIC")],
                ..Default::default()
            },
        );
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::UnknownHardware(id)) if id.as_str() == "GHOST_NIC"
        ));
    }

    #[test]
    fn wrong_kind_hardware_rejected() {
        let mut catalog = one_system_catalog();
        catalog
            .add_hardware(HardwareSpec::builder("SW", HardwareKind::Switch).build())
            .unwrap();
        let scenario = Scenario::new(catalog).with_inventory(crate::scenario::Inventory {
            nic_candidates: vec![HardwareId::new("SW")], // a switch in the NIC slot
            ..Default::default()
        });
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::WrongHardwareKind(id)) if id.as_str() == "SW"
        ));
    }

    #[test]
    fn empty_required_role_rejected() {
        let scenario = Scenario::new(one_system_catalog())
            .with_role(Category::Firewall, crate::scenario::RoleRule::Required);
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::EmptyRole(Category::Firewall))
        ));
    }

    #[test]
    fn missing_param_in_resource_amount_rejected() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("X", Category::Monitoring)
                    .consumes(Resource::Cores, AmountExpr::scaled("undefined_param", 1.0))
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog);
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::MissingParam { system, param })
                if system.as_str() == "X" && param.as_str() == "undefined_param"
        ));
    }

    #[test]
    fn preference_cycle_rejected() {
        let mut catalog = Catalog::new();
        for id in ["A", "B"] {
            catalog
                .add_system(SystemSpec::builder(id, Category::Transport).build())
                .unwrap();
        }
        catalog
            .add_ordering(crate::ordering::OrderingEdge::strict("A", "B", Dimension::Latency))
            .unwrap();
        catalog
            .add_ordering(crate::ordering::OrderingEdge::strict("B", "A", Dimension::Latency))
            .unwrap();
        let scenario = Scenario::new(catalog);
        assert!(matches!(compile(&scenario), Err(CompileError::PreferenceCycle { .. })));
    }

    #[test]
    fn conditional_preference_cycle_allowed_when_conditions_disjoint() {
        // A ≻ B at slow links, B ≻ A at fast links: fine in any one context.
        let mut catalog = Catalog::new();
        for id in ["A", "B"] {
            catalog
                .add_system(SystemSpec::builder(id, Category::Transport).build())
                .unwrap();
        }
        catalog
            .add_ordering(
                crate::ordering::OrderingEdge::strict("A", "B", Dimension::Latency)
                    .when(Condition::param("link_speed_gbps", CmpOp::Lt, 40.0)),
            )
            .unwrap();
        catalog
            .add_ordering(
                crate::ordering::OrderingEdge::strict("B", "A", Dimension::Latency)
                    .when(Condition::param("link_speed_gbps", CmpOp::Ge, 40.0)),
            )
            .unwrap();
        let scenario = Scenario::new(catalog).with_param("link_speed_gbps", 10.0);
        assert!(compile(&scenario).is_ok());
    }

    #[test]
    fn invalid_catalog_rejected_with_details() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("X", Category::Transport).conflicts_with("GHOST").build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog);
        match compile(&scenario) {
            Err(CompileError::InvalidCatalog(errors)) => assert_eq!(errors.len(), 1),
            Err(other) => panic!("expected InvalidCatalog, got {other:?}"),
            Ok(_) => panic!("expected InvalidCatalog, got a successful compile"),
        }
    }

    #[test]
    fn unknown_pin_rejected() {
        let scenario =
            Scenario::new(one_system_catalog()).with_pin(Pin::Require(SystemId::new("GHOST")));
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::UnknownSystem(id)) if id.as_str() == "GHOST"
        ));
    }

    #[test]
    fn compiled_formula_semantics_match_validator() {
        // Cross-check: a condition compiled to a Formula and evaluated on
        // a model must agree with baseline::eval_condition on the design
        // extracted from that model. Exercise each condition constructor.
        use crate::baseline::eval_condition;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("PROVIDER", Category::LoadBalancer)
                    .solves("lb")
                    .provides("EDGEY")
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("DEPENDENT", Category::Firewall)
                    .solves("fw")
                    .requires(
                        "dep-rule",
                        Condition::all([
                            Condition::ProvidedFeature(crate::types::Feature::new("EDGEY")),
                            Condition::nics_have("F1"),
                            Condition::not(Condition::system("FORBIDDEN")),
                        ]),
                    )
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(SystemSpec::builder("FORBIDDEN", Category::Transport).build())
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("N1", HardwareKind::Nic).feature("F1").build(),
            )
            .unwrap();
        catalog
            .add_hardware(HardwareSpec::builder("N2", HardwareKind::Nic).build())
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("w").needs("fw").build())
            .with_inventory(crate::scenario::Inventory {
                nic_candidates: vec![HardwareId::new("N1"), HardwareId::new("N2")],
                num_servers: 2,
                ..Default::default()
            });
        let mut engine = crate::query::Engine::new(scenario.clone()).unwrap();
        let outcome = engine.check().unwrap();
        let design = outcome.design().expect("feasible");
        // SAT said feasible; the independent evaluator must agree the
        // dependent's rule holds on the extracted design.
        let spec = scenario.catalog.system(&SystemId::new("DEPENDENT")).unwrap();
        assert!(eval_condition(&spec.requires[0].condition, &scenario, design));
        assert!(design.includes(&SystemId::new("PROVIDER")));
        assert!(!design.includes(&SystemId::new("FORBIDDEN")));
    }
}
