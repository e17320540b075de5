//! The query engine.
//!
//! [`Engine`] wraps a compiled scenario and answers the paper's query
//! repertoire (§5.1):
//!
//! * **check** — "does there exist a choice of systems such that the
//!   following properties and constraints are met?" (§3.4);
//! * **optimize** — lexicographic `Optimize(latency > Hardware cost >
//!   monitoring)` (Listing 3);
//! * **diagnose** — when infeasible, *which requirements are in conflict*
//!   (§6 Explainability), as a minimal set of named rules;
//! * **enumerate** — equivalence classes of compliant designs (§6);
//! * **compare** — rule-of-thumb comparison of two systems in context,
//!   reporting incomparability honestly (§3.1).
//!
//! The engine is an **incremental session**: the scenario is compiled to
//! SAT exactly once, and every query runs on that one solver under
//! assumptions. Anything a query would have asserted destructively —
//! MaxSAT objective circuits and optimum hardening, enumeration blocking
//! clauses — is gated behind a per-query activation literal that is
//! retired (permanently falsified) when the query returns, so the gated
//! clauses dissolve while learned clauses, branching scores, and saved
//! phases carry over to the next query. No query triggers a recompile.

use crate::compile::{compile, compile_capacity, Compiled, CompiledCapacity, CompileStats};
use crate::error::CompileError;
use crate::ordering::Comparison;
use crate::scenario::Scenario;
use crate::solution::Design;
use crate::types::{Dimension, SystemId};
use netarch_logic::maxsat::{minimize_under, MaxSatOutcome};
use netarch_logic::{Formula, Soft};
use netarch_sat::{Lit, SessionMark, SolveResult};

/// Retired activation literals tolerated before the session compacts its
/// clause database (dropping root-satisfied gated clauses).
const GC_EVERY: u32 = 8;

/// Capacity side-sessions kept warm at once. Each entry is a full compiled
/// engine for one fleet bound, so the cap bounds memory; four covers the
/// alternating-bound access patterns seen in practice (e.g. comparing a
/// couple of candidate fleet sizes back and forth).
const CAPACITY_CACHE_CAP: usize = 4;

/// A rule implicated in an infeasibility.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictRule {
    /// Stable rule label (e.g. `req:SIMON:simon-needs-nic-timestamps`).
    pub label: String,
    /// Human-readable statement of the rule.
    pub description: String,
    /// Literature citation, when recorded.
    pub citation: Option<String>,
}

/// Why a scenario is infeasible: a minimal set of mutually conflicting
/// rules. Dropping any single one restores feasibility.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Diagnosis {
    /// The conflicting rules.
    pub conflicts: Vec<ConflictRule>,
}

/// Result of a satisfiability query.
#[derive(Debug)]
pub enum Outcome {
    /// A compliant design exists.
    Feasible(Design),
    /// No compliant design; here is a minimal conflict.
    Infeasible(Diagnosis),
}

impl Outcome {
    /// The design, when feasible.
    pub fn design(&self) -> Option<&Design> {
        match self {
            Outcome::Feasible(d) => Some(d),
            Outcome::Infeasible(_) => None,
        }
    }

    /// The diagnosis, when infeasible.
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        match self {
            Outcome::Feasible(_) => None,
            Outcome::Infeasible(d) => Some(d),
        }
    }
}

/// Report for one optimization level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelReport {
    /// Human-readable objective description.
    pub objective: String,
    /// Total weight of preference rules this level had to violate.
    pub penalty: u64,
}

/// An optimized design with its per-level objective report.
#[derive(Clone, Debug)]
pub struct OptimizedDesign {
    /// The chosen design.
    pub design: Design,
    /// Objective achievement, most important level first.
    pub levels: Vec<LevelReport>,
}

/// Enumerated design classes, and whether the limit truncated the list.
type Classes = (Vec<Design>, bool);

/// The reasoning engine over one scenario: a persistent incremental
/// solving session shared by every query.
pub struct Engine {
    scenario: Scenario,
    compiled: Compiled,
    /// Memoized `optimize` verdict. The scenario is immutable for the
    /// engine's lifetime and queries are non-destructive, so the
    /// lexicographic optimum is a session constant: computed on the first
    /// call, replayed on every later one.
    optimize_cache: Option<Result<OptimizedDesign, Diagnosis>>,
    /// Memoized enumerations, keyed by `(limit, include_hardware)` — pure
    /// for the same reason `optimize` is — with whether the limit cut the
    /// class list short.
    enumerate_cache: Vec<((usize, bool), Classes)>,
    /// Capacity-mode side compilations, keyed by fleet bound in LRU order
    /// (most recent first, capped at [`CAPACITY_CACHE_CAP`]). Alternating
    /// bounds each keep their warm session; only a bound absent from the
    /// cache compiles (and counts as a recompile).
    capacity_cache: Vec<(u64, CompiledCapacity)>,
    /// Post-construction recompilations (see [`CompileStats::recompiles`]).
    recompiles: u64,
    /// Activation literals retired since the last garbage collection.
    retired_since_gc: u32,
}

impl Engine {
    /// Compiles a scenario into an engine.
    pub fn new(scenario: Scenario) -> Result<Engine, CompileError> {
        let compiled = compile(&scenario)?;
        Ok(Engine {
            scenario,
            compiled,
            optimize_cache: None,
            enumerate_cache: Vec::new(),
            capacity_cache: Vec::new(),
            recompiles: 0,
            retired_since_gc: 0,
        })
    }

    /// The scenario under analysis.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Compilation size metrics plus session-reuse counters. Solver-side
    /// counters aggregate over the main session solver and every cached
    /// capacity engine's solver (capacity probes are session solves too).
    /// The live sizes describe the main session solver as it stands now.
    pub fn stats(&self) -> CompileStats {
        let mut total = *self.compiled.encoder.solver().stats();
        for (_, cc) in &self.capacity_cache {
            total.absorb(cc.compiled.encoder.solver().stats());
        }
        let session = self.compiled.encoder.solver();
        CompileStats {
            live_vars: session.num_live_vars(),
            live_clauses: session.num_clauses(),
            decisions: total.decisions,
            propagations: total.propagations,
            recompiles: self.recompiles,
            session_solves: total.solves,
            retired_activations: total.retired_activations,
            conflicts: total.conflicts,
            learnt_clauses: total.learnt_clauses,
            chrono_backtracks: total.chrono_backtracks,
            ..self.compiled.stats
        }
    }

    /// Retires a query's activation literal, dissolving its gated clauses,
    /// and periodically compacts the clause database (retired clauses are
    /// root-satisfied garbage).
    fn end_query(&mut self, gate: Lit) {
        self.compiled.encoder.retire(gate);
        self.retired_since_gc += 1;
        if self.retired_since_gc >= GC_EVERY {
            self.compiled.encoder.collect_garbage();
            self.retired_since_gc = 0;
        }
    }

    /// Ends an `optimize` call. Its objective circuits are never needed
    /// again (the verdict is memoized), so once the gate is retired the
    /// clauses the call added are collected at once and every variable it
    /// allocated is released from the session solver.
    fn end_optimize(&mut self, gate: Lit, mark: SessionMark) {
        self.end_query(gate);
        self.compiled.encoder.release_since(mark);
    }

    fn extract_design(&self) -> Design {
        Design::from_model(
            &self.scenario,
            |id| {
                self.compiled
                    .system_atoms
                    .get(id)
                    .and_then(|&a| self.compiled.encoder.atom_value(a))
                    .unwrap_or(false)
            },
            |id| {
                self.compiled
                    .hardware_atoms
                    .get(id)
                    .and_then(|&a| self.compiled.encoder.atom_value(a))
                    .unwrap_or(false)
            },
        )
    }

    fn diagnosis_from_mus(&self, mus: &[netarch_logic::GroupId]) -> Diagnosis {
        diagnosis_from(&self.compiled, mus)
    }

    /// Satisfiability: find any compliant design, or a minimal conflict.
    pub fn check(&mut self) -> Result<Outcome, CompileError> {
        let selectors = self.compiled.all_selectors();
        match self.compiled.encoder.solve_with(&selectors) {
            SolveResult::Sat => Ok(Outcome::Feasible(self.extract_design())),
            SolveResult::Unsat | SolveResult::Unknown => {
                let ids = self.compiled.groups.ids();
                let mus = self
                    .compiled
                    .groups
                    .find_mus(&mut self.compiled.encoder, &ids)
                    .unwrap_or_default();
                Ok(Outcome::Infeasible(self.diagnosis_from_mus(&mus)))
            }
        }
    }

    /// Lexicographic optimization over the scenario's objective stack,
    /// with an implicit final parsimony level (prefer fewer systems) so
    /// unconstrained selections don't ride along.
    ///
    /// Runs entirely inside the session: every solve assumes the rule
    /// selectors plus one fresh activation literal, and each level's
    /// objective circuit (capped at that level's first-model cost) and
    /// optimum are encoded behind that literal, so later levels respect
    /// earlier optima. On return the literal is retired, the dissolved
    /// clauses are collected and the circuits' variables are released, so
    /// later queries run on the session as it was before `optimize`.
    /// Because no query mutates the scenario, the verdict is memoized:
    /// repeated `optimize` calls replay the first report without touching
    /// the solver. A mid-descent `HardUnsat` is impossible once the
    /// feasibility probe passed, so it surfaces as
    /// [`CompileError::Internal`] instead of being swallowed as an empty
    /// diagnosis.
    pub fn optimize(&mut self) -> Result<Result<OptimizedDesign, Diagnosis>, CompileError> {
        // The optimum is a session constant (nothing a query does survives
        // its gate), so replay it once computed.
        if let Some(cached) = &self.optimize_cache {
            return Ok(cached.clone());
        }
        // First check feasibility (with usable diagnosis).
        let base = self.compiled.all_selectors();
        if self.compiled.encoder.solve_with(&base) != SolveResult::Sat {
            let ids = self.compiled.groups.ids();
            let mus = self
                .compiled
                .groups
                .find_mus(&mut self.compiled.encoder, &ids)
                .unwrap_or_default();
            let diagnosis = self.diagnosis_from_mus(&mus);
            self.optimize_cache = Some(Err(diagnosis.clone()));
            return Ok(Err(diagnosis));
        }
        // Every level and the parsimony level share one gate: each level's
        // circuit and hardened optimum live behind it, and retiring it ends
        // them all.
        let mark = self.compiled.encoder.solver().mark();
        let gate = self.compiled.encoder.new_selector();
        let mut levels = Vec::new();
        for level in &self.compiled.objective_levels {
            let name = format!("{:?}", level.objective);
            match minimize_under(&mut self.compiled.encoder, &level.softs, &base, gate) {
                MaxSatOutcome::Optimal { cost, .. } => {
                    levels.push(LevelReport { objective: name, penalty: cost });
                }
                other => {
                    self.end_optimize(gate, mark);
                    return Err(internal_level_error(&name, &other));
                }
            }
        }
        // Parsimony: prefer designs without gratuitous selections.
        let parsimony: Vec<Soft> = self
            .compiled
            .system_atoms
            .values()
            .map(|&a| Soft::new(1, Formula::not(Formula::Atom(a))))
            .collect();
        match minimize_under(&mut self.compiled.encoder, &parsimony, &base, gate) {
            MaxSatOutcome::Optimal { .. } => {}
            other => {
                self.end_optimize(gate, mark);
                return Err(internal_level_error("parsimony", &other));
            }
        }
        let design = self.extract_design();
        self.end_optimize(gate, mark);
        let report = OptimizedDesign { design, levels };
        self.optimize_cache = Some(Ok(report.clone()));
        Ok(Ok(report))
    }

    /// Enumerates up to `limit` compliant designs, projected onto system
    /// selections (and hardware choices when `include_hardware`). Each
    /// returned design is a distinct equivalence class under the chosen
    /// projection (§6), extracted from a *representative full model* — so
    /// even system-projected classes come back with a concrete,
    /// constraint-satisfying hardware assignment. Enumeration runs on the
    /// session solver with gate-dissolved blocking clauses, so it never
    /// recompiles and later queries see the full model space again; like
    /// `optimize`, a repeated query with the same `limit` and projection
    /// replays the memoized classes.
    pub fn enumerate_designs(
        &mut self,
        limit: usize,
        include_hardware: bool,
    ) -> Result<Vec<Design>, CompileError> {
        Ok(self.enumerate_classes(limit, include_hardware)?.0)
    }

    /// [`Engine::enumerate_designs`], plus whether the limit truncated the
    /// class list: once `limit` classes are found, one more solve under
    /// the same gate asks for another, and only a proof that none exists
    /// (UNSAT) reports the list as exhaustive. An inconclusive solve counts
    /// as truncation, as in `netarch_sat::enumerate::enumerate_projected`.
    /// A zero limit examines nothing and reports truncation.
    fn enumerate_classes(
        &mut self,
        limit: usize,
        include_hardware: bool,
    ) -> Result<Classes, CompileError> {
        if limit == 0 {
            return Ok((Vec::new(), true));
        }
        if let Some((_, cached)) = self
            .enumerate_cache
            .iter()
            .find(|(key, _)| *key == (limit, include_hardware))
        {
            return Ok(cached.clone());
        }
        let atoms = self.compiled.decision_atoms(include_hardware);
        // Session enumeration: every blocking clause is gated behind a
        // per-query activation literal, so retiring it afterwards hands
        // the unblocked model space back to the next query.
        let mut assumptions = self.compiled.all_selectors();
        let gate = self.compiled.encoder.new_selector();
        assumptions.push(gate);
        let atom_lits: Vec<Lit> = atoms
            .iter()
            .map(|&a| self.compiled.encoder.atom_lit(a))
            .collect();
        let mut designs = Vec::new();
        let truncated = loop {
            match self.compiled.encoder.solve_with(&assumptions) {
                SolveResult::Sat if designs.len() == limit => break true,
                SolveResult::Sat => {}
                SolveResult::Unsat => break false,
                SolveResult::Unknown => break true,
            }
            // Extract the design from the full model, then block this
            // *projected* assignment so the next model is a new
            // equivalence class.
            designs.push(self.extract_design());
            let mut blocking: Vec<Lit> = Vec::with_capacity(atom_lits.len() + 1);
            blocking.push(!gate);
            blocking.extend(atoms.iter().zip(&atom_lits).map(|(&a, &lit)| {
                if self.compiled.encoder.atom_value(a).unwrap_or(false) {
                    !lit
                } else {
                    lit
                }
            }));
            netarch_logic::ClauseSink::add_clause(&mut self.compiled.encoder, &blocking);
        };
        self.end_query(gate);
        self.enumerate_cache
            .push(((limit, include_hardware), (designs.clone(), truncated)));
        Ok((designs, truncated))
    }

    /// Solves with only the named rule groups active (all other compiled
    /// rules are suspended). Primarily for verifying diagnoses: a minimal
    /// conflict is UNSAT as a subset, and SAT once any member is dropped.
    pub fn check_rule_subset(&mut self, labels: &[&str]) -> Result<bool, CompileError> {
        let ids = self.compiled.groups.ids();
        let selectors: Vec<netarch_sat::Lit> = ids
            .into_iter()
            .filter(|&g| labels.contains(&self.compiled.rule(g).label.as_str()))
            .map(|g| self.compiled.groups.selector(g))
            .collect();
        Ok(self.compiled.encoder.solve_with(&selectors) == SolveResult::Sat)
    }

    /// Plans a minimal sequence of role-level questions that would make
    /// the compliant design unique (§6's "minimal-effort ordering for the
    /// architect to provide"). Examines up to `limit` equivalence classes.
    pub fn disambiguate(
        &mut self,
        limit: usize,
    ) -> Result<crate::disambiguate::Disambiguation, CompileError> {
        let (designs, truncated) = self.enumerate_classes(limit, false)?;
        Ok(crate::disambiguate::plan_questions(&designs, truncated))
    }

    /// Rule-of-thumb comparison of two systems along a dimension, in this
    /// scenario's static context.
    pub fn compare(&self, a: &SystemId, b: &SystemId, dimension: &Dimension) -> Comparison {
        self.scenario
            .catalog
            .order()
            .compare(a, b, dimension, &self.scenario)
    }

    /// Should the architect run a measurement comparing `a` and `b` on
    /// `dimension`? The paper's §3.1 answer: "it is only needed if the
    /// answer changes the final design."
    ///
    /// The engine hypothesizes each outcome (an `a ≻ b` edge, then a
    /// `b ≻ a` edge, added via a modular [`crate::catalog::CatalogDelta`])
    /// and optimizes under both. Measuring is worthwhile exactly when the
    /// two hypothetical optima differ. This also captures §3.1's deadline
    /// example: if one of the systems is undeployable anyway (e.g. a
    /// research prototype under a production-only constraint), the optima
    /// coincide and the measurement is declared pointless.
    pub fn advise_measurement(
        &self,
        a: &SystemId,
        b: &SystemId,
        dimension: &Dimension,
    ) -> Result<MeasurementAdvice, CompileError> {
        let known = self.compare(a, b, dimension);
        if known != Comparison::Incomparable {
            return Ok(MeasurementAdvice {
                worthwhile: false,
                reason: format!(
                    "the knowledge base already orders {a} vs {b} on {dimension}: {known:?}"
                ),
                design_if_first_better: None,
                design_if_second_better: None,
            });
        }
        let hypothesize = |better: &SystemId, worse: &SystemId| -> Result<
            Option<Design>,
            CompileError,
        > {
            let mut scenario = self.scenario.clone();
            scenario
                .catalog
                .apply(crate::catalog::CatalogDelta {
                    add_orderings: vec![crate::ordering::OrderingEdge::strict(
                        better.clone(),
                        worse.clone(),
                        dimension.clone(),
                    )],
                    ..crate::catalog::CatalogDelta::default()
                })
                .map_err(|_| CompileError::UnknownSystem(better.clone()))?;
            let mut engine = Engine::new(scenario)?;
            Ok(engine.optimize()?.ok().map(|r| r.design))
        };
        let with_a = hypothesize(a, b)?;
        let with_b = hypothesize(b, a)?;
        let worthwhile = match (&with_a, &with_b) {
            (Some(da), Some(db)) => da.selections != db.selections || da.hardware != db.hardware,
            (None, None) => false,
            _ => true, // one direction breaks feasibility: very informative
        };
        let reason = if worthwhile {
            format!("the optimal design changes with the {a} vs {b} verdict — measure it")
        } else if with_a.is_none() {
            "the scenario is infeasible regardless of the verdict".to_string()
        } else {
            format!(
                "the optimal design is the same under either verdict — \
                 measuring {a} vs {b} cannot change the outcome"
            )
        };
        Ok(MeasurementAdvice {
            worthwhile,
            reason,
            design_if_first_better: with_a,
            design_if_second_better: with_b,
        })
    }

    /// Capacity planning: the smallest server fleet (up to `max_servers`)
    /// that carries the workloads and a compliant system selection.
    ///
    /// The server count becomes an order-encoded solver variable; the
    /// returned design is extracted at the optimal fleet size (costs and
    /// resource accounting use that size). Budget constraints, when set,
    /// are priced at the scenario's fixed `num_servers` — the query
    /// answers *size*, with cost reported afterwards.
    pub fn plan_capacity(
        &mut self,
        max_servers: u64,
    ) -> Result<Result<CapacityPlan, Diagnosis>, CompileError> {
        // The capacity query itself is purely assumption-based, so its
        // side compilation is a reusable session too — kept in a small LRU
        // keyed by fleet bound, so alternating bounds (64 → 32 → 64 → …)
        // each hit their warm session instead of recompiling every call.
        if let Some(pos) = self
            .capacity_cache
            .iter()
            .position(|(m, _)| *m == max_servers)
        {
            let entry = self.capacity_cache.remove(pos);
            self.capacity_cache.insert(0, entry);
        } else {
            let cc = compile_capacity(&self.scenario, max_servers)?;
            if !self.capacity_cache.is_empty() {
                self.recompiles += 1;
            }
            self.capacity_cache.insert(0, (max_servers, cc));
            self.capacity_cache.truncate(CAPACITY_CACHE_CAP);
        }
        let (_, cc) = self.capacity_cache.first_mut().expect("ensured above");
        let compiled = &mut cc.compiled;
        let n = &cc.server_count;
        let selectors = compiled.all_selectors();
        if compiled.encoder.solve_with(&selectors) != SolveResult::Sat {
            let ids = compiled.groups.ids();
            let mus = compiled
                .groups
                .find_mus(&mut compiled.encoder, &ids)
                .unwrap_or_default();
            return Ok(Err(diagnosis_from(compiled, &mus)));
        }
        let read_n = |compiled: &Compiled, n: &netarch_logic::OrderInt| {
            n.value(&|l| compiled.encoder.model_lit_value(l))
        };
        let mut best = read_n(compiled, n);
        let mut lo = n.lo();
        while lo < best {
            let mid = lo + (best - lo) / 2;
            let mut assumptions = selectors.clone();
            match n.ge_const(mid + 1) {
                netarch_logic::Bound::Lit(q) => assumptions.push(!q),
                netarch_logic::Bound::AlwaysFalse => {}
                netarch_logic::Bound::AlwaysTrue => break,
            }
            match compiled.encoder.solve_with(&assumptions) {
                SolveResult::Sat => best = read_n(compiled, n).min(mid),
                SolveResult::Unsat | SolveResult::Unknown => lo = mid + 1,
            }
        }
        // Restore a model at the optimum.
        let mut assumptions = selectors.clone();
        if let netarch_logic::Bound::Lit(q) = n.ge_const(best + 1) {
            assumptions.push(!q);
        }
        let restored = compiled.encoder.solve_with(&assumptions);
        debug_assert_eq!(restored, SolveResult::Sat);
        // Extract the design against a scenario sized at the optimum.
        let mut sized = self.scenario.clone();
        sized.inventory.num_servers = best;
        let design = Design::from_model(
            &sized,
            |id| {
                compiled
                    .system_atoms
                    .get(id)
                    .and_then(|&a| compiled.encoder.atom_value(a))
                    .unwrap_or(false)
            },
            |id| {
                compiled
                    .hardware_atoms
                    .get(id)
                    .and_then(|&a| compiled.encoder.atom_value(a))
                    .unwrap_or(false)
            },
        );
        Ok(Ok(CapacityPlan { servers_needed: best, design }))
    }
}

/// Result of [`Engine::advise_measurement`] — §3.1's "should I measure?"
#[derive(Clone, Debug)]
pub struct MeasurementAdvice {
    /// True when the measurement's outcome would change the design.
    pub worthwhile: bool,
    /// Human-readable justification.
    pub reason: String,
    /// The optimal design if the first system measures better (None when
    /// infeasible either way).
    pub design_if_first_better: Option<Design>,
    /// The optimal design if the second system measures better.
    pub design_if_second_better: Option<Design>,
}

/// Result of [`Engine::plan_capacity`].
#[derive(Clone, Debug)]
pub struct CapacityPlan {
    /// The minimal fleet size.
    pub servers_needed: u64,
    /// A compliant design at that fleet size.
    pub design: Design,
}

/// Maps an impossible mid-optimization MaxSAT outcome to a typed error.
/// `optimize` establishes feasibility before descending and activation
/// gating never removes models from the base theory, so a hard-UNSAT
/// level can only mean an engine bug — report it as such instead of
/// swallowing it as an empty diagnosis.
fn internal_level_error(level: &str, outcome: &MaxSatOutcome) -> CompileError {
    match outcome {
        MaxSatOutcome::WeightOverflow => CompileError::ObjectiveOverflow,
        _ => CompileError::Internal(format!(
            "objective level {level} became infeasible after the feasibility probe"
        )),
    }
}

fn diagnosis_from(compiled: &Compiled, mus: &[netarch_logic::GroupId]) -> Diagnosis {
    Diagnosis {
        conflicts: mus
            .iter()
            .map(|&g| {
                let meta = compiled.rule(g);
                ConflictRule {
                    label: meta.label.clone(),
                    description: meta.description.clone(),
                    citation: meta.citation.clone(),
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::component::{HardwareSpec, SystemSpec};
    use crate::condition::Condition;
    use crate::ordering::OrderingEdge;
    use crate::scenario::{Inventory, Objective, Pin, RoleRule};
    use crate::types::{Category, HardwareId, HardwareKind};
    use crate::workload::Workload;

    /// A small but complete scenario: two monitoring systems (one needs a
    /// NIC feature), two NIC models, one load balancer.
    fn test_scenario() -> Scenario {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("SIMON", Category::Monitoring)
                    .solves("detect_queue_length")
                    .requires("needs-nic-timestamps", Condition::nics_have("NIC_TIMESTAMPS"))
                    .cost(400)
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("PINGMESH", Category::Monitoring)
                    .solves("detect_queue_length")
                    .cost(100)
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("ECMP", Category::LoadBalancer)
                    .solves("load_balancing")
                    .build(),
            )
            .unwrap();
        catalog
            .add_ordering(OrderingEdge::strict(
                "SIMON",
                "PINGMESH",
                Dimension::MonitoringQuality,
            ))
            .unwrap();
        catalog
            .add_ordering(OrderingEdge::strict(
                "PINGMESH",
                "SIMON",
                Dimension::DeploymentEase,
            ))
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("NIC_TS", HardwareKind::Nic)
                    .feature("NIC_TIMESTAMPS")
                    .cost(900)
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("NIC_PLAIN", HardwareKind::Nic).cost(300).build(),
            )
            .unwrap();
        Scenario::new(catalog)
            .with_workload(
                Workload::builder("app").needs("detect_queue_length").build(),
            )
            .with_role(Category::Monitoring, RoleRule::Required)
            .with_inventory(Inventory {
                nic_candidates: vec![HardwareId::new("NIC_TS"), HardwareId::new("NIC_PLAIN")],
                num_servers: 4,
                ..Inventory::default()
            })
    }

    #[test]
    fn check_finds_a_compliant_design() {
        let mut engine = Engine::new(test_scenario()).unwrap();
        let outcome = engine.check().unwrap();
        let design = outcome.design().expect("feasible");
        // Some monitoring system selected, and if it is SIMON the NIC must
        // be the timestamping model.
        let monitoring = design.selection(&Category::Monitoring).expect("one monitor");
        if monitoring.as_str() == "SIMON" {
            assert_eq!(
                design.hardware_for(HardwareKind::Nic).unwrap().as_str(),
                "NIC_TS"
            );
        }
    }

    #[test]
    fn pin_forces_nic_upgrade() {
        let scenario = test_scenario().with_pin(Pin::Require(SystemId::new("SIMON")));
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        let design = outcome.design().expect("feasible");
        assert!(design.includes(&SystemId::new("SIMON")));
        assert_eq!(design.hardware_for(HardwareKind::Nic).unwrap().as_str(), "NIC_TS");
    }

    #[test]
    fn contradictory_pins_yield_named_diagnosis() {
        let scenario = test_scenario()
            .with_pin(Pin::Require(SystemId::new("SIMON")))
            .with_pin(Pin::Forbid(SystemId::new("SIMON")));
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        let diagnosis = outcome.diagnosis().expect("infeasible");
        let labels: Vec<&str> = diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"pin:require:SIMON"));
        assert!(labels.contains(&"pin:forbid:SIMON"));
        // Minimal: exactly the two pins, not the innocent rules.
        assert_eq!(diagnosis.conflicts.len(), 2);
    }

    #[test]
    fn requirement_conflict_names_the_requirement() {
        // Forbid the only NIC with timestamps, require SIMON.
        let mut scenario = test_scenario().with_pin(Pin::Require(SystemId::new("SIMON")));
        scenario.inventory.nic_candidates = vec![HardwareId::new("NIC_PLAIN")];
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        let diagnosis = outcome.diagnosis().expect("infeasible");
        let labels: Vec<&str> = diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
        assert!(
            labels.contains(&"req:SIMON:needs-nic-timestamps"),
            "diagnosis should name the NIC-timestamp rule, got {labels:?}"
        );
    }

    #[test]
    fn optimize_monitoring_quality_picks_simon() {
        let scenario = test_scenario()
            .with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality));
        let mut engine = Engine::new(scenario).unwrap();
        let result = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            result.design.selection(&Category::Monitoring).unwrap().as_str(),
            "SIMON"
        );
        assert_eq!(result.levels[0].penalty, 0);
    }

    #[test]
    fn optimize_cost_picks_pingmesh_and_cheap_nic() {
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(scenario).unwrap();
        let result = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            result.design.selection(&Category::Monitoring).unwrap().as_str(),
            "PINGMESH"
        );
        assert_eq!(
            result.design.hardware_for(HardwareKind::Nic).unwrap().as_str(),
            "NIC_PLAIN"
        );
    }

    #[test]
    fn lexicographic_order_matters() {
        // Quality first: SIMON + expensive NIC. Cost first: PINGMESH.
        let quality_first = test_scenario()
            .with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality))
            .with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(quality_first).unwrap();
        let r1 = engine.optimize().unwrap().expect("feasible");
        assert_eq!(r1.design.selection(&Category::Monitoring).unwrap().as_str(), "SIMON");

        let cost_first = test_scenario()
            .with_objective(Objective::MinimizeCost)
            .with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality));
        let mut engine = Engine::new(cost_first).unwrap();
        let r2 = engine.optimize().unwrap().expect("feasible");
        assert_eq!(r2.design.selection(&Category::Monitoring).unwrap().as_str(), "PINGMESH");
    }

    #[test]
    fn engine_recovers_after_optimize() {
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(scenario).unwrap();
        let _ = engine.optimize().unwrap();
        // The optimize gate is retired on return, so the session answers
        // later queries over the full model space.
        let outcome = engine.check().unwrap();
        assert!(outcome.design().is_some());
        let again = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            again.design.selection(&Category::Monitoring).unwrap().as_str(),
            "PINGMESH"
        );
    }

    #[test]
    fn enumerate_designs_lists_equivalence_classes() {
        let mut scenario = test_scenario();
        scenario.roles.insert(Category::LoadBalancer, RoleRule::Forbidden);
        let mut engine = Engine::new(scenario).unwrap();
        // Projected on systems only: SIMON or PINGMESH (ECMP forbidden).
        let designs = engine.enumerate_designs(16, false).unwrap();
        assert_eq!(designs.len(), 2, "{designs:?}");
        // Projected on systems + hardware: PINGMESH pairs with both NICs,
        // SIMON only with NIC_TS → 3 classes.
        let designs = engine.enumerate_designs(16, true).unwrap();
        assert_eq!(designs.len(), 3, "{designs:?}");
    }

    #[test]
    fn disambiguate_reports_truncation_only_when_classes_remain() {
        let mut engine = Engine::new(test_scenario()).unwrap();
        let all = engine.enumerate_designs(16, false).unwrap().len();
        assert!(all > 1, "the scenario needs several classes");
        // A limit equal to the class count exhausts the space: the plan
        // covers every class and is not a lower bound.
        let exact = engine.disambiguate(all).unwrap();
        assert_eq!(exact.classes, all);
        assert!(!exact.truncated, "{all} of {all} classes reported as truncated");
        let short = engine.disambiguate(all - 1).unwrap();
        assert_eq!(short.classes, all - 1);
        assert!(short.truncated);
    }

    #[test]
    fn compare_exposes_order_and_incomparability() {
        let engine = Engine::new(test_scenario()).unwrap();
        assert_eq!(
            engine.compare(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::MonitoringQuality
            ),
            Comparison::Better
        );
        assert_eq!(
            engine.compare(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::DeploymentEase
            ),
            Comparison::Worse
        );
        assert_eq!(
            engine.compare(
                &SystemId::new("SIMON"),
                &SystemId::new("ECMP"),
                &Dimension::Throughput
            ),
            Comparison::Incomparable
        );
    }

    #[test]
    fn measurement_advice_depends_on_decision_relevance() {
        // Two monitoring systems, incomparable on quality; the objective
        // maximizes quality → the verdict decides the design → measure.
        let scenario = {
            let mut s = test_scenario();
            // Remove the existing SIMON ≻ PINGMESH quality edge by
            // rebuilding the catalog without orderings.
            let mut catalog = Catalog::new();
            for spec in s.catalog.systems() {
                catalog.add_system(spec.clone()).unwrap();
            }
            for h in s.catalog.hardware_specs() {
                catalog.add_hardware(h.clone()).unwrap();
            }
            s.catalog = catalog;
            s.with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality))
        };
        let engine = Engine::new(scenario.clone()).unwrap();
        let advice = engine
            .advise_measurement(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::MonitoringQuality,
            )
            .unwrap();
        assert!(advice.worthwhile, "{}", advice.reason);
        let da = advice.design_if_first_better.unwrap();
        let db = advice.design_if_second_better.unwrap();
        assert!(da.includes(&SystemId::new("SIMON")));
        assert!(db.includes(&SystemId::new("PINGMESH")));
    }

    #[test]
    fn measurement_not_worthwhile_when_already_ordered() {
        let engine = Engine::new(test_scenario()).unwrap();
        let advice = engine
            .advise_measurement(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::MonitoringQuality,
            )
            .unwrap();
        assert!(!advice.worthwhile);
        assert!(advice.reason.contains("already orders"));
    }

    #[test]
    fn measurement_not_worthwhile_on_irrelevant_dimension() {
        // Objectives ignore DeploymentEase and no edge exists on it for
        // ECMP vs PINGMESH (different categories anyway): the design
        // cannot change.
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let engine = Engine::new(scenario).unwrap();
        let advice = engine
            .advise_measurement(
                &SystemId::new("ECMP"),
                &SystemId::new("PINGMESH"),
                &Dimension::Throughput,
            )
            .unwrap();
        assert!(!advice.worthwhile, "{}", advice.reason);
        assert!(advice.reason.contains("same under either verdict"));
    }

    #[test]
    fn plan_capacity_sizes_the_fleet() {
        use crate::condition::AmountExpr;
        use crate::types::Resource;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("MONITOR", Category::Monitoring)
                    .solves("monitoring")
                    .consumes(Resource::Cores, AmountExpr::constant(40))
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV32", HardwareKind::Server)
                    .numeric("cores", 32.0)
                    .cost(5_000)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(
                Workload::builder("app").needs("monitoring").peak_cores(200).build(),
            )
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV32")],
                num_servers: 1, // irrelevant: capacity mode varies it
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        let plan = engine.plan_capacity(64).unwrap().expect("feasible");
        // 200 workload + 40 system = 240 cores; 32/server → 8 servers.
        assert_eq!(plan.servers_needed, 8);
        assert!(plan.design.includes(&SystemId::new("MONITOR")));
        let cores = &plan.design.resources[&Resource::Cores];
        assert_eq!(cores.used, 240);
        assert_eq!(cores.capacity, Some(256));
    }

    #[test]
    fn plan_capacity_reports_impossible_fleets() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(SystemSpec::builder("X", Category::Monitoring).solves("m").build())
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("TINY", HardwareKind::Server)
                    .numeric("cores", 2.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("m").peak_cores(1000).build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("TINY")],
                num_servers: 1,
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        // 1000 cores need 500 tiny servers; cap the fleet at 100 → infeasible.
        let result = engine.plan_capacity(100).unwrap();
        let diagnosis = result.unwrap_err();
        assert!(diagnosis
            .conflicts
            .iter()
            .any(|c| c.label.starts_with("capacity:cores:")));
        // With a big enough cap it works.
        let plan = engine.plan_capacity(600).unwrap().expect("feasible");
        assert_eq!(plan.servers_needed, 500);
    }

    #[test]
    fn plan_capacity_refuses_bounds_above_the_ceiling() {
        use crate::compile::MAX_CAPACITY_SERVERS;
        let mut engine = Engine::new(test_scenario()).unwrap();
        for max in [MAX_CAPACITY_SERVERS + 1, 1 << 32, u64::MAX] {
            match engine.plan_capacity(max) {
                Err(CompileError::CapacityLimit { requested, limit }) => {
                    assert_eq!((requested, limit), (max, MAX_CAPACITY_SERVERS));
                }
                other => panic!("max_servers {max} must be refused, got {other:?}"),
            }
        }
        // A refused bound is not a recompile and leaves no side session
        // behind; the engine still answers bounds within the ceiling.
        assert!(engine.plan_capacity(64).is_ok());
        assert!(engine.plan_capacity(u64::MAX).is_err());
        assert_eq!(engine.stats().recompiles, 0);
    }

    #[test]
    fn workload_cores_checked_even_without_system_demands() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(SystemSpec::builder("X", Category::Monitoring).solves("m").build())
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV8", HardwareKind::Server)
                    .numeric("cores", 8.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("m").peak_cores(100).build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV8")],
                num_servers: 2, // 16 cores < 100 required
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        assert!(
            outcome.diagnosis().is_some(),
            "engine must reject a fleet too small for the workload alone"
        );
    }

    #[test]
    fn stats_reflect_compilation() {
        let engine = Engine::new(test_scenario()).unwrap();
        let stats = engine.stats();
        assert!(stats.rules >= 4); // roles, requirement, workload need, hw choice
        assert_eq!(stats.decision_atoms, 5); // 3 systems + 2 NICs
        assert!(stats.clauses > 0);
        assert!(stats.solver_vars >= stats.decision_atoms);
        assert_eq!(stats.recompiles, 0);
        assert_eq!(stats.session_solves, 0); // no query ran yet
    }

    #[test]
    fn session_answers_interleaved_queries_without_recompiling() {
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(scenario).unwrap();
        assert!(engine.check().unwrap().design().is_some());
        let opt1 = engine.optimize().unwrap().expect("feasible");
        let classes = engine.enumerate_designs(16, false).unwrap();
        assert!(classes.len() >= 2, "{classes:?}");
        assert!(engine.check().unwrap().design().is_some());
        // The optimum is stable across the interleaving: the enumeration
        // gate was retired, so no blocking clause constrains this solve.
        let opt2 = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            opt1.design.selections, opt2.design.selections,
            "interleaved queries perturbed the optimize answer"
        );
        let stats = engine.stats();
        assert_eq!(stats.recompiles, 0, "session must never recompile");
        assert!(stats.session_solves > 0);
        // 1 optimize + 1 enumerate; the second optimize is memoized.
        assert!(stats.retired_activations >= 2);
    }

    #[test]
    fn unsat_subset_query_leaves_no_stale_model() {
        // Regression: the solver used to keep the last SAT model visible
        // after an UNSAT solve, so a hypothetical extraction resurrected a
        // stale design. SAT probe first (model populated), contradictory
        // subset next (UNSAT), then extraction must see no assignment.
        let scenario = test_scenario()
            .with_pin(Pin::Require(SystemId::new("SIMON")))
            .with_pin(Pin::Forbid(SystemId::new("SIMON")));
        let mut engine = Engine::new(scenario).unwrap();
        assert!(engine.check_rule_subset(&["pin:require:SIMON"]).unwrap());
        assert!(!engine
            .check_rule_subset(&["pin:require:SIMON", "pin:forbid:SIMON"])
            .unwrap());
        let design = engine.extract_design();
        assert!(
            design.systems().is_empty() && design.hardware.is_empty(),
            "stale model leaked through an UNSAT solve: {design:?}"
        );
    }

    #[test]
    fn enumerate_zero_limit_short_circuits() {
        let mut engine = Engine::new(test_scenario()).unwrap();
        let designs = engine.enumerate_designs(0, true).unwrap();
        assert!(designs.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.recompiles, 0);
        assert_eq!(stats.session_solves, 0, "limit 0 must not touch the solver");
    }

    #[test]
    fn repeated_optimize_and_enumerate_replay_memoized_answers() {
        // Queries are pure within a session (the scenario never changes and
        // every gate is retired), so identical repeats must not re-solve.
        let mut engine = Engine::new(test_scenario()).unwrap();
        let o1 = engine.optimize().unwrap().expect("feasible");
        let d1 = engine.enumerate_designs(3, false).unwrap();
        let solves = engine.stats().session_solves;
        let o2 = engine.optimize().unwrap().expect("feasible");
        let d2 = engine.enumerate_designs(3, false).unwrap();
        assert_eq!(o1.design.selections, o2.design.selections);
        assert_eq!(d1.len(), d2.len());
        assert_eq!(
            engine.stats().session_solves,
            solves,
            "identical repeat queries must replay memoized session answers"
        );
        // A different projection is a different query and solves afresh.
        engine.enumerate_designs(3, true).unwrap();
        assert!(engine.stats().session_solves > solves);
    }

    #[test]
    fn impossible_maxsat_outcomes_map_to_typed_errors() {
        // Regression: `optimize` used to swallow a mid-descent HardUnsat
        // as `Ok(Err(Diagnosis::default()))` — indistinguishable from a
        // real (but unexplained) infeasibility. The mapping is now typed.
        match internal_level_error("MinimizeCost", &MaxSatOutcome::HardUnsat) {
            CompileError::Internal(context) => assert!(context.contains("MinimizeCost")),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(
            internal_level_error("x", &MaxSatOutcome::WeightOverflow),
            CompileError::ObjectiveOverflow
        );
    }

    #[test]
    fn capacity_sessions_are_cached_per_fleet_bound() {
        use crate::condition::AmountExpr;
        use crate::types::Resource;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("MONITOR", Category::Monitoring)
                    .solves("monitoring")
                    .consumes(Resource::Cores, AmountExpr::constant(40))
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV32", HardwareKind::Server)
                    .numeric("cores", 32.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("monitoring").peak_cores(200).build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV32")],
                num_servers: 1,
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        let p1 = engine.plan_capacity(64).unwrap().expect("feasible");
        let p2 = engine.plan_capacity(64).unwrap().expect("feasible");
        assert_eq!(p1.servers_needed, p2.servers_needed);
        assert_eq!(engine.stats().recompiles, 0, "same bound reuses the session");
        let p3 = engine.plan_capacity(32).unwrap().expect("feasible");
        assert_eq!(p3.servers_needed, 8);
        assert_eq!(engine.stats().recompiles, 1, "changed bound re-derives once");
    }

    #[test]
    fn alternating_capacity_bounds_reuse_cached_sessions() {
        // Regression: the capacity cache used to hold a single bound, so an
        // alternating 64 → 32 → 64 → 32 pattern recompiled every call. The
        // LRU keeps both warm: exactly one recompile (the first 32), zero
        // after that.
        use crate::condition::AmountExpr;
        use crate::types::Resource;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("MONITOR", Category::Monitoring)
                    .solves("monitoring")
                    .consumes(Resource::Cores, AmountExpr::constant(40))
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV32", HardwareKind::Server)
                    .numeric("cores", 32.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("monitoring").peak_cores(200).build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV32")],
                num_servers: 1,
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        for round in 0..3 {
            let p64 = engine.plan_capacity(64).unwrap().expect("feasible");
            let p32 = engine.plan_capacity(32).unwrap().expect("feasible");
            assert_eq!(p64.servers_needed, 8, "round {round}");
            assert_eq!(p32.servers_needed, 8, "round {round}");
        }
        assert_eq!(
            engine.stats().recompiles,
            1,
            "alternating bounds must hit the LRU after the initial compiles"
        );
    }
}
