//! Weighted and lexicographic MaxSAT.
//!
//! Two algorithms over the same [`Encoder`]:
//!
//! * **Linear GTE descent** — find a first model, build a generalized
//!   totalizer over the violation literals capped at that model's cost,
//!   then walk the achievable costs downward using assumptions until
//!   UNSAT; the last SAT model is optimal. Works for arbitrary weights.
//! * **Fu-Malik** — core-guided: repeatedly extract unsat cores over the
//!   soft constraints' assumption literals, relax each core with fresh
//!   blocking variables plus an exactly-one constraint. Implemented for
//!   uniform weights (the classic algorithm); the dispatcher falls back to
//!   linear descent otherwise.
//!
//! Lexicographic optimization (`Optimize(latency > Hardware cost >
//! monitoring)` in the paper's Listing 3) minimizes objective levels in
//! order, hardening each optimum before descending to the next level.

use crate::ast::Formula;
use crate::cardinality::{self, CardEncoding};
use crate::encoder::Encoder;
use crate::pb::{gte_outputs, PbTerm};
use crate::sink::ClauseSink;
use netarch_sat::{Lit, SolveResult};

/// A soft constraint: violating `formula` costs `weight`.
#[derive(Clone, Debug)]
pub struct Soft {
    /// Cost of violating this constraint.
    pub weight: u64,
    /// The constraint itself.
    pub formula: Formula,
}

impl Soft {
    /// Creates a soft constraint.
    pub fn new(weight: u64, formula: Formula) -> Soft {
        Soft { weight, formula }
    }
}

/// Optimization algorithm selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MaxSatAlgorithm {
    /// Linear SAT→UNSAT descent over a generalized totalizer.
    #[default]
    LinearGte,
    /// Core-guided Fu-Malik (uniform weights; falls back to linear
    /// descent for non-uniform weights).
    FuMalik,
}

/// Result of a MaxSAT call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaxSatOutcome {
    /// Optimum found; the encoder's solver holds an optimal model.
    Optimal {
        /// Total weight of violated soft constraints.
        cost: u64,
        /// Indices (into the soft slice) of the violated constraints.
        violated: Vec<usize>,
    },
    /// The hard constraints alone are unsatisfiable.
    HardUnsat,
    /// The soft weights sum past `u64::MAX`; proceeding would silently
    /// corrupt every cost bound, so the optimization is refused.
    WeightOverflow,
}

/// Sum of the soft weights, or `None` when it overflows `u64`.
fn checked_total(soft: &[Soft]) -> Option<u64> {
    soft.iter().try_fold(0u64, |acc, s| acc.checked_add(s.weight))
}

/// Minimizes the total weight of violated soft constraints, leaving the
/// optimal model loaded in the encoder's solver and the optimum enforced
/// as a hard bound (so later optimization levels preserve it).
pub fn minimize(
    encoder: &mut Encoder,
    soft: &[Soft],
    algorithm: MaxSatAlgorithm,
) -> MaxSatOutcome {
    if checked_total(soft).is_none() {
        return MaxSatOutcome::WeightOverflow;
    }
    let uniform = soft
        .windows(2)
        .all(|w| w[0].weight == w[1].weight);
    match algorithm {
        MaxSatAlgorithm::FuMalik if uniform && !soft.is_empty() => fu_malik(encoder, soft),
        _ => linear_gte(encoder, soft),
    }
}

/// Minimizes the violated weight of `softs` inside an incremental session.
///
/// Every solve runs under `base ∪ {gate}`. The first model's cost `C0`
/// caps the objective circuit: the generalized totalizer is built inside
/// [`Encoder::gated_scope`]`(gate)` with outputs only up to `C0` (plus one
/// overflow output above it), because the descent never probes a bound at
/// or above `C0`. When `C0` is 0 no circuit is built at all: each weighted
/// soft's violation literal is forbidden under `gate` instead. The optimum
/// is hardened with `gate`-gated clauses only, so when the caller retires
/// `gate` the bound and the circuit dissolve together, and the caller can
/// hand the circuit's variables back with [`Encoder::release_since`]. A
/// caller that keeps solving under `gate` (the next lexicographic level)
/// keeps this level's optimum. On return the solver holds a model that is
/// optimal under `base`.
pub fn minimize_under(
    encoder: &mut Encoder,
    softs: &[Soft],
    base: &[Lit],
    gate: Lit,
) -> MaxSatOutcome {
    if checked_total(softs).is_none() {
        return MaxSatOutcome::WeightOverflow;
    }
    let mut context: Vec<Lit> = Vec::with_capacity(base.len() + 1);
    context.extend_from_slice(base);
    context.push(gate);
    // Violation literal per soft constraint, v_i ⇔ ¬formula_i, defined
    // before the first solve so its model covers every soft's atoms.
    let terms: Vec<PbTerm> = encoder.gated_scope(gate, |e| {
        softs.iter().map(|s| PbTerm::new(s.weight, !e.lit_for(&s.formula))).collect()
    });
    if encoder.solve_with(&context) != SolveResult::Sat {
        return MaxSatOutcome::HardUnsat;
    }
    let first_cost = model_cost(encoder, softs);
    let first_violated = violated_indices(encoder, softs);
    if first_cost == 0 {
        // Already optimal: harden "no weighted soft is violated" directly.
        for t in terms.iter().filter(|t| t.weight > 0) {
            ClauseSink::add_clause(encoder, &[!gate, !t.lit]);
        }
        return MaxSatOutcome::Optimal { cost: 0, violated: first_violated };
    }
    let outputs = encoder.gated_scope(gate, |e| gte_outputs(e, &terms, first_cost).outputs);
    let objective = Objective { softs, outputs };
    descend(encoder, &objective, &context, gate, (first_cost, first_violated))
}

/// One level's capped objective circuit, built for a single descent.
struct Objective<'a> {
    softs: &'a [Soft],
    /// Totalizer outputs `(sum, lit)`: `lit` is forced true whenever the
    /// violated weight reaches `sum`. Sums run up to the first model's
    /// cost, plus one overflow output just above it.
    outputs: Vec<(u64, Lit)>,
}

impl Objective<'_> {
    /// The achievable cost values a descent may probe: zero plus every
    /// output sum, ascending.
    fn candidates(&self) -> Vec<u64> {
        std::iter::once(0).chain(self.outputs.iter().map(|&(s, _)| s)).collect()
    }

    /// Assumptions forcing the violated weight to at most `target`: the
    /// solve context plus the negation of every output above the target.
    fn bound(&self, context: &[Lit], target: u64) -> Vec<Lit> {
        let mut assumptions = context.to_vec();
        assumptions.extend(
            self.outputs
                .iter()
                .filter(|&&(s, _)| s > target)
                .map(|&(_, l)| !l),
        );
        assumptions
    }

    /// Hardens `cost` as an upper bound behind `gate`.
    fn harden(&self, encoder: &mut Encoder, gate: Lit, cost: u64) {
        for &(s, l) in &self.outputs {
            if s > cost {
                ClauseSink::add_clause(encoder, &[!gate, !l]);
            }
        }
    }
}

/// The binary-search descent below the first model's cost, then the
/// optimum hardened behind `gate` with an optimal model restored.
fn descend(
    encoder: &mut Encoder,
    objective: &Objective,
    context: &[Lit],
    gate: Lit,
    (mut best_cost, mut best_violated): (u64, Vec<usize>),
) -> MaxSatOutcome {
    let softs = objective.softs;
    // Binary-search descent over the achievable cost values (the GTE's
    // output sums plus zero). Invariant: `best_cost` is achievable, and
    // every candidate below index `lo` is proven unachievable.
    let candidates = objective.candidates();
    let mut lo = 0usize;
    while best_cost > 0 {
        let hi = candidates.partition_point(|&c| c < best_cost);
        if lo >= hi {
            break; // nothing achievable below best_cost
        }
        let mid = (lo + hi) / 2;
        let target = candidates[mid];
        match encoder.solve_with(&objective.bound(context, target)) {
            SolveResult::Sat => {
                let cost = model_cost(encoder, softs);
                debug_assert!(cost <= target, "model violates assumed bound");
                best_cost = cost.min(target);
                best_violated = violated_indices(encoder, softs);
            }
            SolveResult::Unsat | SolveResult::Unknown => {
                lo = mid + 1;
            }
        }
    }

    // Harden the optimum behind the gate and restore an optimal model.
    objective.harden(encoder, gate, best_cost);
    let restored = encoder.solve_with(context);
    debug_assert_eq!(restored, SolveResult::Sat);
    MaxSatOutcome::Optimal { cost: best_cost, violated: best_violated }
}

/// Reports which soft constraints the current model violates.
fn violated_indices(encoder: &Encoder, soft: &[Soft]) -> Vec<usize> {
    soft.iter()
        .enumerate()
        .filter(|(_, s)| !encoder.eval_under_model(&s.formula))
        .map(|(i, _)| i)
        .collect()
}

fn model_cost(encoder: &Encoder, soft: &[Soft]) -> u64 {
    violated_indices(encoder, soft)
        .into_iter()
        .map(|i| soft[i].weight)
        .sum()
}

/// Destructive linear descent: the same capped descent as
/// [`minimize_under`] with the always-true literal as the gate, so the
/// circuit and the hardened optimum become permanent clauses at level 0 —
/// identical behavior to a dedicated ungated implementation.
fn linear_gte(encoder: &mut Encoder, soft: &[Soft]) -> MaxSatOutcome {
    let gate = encoder.true_lit();
    minimize_under(encoder, soft, &[], gate)
}

/// Classic Fu-Malik for uniform weights.
fn fu_malik(encoder: &mut Encoder, soft: &[Soft]) -> MaxSatOutcome {
    let weight = soft[0].weight;
    // Each soft constraint's current "satisfaction disjunct" literals:
    // its Tseitin literal plus one blocking variable per relaxation round.
    let mut disjuncts: Vec<Vec<Lit>> = soft
        .iter()
        .map(|s| vec![encoder.lit_for(&s.formula)])
        .collect();
    // Assumption literal per soft constraint guarding the clause
    // `a_i → (formula_i ∨ blockers…)`; replaced whenever the disjunction
    // grows.
    let mut assumption_of: Vec<Lit> = Vec::with_capacity(soft.len());
    for d in &disjuncts {
        let a = encoder.new_selector();
        let mut clause = vec![!a];
        clause.extend(d);
        ClauseSink::add_clause(encoder, &clause);
        assumption_of.push(a);
    }

    let mut rounds = 0u64;
    loop {
        let result = {
            let assumptions: Vec<Lit> = assumption_of.clone();
            encoder.solve_with(&assumptions)
        };
        match result {
            SolveResult::Sat => {
                let cost = rounds * weight;
                // Model currently satisfies all (relaxed) softs; compute
                // which original formulas are violated.
                let violated = violated_indices(encoder, soft);
                debug_assert_eq!(violated.len() as u64, rounds);
                return MaxSatOutcome::Optimal { cost, violated };
            }
            SolveResult::Unknown => {
                // Treat as UNSAT-undetermined: fall back to linear descent.
                return linear_gte(encoder, soft);
            }
            SolveResult::Unsat => {
                let core: Vec<Lit> = encoder.solver().unsat_core().to_vec();
                let members: Vec<usize> = assumption_of
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| core.contains(a))
                    .map(|(i, _)| i)
                    .collect();
                if members.is_empty() {
                    // Hard constraints alone are inconsistent.
                    return MaxSatOutcome::HardUnsat;
                }
                // Relax every core member with a fresh blocking var and
                // constrain exactly-one blocking var true.
                let mut blockers = Vec::with_capacity(members.len());
                for &i in &members {
                    let b = encoder.new_selector();
                    blockers.push(b);
                    disjuncts[i].push(b);
                    // Replace the guard: retire the old assumption literal
                    // and emit a new guarded clause with the extended
                    // disjunction.
                    let old = assumption_of[i];
                    ClauseSink::add_clause(encoder, &[!old]); // retire
                    let a = encoder.new_selector();
                    assumption_of[i] = a;
                    let mut clause = vec![!a];
                    clause.extend(&disjuncts[i]);
                    ClauseSink::add_clause(encoder, &clause);
                }
                cardinality::assert_exactly(encoder, &blockers, 1, CardEncoding::Auto);
                rounds += 1;
            }
        }
    }
}

/// Lexicographic multi-level minimization: minimizes each level in order,
/// hardening its optimum before moving on. Returns per-level outcomes, or
/// `None` when any level fails to optimize (hard-UNSAT or weight overflow).
pub fn minimize_lex(
    encoder: &mut Encoder,
    levels: &[Vec<Soft>],
    algorithm: MaxSatAlgorithm,
) -> Option<Vec<MaxSatOutcome>> {
    let mut outcomes = Vec::with_capacity(levels.len());
    for level in levels {
        let outcome = minimize(encoder, level, algorithm);
        if !matches!(outcome, MaxSatOutcome::Optimal { .. }) {
            return None;
        }
        outcomes.push(outcome);
    }
    Some(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;

    fn a(i: u32) -> Formula {
        Formula::Atom(Atom(i))
    }

    fn softs(items: &[(u64, Formula)]) -> Vec<Soft> {
        items.iter().map(|(w, f)| Soft::new(*w, f.clone())).collect()
    }

    #[test]
    fn all_softs_satisfiable_costs_zero() {
        for alg in [MaxSatAlgorithm::LinearGte, MaxSatAlgorithm::FuMalik] {
            let mut e = Encoder::new();
            e.assert(&Formula::or([a(0), a(1)]));
            let soft = softs(&[(1, a(0)), (1, a(1))]);
            let outcome = minimize(&mut e, &soft, alg);
            assert_eq!(outcome, MaxSatOutcome::Optimal { cost: 0, violated: vec![] }, "{alg:?}");
        }
    }

    #[test]
    fn forced_violation_of_cheapest() {
        for alg in [MaxSatAlgorithm::LinearGte, MaxSatAlgorithm::FuMalik] {
            // a0 xor a1 forced; soft wants both; both weight 1 → cost 1.
            let mut e = Encoder::new();
            e.assert(&Formula::xor(a(0), a(1)));
            let soft = softs(&[(1, a(0)), (1, a(1))]);
            match minimize(&mut e, &soft, alg) {
                MaxSatOutcome::Optimal { cost, violated } => {
                    assert_eq!(cost, 1, "{alg:?}");
                    assert_eq!(violated.len(), 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn weights_steer_which_soft_breaks() {
        // ¬(a0 ∧ a1): cannot have both. Soft(5, a0), Soft(1, a1) →
        // break a1, keep a0, cost 1.
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::and([a(0), a(1)])));
        let soft = softs(&[(5, a(0)), (1, a(1))]);
        match minimize(&mut e, &soft, MaxSatAlgorithm::LinearGte) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 1);
                assert_eq!(violated, vec![1]);
                assert_eq!(e.atom_value(Atom(0)), Some(true));
                assert_eq!(e.atom_value(Atom(1)), Some(false));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hard_unsat_detected() {
        for alg in [MaxSatAlgorithm::LinearGte, MaxSatAlgorithm::FuMalik] {
            let mut e = Encoder::new();
            e.assert(&a(0));
            e.assert(&Formula::not(a(0)));
            let soft = softs(&[(1, a(1))]);
            assert_eq!(minimize(&mut e, &soft, alg), MaxSatOutcome::HardUnsat, "{alg:?}");
        }
    }

    #[test]
    fn fu_malik_multi_core() {
        // Three pairwise-conflicting atoms, softs want all three;
        // at most one can hold → cost 2.
        let mut e = Encoder::new();
        e.assert(&Formula::at_most(1, [a(0), a(1), a(2)]));
        let soft = softs(&[(1, a(0)), (1, a(1)), (1, a(2))]);
        match minimize(&mut e, &soft, MaxSatAlgorithm::FuMalik) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 2);
                assert_eq!(violated.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn linear_matches_brute_force_on_random_cases() {
        use netarch_rt::Rng;
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..30 {
            let num_atoms = rng.gen_range(2..=5u32);
            // Random hard 2-clauses + random weighted soft literals.
            let mut hard = Vec::new();
            for _ in 0..rng.gen_range(0..4) {
                let x = Formula::Atom(Atom(rng.gen_range(0..num_atoms)));
                let y = Formula::Atom(Atom(rng.gen_range(0..num_atoms)));
                let x = if rng.gen_bool(0.5) { Formula::not(x) } else { x };
                let y = if rng.gen_bool(0.5) { Formula::not(y) } else { y };
                hard.push(Formula::or([x, y]));
            }
            let mut soft = Vec::new();
            for _ in 0..rng.gen_range(1..5) {
                let x = Formula::Atom(Atom(rng.gen_range(0..num_atoms)));
                let x = if rng.gen_bool(0.5) { Formula::not(x) } else { x };
                soft.push(Soft::new(rng.gen_range(1..6), x));
            }
            // Brute force optimum.
            let mut best: Option<u64> = None;
            'outer: for bits in 0u32..(1 << num_atoms) {
                let assign = |at: Atom| (bits >> at.0) & 1 == 1;
                for h in &hard {
                    if !h.eval(&assign) {
                        continue 'outer;
                    }
                }
                let cost: u64 = soft
                    .iter()
                    .filter(|s| !s.formula.eval(&assign))
                    .map(|s| s.weight)
                    .sum();
                best = Some(best.map_or(cost, |b: u64| b.min(cost)));
            }
            let mut e = Encoder::new();
            for h in &hard {
                e.assert(h);
            }
            let outcome = minimize(&mut e, &soft, MaxSatAlgorithm::LinearGte);
            match (best, outcome) {
                (None, MaxSatOutcome::HardUnsat) => {}
                (Some(b), MaxSatOutcome::Optimal { cost, .. }) => {
                    assert_eq!(cost, b, "hard={hard:?} soft={soft:?}");
                }
                (expected, got) => panic!("expected {expected:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn lexicographic_respects_priority() {
        // a0 and a1 conflict. Level 1 prefers a0; level 2 prefers a1.
        // Lexicographic: satisfy level 1 (a0), then level 2 must break.
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::and([a(0), a(1)])));
        let levels = vec![
            softs(&[(1, a(0))]),
            softs(&[(1, a(1))]),
        ];
        let outcomes = minimize_lex(&mut e, &levels, MaxSatAlgorithm::LinearGte).expect("feasible");
        assert_eq!(outcomes[0], MaxSatOutcome::Optimal { cost: 0, violated: vec![] });
        assert_eq!(outcomes[1], MaxSatOutcome::Optimal { cost: 1, violated: vec![0] });
        assert_eq!(e.atom_value(Atom(0)), Some(true));
        assert_eq!(e.atom_value(Atom(1)), Some(false));
    }

    #[test]
    fn lexicographic_reversed_priority_flips_outcome() {
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::and([a(0), a(1)])));
        let levels = vec![
            softs(&[(1, a(1))]),
            softs(&[(1, a(0))]),
        ];
        let outcomes = minimize_lex(&mut e, &levels, MaxSatAlgorithm::LinearGte).expect("feasible");
        assert_eq!(outcomes[0], MaxSatOutcome::Optimal { cost: 0, violated: vec![] });
        assert_eq!(e.atom_value(Atom(1)), Some(true));
        assert_eq!(e.atom_value(Atom(0)), Some(false));
    }

    #[test]
    fn overflowing_weights_are_refused_not_wrapped() {
        // u64::MAX + 2 wraps to 1 with unchecked summation, which would
        // silently truncate the totalizer. Both algorithms must refuse.
        for alg in [MaxSatAlgorithm::LinearGte, MaxSatAlgorithm::FuMalik] {
            let mut e = Encoder::new();
            e.assert(&Formula::or([a(0), a(1)]));
            let soft = softs(&[(u64::MAX, a(0)), (2, a(1))]);
            assert_eq!(minimize(&mut e, &soft, alg), MaxSatOutcome::WeightOverflow, "{alg:?}");
        }
        // minimize_lex reports the failure by aborting.
        let mut e = Encoder::new();
        e.assert(&a(0));
        let levels = vec![softs(&[(u64::MAX, a(0)), (1, a(1))])];
        assert!(minimize_lex(&mut e, &levels, MaxSatAlgorithm::LinearGte).is_none());
    }

    #[test]
    fn weights_at_the_u64_boundary_still_optimize() {
        // Total is exactly u64::MAX: no overflow, and the cheap soft breaks.
        let mut e = Encoder::new();
        e.assert(&Formula::xor(a(0), a(1)));
        let soft = softs(&[(u64::MAX - 1, a(0)), (1, a(1))]);
        match minimize(&mut e, &soft, MaxSatAlgorithm::LinearGte) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 1);
                assert_eq!(violated, vec![1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gated_minimize_leaves_the_session_as_it_found_it() {
        // Two gated optimize "queries" over one session must agree. Retiring
        // each gate and releasing the call's variables
        // must hand back the base theory: no live circuit clause, no live
        // circuit variable, and old optima no longer binding.
        let mut e = Encoder::new();
        e.assert(&Formula::xor(a(0), a(1)));
        let soft = softs(&[(2, a(0)), (1, a(1))]);
        assert_eq!(e.solve(), SolveResult::Sat);
        assert!(e.collect_garbage());
        let live_vars = e.solver().num_live_vars();
        let live_clauses = e.solver().num_clauses();
        for _ in 0..2 {
            let mark = e.solver().mark();
            let gate = e.new_selector();
            match minimize_under(&mut e, &soft, &[], gate) {
                MaxSatOutcome::Optimal { cost, violated } => {
                    assert_eq!(cost, 1);
                    assert_eq!(violated, vec![1]);
                    assert_eq!(e.atom_value(Atom(0)), Some(true));
                }
                other => panic!("unexpected {other:?}"),
            }
            e.retire(gate);
            assert!(e.release_since(mark) > 0, "the circuit's variables stay live");
            assert_eq!(e.solver().num_live_vars(), live_vars);
            assert_eq!(e.solver().num_clauses(), live_clauses);
        }
        // The expensive assignment (a1, cost 2) is reachable again.
        let a1 = e.atom_lit(Atom(1));
        assert_eq!(e.solve_with(&[a1]), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(0)), Some(false));
    }

    #[test]
    fn gated_minimize_respects_base_assumptions() {
        // Base context forces a0 false; under xor the optimum flips to
        // violating the heavier soft. A later query without that base sees
        // the unconstrained optimum again.
        let mut e = Encoder::new();
        e.assert(&Formula::xor(a(0), a(1)));
        let sel = e.new_selector();
        e.assert_under(sel, &Formula::not(a(0)));
        let soft = softs(&[(2, a(0)), (1, a(1))]);
        let g1 = e.new_selector();
        match minimize_under(&mut e, &soft, &[sel], g1) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 2);
                assert_eq!(violated, vec![0]);
            }
            other => panic!("unexpected {other:?}"),
        }
        e.retire(g1);
        let g2 = e.new_selector();
        match minimize_under(&mut e, &soft, &[], g2) {
            MaxSatOutcome::Optimal { cost, .. } => assert_eq!(cost, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gated_minimize_reports_hard_unsat_under_base() {
        let mut e = Encoder::new();
        let sel = e.new_selector();
        e.assert_under(sel, &a(0));
        e.assert_under(sel, &Formula::not(a(0)));
        let gate = e.new_selector();
        assert_eq!(
            minimize_under(&mut e, &softs(&[(1, a(1))]), &[sel], gate),
            MaxSatOutcome::HardUnsat
        );
    }

    #[test]
    fn gated_minimize_refuses_overflowing_weights() {
        let mut e = Encoder::new();
        let gate = e.new_selector();
        let soft = softs(&[(u64::MAX, a(0)), (1, a(1))]);
        assert_eq!(minimize_under(&mut e, &soft, &[], gate), MaxSatOutcome::WeightOverflow);
    }

    /// The descent with the circuit built up to the total weight, as before
    /// first-model capping: the reference the capped descent must match.
    fn minimize_uncapped(e: &mut Encoder, soft: &[Soft], gate: Lit) -> MaxSatOutcome {
        if e.solve_with(&[gate]) != SolveResult::Sat {
            return MaxSatOutcome::HardUnsat;
        }
        let first = (model_cost(e, soft), violated_indices(e, soft));
        let total = checked_total(soft).expect("small weights");
        let outputs = e.gated_scope(gate, |e| {
            let terms: Vec<PbTerm> =
                soft.iter().map(|s| PbTerm::new(s.weight, !e.lit_for(&s.formula))).collect();
            gte_outputs(e, &terms, total).outputs
        });
        descend(e, &Objective { softs: soft, outputs }, &[gate], gate, first)
    }

    type RawLit = (usize, bool);

    /// Hard 2-clauses and weighted soft 2-clauses over a few atoms.
    #[derive(Clone, Debug)]
    struct Instance {
        atoms: usize,
        hard: Vec<(RawLit, RawLit)>,
        soft: Vec<(RawLit, RawLit, u64)>,
    }

    netarch_rt::impl_shrink_struct!(Instance { atoms, hard, soft });

    impl Instance {
        fn lit(&self, (atom, positive): RawLit) -> Formula {
            let x = a((atom % self.atoms.clamp(1, 6)) as u32);
            if positive { x } else { Formula::not(x) }
        }

        fn hard(&self) -> Vec<Formula> {
            self.hard.iter().map(|&(x, y)| Formula::or([self.lit(x), self.lit(y)])).collect()
        }

        fn soft(&self) -> Vec<Soft> {
            self.soft
                .iter()
                .map(|&(x, y, w)| Soft::new(w, Formula::or([self.lit(x), self.lit(y)])))
                .collect()
        }

        fn encoder(&self) -> Encoder {
            let mut e = Encoder::new();
            for h in self.hard() {
                e.assert(&h);
            }
            e
        }

        fn brute_force(&self) -> Option<u64> {
            let atoms = self.atoms.clamp(1, 6);
            let (hard, soft) = (self.hard(), self.soft());
            (0u32..1 << atoms)
                .filter_map(|bits| {
                    let assign = |at: Atom| (bits >> at.0) & 1 == 1;
                    hard.iter().all(|h| h.eval(&assign)).then(|| {
                        soft.iter().filter(|s| !s.formula.eval(&assign)).map(|s| s.weight).sum()
                    })
                })
                .min()
        }
    }

    fn gen_instance(rng: &mut netarch_rt::Rng) -> Instance {
        use netarch_rt::prop::gen_vec;
        let atoms = rng.gen_range(1..=6usize);
        let lit = |r: &mut netarch_rt::Rng| (r.gen_range(0..atoms), r.gen_bool(0.5));
        Instance {
            atoms,
            hard: gen_vec(rng, 0..=6, |r| (lit(r), lit(r))),
            soft: gen_vec(rng, 0..=7, |r| (lit(r), lit(r), r.gen_range(0..=9u64))),
        }
    }

    #[test]
    fn capped_descent_matches_uncapped_descent_and_brute_force() {
        use netarch_rt::prop::{self, Config};
        prop::check(&Config::with_cases(200), gen_instance, |inst| {
            let soft = inst.soft();
            let best = inst.brute_force();

            let mut capped = inst.encoder();
            let mark = capped.solver().mark();
            let before = capped.clause_count();
            let gate = capped.new_selector();
            let got = minimize_under(&mut capped, &soft, &[], gate);
            let capped_clauses = capped.clause_count() - before;

            let mut uncapped = inst.encoder();
            let before = uncapped.clause_count();
            let gate_u = uncapped.new_selector();
            let want = minimize_uncapped(&mut uncapped, &soft, gate_u);
            let uncapped_clauses = uncapped.clause_count() - before;

            match (best, &got, &want) {
                (None, MaxSatOutcome::HardUnsat, MaxSatOutcome::HardUnsat) => return Ok(()),
                (
                    Some(b),
                    MaxSatOutcome::Optimal { cost, violated },
                    MaxSatOutcome::Optimal { cost: reference, .. },
                ) => {
                    netarch_rt::prop_assert_eq!(*cost, b);
                    netarch_rt::prop_assert_eq!(*reference, b);
                    let weight: u64 = violated.iter().map(|&i| soft[i].weight).sum();
                    netarch_rt::prop_assert_eq!(weight, b);
                    netarch_rt::prop_assert_eq!(model_cost(&capped, &soft), b);
                }
                _ => return Err(format!("best {best:?}: capped {got:?}, uncapped {want:?}")),
            }
            netarch_rt::prop_assert!(
                capped_clauses <= uncapped_clauses,
                "capped circuit {capped_clauses} clauses > uncapped {uncapped_clauses}"
            );
            // A warm repeat after retire, collect and release agrees.
            capped.retire(gate);
            capped.release_since(mark);
            let gate = capped.new_selector();
            match minimize_under(&mut capped, &soft, &[], gate) {
                MaxSatOutcome::Optimal { cost, .. } => netarch_rt::prop_assert_eq!(Some(cost), best),
                other => return Err(format!("warm repeat gave {other:?}")),
            }
            Ok(())
        });
    }

    #[test]
    fn lexicographic_hard_unsat_propagates() {
        let mut e = Encoder::new();
        e.assert(&a(0));
        e.assert(&Formula::not(a(0)));
        let levels = vec![softs(&[(1, a(1))])];
        assert!(minimize_lex(&mut e, &levels, MaxSatAlgorithm::LinearGte).is_none());
    }
}
