//! Certified restart-boundary inprocessing.
//!
//! Three simplification passes run over the clause arena whenever the
//! restart cadence (`SolverConfig::inprocess_interval`) fires, always with
//! the trail at the root level:
//!
//! 1. **Subsumption / self-subsumption** — occurrence lists plus the 64-bit
//!    variable-set abstractions stored in [`crate::clause`] find clauses
//!    `C ⊆ D` (delete `D`) and near-misses where exactly one literal of `C`
//!    appears negated in `D` (resolve, strengthening `D` by one literal).
//! 2. **Vivification** — each candidate clause is detached and its literals
//!    probed as decisions; propagation that falsifies a literal or
//!    contradicts a prefix shrinks the clause.
//! 3. **Bounded variable elimination (BVE)** — unfrozen variables with a
//!    small occurrence product are resolved away (Davis–Putnam style,
//!    no-growth policy); deleted clauses go onto an elimination stack that
//!    [`Solver::extend_model`] walks in reverse so SAT models still satisfy
//!    the *original* formula.
//!
//! Every transformation is DRAT-certified: strengthened clauses and BVE
//! resolvents are RUP against the clause set that existed when they were
//! derived, so they are logged as additions *before* the clauses they
//! replace are logged as deletions. Refutations found with inprocessing on
//! therefore remain checkable by [`crate::checker`] unchanged.
//!
//! The *freeze contract*: variables the caller may still mention in future
//! clauses or assumptions must be exempted from BVE via
//! [`Solver::freeze_var`]. `solve_with` freezes assumption variables
//! automatically; the incremental encoder in `netarch-logic` freezes every
//! variable it allocates, so session engines keep their zero-recompile
//! guarantee while still benefiting from subsumption and vivification.

use super::{Solver, VarStatus};
use crate::clause::ClauseRef;
use crate::lit::{LBool, Lit, Var};

impl Solver {
    /// Cadence gate called at every restart boundary; runs
    /// [`Solver::inprocess`] after `inprocess_interval` restarts, then
    /// doubles the gap after every round (geometric cadence): the first
    /// round strips cheap redundancy early, while long searches are not
    /// dominated by repeated pass overhead.
    pub(crate) fn maybe_inprocess(&mut self) -> bool {
        if !self.config.inprocessing_enabled {
            return self.ok;
        }
        if self.inprocess_gap == 0 {
            self.inprocess_gap = self.config.inprocess_interval.max(1);
        }
        self.restarts_since_inprocess += 1;
        if self.restarts_since_inprocess < self.inprocess_gap {
            return self.ok;
        }
        self.restarts_since_inprocess = 0;
        self.inprocess_gap = self.inprocess_gap.saturating_mul(2);
        self.inprocess()
    }

    /// Runs one full inprocessing round: level-0 simplification, then
    /// subsumption/self-subsumption, vivification, and bounded variable
    /// elimination. Returns `false` when the instance is proved
    /// unsatisfiable outright (the empty clause is then in the proof).
    ///
    /// Public so tests and embedders can force a round deterministically;
    /// during solving it runs automatically at restart boundaries.
    pub fn inprocess(&mut self) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack_to(0);
        // Step 1: reuse the incremental-session simplifier — propagates,
        // drops root-satisfied clauses, strips root-false literals, and
        // repairs the watch lists.
        if !self.simplify() {
            return false;
        }
        self.stats.inprocessings += 1;
        if !self.subsume_pass() {
            return false;
        }
        if !self.vivify_pass() {
            return false;
        }
        if !self.bve_pass() {
            return false;
        }
        // The passes may have deleted clauses that level-0 trail entries
        // recorded as reasons. Root-level assignments never need their
        // reasons again (conflict analysis only dereferences reasons above
        // level 0), so clear them all rather than track which died.
        for r in &mut self.reason {
            *r = ClauseRef::INVALID;
        }
        if self.db.should_compact() {
            self.compact();
        }
        true
    }

    /// Records the root-level empty clause and marks the instance
    /// unsatisfiable. Returns `false` for use as a tail call in passes.
    fn level0_conflict(&mut self) -> bool {
        self.proof_add(&[]);
        self.ok = false;
        false
    }

    /// Forward subsumption and self-subsumption over occurrence lists.
    ///
    /// For each clause `C` (shortest first), candidates sharing `C`'s
    /// cheapest literal (either sign) are screened with the stored
    /// abstractions; exact matches delete the superset clause, one-flip
    /// matches strengthen it by resolution.
    fn subsume_pass(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let live: Vec<ClauseRef> = (0..self.db.len())
            .map(|i| ClauseRef(i as u32))
            .filter(|&c| !self.db.is_deleted(c))
            .collect();
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); self.num_vars() * 2];
        for &c in &live {
            for &l in self.db.lits(c) {
                occ[l.code()].push(c);
            }
        }
        let mut order = live;
        order.sort_by_key(|&c| self.db.lits(c).len());
        for &c in &order {
            if self.db.is_deleted(c) {
                continue;
            }
            let c_lits = self.db.lits(c).to_vec();
            // Clauses touching mid-pass unit assignments are left for the
            // next round's simplification.
            if c_lits.iter().any(|&l| self.lit_value(l) != LBool::Undef) {
                continue;
            }
            let c_abst = self.db.abstraction(c);
            let best = c_lits
                .iter()
                .copied()
                .min_by_key(|&l| occ[l.code()].len() + occ[(!l).code()].len())
                .expect("stored clauses are non-empty");
            let mut candidates: Vec<ClauseRef> = Vec::new();
            candidates.extend_from_slice(&occ[best.code()]);
            candidates.extend_from_slice(&occ[(!best).code()]);
            for d in candidates {
                if d == c || self.db.is_deleted(d) || self.db.is_deleted(c) {
                    continue;
                }
                let d_lits = self.db.lits(d).to_vec();
                if d_lits.iter().any(|&l| self.lit_value(l) != LBool::Undef) {
                    continue;
                }
                match subsume_match(&c_lits, c_abst, &d_lits, self.db.abstraction(d)) {
                    None => {}
                    Some(None) => {
                        // C ⊆ D: D is redundant. If a learnt clause subsumes
                        // an original one it must be promoted first, or a
                        // later reduce_db could drop the last witness of an
                        // original constraint.
                        if !self.db.is_learnt(d) && self.db.is_learnt(c) {
                            self.db.make_original(c);
                        }
                        self.proof_delete(&d_lits);
                        self.detach(d);
                        self.db.delete(d);
                        self.stats.subsumed += 1;
                    }
                    Some(Some(flip)) => {
                        // Self-subsumption: resolving C with D on `flip`
                        // yields D \ {¬flip}, which subsumes D. The
                        // strengthened clause is RUP while C and D are both
                        // live, so it is logged before D is deleted.
                        let new: Vec<Lit> =
                            d_lits.iter().copied().filter(|&x| x != !flip).collect();
                        debug_assert_eq!(new.len() + 1, d_lits.len());
                        self.proof_add(&new);
                        self.proof_delete(&d_lits);
                        self.stats.strengthened += 1;
                        self.detach(d);
                        if new.len() == 1 {
                            self.db.delete(d);
                            if !self.assert_unit(new[0]) {
                                return false;
                            }
                        } else {
                            self.db.shrink(d, &new);
                            self.attach(d);
                            // D stays listed under its surviving literals;
                            // the stale occurrence under ¬flip is harmless
                            // because matches recheck actual literals.
                        }
                    }
                }
            }
        }
        true
    }

    /// Clause vivification under a propagation budget.
    ///
    /// Each candidate is detached (so it cannot propagate against itself)
    /// and its literals asserted false one at a time as probe decisions:
    /// a literal propagated false is redundant, and a propagated truth or a
    /// conflict proves the probed prefix suffices. The shrunken clause is
    /// RUP via the very propagations just witnessed.
    fn vivify_pass(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let budget_end = self.stats.propagations + self.config.vivify_budget;
        let candidates: Vec<ClauseRef> = (0..self.db.len())
            .map(|i| ClauseRef(i as u32))
            .filter(|&c| !self.db.is_deleted(c) && self.db.lits(c).len() >= 3)
            .collect();
        for c in candidates {
            if self.stats.propagations >= budget_end {
                break;
            }
            if self.db.is_deleted(c) {
                continue;
            }
            let lits = self.db.lits(c).to_vec();
            if lits.iter().any(|&l| self.lit_value(l) != LBool::Undef) {
                continue;
            }
            self.detach(c);
            let mut keep: Vec<Lit> = Vec::with_capacity(lits.len());
            let mut changed = false;
            for (i, &l) in lits.iter().enumerate() {
                match self.lit_value(l) {
                    LBool::True => {
                        // The negated prefix implies l: every literal after
                        // l can be dropped.
                        keep.push(l);
                        changed |= i + 1 < lits.len();
                        break;
                    }
                    LBool::False => {
                        // The negated prefix implies ¬l: l is redundant.
                        changed = true;
                    }
                    LBool::Undef => {
                        keep.push(l);
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(!l, ClauseRef::INVALID);
                        if self.propagate().is_some() {
                            // ¬keep is contradictory: the prefix suffices.
                            changed |= i + 1 < lits.len();
                            break;
                        }
                    }
                }
            }
            self.backtrack_to(0);
            if !changed {
                self.attach(c);
                continue;
            }
            self.stats.vivified += 1;
            self.proof_add(&keep);
            self.proof_delete(&lits);
            debug_assert!(!keep.is_empty(), "probing starts from unassigned literals");
            if keep.len() == 1 {
                self.db.delete(c);
                if !self.assert_unit(keep[0]) {
                    return false;
                }
            } else {
                self.db.shrink(c, &keep);
                self.attach(c);
            }
        }
        true
    }

    /// Bounded variable elimination with a no-growth policy.
    ///
    /// A variable qualifies when it is unfrozen, unassigned, and its
    /// positive×negative occurrence product (over original clauses) is at
    /// most `bve_product_limit`. All original×original resolvents on the
    /// pivot are computed; if (after tautology and duplicate removal) they
    /// number no more than the clauses they replace, the resolvents are
    /// logged and added, the pivot's clauses are deleted (originals onto
    /// the elimination stack for model reconstruction), and the variable
    /// leaves the search. Learnt clauses mentioning the pivot are simply
    /// deleted — they are implied and never needed for reconstruction.
    fn bve_pass(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); self.num_vars() * 2];
        for i in 0..self.db.len() {
            let c = ClauseRef(i as u32);
            if self.db.is_deleted(c) {
                continue;
            }
            for &l in self.db.lits(c) {
                occ[l.code()].push(c);
            }
        }
        for vi in 0..self.num_vars() {
            if self.frozen[vi] || !self.is_active(vi) || self.assigns[vi].is_assigned() {
                continue;
            }
            let v = Var::from_index(vi);
            let (pos_lit, neg_lit) = (v.positive(), v.negative());
            let mut pos_orig = Vec::new();
            let mut pos_learnt = Vec::new();
            for &c in &occ[pos_lit.code()] {
                if self.db.is_deleted(c) {
                    continue;
                }
                if self.db.is_learnt(c) {
                    pos_learnt.push(c);
                } else {
                    pos_orig.push(c);
                }
            }
            let mut neg_orig = Vec::new();
            let mut neg_learnt = Vec::new();
            for &c in &occ[neg_lit.code()] {
                if self.db.is_deleted(c) {
                    continue;
                }
                if self.db.is_learnt(c) {
                    neg_learnt.push(c);
                } else {
                    neg_orig.push(c);
                }
            }
            if pos_orig.len() * neg_orig.len() > self.config.bve_product_limit {
                continue;
            }
            // Clauses touching mid-pass unit assignments are skipped; the
            // next round's simplification cleans them up first.
            let touches_assigned = pos_orig
                .iter()
                .chain(&neg_orig)
                .chain(&pos_learnt)
                .chain(&neg_learnt)
                .any(|&c| {
                    self.db
                        .lits(c)
                        .iter()
                        .any(|&l| self.lit_value(l) != LBool::Undef)
                });
            if touches_assigned {
                continue;
            }
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            for &pc in &pos_orig {
                for &nc in &neg_orig {
                    let mut r: Vec<Lit> = Vec::new();
                    r.extend(self.db.lits(pc).iter().copied().filter(|&l| l != pos_lit));
                    r.extend(self.db.lits(nc).iter().copied().filter(|&l| l != neg_lit));
                    r.sort_unstable();
                    r.dedup();
                    // Complementary literals are code-adjacent after the
                    // sort, so tautologies show up as neighbouring pairs.
                    if r.windows(2).any(|w| w[1] == !w[0]) {
                        continue;
                    }
                    debug_assert!(!r.is_empty(), "stored parents have >= 2 literals");
                    resolvents.push(r);
                }
            }
            resolvents.sort();
            resolvents.dedup();
            // No-growth policy: eliminating must not add clauses.
            if resolvents.len() > pos_orig.len() + neg_orig.len() {
                continue;
            }
            // Resolvents are RUP while both parents are live: log every
            // addition before any parent deletion.
            for r in &resolvents {
                self.proof_add(r);
            }
            for &c in pos_orig.iter().chain(neg_orig.iter()) {
                let lits = self.db.lits(c).to_vec();
                let pivot = if lits.contains(&pos_lit) { pos_lit } else { neg_lit };
                self.proof_delete(&lits);
                self.elim_stack.push((pivot, lits));
                self.detach(c);
                self.db.delete(c);
            }
            for &c in pos_learnt.iter().chain(neg_learnt.iter()) {
                let lits = self.db.lits(c).to_vec();
                self.proof_delete(&lits);
                self.detach(c);
                self.db.delete(c);
            }
            self.status[vi] = VarStatus::Eliminated;
            self.stats.eliminated_vars += 1;
            let mut units: Vec<Lit> = Vec::new();
            for r in resolvents {
                if r.len() == 1 {
                    units.push(r[0]);
                } else {
                    let cref = self.db.add(&r, false);
                    self.attach(cref);
                    // Later pivots must see the resolvent, or their own
                    // elimination would silently drop a constraint.
                    for &l in &r {
                        occ[l.code()].push(cref);
                    }
                }
            }
            for u in units {
                if !self.assert_unit(u) {
                    return false;
                }
            }
        }
        true
    }

    /// Asserts a derived unit at the root level and settles propagation.
    /// Returns `false` (after logging the empty clause) on contradiction.
    fn assert_unit(&mut self, unit: Lit) -> bool {
        match self.lit_value(unit) {
            LBool::True => true,
            LBool::False => self.level0_conflict(),
            LBool::Undef => {
                self.enqueue(unit, ClauseRef::INVALID);
                if self.propagate().is_some() {
                    self.level0_conflict()
                } else {
                    true
                }
            }
        }
    }

    /// Extends a SAT model over eliminated variables by walking the
    /// elimination stack in reverse: any recorded clause not satisfied by
    /// the model forces its pivot literal true. (At most one polarity can be
    /// forced — a positive and a negative clause both unsatisfied modulo
    /// the pivot would falsify their resolvent, which was added to the
    /// formula the model satisfies.) Released variables, and eliminated
    /// ones no clause forced, read `false`.
    pub(crate) fn extend_model(&mut self) {
        for i in (0..self.elim_stack.len()).rev() {
            let satisfied = {
                let (_, clause) = &self.elim_stack[i];
                clause.iter().any(|&l| {
                    self.model
                        .get(l.var().index())
                        .is_some_and(|v| v.under_polarity(l.is_positive()) == LBool::True)
                })
            };
            if !satisfied {
                let pivot = self.elim_stack[i].0;
                self.model[pivot.var().index()] = LBool::from_bool(pivot.is_positive());
            }
        }
        // Removed variables no clause ever forced get a definite default
        // so the model stays total.
        for (val, status) in self.model.iter_mut().zip(&self.status) {
            if *val == LBool::Undef && *status != VarStatus::Active {
                *val = LBool::False;
            }
        }
    }
}

/// Subsumption check with one allowed sign flip, after the abstraction
/// prefilter. Returns `Some(None)` when every literal of `c` occurs in `d`
/// (plain subsumption), `Some(Some(l))` when exactly one literal `l ∈ c`
/// occurs negated in `d` and the rest occur directly (self-subsumption:
/// resolving on `l` removes `¬l` from `d`), and `None` otherwise.
fn subsume_match(c: &[Lit], c_abst: u64, d: &[Lit], d_abst: u64) -> Option<Option<Lit>> {
    if c.len() > d.len() || (c_abst & !d_abst) != 0 {
        return None;
    }
    let mut flipped: Option<Lit> = None;
    for &l in c {
        if d.contains(&l) {
            continue;
        }
        if flipped.is_none() && d.contains(&!l) {
            flipped = Some(l);
            continue;
        }
        return None;
    }
    Some(flipped)
}

#[cfg(test)]
mod tests {
    use crate::{SolveResult, Solver, SolverConfig};

    /// Allocates `n` frozen variables so BVE stays inert and a test can
    /// observe a single pass in isolation.
    fn frozen_lits(s: &mut Solver, n: usize) -> Vec<crate::Lit> {
        (0..n)
            .map(|_| {
                let v = s.new_var();
                s.freeze_var(v);
                v.positive()
            })
            .collect()
    }

    #[test]
    fn subsumption_deletes_superset_clauses() {
        let mut s = Solver::new();
        let v = frozen_lits(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[1], v[2]]); // subsumed
        s.add_clause([v[0], v[1], v[2], v[3]]); // subsumed
        s.add_clause([v[2], v[3]]);
        assert!(s.inprocess());
        assert_eq!(s.stats().subsumed, 2);
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn self_subsumption_strengthens() {
        let mut s = Solver::new();
        let v = frozen_lits(&mut s, 3);
        // (a ∨ b) and (a ∨ ¬b ∨ c) resolve on b to (a ∨ c), strengthening
        // the ternary clause.
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], !v[1], v[2]]);
        assert!(s.inprocess());
        assert_eq!(s.stats().strengthened, 1);
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_clauses_are_deduplicated() {
        let mut s = Solver::new();
        let v = frozen_lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[1], v[0]]); // same clause after normalization
        assert!(s.inprocess());
        assert_eq!(s.stats().subsumed, 1);
        assert_eq!(s.num_clauses(), 1);
    }

    #[test]
    fn vivification_drops_implied_tail() {
        let mut s = Solver::new();
        let v = frozen_lits(&mut s, 4);
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        // Implication chain a → b → c. Probing ¬a on C = (¬a ∨ c ∨ d)
        // asserts a, propagation derives b then c, and the probe hits a
        // true literal: C shrinks to (¬a ∨ c). Two resolution steps are
        // needed to see this, so subsumption alone cannot find it.
        s.add_clause([!a, b]);
        s.add_clause([!b, c]);
        s.add_clause([!a, c, d]);
        assert!(s.inprocess());
        assert_eq!(s.stats().vivified, 1);
        assert_eq!(s.num_clauses(), 3);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn bve_eliminates_and_model_reconstructs() {
        let mut s = Solver::with_config(SolverConfig::default());
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let x = s.new_var().positive();
        let clauses = [vec![a, x], vec![b, !x]];
        for c in &clauses {
            s.add_clause(c.clone());
        }
        assert!(s.inprocess());
        assert!(s.stats().eliminated_vars >= 1);
        assert!(s.is_eliminated(x.var()) || s.is_eliminated(a.var()));
        assert_eq!(s.solve(), SolveResult::Sat);
        // The reconstructed model must satisfy the *original* clauses, not
        // just the simplified formula.
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.model_lit_value(l) == Some(true)),
                "original clause {c:?} unsatisfied by reconstructed model"
            );
        }
    }

    #[test]
    fn frozen_variables_survive_bve() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let x = s.new_var().positive();
        let b = s.new_var().positive();
        let y = s.new_var().positive();
        s.freeze_var(a.var());
        s.freeze_var(x.var());
        s.freeze_var(b.var());
        // y is eliminable (pure in one clause); x is frozen despite having
        // the same occurrence shape.
        s.add_clause([a, x, y]);
        s.add_clause([b, !x]);
        assert!(s.inprocess());
        assert!(s.is_eliminated(y.var()));
        assert!(!s.is_eliminated(x.var()));
        // Frozen variables remain legal in later clauses and assumptions.
        assert!(s.add_clause([!x, a]));
        assert_eq!(s.solve_with(&[x]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(x), Some(true));
    }

    #[test]
    fn assumption_variables_are_auto_frozen() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let x = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause([a, x]);
        s.add_clause([b, !x]);
        // Solving under x freezes it; a later inprocess must not remove it.
        assert_eq!(s.solve_with(&[x]), SolveResult::Sat);
        assert!(s.inprocess());
        assert!(!s.is_eliminated(x.var()));
        assert_eq!(s.solve_with(&[!x]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(x), Some(false));
    }

    #[test]
    fn pure_literal_elimination_falls_out_of_bve() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let p = s.new_var().positive();
        s.freeze_var(a.var());
        s.freeze_var(b.var());
        s.add_clause([a, b, p]); // p occurs only positively
        s.add_clause([a, !b, p]);
        assert!(s.inprocess());
        assert!(s.is_eliminated(p.var()));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_lit_value(p), Some(true));
    }

    #[test]
    fn inprocess_detects_root_unsat() {
        let mut s = Solver::new();
        let v: Vec<_> = (0..2).map(|_| s.new_var().positive()).collect();
        let (a, b) = (v[0], v[1]);
        s.record_proof();
        // Unsatisfiable 2-SAT core that needs resolution to expose.
        s.add_clause([a, b]);
        s.add_clause([a, !b]);
        s.add_clause([!a, b]);
        s.add_clause([!a, !b]);
        // Self-subsumption resolves these down to complementary units.
        assert!(!s.inprocess());
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.take_proof().expect("recorder active");
        let formula: Vec<Vec<crate::Lit>> = vec![
            vec![a, b],
            vec![a, !b],
            vec![!a, b],
            vec![!a, !b],
        ];
        let outcome = crate::checker::check_refutation(2, &formula, &proof);
        assert!(outcome.is_ok(), "inprocessing refutation rejected: {outcome:?}");
    }

    #[test]
    fn inprocessed_solver_agrees_with_plain_config() {
        // Seeded random 3-SAT sweep: aggressive inprocessing + chronological
        // backtracking must agree with the ablated configuration.
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for case in 0..40 {
            let num_vars = 12 + (case % 5);
            let num_clauses = (num_vars as f64 * 4.4) as usize;
            let clauses: Vec<Vec<crate::Lit>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let r = next();
                            let v = crate::Var::from_index((r % num_vars as u64) as usize);
                            crate::Lit::new(v, (r >> 32) & 1 == 1)
                        })
                        .collect()
                })
                .collect();
            let aggressive = SolverConfig {
                inprocessing_enabled: true,
                inprocess_interval: 1,
                chrono_threshold: 1,
                restart_base: 4,
                ..SolverConfig::default()
            };
            let plain = SolverConfig {
                inprocessing_enabled: false,
                chrono_threshold: 0,
                ..SolverConfig::default()
            };
            let mut verdicts = Vec::new();
            for config in [aggressive, plain] {
                let mut s = Solver::with_config(config);
                s.ensure_vars(num_vars);
                for c in &clauses {
                    s.add_clause(c.clone());
                }
                let r = s.solve();
                if r == SolveResult::Sat {
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&l| s.model_lit_value(l) == Some(true)),
                            "case {case}: model violates clause {c:?}"
                        );
                    }
                }
                verdicts.push(r);
            }
            assert_eq!(verdicts[0], verdicts[1], "case {case}: verdict mismatch");
        }
    }
}
