//! `Solver::release_since`: a per-query encoding gated behind an activation
//! literal is retired, collected and released, after which its
//! variables are never decided, read `false` in every model, and may not
//! be mentioned again — while the session's verdicts, models and DRAT
//! proofs stay exactly as trustworthy as before.

use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{prop_assert, Rng};
use netarch_sat::{
    check_refutation_under_assumptions, Lit, SessionMark, SolveResult, Solver, SolverConfig, Var,
};

fn lit(v: usize, positive: bool) -> Lit {
    Lit::new(Var::from_index(v), positive)
}

/// A session over base variables `x, y`, then a mark, then an encoding
/// over `a0..a3` gated behind `g`. Returns the solver, the mark, `g` and
/// the encoding's variables.
fn session_with_gated_encoding() -> (Solver, SessionMark, Lit, Vec<Var>) {
    let mut s = Solver::with_config(SolverConfig::default());
    let x = s.new_var().positive();
    let y = s.new_var().positive();
    s.add_clause([x, y]);
    let mark = s.mark();
    let g = s.new_var().positive();
    let aux: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
    for pair in aux.windows(2) {
        s.add_clause([!g, !pair[0].positive(), pair[1].positive()]);
    }
    s.add_clause([!g, !x, aux[0].positive()]);
    (s, mark, g, aux)
}

#[test]
fn released_variables_are_never_decided_and_read_false() {
    let (mut s, mark, g, aux) = session_with_gated_encoding();
    let x = Var::from_index(0).positive();
    // Save `true` phases on every encoding variable first, so a decision on
    // a released variable would show up as `true` in a later model.
    let mut assumptions = vec![g, x];
    assumptions.extend(aux.iter().map(|v| v.positive()));
    assert_eq!(s.solve_with(&assumptions), SolveResult::Sat);
    assert!(s.retire(g));
    let live_before = s.num_live_vars();
    // `g` is fixed at the root: only the encoding goes.
    assert_eq!(s.release_since(mark), aux.len());
    assert!(aux.iter().all(|&v| s.is_released(v)));
    assert!(!s.is_released(g.var()));
    assert_eq!(s.num_live_vars(), live_before - aux.len());
    for assumption in [vec![], vec![x], vec![!x]] {
        assert_eq!(s.solve_with(&assumption), SolveResult::Sat);
        for &v in &aux {
            assert_eq!(s.model_value(v), Some(false), "released {v:?} was decided");
        }
        assert!(s.model_value(x.var()).is_some());
    }
    // Releasing again is a no-op.
    assert_eq!(s.release_since(mark), 0);
}

#[test]
fn variables_still_in_a_live_clause_are_kept() {
    let (mut s, mark, g, aux) = session_with_gated_encoding();
    // A variable allocated after the mark but used by an ungated clause.
    let z = s.new_var();
    s.add_clause([z.positive(), Var::from_index(1).negative()]);
    // Without retiring the gate the encoding's clauses stay live too.
    assert_eq!(s.release_since(mark), 0);
    assert_eq!(s.solve_with(&[g, aux[0].positive()]), SolveResult::Sat);
    assert_eq!(s.model_value(aux[3]), Some(true));
    s.retire(g);
    assert_eq!(s.release_since(mark), aux.len());
    assert!(!s.is_released(z));
    assert_eq!(s.solve_with(&[z.negative()]), SolveResult::Sat);
    assert_eq!(s.model_value(Var::from_index(1)), Some(false));
}

#[test]
#[should_panic(expected = "released variable")]
fn adding_a_released_variable_to_a_clause_panics() {
    let (mut s, mark, g, aux) = session_with_gated_encoding();
    s.retire(g);
    assert_eq!(s.release_since(mark), aux.len());
    s.add_clause([aux[0].positive(), Var::from_index(0).positive()]);
}

#[test]
#[should_panic(expected = "released variable")]
fn assuming_a_frozen_released_variable_panics() {
    let (mut s, mark, g, aux) = session_with_gated_encoding();
    // The freeze flag guards against elimination only; release overrides it.
    s.freeze_var(aux[1]);
    s.retire(g);
    assert_eq!(s.release_since(mark), aux.len());
    s.solve_with(&[aux[1].positive()]);
}

type RawClause = Vec<(usize, bool)>;

/// Base clauses plus clauses gated behind a fresh activation variable that
/// may also mention [`AUX`] encoding variables, and the assumptions of a
/// solve after the encoding is released.
#[derive(Clone, Debug)]
struct Case {
    base_vars: usize,
    base: Vec<RawClause>,
    gated: Vec<RawClause>,
    assumptions: Vec<(usize, bool)>,
}

netarch_rt::impl_shrink_struct!(Case {
    base_vars,
    base,
    gated,
    assumptions
});

const AUX: usize = 5;

fn gen_case(rng: &mut Rng) -> Case {
    let base_vars = rng.gen_range(2..=8usize);
    let clause =
        |r: &mut Rng, vars: usize| gen_vec(r, 1..=3, |r| (r.gen_range(0..vars), r.gen_bool(0.5)));
    Case {
        base_vars,
        base: gen_vec(rng, 0..=24, |r| clause(r, base_vars)),
        gated: gen_vec(rng, 1..=16, |r| clause(r, base_vars + AUX)),
        assumptions: gen_vec(rng, 0..=4, |r| (r.gen_range(0..base_vars), r.gen_bool(0.5))),
    }
}

#[test]
fn proof_mode_session_replays_after_release() {
    prop::check(&Config::with_cases(128), gen_case, |case| {
        let n = case.base_vars.clamp(1, 8);
        let mut s = Solver::new();
        s.record_proof();
        s.ensure_vars(n);
        let mark = s.mark();
        let g = s.new_var().positive();
        let aux: Vec<Var> = (0..AUX).map(|_| s.new_var()).collect();
        // Base variables map to 0..n, encoding variables to the aux block.
        let to_lit = |&(v, pos): &(usize, bool)| {
            let v = v % (n + AUX);
            if v < n {
                lit(v, pos)
            } else {
                Lit::new(aux[v - n], pos)
            }
        };
        // Every clause the solver saw, for the independent checker.
        let mut cnf: Vec<Vec<Lit>> = Vec::new();
        for c in &case.base {
            let c: Vec<Lit> = c.iter().map(|&(v, pos)| lit(v % n, pos)).collect();
            s.add_clause(c.iter().copied());
            cnf.push(c);
        }
        for c in &case.gated {
            let mut c: Vec<Lit> = c.iter().map(to_lit).collect();
            c.push(!g);
            s.add_clause(c.iter().copied());
            cnf.push(c);
        }
        s.solve_with(&[g]);
        s.retire(g);
        cnf.push(vec![!g]);
        let released = s.release_since(mark);
        if !s.is_consistent() {
            return Ok(()); // the base alone is refuted at the root
        }
        // Every encoding clause carried `!g`, so the whole block goes.
        prop_assert!(released == AUX);
        let assumptions: Vec<Lit> = case
            .assumptions
            .iter()
            .map(|&(v, pos)| lit(v % n, pos))
            .collect();
        match s.solve_with(&assumptions) {
            SolveResult::Sat => {
                let value = |l: Lit| s.model_value(l.var()).map(|b| b == l.is_positive());
                for c in &cnf {
                    prop_assert!(
                        c.iter().any(|&l| value(l) == Some(true)),
                        "model violates {c:?}"
                    );
                }
            }
            SolveResult::Unsat => {
                let proof = s.recorded_proof().expect("recording");
                let verdict =
                    check_refutation_under_assumptions(s.num_vars(), &cnf, proof, s.unsat_core());
                prop_assert!(verdict.is_ok(), "checker rejected the proof: {verdict:?}");
            }
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
        Ok(())
    });
}
