//! Session health: a warm session must stay as correct *and as lean* as a
//! freshly compiled engine, whatever queries it has run.
//!
//! The answer oracles elsewhere (`interleaved_queries.rs`) compare verdicts
//! only, which is how an objective circuit once stayed behind in the
//! session after `optimize` and made every later query an order of
//! magnitude slower without changing a single answer. Here random query
//! tapes — check, enumerate, disambiguate and capacity, with `optimize`
//! placed anywhere — run on the §2.3 case study and on the
//! `examples/sweep.narch` variants, and after every query the session's
//! footprint is held against a fresh engine's:
//!
//! * live decision variables within 5% (released objective circuits and
//!   retired activation literals do not count),
//! * live clauses within 50% (room for the learnt clauses any session
//!   accumulates, far below a lingering circuit's size),
//! * and the effort of the next `check`, in propagations, within 2× (plus
//!   a small constant) of the same `check` on a fresh engine — a
//!   deterministic stand-in for its latency.

use netarch_core::prelude::*;
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{impl_shrink_struct, prop_assert, prop_assert_eq, Rng};
use netarch_sweep::{enumerate_sweep, variant_scenario};

/// One query of a tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Check,
    Optimize,
    Enumerate(usize),
    Disambiguate(usize),
    Capacity(u64),
}

const LIMITS: [usize; 3] = [3, 8, 40];

/// Fleet bounds for capacity queries: below, near and above the fleets
/// the case study and the sweep variants need.
const FLEET_BOUNDS: [u64; 3] = [4, 48, 128];

fn decode(byte: u8) -> Op {
    let pick = usize::from(byte / 5);
    let limit = LIMITS[pick % LIMITS.len()];
    match byte % 5 {
        0 => Op::Check,
        1 => Op::Optimize,
        2 => Op::Enumerate(limit),
        3 => Op::Disambiguate(limit),
        _ => Op::Capacity(FLEET_BOUNDS[pick % FLEET_BOUNDS.len()]),
    }
}

/// What must agree between a warm session and a fresh engine.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Answer {
    Feasible(bool),
    Penalties(Option<Vec<u64>>),
    /// Class count, plus the sorted class set when exhaustive.
    Classes(usize, Option<Vec<Vec<String>>>),
    /// The plan; only the class count when truncated (which classes
    /// surface first is the solver's choice).
    Plan(netarch_core::disambiguate::Disambiguation),
    /// The minimal fleet, or `None` when no fleet up to the bound works.
    Fleet(Option<u64>),
}

fn answer(engine: &mut Engine, op: Op) -> Answer {
    match op {
        Op::Check => Answer::Feasible(engine.check().expect("runs").design().is_some()),
        Op::Optimize => Answer::Penalties(
            engine
                .optimize()
                .expect("runs")
                .ok()
                .map(|r| r.levels.iter().map(|l| l.penalty).collect()),
        ),
        Op::Enumerate(limit) => {
            let designs = engine.enumerate_designs(limit, false).expect("runs");
            let exhaustive = (designs.len() < limit).then(|| {
                let mut classes: Vec<Vec<String>> = designs
                    .iter()
                    .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
                    .collect();
                classes.sort();
                classes
            });
            Answer::Classes(designs.len(), exhaustive)
        }
        Op::Disambiguate(limit) => {
            let plan = engine.disambiguate(limit).expect("runs");
            Answer::Plan(if plan.truncated {
                netarch_core::disambiguate::Disambiguation {
                    classes: plan.classes,
                    truncated: true,
                    ..Default::default()
                }
            } else {
                plan
            })
        }
        Op::Capacity(max) => Answer::Fleet(
            engine
                .plan_capacity(max)
                .expect("runs")
                .ok()
                .map(|p| p.servers_needed),
        ),
    }
}

/// The case study first, then every `examples/sweep.narch` variant.
fn scenarios() -> Vec<Scenario> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweep.narch");
    let text = std::fs::read_to_string(path).expect("examples/sweep.narch exists");
    let doc = netarch_dsl::load_str(&text).expect("the example lowers");
    let base = doc.require_scenario().expect("has a scenario").clone();
    let spec = doc.sweeps.first().expect("has a sweep");
    let stream = enumerate_sweep(spec, &base.catalog).expect("enumerates");
    let mut all = vec![netarch_corpus::case_study::scenario()];
    all.extend(
        stream
            .variants
            .iter()
            .map(|v| variant_scenario(spec, &base, &v.picks)),
    );
    all
}

/// Propagations one `check` costs on `engine`.
fn check_effort(engine: &mut Engine) -> u64 {
    let before = engine.stats().propagations;
    engine.check().expect("runs");
    engine.stats().propagations - before
}

/// The footprint bounds above, for a warm session after any query.
fn footprint_is_fresh(session: &mut Engine, scenario: &Scenario) -> Result<(), String> {
    let mut fresh = Engine::new(scenario.clone()).expect("compiles");
    let (warm_stats, fresh_stats) = (session.stats(), fresh.stats());
    prop_assert!(
        warm_stats.live_vars <= fresh_stats.live_vars + fresh_stats.live_vars / 20,
        "live variables: warm {} vs fresh {}",
        warm_stats.live_vars,
        fresh_stats.live_vars
    );
    prop_assert!(
        warm_stats.live_clauses <= fresh_stats.live_clauses + fresh_stats.live_clauses / 2,
        "live clauses: warm {} vs fresh {}",
        warm_stats.live_clauses,
        fresh_stats.live_clauses
    );
    let (warm, cold) = (check_effort(session), check_effort(&mut fresh));
    prop_assert!(
        warm <= 2 * cold + 64,
        "a check on the warm session made {warm} propagations, on a fresh engine {cold}"
    );
    Ok(())
}

/// Runs `tape` on one warm session, comparing every answer and the
/// footprint after every query with a fresh engine's.
fn session_stays_healthy(scenario: &Scenario, tape: &[Op]) -> Result<(), String> {
    let mut session = Engine::new(scenario.clone()).expect("compiles");
    let mut oracle: Vec<(Op, Answer)> = Vec::new();
    for (step, &op) in tape.iter().enumerate() {
        let got = answer(&mut session, op);
        let want = match oracle.iter().find(|(o, _)| *o == op) {
            Some((_, a)) => a.clone(),
            None => {
                let a = answer(&mut Engine::new(scenario.clone()).expect("compiles"), op);
                oracle.push((op, a.clone()));
                a
            }
        };
        prop_assert_eq!(got, want, "step {step} ({op:?}) of {tape:?}");
        footprint_is_fresh(&mut session, scenario)
            .map_err(|e| format!("after step {step} ({op:?}) of {tape:?}: {e}"))?;
    }
    Ok(())
}

#[test]
fn case_study_session_stays_healthy_wherever_optimize_runs() {
    let scenario = netarch_corpus::case_study::scenario();
    let queries = [
        Op::Check,
        Op::Enumerate(40),
        Op::Capacity(64),
        Op::Disambiguate(8),
        Op::Check,
    ];
    for at in 0..=queries.len() {
        let mut tape = queries.to_vec();
        tape.insert(at, Op::Optimize);
        session_stays_healthy(&scenario, &tape).unwrap();
    }
}

/// A scenario index plus a random tape with `optimize` spliced in.
#[derive(Clone, Debug)]
struct Case {
    scenario: u8,
    ops: Vec<u8>,
    optimize_at: u8,
}

impl_shrink_struct!(Case {
    scenario,
    ops,
    optimize_at
});

#[test]
fn random_tapes_on_sweep_variants_stay_healthy() {
    let scenarios = scenarios();
    prop::check(
        &Config::with_cases(32),
        |rng: &mut Rng| Case {
            scenario: rng.gen_range(0..=u8::MAX),
            ops: gen_vec(rng, 1..=5, |r| r.gen_range(0..=u8::MAX)),
            optimize_at: rng.gen_range(0..=u8::MAX),
        },
        |case| {
            let scenario = &scenarios[usize::from(case.scenario) % scenarios.len()];
            let mut tape: Vec<Op> = case.ops.iter().map(|&b| decode(b)).collect();
            tape.insert(
                usize::from(case.optimize_at) % (tape.len() + 1),
                Op::Optimize,
            );
            session_stays_healthy(scenario, &tape)
        },
    );
}
