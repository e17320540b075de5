//! Differential oracle for the incremental session engine.
//!
//! The engine answers every query on one persistent solver, gating each
//! query's destructive clauses behind an activation literal that is
//! retired afterwards. Correctness criterion: a long-lived session
//! answering a random interleaving of `check` / `optimize` /
//! `enumerate_designs` / `check_rule_subset` must agree, query by query,
//! with a throwaway engine freshly compiled for that single query.
//!
//! Agreement is semantic, not bit-for-bit: feasibility verdicts, optimal
//! per-level penalties, and (untruncated) equivalence-class sets must
//! match; designs and diagnoses may differ as witnesses, so designs are
//! checked by the SAT-free validator and the session's diagnosis is
//! replayed as an UNSAT rule subset on the fresh engine.

use netarch_core::baseline::validate_design;
use netarch_core::prelude::*;
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{impl_shrink_struct, prop_assert, prop_assert_eq, Rng};

const CATEGORIES: [Category; 3] =
    [Category::Monitoring, Category::LoadBalancer, Category::Firewall];

const FEATURES: [&str; 2] = ["F0", "F1"];

/// Generation parameters: a small scenario plus an opcode tape.
#[derive(Debug, Clone)]
struct Seed {
    systems_per_category: Vec<u8>, // for the 3 categories
    feature_mask: u8,
    conflict_mask: u8,
    nic_features: [bool; 2],
    needs_mask: u8,
    pins_mask: u8,
    required_roles: u8,
    ops: Vec<u8>,
}

impl_shrink_struct!(Seed {
    systems_per_category,
    feature_mask,
    conflict_mask,
    nic_features,
    needs_mask,
    pins_mask,
    required_roles,
    ops,
});

fn gen_seed(rng: &mut Rng) -> Seed {
    Seed {
        systems_per_category: gen_vec(rng, 3..=3, |r| r.gen_range(1..4u8)),
        feature_mask: rng.gen_range(0..=u8::MAX),
        conflict_mask: rng.gen_range(0..=u8::MAX),
        nic_features: [rng.gen_bool(0.5), rng.gen_bool(0.5)],
        needs_mask: rng.gen_range(0..=u8::MAX),
        pins_mask: rng.gen_range(0..=u8::MAX),
        required_roles: rng.gen_range(0..=u8::MAX),
        ops: gen_vec(rng, 3..=6, |r| r.gen_range(0..=u8::MAX)),
    }
}

fn build_scenario(seed: &Seed) -> Scenario {
    let mut catalog = Catalog::new();
    let mut all_ids: Vec<SystemId> = Vec::new();
    let mut index = 0usize;
    for (c, i) in CATEGORIES.iter().zip(0..) {
        // Shrinking may truncate or zero the counts; keep one system per
        // category so the scenario stays structurally comparable.
        let count = seed.systems_per_category.get(i).copied().unwrap_or(1).max(1);
        for k in 0..count {
            let id = format!("{}_{k}", c.to_string().to_uppercase().replace('-', "_"));
            let mut b = SystemSpec::builder(id.clone(), c.clone())
                .solves(format!("cap_{c}"))
                .cost(100 * (u64::from(k) + 1));
            if (seed.feature_mask >> (index % 8)) & 1 == 1 {
                let f = FEATURES[index % FEATURES.len()];
                b = b.requires(format!("needs-{f}"), Condition::nics_have(f));
            }
            let spec = b.build();
            all_ids.push(spec.id.clone());
            catalog.add_system(spec).unwrap();
            index += 1;
        }
    }
    for i in 1..all_ids.len() {
        if (seed.conflict_mask >> (i % 8)) & 1 == 1 {
            let mut spec = catalog.system(&all_ids[i]).unwrap().clone();
            spec.conflicts.push(all_ids[i - 1].clone());
            catalog
                .apply(netarch_core::catalog::CatalogDelta::update_system(spec))
                .unwrap();
        }
    }
    let mut nic = HardwareSpec::builder("NIC", HardwareKind::Nic);
    for (f, &on) in FEATURES.iter().zip(&seed.nic_features) {
        if on {
            nic = nic.feature(*f);
        }
    }
    catalog.add_hardware(nic.cost(500).build()).unwrap();

    let mut workload = Workload::builder("app");
    for (i, c) in CATEGORIES.iter().enumerate() {
        if (seed.needs_mask >> i) & 1 == 1 {
            workload = workload.needs(format!("cap_{c}"));
        }
    }
    let mut scenario = Scenario::new(catalog)
        .with_workload(workload.build())
        .with_objective(Objective::MinimizeCost)
        .with_inventory(Inventory {
            nic_candidates: vec![HardwareId::new("NIC")],
            num_servers: 2,
            ..Inventory::default()
        });
    for (i, c) in CATEGORIES.iter().enumerate() {
        if (seed.required_roles >> i) & 1 == 1 {
            scenario = scenario.with_role(c.clone(), RoleRule::Required);
        }
    }
    for (i, id) in all_ids.iter().enumerate() {
        if (seed.pins_mask >> (i % 8)) & 1 == 1 && i % 3 == 0 {
            scenario = scenario.with_pin(if i % 2 == 0 {
                Pin::Require(id.clone())
            } else {
                Pin::Forbid(id.clone())
            });
        }
    }
    scenario
}

/// One step of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    Check,
    Optimize,
    Enumerate(usize),
    Subset(u8),
}

fn decode(byte: u8) -> Op {
    match byte % 4 {
        0 => Op::Check,
        1 => Op::Optimize,
        2 => Op::Enumerate(2 + usize::from(byte / 4) % 3),
        _ => Op::Subset(byte / 4),
    }
}

/// Candidate rule labels for subset queries. Labels absent from the
/// compiled scenario filter to nothing in `check_rule_subset`, so the
/// pool may safely over-approximate — both engines filter identically.
fn label_pool(scenario: &Scenario) -> Vec<String> {
    let mut pool: Vec<String> = CATEGORIES.iter().map(|c| format!("role:{c}")).collect();
    pool.extend(CATEGORIES.iter().map(|c| format!("workload:app:needs:cap_{c}")));
    for pin in &scenario.pins {
        pool.push(match pin {
            Pin::Require(id) => format!("pin:require:{id}"),
            Pin::Forbid(id) => format!("pin:forbid:{id}"),
        });
    }
    pool
}

fn fingerprints(designs: &[Design]) -> Vec<Vec<String>> {
    let mut fps: Vec<Vec<String>> = designs
        .iter()
        .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
        .collect();
    fps.sort();
    fps
}

fn session_agrees_with_fresh_engines(seed: &Seed) -> Result<(), String> {
    let scenario = build_scenario(seed);
    let mut session = Engine::new(scenario.clone()).expect("compiles");
    let pool = label_pool(&scenario);
    for &byte in &seed.ops {
        let op = decode(byte);
        let mut fresh = Engine::new(scenario.clone()).expect("compiles");
        match op {
            Op::Check => {
                let a = session.check().expect("runs");
                let b = fresh.check().expect("runs");
                prop_assert_eq!(
                    a.design().is_some(),
                    b.design().is_some(),
                    "feasibility diverged after {op:?}"
                );
                for d in [a.design(), b.design()].into_iter().flatten() {
                    let violations = validate_design(&scenario, d);
                    prop_assert!(violations.is_empty(), "{violations:?}\n{d}");
                }
                if let Some(diagnosis) = a.diagnosis() {
                    let labels: Vec<&str> =
                        diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
                    prop_assert!(!labels.is_empty(), "empty session diagnosis");
                    prop_assert!(
                        !fresh.check_rule_subset(&labels).expect("runs"),
                        "session diagnosis {labels:?} is satisfiable on a fresh engine"
                    );
                }
            }
            Op::Optimize => {
                let a = session.optimize().expect("runs");
                let b = fresh.optimize().expect("runs");
                match (a, b) {
                    (Ok(ra), Ok(rb)) => {
                        let pa: Vec<u64> = ra.levels.iter().map(|l| l.penalty).collect();
                        let pb: Vec<u64> = rb.levels.iter().map(|l| l.penalty).collect();
                        prop_assert_eq!(pa, pb, "optimal level penalties diverged");
                        for d in [&ra.design, &rb.design] {
                            let violations = validate_design(&scenario, d);
                            prop_assert!(violations.is_empty(), "{violations:?}\n{d}");
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => {
                        return Err(format!(
                            "optimize feasibility diverged: session ok={} fresh ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ))
                    }
                }
            }
            Op::Enumerate(limit) => {
                let a = session.enumerate_designs(limit, false).expect("runs");
                let b = fresh.enumerate_designs(limit, false).expect("runs");
                prop_assert_eq!(a.len(), b.len(), "class count diverged at limit {limit}");
                if a.len() < limit {
                    // Both exhaustive: the class sets must coincide.
                    prop_assert_eq!(
                        fingerprints(&a),
                        fingerprints(&b),
                        "equivalence classes diverged"
                    );
                }
                for d in &a {
                    let violations = validate_design(&scenario, d);
                    prop_assert!(violations.is_empty(), "{violations:?}\n{d}");
                }
            }
            Op::Subset(mask) => {
                let labels: Vec<&str> = pool
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (mask >> (i % 8)) & 1 == 1)
                    .map(|(_, l)| l.as_str())
                    .collect();
                prop_assert_eq!(
                    session.check_rule_subset(&labels).expect("runs"),
                    fresh.check_rule_subset(&labels).expect("runs"),
                    "rule-subset verdict diverged for {labels:?}"
                );
            }
        }
    }
    prop_assert_eq!(
        session.stats().recompiles,
        0,
        "the session recompiled mid-interleaving"
    );
    Ok(())
}

#[test]
fn interleaved_session_queries_match_fresh_engines() {
    prop::check(&Config::with_cases(48), gen_seed, session_agrees_with_fresh_engines);
}

/// Deterministic spot-check of the acceptance interleaving:
/// check → optimize → enumerate → check on one session, zero recompiles.
#[test]
fn acceptance_interleaving_runs_on_one_compile() {
    let seed = Seed {
        systems_per_category: vec![2, 2, 1],
        feature_mask: 0b0101,
        conflict_mask: 0,
        nic_features: [true, false],
        needs_mask: 0b011,
        pins_mask: 0,
        required_roles: 0b001,
        ops: vec![0, 1, 2, 0], // check, optimize, enumerate(2), check
    };
    session_agrees_with_fresh_engines(&seed).unwrap();
}

// ---------------------------------------------------------------------------
// Adversarial query orderings over a sweep-style variant grid
// ---------------------------------------------------------------------------

/// All permutations of `tape`, in a stable order (recursive insertion).
fn permutations(tape: &[u8]) -> Vec<Vec<u8>> {
    if tape.len() <= 1 {
        return vec![tape.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in tape.iter().enumerate() {
        let mut rest = tape.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// The canonical tape: one op of every kind. Byte 11 decodes to
/// `Subset(2)` so the rule-subset query carries a non-trivial mask.
const CANONICAL_TAPE: [u8; 4] = [0, 1, 2, 11];

#[test]
fn every_ordering_of_the_canonical_tape_agrees() {
    // A sweep-style grid over scenario knobs (workload needs × required
    // roles × NIC features — the same axes a `sweep` block's choice
    // groups vary) crossed with *every* ordering of the canonical
    // four-op tape. Fail-fast: the first divergent ordering panics with
    // enough context to replay it.
    let orderings = permutations(&CANONICAL_TAPE);
    assert_eq!(orderings.len(), 24);
    for (needs_mask, required_roles) in [(0b011u8, 0b001u8), (0b001, 0b011), (0b111, 0b000)] {
        for nic_features in [[true, false], [false, false]] {
            for ops in &orderings {
                let seed = Seed {
                    systems_per_category: vec![2, 2, 1],
                    feature_mask: 0b0101,
                    conflict_mask: 0b0010,
                    nic_features,
                    needs_mask,
                    pins_mask: 0,
                    required_roles,
                    ops: ops.clone(),
                };
                if let Err(e) = session_agrees_with_fresh_engines(&seed) {
                    panic!(
                        "ordering {ops:?} diverged (needs={needs_mask:#05b} \
                         roles={required_roles:#05b} nic={nic_features:?}): {e}"
                    );
                }
            }
        }
    }
}

/// Random scenario × adversarially chosen tape ordering, with shrinking:
/// a failure minimizes both the scenario knobs and the permutation index.
#[derive(Debug, Clone)]
struct OrderingSeed {
    scenario: Seed,
    perm: u8,
}

impl_shrink_struct!(OrderingSeed { scenario, perm });

#[test]
fn random_variants_survive_adversarial_orderings() {
    let orderings = permutations(&CANONICAL_TAPE);
    prop::check(
        &Config::with_cases(24),
        |rng| OrderingSeed {
            scenario: gen_seed(rng),
            perm: rng.gen_range(0..24u8),
        },
        |seed| {
            let mut scenario = seed.scenario.clone();
            scenario.ops = orderings[usize::from(seed.perm) % orderings.len()].clone();
            session_agrees_with_fresh_engines(&scenario)
        },
    );
}
