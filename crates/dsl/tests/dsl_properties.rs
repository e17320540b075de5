//! Property/fuzz suite for the `.narch` frontend.
//!
//! Invariants:
//! * **round-trip**: for any scenario document built from core values,
//!   `lower(parse(print(doc)))` is semantically equal to `doc` (JSON
//!   equality, which covers every field);
//! * **fixpoint**: printing the reloaded document reproduces the text
//!   byte-for-byte (printing is a formatter);
//! * **robustness**: mutated and truncated inputs are *rejected with a
//!   spanned error or accepted*, but the frontend never panics.

use netarch_core::component::{HardwareSpec, SystemSpec};
use netarch_core::prelude::*;
use netarch_dsl::{
    load_str, print_doc, print_scenario, print_sweeps, AltRef, ChoiceGroup, ChoiceKind,
    QuerySpec, SweepConstraint, SweepSpec,
};
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{impl_shrink_struct, prop_assert, Rng};

/// Compact generation parameters; everything else derives from `stream`.
#[derive(Debug, Clone)]
struct DocSeed {
    stream: u64,
    n_systems: u8,
    n_hardware: u8,
    n_edges: u8,
    n_workloads: u8,
    n_queries: u8,
}

impl_shrink_struct!(DocSeed {
    stream,
    n_systems,
    n_hardware,
    n_edges,
    n_workloads,
    n_queries,
});

fn gen_seed(rng: &mut Rng) -> DocSeed {
    DocSeed {
        stream: rng.next_u64(),
        n_systems: rng.gen_range(1..6u8),
        n_hardware: rng.gen_range(0..4u8),
        n_edges: rng.gen_range(0..5u8),
        n_workloads: rng.gen_range(0..3u8),
        n_queries: rng.gen_range(0..4u8),
    }
}

/// Name pool mixing bare identifiers with every quoting edge case the
/// printer must escape: spaces, dashes, leading digits, keywords, empty.
const NAMES: &[&str] = &[
    "ALPHA",
    "beta_2",
    "_под",
    "odd name",
    "x-y",
    "9lead",
    "true",
    "",
    "with\"quote",
    "tab\there",
];

fn pick_name(rng: &mut Rng) -> String {
    NAMES[rng.gen_range(0..NAMES.len())].to_string()
}

fn pick_category(rng: &mut Rng) -> Category {
    match rng.gen_range(0..4u8) {
        0 => Category::Monitoring,
        1 => Category::NetworkStack,
        2 => Category::Custom(pick_name(rng)),
        _ => Category::Transport,
    }
}

fn pick_dimension(rng: &mut Rng) -> Dimension {
    match rng.gen_range(0..3u8) {
        0 => Dimension::Latency,
        1 => Dimension::Throughput,
        _ => Dimension::Custom(pick_name(rng)),
    }
}

fn pick_f64(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..4u8) {
        0 => rng.gen_range(0..1000u32) as f64,
        // 1.. not 0..: `-0.0` would print as `-0`, which re-lexes as the
        // integer 0 and loses the sign bit.
        1 => -(rng.gen_range(1..100u32) as f64),
        2 => rng.gen_range(0..1000u32) as f64 / 64.0,
        _ => 0.0,
    }
}

fn gen_condition(rng: &mut Rng, depth: u8) -> Condition {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 9 } else { 12u8 }) {
        0 => Condition::True,
        1 => Condition::False,
        2 => Condition::SystemSelected(SystemId::new(pick_name(rng))),
        3 => Condition::CategoryFilled(pick_category(rng)),
        4 => Condition::NicFeature(Feature::new(pick_name(rng))),
        5 => Condition::SwitchFeature(Feature::new(pick_name(rng))),
        6 => Condition::ProvidedFeature(Feature::new(pick_name(rng))),
        7 => Condition::WorkloadProperty(Property::new(pick_name(rng))),
        8 => {
            let op = match rng.gen_range(0..5u8) {
                0 => CmpOp::Lt,
                1 => CmpOp::Le,
                2 => CmpOp::Gt,
                3 => CmpOp::Ge,
                _ => CmpOp::Eq,
            };
            Condition::Param(ParamName::new(pick_name(rng)), op, pick_f64(rng))
        }
        9 => Condition::Not(Box::new(gen_condition(rng, depth - 1))),
        10 => {
            let n = rng.gen_range(0..3u8);
            Condition::All((0..n).map(|_| gen_condition(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..3u8);
            Condition::Any((0..n).map(|_| gen_condition(rng, depth - 1)).collect())
        }
    }
}

fn gen_amount_term(rng: &mut Rng) -> AmountExpr {
    if rng.gen_bool(0.5) {
        AmountExpr::Const(rng.gen_range(0..10_000u32) as u64)
    } else {
        AmountExpr::ParamScaled {
            param: ParamName::new(pick_name(rng)),
            factor: pick_f64(rng),
        }
    }
}

/// Canonical amounts only: a `Sum` is flat with ≥ 2 terms — exactly the
/// shape the `+` surface grammar can express.
fn gen_amount(rng: &mut Rng) -> AmountExpr {
    if rng.gen_bool(0.25) {
        let n = rng.gen_range(2..4u8);
        AmountExpr::Sum((0..n).map(|_| gen_amount_term(rng)).collect())
    } else {
        gen_amount_term(rng)
    }
}

fn pick_resource(rng: &mut Rng) -> Resource {
    match rng.gen_range(0..4u8) {
        0 => Resource::Cores,
        1 => Resource::P4Stages,
        // Custom resources deliberately include names that shadow
        // built-ins ("cores") — the printer must escape those.
        2 => Resource::Custom("cores".to_string()),
        _ => Resource::Custom(pick_name(rng)),
    }
}

fn build_doc(seed: &DocSeed) -> (Catalog, Scenario, Vec<QuerySpec>) {
    let mut rng = Rng::seed_from_u64(seed.stream);
    let rng = &mut rng;
    let mut catalog = Catalog::new();
    let mut system_ids = Vec::new();
    for i in 0..seed.n_systems {
        let id = format!("S{i}_{}", pick_name(rng));
        system_ids.push(id.clone());
        let mut b = SystemSpec::builder(id, pick_category(rng));
        if rng.gen_bool(0.5) {
            b = b.name(pick_name(rng));
        }
        for _ in 0..rng.gen_range(0..3u8) {
            b = b.solves(pick_name(rng));
        }
        for _ in 0..rng.gen_range(0..3u8) {
            let cond = gen_condition(rng, 2);
            if rng.gen_bool(0.5) {
                b = b.requires_cited(pick_name(rng), cond, pick_name(rng));
            } else {
                b = b.requires(pick_name(rng), cond);
            }
        }
        for _ in 0..rng.gen_range(0..3u8) {
            b = b.consumes(pick_resource(rng), gen_amount(rng));
        }
        for _ in 0..rng.gen_range(0..2u8) {
            b = b.provides(pick_name(rng));
        }
        if rng.gen_bool(0.3) {
            b = b.cost(rng.gen_range(0..100_000u32) as u64);
        }
        if rng.gen_bool(0.3) {
            b = b.notes(pick_name(rng));
        }
        catalog.add_system(b.build()).expect("generated ids are unique");
    }
    for i in 0..seed.n_hardware {
        let kind = match i % 3 {
            0 => HardwareKind::Switch,
            1 => HardwareKind::Nic,
            _ => HardwareKind::Server,
        };
        let mut b = HardwareSpec::builder(format!("H{i}_{}", pick_name(rng)), kind);
        if rng.gen_bool(0.5) {
            b = b.model_name(pick_name(rng));
        }
        for _ in 0..rng.gen_range(0..3u8) {
            b = b.feature(pick_name(rng));
        }
        for _ in 0..rng.gen_range(0..3u8) {
            b = b.numeric(pick_name(rng), pick_f64(rng));
        }
        if rng.gen_bool(0.5) {
            b = b.cost(rng.gen_range(0..100_000u32) as u64);
        }
        catalog.add_hardware(b.build()).expect("generated ids are unique");
    }
    for _ in 0..seed.n_edges {
        let better = &system_ids[rng.gen_range(0..system_ids.len())];
        let worse = &system_ids[rng.gen_range(0..system_ids.len())];
        let mut edge = if rng.gen_bool(0.5) {
            OrderingEdge::strict(better.as_str(), worse.as_str(), pick_dimension(rng))
        } else {
            OrderingEdge::equal(better.as_str(), worse.as_str(), pick_dimension(rng))
        };
        if rng.gen_bool(0.5) {
            edge.condition = gen_condition(rng, 2);
        }
        if rng.gen_bool(0.3) {
            edge.citation = Some(pick_name(rng));
        }
        catalog.add_ordering(edge).expect("endpoints registered");
    }

    let mut scenario = Scenario::new(catalog.clone());
    for i in 0..seed.n_workloads {
        let mut b = Workload::builder(format!("W{i}_{}", pick_name(rng)));
        if rng.gen_bool(0.5) {
            b = b.name(pick_name(rng));
        }
        for _ in 0..rng.gen_range(0..3u8) {
            b = b.property(pick_name(rng));
        }
        if rng.gen_bool(0.5) {
            let lo = rng.gen_range(0..4u32);
            b = b.deployed_at(lo..lo + rng.gen_range(0..4u32));
        }
        b = b
            .peak_cores(rng.gen_range(0..5_000u32) as u64)
            .peak_bandwidth(rng.gen_range(0..200u32) as u64)
            .num_flows(rng.gen_range(0..100_000u32) as u64);
        for _ in 0..rng.gen_range(0..2u8) {
            b = b.needs(pick_name(rng));
        }
        if rng.gen_bool(0.5) {
            b = b.performance_bound(
                pick_dimension(rng),
                system_ids[rng.gen_range(0..system_ids.len())].as_str(),
            );
        }
        scenario = scenario.with_workload(b.build());
    }
    for _ in 0..rng.gen_range(0..3u8) {
        scenario = scenario.with_param(pick_name(rng), pick_f64(rng));
    }
    for _ in 0..rng.gen_range(0..3u8) {
        let rule = match rng.gen_range(0..3u8) {
            0 => RoleRule::Required,
            1 => RoleRule::Optional,
            _ => RoleRule::Forbidden,
        };
        scenario = scenario.with_role(pick_category(rng), rule);
    }
    for _ in 0..rng.gen_range(0..3u8) {
        let objective = match rng.gen_range(0..3u8) {
            0 => Objective::MaximizeDimension(pick_dimension(rng)),
            1 => Objective::MinimizeCost,
            _ => Objective::PreferCapability(Capability::new(pick_name(rng))),
        };
        scenario = scenario.with_objective(objective);
    }
    for _ in 0..rng.gen_range(0..2u8) {
        let id = SystemId::new(system_ids[rng.gen_range(0..system_ids.len())].as_str());
        scenario = scenario
            .with_pin(if rng.gen_bool(0.5) { Pin::Require(id) } else { Pin::Forbid(id) });
    }
    if rng.gen_bool(0.3) {
        scenario = scenario.with_budget(rng.gen_range(0..1_000_000u32) as u64);
    }
    if rng.gen_bool(0.5) {
        let candidates: Vec<HardwareId> =
            (0..seed.n_hardware).map(|i| HardwareId::new(format!("H{i}"))).collect();
        scenario = scenario.with_inventory(Inventory {
            server_candidates: candidates.clone(),
            nic_candidates: candidates.clone(),
            switch_candidates: candidates,
            num_servers: rng.gen_range(0..100u32) as u64,
            num_switches: rng.gen_range(0..10u32) as u64,
        });
    }

    let queries: Vec<QuerySpec> = (0..seed.n_queries)
        .map(|_| match rng.gen_range(0..6u8) {
            0 => QuerySpec::Check,
            1 => QuerySpec::Optimize,
            2 => QuerySpec::Capacity { max: rng.gen_range(1..512u32) as u64 },
            3 => QuerySpec::Enumerate { limit: rng.gen_range(1..16u32) as u64 },
            4 => QuerySpec::Questions { budget: rng.gen_range(1..512u32) as u64 },
            _ => QuerySpec::Compare {
                a: SystemId::new(system_ids[rng.gen_range(0..system_ids.len())].as_str()),
                b: SystemId::new(system_ids[rng.gen_range(0..system_ids.len())].as_str()),
                dimension: pick_dimension(rng),
            },
        })
        .collect();

    (catalog, scenario, queries)
}

fn full_text(scenario: &Scenario, queries: &[QuerySpec]) -> String {
    let mut text = print_scenario(scenario);
    text.push('\n');
    text.push_str(&netarch_dsl::print_queries(queries));
    text
}

#[test]
fn random_documents_round_trip_through_text() {
    prop::check(&Config::default(), gen_seed, |seed| {
        let (catalog, scenario, queries) = build_doc(seed);
        let text = full_text(&scenario, &queries);
        let doc = load_str(&text)
            .map_err(|e| format!("reload failed: {e}\n--- text ---\n{text}"))?;
        prop_assert!(
            netarch_rt::json::to_string(&doc.catalog)
                == netarch_rt::json::to_string(&catalog),
            "catalog drifted through text:\n{text}"
        );
        let reloaded = doc
            .scenario
            .as_ref()
            .ok_or_else(|| format!("scenario block lost:\n{text}"))?;
        prop_assert!(
            netarch_rt::json::to_string(reloaded) == netarch_rt::json::to_string(&scenario),
            "scenario drifted through text:\n{text}"
        );
        prop_assert!(doc.queries == queries, "queries drifted:\n{text}");
        Ok(())
    });
}

#[test]
fn printing_reloaded_documents_is_a_fixpoint() {
    prop::check(&Config::default(), gen_seed, |seed| {
        let (_, scenario, queries) = build_doc(seed);
        let text = full_text(&scenario, &queries);
        let doc = load_str(&text).map_err(|e| format!("reload failed: {e}"))?;
        let reprinted = print_doc(&doc);
        let again = load_str(&reprinted).map_err(|e| format!("reparse failed: {e}"))?;
        prop_assert!(
            print_doc(&again) == reprinted,
            "printer not a fixpoint:\n--- first ---\n{reprinted}"
        );
        Ok(())
    });
}

#[test]
fn canonical_json_is_a_fixpoint_of_parse_and_dump() {
    // `to_string` streams the canonical text; dumping the tree parsed back
    // from it must reproduce it byte for byte.
    prop::check(&Config::default(), gen_seed, |seed| {
        let (catalog, scenario, _) = build_doc(seed);
        let texts = [netarch_rt::json::to_string(&catalog), netarch_rt::json::to_string(&scenario)];
        for text in texts {
            let tree = netarch_rt::json::parse(&text).map_err(|e| e.to_string())?;
            prop_assert!(tree.dump() == text, "not a fixpoint:\n{text}");
        }
        Ok(())
    });
}

/// Mutation parameters: where to cut/flip and what to insert.
#[derive(Debug, Clone)]
struct MutationSeed {
    doc: DocSeed,
    cut: u16,
    mode: u8,
    junk: Vec<u8>,
}

impl_shrink_struct!(MutationSeed { doc, cut, mode, junk });

const JUNK_BYTES: &[u8] = b"{}[]()=\"\\#.*+<>x0 \n\t\x7f";

fn gen_junk(rng: &mut Rng) -> Vec<u8> {
    gen_vec(rng, 1..=6, |r| JUNK_BYTES[r.gen_range(0..JUNK_BYTES.len())])
}

/// Applies one truncation/insertion/replacement at a char boundary so the
/// mutated input stays valid UTF-8.
fn mutate(text: &str, cut: u16, mode: u8, junk: &[u8]) -> String {
    let mut at = cut as usize % (text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let junk = String::from_utf8_lossy(junk).into_owned();
    match mode {
        0 => text[..at].to_string(), // truncation
        1 => format!("{}{}{}", &text[..at], junk, &text[at..]), // insertion
        _ => {
            // Replacement: overwrite forward to the next boundary.
            let mut end = (at + junk.len()).min(text.len());
            while !text.is_char_boundary(end) {
                end += 1;
            }
            format!("{}{}{}", &text[..at], junk, &text[end..])
        }
    }
}

/// The only acceptable outcomes for a mutated input: clean accept or a
/// rendered, non-empty diagnostic. A panic fails the property.
fn check_no_panic(mutated: &str) -> Result<(), String> {
    match load_str(mutated) {
        Ok(_) => Ok(()),
        Err(e) => {
            let rendered = e.to_string();
            prop_assert!(!rendered.is_empty(), "empty diagnostic for mutated input");
            Ok(())
        }
    }
}

#[test]
fn mutated_and_truncated_inputs_never_panic() {
    prop::check(
        &Config::default(),
        |rng| MutationSeed {
            doc: gen_seed(rng),
            cut: rng.gen_range(0..=u16::MAX),
            mode: rng.gen_range(0..3u8),
            junk: gen_junk(rng),
        },
        |seed| {
            let (_, scenario, queries) = build_doc(&seed.doc);
            let text = full_text(&scenario, &queries);
            check_no_panic(&mutate(&text, seed.cut, seed.mode, &seed.junk))
        },
    );
}

// ---------------------------------------------------------------------------
// Sweep grammar: round-trip, fixpoint, mutation robustness, spanned errors
// ---------------------------------------------------------------------------

/// Compact sweep-generation parameters; everything derives from `stream`.
#[derive(Debug, Clone)]
struct SweepSeed {
    stream: u64,
    n_sweeps: u8,
}

impl_shrink_struct!(SweepSeed { stream, n_sweeps });

fn gen_sweep_seed(rng: &mut Rng) -> SweepSeed {
    SweepSeed { stream: rng.next_u64(), n_sweeps: rng.gen_range(1..4u8) }
}

fn gen_hw_ids(rng: &mut Rng) -> Vec<HardwareId> {
    // Lowering rejects a `choose` group with no alternatives, so every
    // candidate list has at least one entry.
    (0..rng.gen_range(1..4u8))
        .map(|i| HardwareId::new(format!("H{i}_{}", pick_name(rng))))
        .collect()
}

/// One choice group covering every axis the grammar defines. Candidate
/// ids carry an index prefix so they stay unique within the group; the
/// suffix pulls from the quoting-edge name pool.
fn gen_choice_group(rng: &mut Rng, index: usize) -> ChoiceGroup {
    let name = format!("g{index}_{}", pick_name(rng));
    let kind = match rng.gen_range(0..6u8) {
        0 => ChoiceKind::Systems {
            candidates: (0..rng.gen_range(1..4u8))
                .map(|i| SystemId::new(format!("S{i}_{}", pick_name(rng))))
                .collect(),
            optional: rng.gen_bool(0.5),
        },
        1 => ChoiceKind::Nics(gen_hw_ids(rng)),
        2 => ChoiceKind::Servers(gen_hw_ids(rng)),
        3 => ChoiceKind::Switches(gen_hw_ids(rng)),
        4 => ChoiceKind::NumServers(
            (0..rng.gen_range(1..5u8)).map(|_| rng.gen_range(0..10_000u32) as u64).collect(),
        ),
        _ => ChoiceKind::Param {
            name: ParamName::new(pick_name(rng)),
            values: (0..rng.gen_range(1..4u8)).map(|_| pick_f64(rng)).collect(),
        },
    };
    ChoiceGroup { name, kind }
}

/// A `picked(group, alt)` atom over a group that actually has an
/// alternative — lowering rejects unresolvable references, so the
/// generator must only emit resolvable ones.
fn gen_picked(rng: &mut Rng, groups: &[ChoiceGroup]) -> Option<SweepConstraint> {
    let usable: Vec<&ChoiceGroup> = groups.iter().filter(|g| g.arity() > 0).collect();
    if usable.is_empty() {
        return None;
    }
    let g = usable[rng.gen_range(0..usable.len())];
    let alternative = match &g.kind {
        ChoiceKind::Systems { candidates, optional } => {
            let n = candidates.len() + usize::from(*optional);
            let i = rng.gen_range(0..n);
            AltRef::Name(if i < candidates.len() {
                candidates[i].as_str().to_string()
            } else {
                "none".to_string()
            })
        }
        ChoiceKind::Nics(ids) | ChoiceKind::Servers(ids) | ChoiceKind::Switches(ids) => {
            AltRef::Name(ids[rng.gen_range(0..ids.len())].as_str().to_string())
        }
        ChoiceKind::NumServers(counts) => {
            AltRef::Number(counts[rng.gen_range(0..counts.len())] as f64)
        }
        ChoiceKind::Param { values, .. } => {
            AltRef::Number(values[rng.gen_range(0..values.len())])
        }
    };
    Some(SweepConstraint::Picked { group: g.name.clone(), alternative })
}

fn gen_sweep_constraint(
    rng: &mut Rng,
    groups: &[ChoiceGroup],
    depth: u8,
) -> Option<SweepConstraint> {
    if depth == 0 {
        return gen_picked(rng, groups);
    }
    match rng.gen_range(0..4u8) {
        0 => gen_picked(rng, groups),
        1 => gen_sweep_constraint(rng, groups, depth - 1)
            .map(|c| SweepConstraint::Not(Box::new(c))),
        2 => {
            let n = rng.gen_range(0..3u8);
            Some(SweepConstraint::All(
                (0..n).filter_map(|_| gen_sweep_constraint(rng, groups, depth - 1)).collect(),
            ))
        }
        _ => {
            let n = rng.gen_range(0..3u8);
            Some(SweepConstraint::Any(
                (0..n).filter_map(|_| gen_sweep_constraint(rng, groups, depth - 1)).collect(),
            ))
        }
    }
}

fn gen_sweeps(seed: &SweepSeed) -> Vec<SweepSpec> {
    let mut rng = Rng::seed_from_u64(seed.stream);
    let rng = &mut rng;
    (0..seed.n_sweeps.max(1))
        .map(|s| {
            let groups: Vec<ChoiceGroup> =
                (0..rng.gen_range(1..5u8)).map(|i| gen_choice_group(rng, i as usize)).collect();
            let require: Vec<SweepConstraint> = (0..rng.gen_range(0..3u8))
                .filter_map(|_| gen_sweep_constraint(rng, &groups, 2))
                .collect();
            let forbid: Vec<SweepConstraint> = (0..rng.gen_range(0..3u8))
                .filter_map(|_| gen_sweep_constraint(rng, &groups, 2))
                .collect();
            SweepSpec {
                // Index prefix keeps names unique across the document.
                name: format!("SW{s}_{}", pick_name(rng)),
                // Half the time the printer-elided defaults (seed 0,
                // limit 256), half the time explicit values.
                seed: if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..1_000_000_000u32) as u64 },
                limit: if rng.gen_bool(0.5) { 256 } else { rng.gen_range(1..10_000u32) as u64 },
                groups,
                require,
                forbid,
            }
        })
        .collect()
}

#[test]
fn random_sweeps_round_trip_through_text() {
    prop::check(&Config::default(), gen_sweep_seed, |seed| {
        let specs = gen_sweeps(seed);
        let text = print_sweeps(&specs);
        let doc = load_str(&text)
            .map_err(|e| format!("reload failed: {e}\n--- text ---\n{text}"))?;
        prop_assert!(doc.sweeps == specs, "sweeps drifted through text:\n{text}");
        // Printing the reloaded specs must reproduce the text byte for
        // byte — the sweep printer is a formatter, like the rest.
        prop_assert!(
            print_sweeps(&doc.sweeps) == text,
            "sweep printer not a fixpoint:\n{text}"
        );
        Ok(())
    });
}

#[test]
fn sweeps_survive_a_full_document_round_trip() {
    // Sweeps embedded in a complete document (catalog + scenario +
    // queries) must round-trip through `print_doc` alongside everything
    // else, not just in isolation.
    prop::check(
        &Config::default(),
        |rng| (gen_seed(rng), gen_sweep_seed(rng)),
        |(doc_seed, sweep_seed)| {
            let (_, scenario, queries) = build_doc(doc_seed);
            let specs = gen_sweeps(sweep_seed);
            let mut text = full_text(&scenario, &queries);
            text.push('\n');
            text.push_str(&print_sweeps(&specs));
            let doc = load_str(&text)
                .map_err(|e| format!("reload failed: {e}\n--- text ---\n{text}"))?;
            prop_assert!(doc.sweeps == specs, "sweeps drifted through text:\n{text}");
            let reprinted = print_doc(&doc);
            let again =
                load_str(&reprinted).map_err(|e| format!("reparse failed: {e}"))?;
            prop_assert!(
                print_doc(&again) == reprinted,
                "printer not a fixpoint with sweeps:\n{reprinted}"
            );
            Ok(())
        },
    );
}

/// Mutation parameters for sweep-bearing text.
#[derive(Debug, Clone)]
struct SweepMutationSeed {
    sweeps: SweepSeed,
    cut: u16,
    mode: u8,
    junk: Vec<u8>,
}

impl_shrink_struct!(SweepMutationSeed { sweeps, cut, mode, junk });

#[test]
fn mutated_and_truncated_sweep_inputs_never_panic() {
    prop::check(
        &Config::default(),
        |rng| SweepMutationSeed {
            sweeps: gen_sweep_seed(rng),
            cut: rng.gen_range(0..=u16::MAX),
            mode: rng.gen_range(0..3u8),
            junk: gen_junk(rng),
        },
        |seed| {
            let text = print_sweeps(&gen_sweeps(&seed.sweeps));
            check_no_panic(&mutate(&text, seed.cut, seed.mode, &seed.junk))
        },
    );
}

#[test]
fn sweep_errors_are_spanned_and_specific() {
    // Each malformed sweep must be rejected with a diagnostic that names
    // the actual mistake and carries a source position.
    let cases: &[(&str, &str)] = &[
        (
            "sweep \"s\" {\n  choose \"g\" {\n    systems = [A]\n  }\n  \
             require = [picked(ghost, A)]\n}\n",
            "unknown choice group `ghost`",
        ),
        (
            "sweep \"s\" {\n  choose \"g\" {\n    systems = [A]\n  }\n  \
             forbid = [picked(g, B)]\n}\n",
            "has no alternative `B`",
        ),
        (
            "sweep \"s\" {\n  limit = 0\n  choose \"g\" {\n    systems = [A]\n  }\n}\n",
            "sweep `limit` must be at least 1",
        ),
        ("sweep \"s\" {\n  seed = 1\n}\n", "no `choose` groups"),
        (
            "sweep \"s\" {\n  choose \"g\" {\n    nics = [N]\n    optional = true\n  }\n}\n",
            "`optional` applies only to a `systems` group",
        ),
        (
            "sweep \"s\" {\n  choose \"g\" {\n    systems = [A]\n    nics = [N]\n  }\n}\n",
            "already has an axis",
        ),
        (
            "sweep \"s\" {\n  choose \"g\" {\n    param = link_speed\n  }\n}\n",
            "values",
        ),
        (
            "sweep \"s\" {\n  choose \"g\" {\n    systems = [A]\n  }\n  \
             require = [pickt(g, A)]\n}\n",
            "unknown sweep constraint",
        ),
        (
            "sweep \"s\" {\n  choose \"g\" {\n    systems = [A]\n  }\n  \
             choose \"g\" {\n    nics = [N]\n  }\n}\n",
            "duplicate choice group `g`",
        ),
        (
            "sweep \"s\" {\n  choose \"g\" {\n    systems = [A]\n  }\n}\n\n\
             sweep \"s\" {\n  choose \"g\" {\n    nics = [N]\n  }\n}\n",
            "duplicate sweep `s`",
        ),
    ];
    for (text, needle) in cases {
        let err = match load_str(text) {
            Err(e) => e,
            Ok(_) => panic!("accepted bad sweep:\n{text}"),
        };
        let rendered = err.to_string();
        assert!(
            rendered.contains(needle),
            "diagnostic {rendered:?} does not mention {needle:?} for:\n{text}"
        );
        assert!(err.span.is_some(), "error must carry a span: {rendered}");
        assert!(
            rendered.starts_with("<input>:"),
            "error must name its source: {rendered}"
        );
    }
}
