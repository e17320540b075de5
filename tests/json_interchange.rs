//! The JSON interchange format: a scenario serialized and re-loaded must
//! produce the same reasoning results (the property the paper's
//! community-curated knowledge base depends on).

use netarch::core::prelude::*;
use netarch::corpus::case_study;

fn roundtrip(scenario: &Scenario) -> Scenario {
    let json = netarch_rt::json::to_string(scenario);
    netarch_rt::json::from_str(&json).expect("deserializes")
}

#[test]
fn scenario_roundtrip_preserves_structure() {
    let original = case_study::scenario();
    let back = roundtrip(&original);
    assert_eq!(back.catalog.num_systems(), original.catalog.num_systems());
    assert_eq!(back.catalog.num_hardware(), original.catalog.num_hardware());
    assert_eq!(back.catalog.order().edges().len(), original.catalog.order().edges().len());
    assert_eq!(back.workloads.len(), original.workloads.len());
    assert_eq!(back.objectives, original.objectives);
    assert_eq!(back.inventory, original.inventory);
    assert_eq!(back.catalog.spec_size(), original.catalog.spec_size());
}

#[test]
fn scenario_roundtrip_preserves_reasoning_results() {
    let original = case_study::scenario();
    let back = roundtrip(&original);

    let mut e1 = Engine::new(original).expect("compiles");
    let mut e2 = Engine::new(back).expect("compiles");
    let r1 = e1.optimize().expect("runs").expect("feasible");
    let r2 = e2.optimize().expect("runs").expect("feasible");
    assert_eq!(r1.design.selections, r2.design.selections);
    assert_eq!(r1.design.hardware, r2.design.hardware);
    assert_eq!(r1.design.total_cost_usd, r2.design.total_cost_usd);
    let p1: Vec<u64> = r1.levels.iter().map(|l| l.penalty).collect();
    let p2: Vec<u64> = r2.levels.iter().map(|l| l.penalty).collect();
    assert_eq!(p1, p2);
}

#[test]
fn infeasible_scenarios_roundtrip_their_diagnoses() {
    let original = case_study::naive_scenario();
    let back = roundtrip(&original);
    let mut e1 = Engine::new(original).expect("compiles");
    let mut e2 = Engine::new(back).expect("compiles");
    let d1 = e1.check().expect("runs");
    let d2 = e2.check().expect("runs");
    let labels = |o: &Outcome| -> Vec<String> {
        o.diagnosis()
            .expect("infeasible")
            .conflicts
            .iter()
            .map(|c| c.label.clone())
            .collect()
    };
    assert_eq!(labels(&d1), labels(&d2));
}

#[test]
fn conditions_with_every_variant_roundtrip() {
    let condition = Condition::all([
        Condition::any([
            Condition::system("A"),
            Condition::CategoryFilled(Category::Monitoring),
            Condition::ProvidedFeature(Feature::new("F")),
        ]),
        Condition::not(Condition::workload("p")),
        Condition::param("x", CmpOp::Le, 3.5),
        Condition::nics_have("N"),
        Condition::switches_have("S"),
        Condition::ServerFeature(Feature::new("V")),
        Condition::True,
        Condition::False,
    ]);
    let json = netarch_rt::json::to_string(&condition);
    let back: Condition = netarch_rt::json::from_str(&json).unwrap();
    assert_eq!(back, condition);
}

#[test]
fn design_json_is_stable_for_tool_consumers() {
    let mut engine = Engine::new(case_study::scenario()).expect("compiles");
    let outcome = engine.check().expect("runs");
    let design = outcome.design().expect("feasible");
    let json = netarch_rt::json::to_value(design);
    // The shape external tools rely on (CLI --json consumers).
    assert!(json["selections"].is_object());
    assert!(json["hardware"].is_object());
    assert!(json["total_cost_usd"].is_u64());
    assert!(json["resources"].is_object());
    let back: Design = netarch_rt::json::FromJson::from_json(&json).unwrap();
    assert_eq!(&back, design);
}

/// 64-bit FNV-1a, enough to pin a byte stream in a test.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(text: &str) -> (usize, u64) {
    (text.len(), fnv64(text.as_bytes()))
}

#[test]
fn case_study_json_bytes_are_pinned() {
    // Length and FNV-1a digest of the canonical text, recorded from the
    // serializer that built a `Json` tree and then dumped it. The
    // streaming emitter must reproduce those bytes exactly: fingerprints,
    // committed result files and golden manifests all hash this text.
    let compact = netarch_rt::json::to_string(&case_study::scenario());
    let lowered = netarch_rt::json::to_string(&netarch::corpus::narch::case_study_scenario());
    let pretty = netarch::corpus::catalog_json();
    assert_eq!(digest(&compact), (89_328, 7_562_041_606_841_610_377));
    assert_eq!(digest(&lowered), digest(&compact), "the .narch corpus lowers to the case study");
    assert_eq!(digest(&pretty), (141_986, 18_274_193_012_661_274_018));
}
