//! Experiment E9/E10 — §3.1's linearity claim and §3.4's tractability
//! claim: specification size and compiled encoding size vs corpus size,
//! and solve time across scenario scales.

use netarch_bench::{section, subset_catalog};
use netarch_core::compile::compile;
use netarch_core::prelude::*;

fn scenario_over(catalog: Catalog) -> Scenario {
    // Populate inventory from whatever the subset contains.
    let nics: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Nic)
        .iter()
        .take(4)
        .map(|h| h.id.clone())
        .collect();
    let switches: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Switch)
        .iter()
        .take(4)
        .map(|h| h.id.clone())
        .collect();
    let servers: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Server)
        .iter()
        .take(3)
        .map(|h| h.id.clone())
        .collect();
    Scenario::new(catalog)
        .with_workload(
            Workload::builder("app")
                .property("dc_flows")
                .peak_cores(500)
                .num_flows(20_000)
                .needs("host_networking")
                .build(),
        )
        .with_param("link_speed_gbps", 100.0)
        .with_inventory(Inventory {
            nic_candidates: nics,
            switch_candidates: switches,
            server_candidates: servers,
            num_servers: 32,
            num_switches: 4,
        })
}

fn main() {
    section("E9: specification & encoding growth vs number of systems (§3.1)");
    println!(
        "  {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "systems", "spec-units", "rules", "clauses", "vars", "units/sys"
    );
    let mut rows = Vec::new();
    for n in [10usize, 20, 30, 40, 50, 60, 70] {
        let catalog = subset_catalog(n, 60);
        let spec_units = catalog.spec_size();
        let actual = catalog.num_systems();
        let scenario = scenario_over(catalog);
        let compiled = compile(&scenario).expect("compiles");
        println!(
            "  {:>8} {:>10} {:>10} {:>10} {:>10} {:>12.1}",
            actual,
            spec_units,
            compiled.stats.rules,
            compiled.stats.clauses,
            compiled.stats.solver_vars,
            spec_units as f64 / actual.max(1) as f64,
        );
        rows.push((actual, spec_units, compiled.stats.clauses));
    }
    // Linearity check: marginal spec units per added system must be
    // bounded (no super-linear blowup).
    let (n0, s0, _) = rows[0];
    let (n1, s1, _) = *rows.last().unwrap();
    let marginal = (s1 - s0) as f64 / (n1 - n0) as f64;
    println!("\n  marginal spec units per system: {marginal:.1} (bounded ⇒ linear growth)");
    assert!(marginal < 20.0);
    // Clause growth should also stay near-linear in systems (the quadratic
    // pairwise terms are bounded by category sizes).
    let clause_ratio = rows.last().unwrap().2 as f64 / rows[0].2.max(1) as f64;
    let system_ratio = n1 as f64 / n0 as f64;
    println!(
        "  clause growth {clause_ratio:.1}× for {system_ratio:.1}× systems (≤ quadratic budget: {:.1}×)",
        system_ratio * system_ratio
    );
    assert!(clause_ratio < system_ratio * system_ratio);

    section("E10: solve time vs scenario scale (§3.4 tractability)");
    println!(
        "  {:>8} {:>10} {:>14} {:>14}",
        "systems", "hardware", "check-time", "optimize-time"
    );
    for (n_sys, n_hw) in [(20usize, 20usize), (40, 60), (70, 110)] {
        let catalog = subset_catalog(n_sys, n_hw);
        let mut scenario = scenario_over(catalog);
        scenario
            .objectives
            .push(Objective::MaximizeDimension(Dimension::Latency));
        scenario.objectives.push(Objective::MinimizeCost);
        let mut engine = Engine::new(scenario).expect("compiles");
        let t0 = std::time::Instant::now();
        let _ = engine.check().expect("runs");
        let check = t0.elapsed();
        let t1 = std::time::Instant::now();
        let _ = engine.optimize().expect("runs");
        let optimize = t1.elapsed();
        println!("  {n_sys:>8} {n_hw:>10} {check:>14.2?} {optimize:>14.2?}");
    }
    // Machine-readable summary for downstream tooling; the smoke test
    // parses this line back to validate the interchange format.
    let summary = netarch_rt::jobj! {
        "experiment": "scaling",
        "marginal_spec_units_per_system": marginal,
        "clause_growth": clause_ratio,
        "rows": rows
            .iter()
            .map(|&(systems, spec_units, clauses)| netarch_rt::jobj! {
                "systems": systems,
                "spec_units": spec_units,
                "clauses": clauses,
            })
            .collect::<Vec<_>>(),
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    netarch_bench::persist_result("scaling", &summary);

    println!("\nPASS: spec growth linear; solving stays interactive at full corpus scale.");
}
