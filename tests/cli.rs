//! End-to-end tests of the `netarch` CLI binary: scenario JSON round-trip
//! through a temp file, every subcommand, and error handling.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn netarch(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_netarch"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).to_string(),
        String::from_utf8_lossy(&output.stderr).to_string(),
    )
}

/// Runs the binary and returns its exit code (`None` when killed by a
/// signal) with its stderr.
fn netarch_exit(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_netarch"))
        .args(args)
        .output()
        .expect("binary runs");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).to_string())
}

/// A temp path no other call in this run shares: tests in one binary run in
/// parallel under one PID, so the PID alone would let one test delete
/// another's file. `tag` names the calling test; the counter separates
/// repeated calls within it.
fn temp_path(tag: &str, ext: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("netarch-{tag}-{}-{n}{ext}", std::process::id()))
}

fn demo_scenario_path(tag: &str) -> PathBuf {
    let (ok, stdout, stderr) = netarch(&["demo"]);
    assert!(ok, "{stderr}");
    let path = temp_path(tag, ".json");
    std::fs::write(&path, stdout).expect("write temp scenario");
    path
}

#[test]
fn demo_emits_parseable_scenario_json() {
    let (ok, stdout, _) = netarch(&["demo"]);
    assert!(ok);
    let scenario: netarch::core::scenario::Scenario =
        netarch_rt::json::from_str(&stdout).expect("valid scenario JSON");
    assert_eq!(scenario.workloads.len(), 1);
    assert!(scenario.catalog.num_systems() > 50);
}

#[test]
fn check_reports_feasible_with_a_design() {
    let path = demo_scenario_path("check_reports_feasible_with_a_design");
    let (ok, stdout, _) = netarch(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.starts_with("FEASIBLE"));
    assert!(stdout.contains("load-balancer:"));
}

#[test]
fn capacity_reports_fleet_size() {
    let path = demo_scenario_path("capacity_reports_fleet_size");
    let (ok, stdout, _) = netarch(&["capacity", path.to_str().unwrap(), "512"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("SERVERS NEEDED: 44"), "{stdout}");
}

#[test]
fn capacity_refuses_fleet_bounds_above_the_ceiling() {
    let path = demo_scenario_path("capacity_refuses_fleet_bounds_above_the_ceiling");
    let p = path.to_str().unwrap().to_string();
    let u64_max = u64::MAX.to_string();
    for max in [u64_max.as_str(), "4294967296"] {
        // Exit 1 with a message, never a panic (101) or an abort.
        let (code, stderr) = netarch_exit(&["capacity", &p, max]);
        assert_eq!(code, Some(1), "capacity {max}: {stderr}");
        assert!(
            stderr.contains(&format!("capacity bound {max} exceeds the limit")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn compare_answers_listing_2_orderings() {
    let path = demo_scenario_path("compare_answers_listing_2_orderings");
    let p = path.to_str().unwrap().to_string();
    let (ok, stdout, _) = netarch(&["compare", &p, "SIMON", "PINGMESH", "monitoring-quality"]);
    assert!(ok);
    assert!(stdout.contains("Better"), "{stdout}");
    let (ok, stdout, _) = netarch(&["compare", &p, "SIMON", "PINGMESH", "deployment-ease"]);
    assert!(ok);
    assert!(stdout.contains("Worse"), "{stdout}");
    let (ok, stdout, _) = netarch(&["compare", &p, "SHENANGO", "DEMIKERNEL", "isolation"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("Incomparable"), "{stdout}");
}

#[test]
fn compare_rejects_unknown_system_ids() {
    let path = demo_scenario_path("compare_rejects_unknown_system_ids");
    let p = path.to_str().unwrap().to_string();
    let (code, stderr) = netarch_exit(&["compare", &p, "SIMON", "PINGMSH", "monitoring-quality"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown system id(s)") && stderr.contains("PINGMSH"), "{stderr}");
    assert!(!stderr.contains("SIMON,"), "a known id is not reported: {stderr}");
    let (code, stderr) = netarch_exit(&["compare", &p, "NOPE_A", "NOPE_B", "isolation"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("NOPE_A, NOPE_B"), "{stderr}");
}

#[test]
fn enumerate_lists_classes() {
    let path = demo_scenario_path("enumerate_lists_classes");
    let (ok, stdout, _) = netarch(&["enumerate", path.to_str().unwrap(), "3"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("3 equivalence classes"), "{stdout}");
    assert!(stdout.contains("class 1:"));
}

#[test]
fn export_catalog_roundtrips() {
    let (ok, stdout, _) = netarch(&["export-catalog"]);
    assert!(ok);
    let catalog: netarch::core::catalog::Catalog =
        netarch_rt::json::from_str(&stdout).expect("valid catalog JSON");
    assert!(catalog.num_systems() > 50);
    assert!(catalog.num_hardware() >= 180);
}

#[test]
fn bad_usage_fails_with_help() {
    let (ok, _, stderr) = netarch(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");

    let (ok, _, stderr) = netarch(&[]);
    assert!(!ok);
    assert!(stderr.contains("no command given"), "{stderr}");

    let (ok, _, stderr) = netarch(&["check", "/nonexistent/path.json"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

// ---------------------------------------------------------------------------
// .narch frontend: format detection, load/validate/fmt, parity with JSON
// ---------------------------------------------------------------------------

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn corpus_narch_paths() -> Vec<String> {
    let mut paths = Vec::new();
    for dir in ["corpus/systems", "corpus/hardware"] {
        for entry in std::fs::read_dir(repo_path(dir)).expect("corpus dir exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "narch") {
                paths.push(path.to_str().unwrap().to_string());
            }
        }
    }
    paths.push(repo_path("corpus/orderings.narch"));
    paths.push(repo_path("corpus/case_study.narch"));
    paths
}

#[test]
fn check_accepts_narch_scenario_files() {
    let (ok, stdout, stderr) = netarch(&["check", &repo_path("examples/minimal.narch")]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("FEASIBLE"), "{stdout}");
    assert!(stdout.contains("SIMON"), "{stdout}");
}

/// The tentpole acceptance criterion: a `.narch` scenario and its JSON
/// equivalent produce byte-identical answers.
#[test]
fn narch_and_json_scenarios_answer_identically() {
    let json_path = demo_scenario_path("narch_and_json_scenarios_answer_identically");
    let (ok, narch_text, stderr) = netarch(&["demo", "--narch"]);
    assert!(ok, "{stderr}");
    let narch_path = temp_path("narch_and_json_scenarios_answer_identically", ".narch");
    std::fs::write(&narch_path, narch_text).unwrap();

    let from_json = netarch(&["check", json_path.to_str().unwrap()]);
    let from_narch = netarch(&["check", narch_path.to_str().unwrap()]);
    assert!(from_json.0 && from_narch.0);
    assert_eq!(from_json.1, from_narch.1, "check answers diverge across formats");

    let from_json = netarch(&["optimize", json_path.to_str().unwrap()]);
    let from_narch = netarch(&["optimize", narch_path.to_str().unwrap()]);
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&narch_path).ok();
    assert!(from_json.0 && from_narch.0);
    assert_eq!(from_json.1, from_narch.1, "optimize answers diverge across formats");
}

#[test]
fn format_detection_sniffs_content_without_extension() {
    // A JSON scenario under a neutral extension still loads.
    let (_, json_text, _) = netarch(&["demo"]);
    let path = temp_path("format_detection_sniffs_content_without_extension", ".tmp");
    std::fs::write(&path, json_text).unwrap();
    let (ok, stdout, stderr) = netarch(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("FEASIBLE"));

    // Malformed JSON gets the format hint.
    let path = temp_path("format_detection_sniffs_content_without_extension", ".json");
    std::fs::write(&path, "{ not json").unwrap();
    let (ok, _, stderr) = netarch(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("cannot parse"), "{stderr}");
}

#[test]
fn load_merges_the_split_corpus_and_summarizes() {
    let paths = corpus_narch_paths();
    let args: Vec<&str> =
        std::iter::once("load").chain(paths.iter().map(String::as_str)).collect();
    let (ok, stdout, stderr) = netarch(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("hardware models"), "{stdout}");
    assert!(stdout.contains("queries: check, optimize"), "{stdout}");
}

#[test]
fn validate_passes_corpus_and_catches_dangling_references() {
    let paths = corpus_narch_paths();
    let args: Vec<&str> =
        std::iter::once("validate").chain(paths.iter().map(String::as_str)).collect();
    let (ok, stdout, stderr) = netarch(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("OK"), "{stdout}");

    let path = temp_path("validate_passes_corpus_and_catches_dangling_references", ".narch");
    std::fs::write(
        &path,
        "system \"A\" { category = transport  conflicts = [GHOST] }",
    )
    .unwrap();
    let (ok, _, stderr) = netarch(&["validate", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("dangling"), "{stderr}");
}

#[test]
fn fmt_is_canonical_and_idempotent() {
    let (ok, once, stderr) = netarch(&["fmt", &repo_path("examples/minimal.narch")]);
    assert!(ok, "{stderr}");
    let path = temp_path("fmt_is_canonical_and_idempotent", ".narch");
    std::fs::write(&path, &once).unwrap();
    let (ok, twice, _) = netarch(&["fmt", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert_eq!(once, twice, "fmt is not idempotent");

    // fmt refuses JSON input.
    let json_path = demo_scenario_path("fmt_is_canonical_and_idempotent");
    let (ok, _, stderr) = netarch(&["fmt", json_path.to_str().unwrap()]);
    std::fs::remove_file(&json_path).ok();
    assert!(!ok);
    assert!(stderr.contains("formats DSL text only"), "{stderr}");
}

/// Golden spanned-error test: a syntax error reports `file:line:col` and
/// the offending detail, and exits nonzero.
#[test]
fn narch_errors_carry_file_line_and_column() {
    let path = temp_path("narch_errors_carry_file_line_and_column", ".narch");
    // Column 14 on line 2: `category` misspelled.
    std::fs::write(
        &path,
        "system \"X\" {\n  categorie = monitoring\n}\n",
    )
    .unwrap();
    let (ok, _, stderr) = netarch(&["check", path.to_str().unwrap()]);
    assert!(!ok);
    let expected = format!("{}:2:3: unknown attribute `categorie`", path.display());
    assert!(stderr.contains(&expected), "missing spanned diagnostic; got:\n{stderr}");

    // Lexer-level error, different position.
    std::fs::write(&path, "system \"X\" {\n  cost_usd = @\n}\n").unwrap();
    let (ok, _, stderr) = netarch(&["fmt", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains(":2:14"), "missing lexer span; got:\n{stderr}");
}

#[test]
fn export_narch_regenerates_committed_corpus_byte_identically() {
    let dir = temp_path("export_narch_regenerates_committed_corpus_byte_identically", "");
    let (ok, _, stderr) = netarch(&["export-narch", dir.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    for rel in [
        "systems/stacks.narch",
        "hardware/nics.narch",
        "orderings.narch",
        "case_study.narch",
    ] {
        let generated = std::fs::read_to_string(dir.join(rel)).unwrap();
        let committed = std::fs::read_to_string(repo_path(&format!("corpus/{rel}"))).unwrap();
        assert_eq!(generated, committed, "committed corpus/{rel} is stale — regenerate");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_flag_emits_machine_readable_designs() {
    let path = demo_scenario_path("json_flag_emits_machine_readable_designs");
    let p = path.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = netarch(&["check", &p, "--json"]);
    assert!(ok, "{stderr}");
    let value: netarch_rt::Json = netarch_rt::json::from_str(&stdout).expect("valid JSON");
    use netarch_rt::json::FromJson;
    let design = netarch::core::solution::Design::from_json(&value["design"])
        .expect("valid design JSON");
    assert!(!design.selections.is_empty());
    // Solver/session counters ride along with every design verdict.
    assert!(value["stats"]["session_solves"].as_u64().unwrap_or(0) >= 1);
    // Live session size and effort, beside the compile-time snapshot.
    assert!(value["stats"]["live_vars"].as_u64().unwrap_or(0) >= 1);
    assert!(value["stats"]["live_clauses"].as_u64().unwrap_or(0) >= 1);
    assert!(value["stats"]["propagations"].as_u64().unwrap_or(0) >= 1);

    let (ok, stdout, _) = netarch(&["capacity", &p, "512", "--json"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    let value: netarch_rt::Json = netarch_rt::json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value["servers_needed"].as_u64(), Some(44));
    assert!(value["design"]["hardware"]["Server"].is_string());
    assert!(value["stats"]["session_solves"].as_u64().unwrap_or(0) >= 1);
}

// ---------------------------------------------------------------------------
// sweep: deterministic variant streams from the examples/sweep.narch spec
// ---------------------------------------------------------------------------

#[test]
fn sweep_smoke_manifest_is_deterministic() {
    let spec = repo_path("examples/sweep.narch");
    let (ok, first, stderr) = netarch(&["sweep", &spec, "--smoke"]);
    assert!(ok, "{stderr}");
    assert!(first.contains("variants=30"), "{first}");
    assert!(first.contains("admissible=30"), "{first}");
    assert!(first.contains("digest="), "{first}");
    let (ok, second, _) = netarch(&["sweep", &spec, "--smoke"]);
    assert!(ok);
    assert_eq!(first, second, "sweep manifest must be reproducible");
}

#[test]
fn sweep_export_writes_checkable_variants() {
    let spec = repo_path("examples/sweep.narch");
    let dir = temp_path("sweep_export_writes_checkable_variants", "");
    let (ok, stdout, stderr) = netarch(&["sweep", &spec, "--export", dir.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote 30 variant file(s)"), "{stdout}");
    // Every exported variant is a self-contained scenario the engine loads;
    // the stream mixes feasible and infeasible combinations by design.
    let mut verdicts = std::collections::BTreeSet::new();
    for index in 0..30 {
        let path = dir.join(format!("monitoring_matrix-{index:03}.narch"));
        let (ok, stdout, stderr) = netarch(&["check", path.to_str().unwrap()]);
        assert!(ok, "variant {index}: {stderr}");
        verdicts.insert(stdout.split_whitespace().next().unwrap_or("").to_string());
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(verdicts.contains("FEASIBLE"), "{verdicts:?}");
    assert!(verdicts.contains("INFEASIBLE"), "{verdicts:?}");
}

#[test]
fn sweep_json_lists_the_stream() {
    let spec = repo_path("examples/sweep.narch");
    let (ok, stdout, stderr) = netarch(&["sweep", &spec, "--json"]);
    assert!(ok, "{stderr}");
    let value: netarch_rt::Json = netarch_rt::json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value["sweep"].as_str(), Some("monitoring_matrix"));
    assert_eq!(value["admissible"].as_u64(), Some(30));
    assert_eq!(value["variants"].as_array().map(<[_]>::len), Some(30));
    assert!(value["digest"].as_str().is_some_and(|d| d.len() == 32));
}

#[test]
fn sweep_rejects_missing_blocks_and_unknown_names() {
    let (ok, _, stderr) = netarch(&["sweep", &repo_path("examples/minimal.narch")]);
    assert!(!ok);
    assert!(stderr.contains("no sweep block"), "{stderr}");

    let spec = repo_path("examples/sweep.narch");
    let (ok, _, stderr) = netarch(&["sweep", &spec, "--name", "ghost"]);
    assert!(!ok);
    assert!(stderr.contains("no sweep named"), "{stderr}");
    assert!(stderr.contains("monitoring_matrix"), "{stderr}");
}
