//! Experiment: DSL frontend throughput.
//!
//! The paper's pitch is *lightweight* reasoning — the text frontend must
//! not become the bottleneck in the edit-check loop. This experiment
//! parses and lowers the full committed `.narch` corpus repeatedly and
//! reports tokenize/parse-only and parse+lower throughput (each timing is
//! the median of 20 calls after a warm-up), then verifies
//! the lowered catalog matches the Rust-built corpus scale. The JSON side
//! of the frontend is timed too: reading the case-study scenario back
//! from its JSON text, and fingerprinting it (the serve cache key, which
//! hashes the scenario's canonical JSON as it is emitted).

use netarch_bench::section;
use netarch_core::fingerprint::fingerprint_scenario;
use netarch_core::scenario::Scenario;
use netarch_corpus::narch::SOURCES;
use netarch_dsl::Loader;
use std::time::Instant;

/// Timed calls per measurement.
const ITERS: usize = 20;

/// Median wall time of one call of `f` (its result dropped inside the
/// timing), in ms, over `ITERS` calls after one untimed warm-up call. A
/// median, so one descheduled call on a shared host cannot move the
/// number the regression gate compares.
fn median_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    drop(f());
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let start = Instant::now();
            drop(std::hint::black_box(f()));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[ITERS / 2]
}

fn main() {
    section("DSL frontend: parse + lower throughput over the committed corpus");

    let total_bytes: usize = SOURCES.iter().map(|(_, text)| text.len()).sum();
    let total_lines: usize =
        SOURCES.iter().map(|(_, text)| text.lines().count()).sum();
    println!(
        "  corpus: {} files, {} lines, {:.1} KiB\n",
        SOURCES.len(),
        total_lines,
        total_bytes as f64 / 1024.0
    );

    // Parse only: text -> block tree, no lowering.
    let parse_ms = median_ms(|| {
        for (name, text) in SOURCES {
            let doc = netarch_rt::text::parse(text)
                .unwrap_or_else(|e| panic!("{name} must parse: {e}"));
            assert!(!doc.blocks.is_empty(), "{name} is empty");
        }
    });

    // Full load: parse + lower + two-phase catalog registration.
    let load = || {
        let mut loader = Loader::new();
        for (name, text) in SOURCES {
            loader.add_source(name, text).expect("corpus parses");
        }
        loader.finish().expect("corpus lowers")
    };
    let load_ms = median_ms(load);
    let doc = load();

    // JSON: the case-study scenario read back from its canonical text,
    // then fingerprinted.
    let scenario = doc.scenario.clone().expect("case study scenario present");
    let json_text = netarch_rt::json::to_string(&scenario);
    let json_ms = median_ms(|| {
        let back: Scenario =
            netarch_rt::json::from_str(&json_text).expect("scenario JSON reads back");
        assert_eq!(back.catalog.num_systems(), scenario.catalog.num_systems());
        back
    });
    let fingerprint_ms = median_ms(|| fingerprint_scenario(&scenario));
    assert_eq!(
        fingerprint_scenario(&scenario),
        fingerprint_scenario(&scenario),
        "fingerprint is deterministic"
    );

    let mib_s = |bytes: usize, ms: f64| bytes as f64 / (1024.0 * 1024.0) / (ms / 1e3);
    let parse_mib_s = mib_s(total_bytes, parse_ms);
    let load_mib_s = mib_s(total_bytes, load_ms);
    let json_mib_s = mib_s(json_text.len(), json_ms);
    println!("  parse only        {parse_ms:>8.2} ms   {parse_mib_s:>8.1} MiB/s");
    println!("  parse + lower     {load_ms:>8.2} ms   {load_mib_s:>8.1} MiB/s");
    println!(
        "  case study JSON   {json_ms:>8.2} ms   {json_mib_s:>8.1} MiB/s   ({:.1} KiB)",
        json_text.len() as f64 / 1024.0
    );
    println!("  fingerprint       {fingerprint_ms:>8.2} ms");

    // The lowered catalog must be the real corpus, not a fragment.
    let reference = netarch_corpus::full_catalog();
    assert_eq!(doc.catalog.num_systems(), reference.num_systems());
    assert_eq!(doc.catalog.num_hardware(), reference.num_hardware());
    assert!(doc.scenario.is_some(), "case study scenario present");

    let summary = netarch_rt::jobj! {
        "experiment": "parse",
        "files": SOURCES.len(),
        "lines": total_lines,
        "bytes": total_bytes,
        "parse_ms": parse_ms,
        "load_ms": load_ms,
        "parse_mib_per_s": parse_mib_s,
        "load_mib_per_s": load_mib_s,
        "json_bytes": json_text.len(),
        "json_ms": json_ms,
        "json_mib_per_s": json_mib_s,
        "fingerprint_ms": fingerprint_ms,
        "systems": doc.catalog.num_systems(),
        "hardware": doc.catalog.num_hardware(),
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    netarch_bench::persist_result("parse", &summary);

    assert!(
        load_ms < 1000.0,
        "loading the corpus took {load_ms:.0} ms; the frontend is not lightweight"
    );
    println!("\nPASS: full corpus loads from text well under a second.");
}
