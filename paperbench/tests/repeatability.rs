//! Inputs are a pure function of the seed, and the exact-count metrics
//! repeat across runs with the same seed.

use netarch_paperbench::inputs;
use netarch_paperbench::{run, RunConfig, WORKLOADS};

fn variant_texts(seed: u64) -> Vec<inputs::VariantText> {
    let doc = inputs::load_corpus(true).unwrap();
    let base = inputs::case_study(&doc).unwrap();
    let (spec, stream) = inputs::variant_stream(&doc, seed).unwrap();
    inputs::render_variants(&spec, &base, &stream)
}

fn tape_digests(seed: u64) -> Vec<u128> {
    let doc = inputs::load_corpus(true).unwrap();
    let base = inputs::case_study(&doc).unwrap();
    let (spec, stream) = inputs::variant_stream(&doc, inputs::POOL_SEED).unwrap();
    let pool = inputs::replay_pool(&spec, &base, &stream);
    (0..2)
        .map(|r| inputs::tape_digest(&inputs::replay_tape(seed, r, &pool)))
        .collect()
}

#[test]
fn variant_texts_are_a_function_of_the_seed() {
    let a = variant_texts(3);
    assert_eq!(a, variant_texts(3));
    assert_eq!(a.len(), 256);
    let b = variant_texts(4);
    assert_ne!(a, b, "the seed must reorder the stream");
    let mut sorted_a: Vec<_> = a.iter().map(|t| &t.picks).collect();
    let mut sorted_b: Vec<_> = b.iter().map(|t| &t.picks).collect();
    sorted_a.sort();
    sorted_b.sort();
    assert_eq!(sorted_a, sorted_b, "every seed sees the same variants");
    assert!(a.iter().any(|t| t.format == inputs::Format::Narch));
    assert!(a.iter().any(|t| t.format == inputs::Format::Json));
}

#[test]
fn replay_tape_is_a_function_of_the_seed() {
    let tapes = tape_digests(5);
    assert_eq!(tapes, tape_digests(5));
    assert_ne!(tapes[0], tapes[1], "each replay of a run gets its own tape");
    let other = tape_digests(6);
    assert!(
        other.iter().all(|t| !tapes.contains(t)),
        "another seed gives other tapes"
    );
}

#[test]
fn session_limits_never_repeat_within_a_session() {
    for seed in 0..64 {
        let tape = inputs::session_tape(seed);
        assert_eq!(tape, inputs::session_tape(seed));
        let mut limits: Vec<u64> = Vec::new();
        let mut bounds: Vec<u64> = Vec::new();
        for step in &tape {
            match *step {
                inputs::Step::Enumerate(n) | inputs::Step::Disambiguate(n) => limits.push(n as u64),
                inputs::Step::Capacity(n) => bounds.push(n),
                _ => {}
            }
        }
        for list in [&mut limits, &mut bounds] {
            let len = list.len();
            list.sort_unstable();
            list.dedup();
            assert_eq!(
                list.len(),
                len,
                "seed {seed}: a memo cache would answer {tape:?}"
            );
        }
    }
}

/// The count metrics of a traced run: every per-layer metric whose unit
/// is `count`.
fn counts(seed: u64) -> Vec<(String, f64)> {
    let config = RunConfig {
        seed,
        seconds: 0.4,
        trace: true,
    };
    let result = run(WORKLOADS[0], &config).unwrap();
    assert_eq!(result.failed, 0);
    let line = result.result_line(true).unwrap();
    let json = netarch_rt::json::parse(&line).unwrap();
    let metrics = json.get("metrics").unwrap().as_object().unwrap();
    metrics
        .iter()
        .filter(|(_, m)| m.get("unit").and_then(|u| u.as_str()) == Some("count"))
        .map(|(name, m)| (name.clone(), m.get("value").unwrap().as_f64().unwrap()))
        .collect()
}

#[test]
fn count_metrics_repeat_with_the_same_seed() {
    let first = counts(9);
    for (name, value) in &first {
        assert!(*value > 0.0, "{name} counted nothing");
    }
    assert_eq!(first, counts(9));
}

#[test]
fn unknown_workload_is_an_error() {
    let config = RunConfig {
        seed: 0,
        seconds: 0.1,
        trace: false,
    };
    assert!(run("no_such_workload", &config).is_err());
}
