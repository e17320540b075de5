//! Workload inputs, each a pure function of the seed.

use netarch_core::fingerprint::fingerprint_scenario;
use netarch_core::prelude::*;
use netarch_dsl::{Loader, ScenarioDoc, SweepSpec};
use netarch_rt::Rng;
use netarch_serve::{generate_tape, ReplaySpec, Request};
use netarch_sweep::SweepStream;

/// The sweep over the case study, loaded beside the corpus files.
pub const SWEEP_SOURCE: &str = include_str!("../case_study_sweep.narch");

/// Loads the 13 corpus `.narch` files (and, with `with_sweep`, the
/// benchmark's sweep block) through the DSL loader.
pub fn load_corpus(with_sweep: bool) -> Result<ScenarioDoc, String> {
    let mut loader = Loader::new();
    for (path, content) in netarch_corpus::narch::SOURCES {
        loader
            .add_source(path, content)
            .map_err(|e| e.to_string())?;
    }
    if with_sweep {
        loader
            .add_source("paperbench/case_study_sweep.narch", SWEEP_SOURCE)
            .map_err(|e| e.to_string())?;
    }
    loader.finish().map_err(|e| e.to_string())
}

/// Bytes of `.narch` text one corpus load reads.
pub fn corpus_bytes() -> usize {
    netarch_corpus::narch::SOURCES
        .iter()
        .map(|(_, c)| c.len())
        .sum()
}

/// The case-study scenario of a loaded corpus.
pub fn case_study(doc: &ScenarioDoc) -> Result<Scenario, String> {
    doc.require_scenario().cloned().map_err(|e| e.to_string())
}

/// One query call of an architect session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `Engine::check`.
    Check,
    /// `Engine::enumerate_designs(limit, false)`.
    Enumerate(usize),
    /// `Engine::plan_capacity(max_servers)`.
    Capacity(u64),
    /// `Engine::disambiguate(limit)`.
    Disambiguate(usize),
    /// `Engine::optimize`.
    Optimize,
}

/// The fixed query order of one architect session; the seed picks the
/// limits and fleet bounds. Each limit and bound after `optimize`
/// differs from its counterpart before it, and the two enumeration
/// limits differ from the two disambiguation limits, so no answer comes
/// from the engine's memo caches.
pub fn session_tape(seed: u64) -> Vec<Step> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5e55_1017);
    let mut pair = |base: u64, span: u64| {
        let first = base + rng.gen_range(0..span);
        let second = base + (first - base + rng.gen_range(1..span)) % span;
        (first, second)
    };
    let (enumerate, enumerate_after) = pair(48, 5);
    let (disambiguate, disambiguate_after) = pair(30, 5);
    let (capacity, capacity_after) = pair(120, 9);
    vec![
        Step::Check,
        Step::Enumerate(enumerate as usize),
        Step::Capacity(capacity),
        Step::Disambiguate(disambiguate as usize),
        Step::Optimize,
        Step::Check,
        Step::Enumerate(enumerate_after as usize),
        Step::Disambiguate(disambiguate_after as usize),
        Step::Capacity(capacity_after),
    ]
}

/// The sweep spec of a corpus loaded with the sweep, its stream
/// shuffled by `seed`.
pub fn variant_stream(doc: &ScenarioDoc, seed: u64) -> Result<(SweepSpec, SweepStream), String> {
    let mut spec = doc
        .sweeps
        .first()
        .ok_or("the corpus defines no sweep")?
        .clone();
    spec.seed = seed;
    let stream = netarch_sweep::enumerate_sweep(&spec, &doc.catalog).map_err(|e| e.to_string())?;
    Ok((spec, stream))
}

/// The text form a variant reaches the frontend in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// A self-contained `.narch` document.
    Narch,
    /// A JSON scenario document.
    Json,
}

/// One variant as the text a user would submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VariantText {
    /// Picks per choice group, identifying the variant.
    pub picks: Vec<usize>,
    /// The text's format.
    pub format: Format,
    /// The document.
    pub text: String,
}

/// Renders every variant of the stream, alternating `.narch` and JSON by
/// stream position.
pub fn render_variants(
    spec: &SweepSpec,
    base: &Scenario,
    stream: &SweepStream,
) -> Vec<VariantText> {
    stream
        .variants
        .iter()
        .map(|variant| {
            let scenario = netarch_sweep::variant_scenario(spec, base, &variant.picks);
            let (format, text) = if variant.index % 2 == 0 {
                (Format::Narch, netarch_dsl::print_scenario(&scenario))
            } else {
                (Format::Json, netarch_rt::json::to_string(&scenario))
            };
            VariantText {
                picks: variant.picks.clone(),
                format,
                text,
            }
        })
        .collect()
}

/// Requests on one replay tape.
pub const TAPE_LEN: usize = 240;

/// Sweep variants in the replay pool beside the case study.
pub const POOL_VARIANTS: usize = 48;

/// Shuffle seed of the variant stream the replay pool is drawn from. It
/// is fixed, so the pool is the same for every workload seed and the seed
/// changes only the tape's draws.
pub const POOL_SEED: u64 = 0;

/// The replay pool: the case study followed by the first
/// [`POOL_VARIANTS`] variants of `stream`.
pub fn replay_pool(spec: &SweepSpec, base: &Scenario, stream: &SweepStream) -> Vec<Scenario> {
    let mut pool = vec![base.clone()];
    pool.extend(
        stream
            .variants
            .iter()
            .take(POOL_VARIANTS)
            .map(|v| netarch_sweep::variant_scenario(spec, base, &v.picks)),
    );
    pool
}

/// The `replay`-th tape of a run: the default `ReplaySpec` mix over
/// `pool`, its generator seeded from the workload seed and `replay`.
pub fn replay_tape(seed: u64, replay: u64, pool: &[Scenario]) -> Vec<Request> {
    let tape_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ replay;
    let spec = ReplaySpec {
        seed: tape_seed,
        requests: TAPE_LEN,
        ..ReplaySpec::default()
    };
    generate_tape(&spec, pool)
}

/// FNV-1a digest of a tape: every request's id, class, query and full
/// scenario fingerprint.
pub fn tape_digest(tape: &[Request]) -> u128 {
    let mut state: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            state ^= u128::from(b);
            state = state.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
        }
    };
    for request in tape {
        feed(&request.id.to_le_bytes());
        feed(request.class.name().as_bytes());
        feed(format!("{:?}", request.query).as_bytes());
        feed(&fingerprint_scenario(&request.scenario).full.0.to_le_bytes());
    }
    state
}
