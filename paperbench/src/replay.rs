//! `serve_replay`: an offline batch replay of serve tapes.
//!
//! Each tape is `generate_tape` with the default `ReplaySpec` mix over a
//! pool of the case study and sweep variants. A replay hands a whole
//! tape to `Service::run` (2 shards, 4 warm sessions each), which returns
//! every response at the end, so this is a batch, not an arrival-rate
//! test: throughput is a tape's requests over its makespan, and latency
//! is each response's service time, queue wait excluded. Replays repeat,
//! each on a fresh service with the run's next tape, until the time is
//! up; many tapes per run keep one tape's draw of query kinds and cache
//! hits from setting the run's figures.

use crate::inputs;
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::{guarded, repeat_setup, stats, Phase, RunConfig, Traced};
use netarch_core::fingerprint::fingerprint_scenario;
use netarch_core::prelude::*;
use netarch_serve::request::run_query;
use netarch_serve::{Answer, QueryKind, Request, Service, ServiceConfig, ServiceStats};
use std::collections::HashMap;
use std::time::Instant;

/// Shards of the replayed service.
pub const SHARDS: usize = 2;

/// Warm sessions each shard keeps.
pub const SESSIONS_PER_SHARD: usize = 4;

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        sessions_per_shard: SESSIONS_PER_SHARD,
        ..ServiceConfig::default()
    }
}

/// Fresh-engine answers, one per distinct (scenario, query) pair seen in
/// the run.
type Oracle = HashMap<(u128, String), Answer>;

/// Each request's query and its answer on a fresh engine.
fn expected(tape: &[Request], oracle: &mut Oracle) -> Result<Vec<(QueryKind, Answer)>, String> {
    tape.iter()
        .map(|request| {
            let key = (
                fingerprint_scenario(&request.scenario).full.0,
                format!("{:?}", request.query),
            );
            let answer = match oracle.get(&key) {
                Some(answer) => answer.clone(),
                None => {
                    let mut engine =
                        Engine::new(request.scenario.clone()).map_err(|e| e.to_string())?;
                    let answer = run_query(&mut engine, &request.query)?;
                    oracle.insert(key, answer.clone());
                    answer
                }
            };
            Ok((request.query.clone(), answer))
        })
        .collect()
}

/// Latencies of one phase's responses, split the ways the layer metrics
/// need, and per-replay figures.
#[derive(Default)]
struct Split {
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    by_kind: HashMap<&'static str, Vec<f64>>,
    max_busy_s: Vec<f64>,
    mean_busy_s: Vec<f64>,
    makespan_s: Vec<f64>,
}

/// Counts of a phase's first replay.
struct FirstReplay {
    stats: ServiceStats,
    answers_checked: u64,
}

fn measure(
    pool: &[Scenario],
    seed: u64,
    oracle: &mut Oracle,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Phase, Split, FirstReplay), String> {
    let mut phase = Phase::default();
    let mut split = Split::default();
    let mut first = None;
    let mut round = 0u64;
    while first.is_none() || phase.timed_s < seconds {
        let tape = inputs::replay_tape(seed, round, pool);
        let want = expected(&tape, oracle)?;
        let requests = tape.len() as u64;
        let span = tracer.enter("serve.run", round);
        let start = Instant::now();
        let replay = guarded(|| Ok(Service::run(config(), tape)));
        let makespan_s = start.elapsed().as_secs_f64();
        tracer.exit(span);
        phase.timed_s += makespan_s;
        phase.attempted += requests;
        let Ok((responses, stats)) = replay else {
            // A shard panicked: the whole replay failed.
            phase.failed += requests;
            phase.windows.push((0, makespan_s));
            round += 1;
            continue;
        };

        // Checks, outside the timed region.
        if responses.len() != want.len() {
            return Err(format!(
                "replay {round}: {} responses for {requests} requests",
                responses.len()
            ));
        }
        let mut checked = 0u64;
        let mut busy = [0u64; SHARDS];
        for (id, (response, (query, answer))) in responses.iter().zip(&want).enumerate() {
            if response.id != id as u64 {
                return Err(format!(
                    "replay {round}: response {} out of order",
                    response.id
                ));
            }
            let ms = response.micros as f64 / 1e3;
            phase.latencies_ms.push(ms);
            busy[response.shard] += response.micros;
            if response.cache_hit {
                &mut split.warm_ms
            } else {
                &mut split.cold_ms
            }
            .push(ms);
            split.by_kind.entry(query.name()).or_default().push(ms);
            match &response.answer {
                Ok(got) if got == answer => checked += 1,
                Ok(got) => {
                    return Err(format!(
                        "replay {round}: request {id} ({query:?}) answered {got:?}, a fresh engine {answer:?}"
                    ))
                }
                Err(_) => phase.failed += 1,
            }
        }
        phase.windows.push((checked, makespan_s));
        split.makespan_s.push(makespan_s);
        split
            .max_busy_s
            .push(busy.iter().copied().max().unwrap_or(0) as f64 / 1e6);
        split
            .mean_busy_s
            .push(busy.iter().sum::<u64>() as f64 / SHARDS as f64 / 1e6);
        first.get_or_insert(FirstReplay {
            stats,
            answers_checked: checked,
        });
        round += 1;
    }
    Ok((phase, split, first.expect("at least one replay ran")))
}

/// Set-up shared by the plain and the traced run: the pool (and one tape,
/// built to time it), and the set-up times.
fn prepare(config: &RunConfig) -> Result<(Vec<Scenario>, Vec<f64>), String> {
    repeat_setup(|| {
        let doc = inputs::load_corpus(true)?;
        let base = inputs::case_study(&doc)?;
        let (spec, stream) = inputs::variant_stream(&doc, inputs::POOL_SEED)?;
        let pool = inputs::replay_pool(&spec, &base, &stream);
        // Built here to time it; each replay rebuilds its own tape, so
        // only one tape is held at a time.
        drop(inputs::replay_tape(config.seed, 0, &pool));
        Ok(pool)
    })
}

/// Runs the workload untraced; returns its requests and set-up times.
pub fn untraced(config: &RunConfig) -> Result<(Phase, Vec<f64>), String> {
    let (pool, setup_s) = prepare(config)?;
    let (phase, _, _) = measure(
        &pool,
        config.seed,
        &mut Oracle::new(),
        config.seconds,
        &mut Tracer::new(false),
    )?;
    Ok((phase, setup_s))
}

/// Runs the workload traced and reports the metrics of the serve layer.
pub fn traced(config: &RunConfig) -> Result<Traced, String> {
    let (pool, _) = prepare(config)?;
    let mut tracer = Tracer::new(true);
    let (phase, split, first) = measure(
        &pool,
        config.seed,
        &mut Oracle::new(),
        config.seconds,
        &mut tracer,
    )?;
    let mut metrics = Metrics::default();
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    metrics.put("serve.makespan_s", median(&split.makespan_s));
    metrics.put("serve.warm_p50_ms", median(&split.warm_ms));
    metrics.put("serve.cold_p50_ms", median(&split.cold_ms));
    for (kind, metric) in [
        ("check", "serve.check_p50_ms"),
        ("optimize", "serve.optimize_p50_ms"),
        ("enumerate", "serve.enumerate_p50_ms"),
        ("capacity", "serve.capacity_p50_ms"),
    ] {
        metrics.put(metric, split.by_kind.get(kind).map_or(0.0, |v| median(v)));
    }
    metrics.put_ratio(
        "serve.shard_busy_imbalance",
        median(&split.max_busy_s),
        median(&split.mean_busy_s),
    );
    let stats = &first.stats;
    metrics.put_ratio(
        "serve.cache_hit_ratio",
        stats.cache_hits() as f64,
        stats.requests() as f64,
    );
    metrics.put("serve.compiles", stats.compiles() as f64);
    metrics.put("serve.evictions", stats.evictions() as f64);
    metrics.put("oracle.answers_checked", first.answers_checked as f64);
    Ok(Traced {
        metrics,
        phase,
        tracer,
    })
}
