//! `case_study_session`: a closed loop of one client, each iteration one
//! architect session on the §2.3 case study.
//!
//! A session loads the 13 corpus files through the DSL loader, compiles
//! an engine and runs [`inputs::session_tape`] on it: four queries, then
//! `optimize`, then four queries of the same kinds with other limits. A
//! request is one query call. This is where `optimize` and the warm
//! session's slowdown after it live.

use crate::inputs::{self, Step};
use crate::report::{self, Metrics};
use crate::trace::Tracer;
use crate::{answers, guarded, repeat_setup, Phase, RunConfig, Traced};
use netarch_core::compile::CompileStats;
use netarch_core::disambiguate::Disambiguation;
use netarch_core::prelude::*;
use netarch_serve::request::run_query;
use netarch_serve::{Answer, QueryKind};
use std::time::Instant;

/// The case study's answers, kept beside the benchmark.
const EXPECTED: &str = include_str!("../expected.json");

/// What a step's answer must equal.
#[derive(Clone, Debug, PartialEq)]
enum Digest {
    Answer(Answer),
    Plan(Disambiguation),
}

/// A step's digest plus the designs it returned, each with the fleet
/// size it was sized at when that differs from the scenario's.
struct StepResult {
    digest: Digest,
    designs: Vec<(Design, Option<u64>)>,
}

fn run_step(engine: &mut Engine, step: Step) -> Result<StepResult, String> {
    let err = |e: CompileError| e.to_string();
    Ok(match step {
        Step::Check => {
            let outcome = engine.check().map_err(err)?;
            let designs = outcome
                .design()
                .map(|d| (d.clone(), None))
                .into_iter()
                .collect();
            StepResult {
                digest: Digest::Answer(answers::check(&outcome)),
                designs,
            }
        }
        Step::Enumerate(limit) => {
            let designs = engine.enumerate_designs(limit, false).map_err(err)?;
            let digest = Digest::Answer(answers::enumerate(&designs, limit));
            StepResult {
                digest,
                designs: designs.into_iter().map(|d| (d, None)).collect(),
            }
        }
        Step::Capacity(max) => {
            let plan = engine.plan_capacity(max).map_err(err)?;
            let digest = Digest::Answer(answers::capacity(&plan));
            let designs = plan.ok().map(|p| (p.design, Some(p.servers_needed)));
            StepResult {
                digest,
                designs: designs.into_iter().collect(),
            }
        }
        Step::Disambiguate(limit) => {
            let plan = engine.disambiguate(limit).map_err(err)?;
            StepResult {
                digest: Digest::Plan(answers::plan(&plan)),
                designs: Vec::new(),
            }
        }
        Step::Optimize => {
            let result = engine.optimize().map_err(err)?;
            let digest = Digest::Answer(answers::optimize(&result));
            let designs = result.ok().map(|r| (r.design, None));
            StepResult {
                digest,
                designs: designs.into_iter().collect(),
            }
        }
    })
}

/// Each step's answer on a fresh engine of its own.
fn oracle(scenario: &Scenario, tape: &[Step]) -> Result<Vec<Digest>, String> {
    tape.iter()
        .map(|&step| {
            let mut engine = Engine::new(scenario.clone()).map_err(|e| e.to_string())?;
            let query = match step {
                Step::Check => QueryKind::Check,
                Step::Enumerate(limit) => QueryKind::Enumerate(limit),
                Step::Capacity(max) => QueryKind::Capacity(max),
                Step::Optimize => QueryKind::Optimize,
                Step::Disambiguate(limit) => {
                    let plan = engine.disambiguate(limit).map_err(|e| e.to_string())?;
                    return Ok(Digest::Plan(answers::plan(&plan)));
                }
            };
            run_query(&mut engine, &query).map(Digest::Answer)
        })
        .collect()
}

/// Holds the oracle to the answers in `expected.json`.
fn check_expected(tape: &[Step], oracle: &[Digest]) -> Result<(), String> {
    let expected = netarch_rt::json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let field = |name: &str| {
        expected
            .get(name)
            .ok_or(format!("expected.json lacks {name}"))
    };
    let feasible = field("check_feasible")?
        .as_bool()
        .ok_or("check_feasible is not a bool")?;
    let penalties: Vec<u64> = field("optimize_penalties")?
        .as_array()
        .ok_or("optimize_penalties is not a list")?
        .iter()
        .map(|p| p.as_u64().ok_or("a penalty is not a count"))
        .collect::<Result<_, _>>()?;
    let servers = field("capacity_min_servers")?
        .as_u64()
        .ok_or("capacity_min_servers")?;
    for (step, digest) in tape.iter().zip(oracle) {
        let want = match step {
            Step::Check => Answer::Feasibility(feasible),
            Step::Optimize => Answer::Penalties(Some(penalties.clone())),
            Step::Capacity(_) => Answer::Capacity(Some(servers)),
            _ => continue,
        };
        if *digest != Digest::Answer(want.clone()) {
            return Err(format!(
                "{step:?}: fresh engine answered {digest:?}, expected {want:?}"
            ));
        }
    }
    Ok(())
}

/// Span name of a step, by whether `optimize` already ran.
fn span_name(step: Step, after_optimize: bool, feasible: bool) -> &'static str {
    match (step, after_optimize) {
        (Step::Check, false) if feasible => "query.check",
        (Step::Check, false) => "query.check_infeasible",
        (Step::Check, true) => "query.check_after_optimize",
        (Step::Enumerate(_), false) => "query.enumerate",
        (Step::Enumerate(_), true) => "query.enumerate_after_optimize",
        (Step::Disambiguate(_), false) => "query.disambiguate",
        (Step::Disambiguate(_), true) => "query.disambiguate_after_optimize",
        (Step::Capacity(_), false) => "query.capacity",
        (Step::Capacity(_), true) => "query.capacity_after_optimize",
        (Step::Optimize, _) => "query.optimize",
    }
}

/// Counts of one session: the engine's stats and the checks made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PassCounts {
    engine: CompileStats,
    answers_checked: u64,
    designs_validated: u64,
}

fn measure(
    scenario: &Scenario,
    tape: &[Step],
    oracle: &[Digest],
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Phase, PassCounts), String> {
    let mut phase = Phase::default();
    let mut first: Option<PassCounts> = None;
    let mut session = 0u64;
    while first.is_none() || phase.timed_s < seconds {
        let root = tracer.enter("session", session);
        let start = Instant::now();
        let load = tracer.enter("dsl.load", session);
        let doc = inputs::load_corpus(false)?;
        tracer.set_bytes(load, inputs::corpus_bytes());
        tracer.exit(load);
        let loaded = doc.scenario.ok_or("the corpus has no scenario block")?;
        let compile = tracer.enter("compile", session);
        let engine = guarded(|| Engine::new(loaded).map_err(|e| e.to_string()));
        tracer.exit(compile);
        let mut results = Vec::with_capacity(tape.len());
        let mut engine = engine.ok();
        let mut after_optimize = false;
        for &step in tape {
            let span = tracer.enter("query", session);
            let t = Instant::now();
            let result = match engine.as_mut() {
                Some(engine) => guarded(|| run_step(engine, step)),
                None => Err("the engine did not compile".to_string()),
            };
            phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let feasible = !matches!(
                result,
                Ok(StepResult {
                    digest: Digest::Answer(Answer::Feasibility(false)),
                    ..
                })
            );
            tracer.exit_as(span, span_name(step, after_optimize, feasible));
            after_optimize |= step == Step::Optimize;
            results.push(result);
        }
        let session_s = start.elapsed().as_secs_f64();
        phase.timed_s += session_s;
        tracer.exit(root);

        // Checks, outside the timed region.
        let mut counts = PassCounts {
            engine: engine.as_ref().map(Engine::stats).unwrap_or_default(),
            answers_checked: 0,
            designs_validated: 0,
        };
        for ((step, result), want) in tape.iter().zip(results).zip(oracle) {
            phase.attempted += 1;
            let Ok(result) = result else {
                phase.failed += 1;
                continue;
            };
            if result.digest != *want {
                return Err(format!(
                    "session {session}: {step:?} answered {:?}, a fresh engine {want:?}",
                    result.digest
                ));
            }
            counts.answers_checked += 1;
            for (design, fleet) in &result.designs {
                let mut sized;
                let against = match fleet {
                    Some(n) => {
                        sized = scenario.clone();
                        sized.inventory.num_servers = *n;
                        &sized
                    }
                    None => scenario,
                };
                answers::validate(against, design, &format!("session {session}: {step:?}"))?;
                counts.designs_validated += 1;
            }
        }
        phase.windows.push((counts.answers_checked, session_s));
        first.get_or_insert(counts);
        session += 1;
    }
    Ok((phase, first.expect("at least one session ran")))
}

/// What both runs need: the case study, the session tape, the oracle's
/// answers, and the set-up times.
struct Prepared {
    scenario: Scenario,
    tape: Vec<Step>,
    oracle: Vec<Digest>,
    setup_s: Vec<f64>,
}

fn prepare(config: &RunConfig) -> Result<Prepared, String> {
    let ((scenario, tape), setup_s) = repeat_setup(|| {
        let doc = inputs::load_corpus(false)?;
        Ok((inputs::case_study(&doc)?, inputs::session_tape(config.seed)))
    })?;
    let oracle = oracle(&scenario, &tape)?;
    check_expected(&tape, &oracle)?;
    Ok(Prepared {
        scenario,
        tape,
        oracle,
        setup_s,
    })
}

/// Runs the workload untraced; returns its requests and set-up times.
pub fn untraced(config: &RunConfig) -> Result<(Phase, Vec<f64>), String> {
    let p = prepare(config)?;
    let (phase, _) = measure(
        &p.scenario,
        &p.tape,
        &p.oracle,
        config.seconds,
        &mut Tracer::new(false),
    )?;
    Ok((phase, p.setup_s))
}

/// Runs the workload traced and reports the metrics of its layers.
pub fn traced(config: &RunConfig) -> Result<Traced, String> {
    let p = prepare(config)?;
    let mut tracer = Tracer::new(true);
    let (phase, counts) = measure(&p.scenario, &p.tape, &p.oracle, config.seconds, &mut tracer)?;
    let mut metrics = Metrics::default();
    put_layers(&mut metrics, &tracer, &counts);
    Ok(Traced {
        metrics,
        phase,
        tracer,
    })
}

fn put_layers(metrics: &mut Metrics, tracer: &Tracer, counts: &PassCounts) {
    let (mut before, mut after) = (0.0, 0.0);
    for (metric_before, span_before, metric_after, span_after) in [
        (
            "query.check_ms",
            "query.check",
            "query.check_after_optimize_ms",
            "query.check_after_optimize",
        ),
        (
            "query.enumerate_ms",
            "query.enumerate",
            "query.enumerate_after_optimize_ms",
            "query.enumerate_after_optimize",
        ),
        (
            "query.disambiguate_ms",
            "query.disambiguate",
            "query.disambiguate_after_optimize_ms",
            "query.disambiguate_after_optimize",
        ),
        (
            "query.capacity_ms",
            "query.capacity",
            "query.capacity_after_optimize_ms",
            "query.capacity_after_optimize",
        ),
    ] {
        let pre = report::span_median_ms(tracer, span_before);
        let post = report::span_median_ms(tracer, span_after);
        metrics.put(metric_before, pre);
        metrics.put(metric_after, post);
        before += pre;
        after += post;
    }
    metrics.put_ratio("query.after_optimize_slowdown", after, before);
    metrics.put_span_median_ms("query.optimize_ms", tracer, "query.optimize");
    let stats = &counts.engine;
    metrics.put("sat.solves", stats.session_solves as f64);
    metrics.put("sat.conflicts", stats.conflicts as f64);
    metrics.put("sat.learnt_clauses", stats.learnt_clauses as f64);
    metrics.put("sat.retired_activations", stats.retired_activations as f64);
    metrics.put("sat.recompiles", stats.recompiles as f64);
    metrics.put("oracle.answers_checked", counts.answers_checked as f64);
    metrics.put("oracle.designs_validated", counts.designs_validated as f64);
}
