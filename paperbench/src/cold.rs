//! `variant_cold_check`: a closed loop of one client on the one-shot
//! `netarch check` path, the path a serve cache miss takes too.
//!
//! Set-up enumerates the benchmark's sweep over the case study (its
//! order drawn from the seed) and renders every variant to text,
//! alternating `.narch` and JSON. A request is text → parse →
//! fingerprint → compile → `check` → render (the design as JSON, or the
//! diagnosis when infeasible). `optimize` never runs; the infeasible
//! variants take the minimal-conflict diagnosis path.

use crate::inputs::{self, Format, VariantText};
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::{answers, guarded, repeat_setup, stats, Phase, RunConfig, Traced};
use netarch_core::fingerprint::fingerprint_scenario;
use netarch_core::prelude::*;
use netarch_dsl::SweepSpec;
use netarch_serve::request::run_query;
use netarch_serve::{Answer, QueryKind};
use std::time::Instant;

/// What one request returned.
struct Answered {
    fingerprint: u128,
    engine: Engine,
    outcome: Outcome,
    rendered: String,
}

fn request(text: &VariantText, tracer: &mut Tracer, id: u64) -> Result<Answered, String> {
    let scenario = match text.format {
        Format::Narch => {
            let span = tracer.enter("dsl.load", id);
            tracer.set_bytes(span, text.text.len());
            let doc = netarch_dsl::load_str(&text.text).map_err(|e| e.to_string())?;
            tracer.exit(span);
            doc.scenario
                .ok_or("the variant text has no scenario block")?
        }
        Format::Json => {
            let span = tracer.enter("json.parse", id);
            tracer.set_bytes(span, text.text.len());
            let scenario: Scenario =
                netarch_rt::json::from_str(&text.text).map_err(|e| e.to_string())?;
            tracer.exit(span);
            scenario
        }
    };
    let span = tracer.enter("fingerprint", id);
    let fingerprint = fingerprint_scenario(&scenario).full.0;
    tracer.exit(span);
    let span = tracer.enter("compile", id);
    let mut engine = Engine::new(scenario).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let span = tracer.enter("query.check", id);
    let outcome = engine.check().map_err(|e| e.to_string())?;
    let feasible = outcome.design().is_some();
    tracer.exit_as(
        span,
        if feasible {
            "query.check"
        } else {
            "query.check_infeasible"
        },
    );
    let span = tracer.enter("render", id);
    let rendered = match &outcome {
        Outcome::Feasible(design) => netarch_rt::json::to_string(design),
        Outcome::Infeasible(diagnosis) => render_diagnosis(diagnosis),
    };
    tracer.exit(span);
    Ok(Answered {
        fingerprint,
        engine,
        outcome,
        rendered,
    })
}

/// The oracle's view of one variant, built from the sweep directly
/// (no text): its content fingerprint and a fresh engine's verdict.
struct Expected {
    scenario: Scenario,
    fingerprint: u128,
    feasible: bool,
}

fn expected(spec: &SweepSpec, base: &Scenario, picks: &[usize]) -> Result<Expected, String> {
    let scenario = netarch_sweep::variant_scenario(spec, base, picks);
    let fingerprint = fingerprint_scenario(&scenario).full.0;
    let mut engine = Engine::new(scenario.clone()).map_err(|e| e.to_string())?;
    match run_query(&mut engine, &QueryKind::Check)? {
        Answer::Feasibility(feasible) => Ok(Expected {
            scenario,
            fingerprint,
            feasible,
        }),
        other => Err(format!("check answered {other:?}")),
    }
}

/// Checks one answer; returns the number of designs it validated.
fn check_answer(answered: &mut Answered, want: &Expected, label: &str) -> Result<u64, String> {
    if answered.fingerprint != want.fingerprint {
        return Err(format!(
            "{label}: the parsed text differs from the variant it renders"
        ));
    }
    if answered.outcome.design().is_some() != want.feasible {
        return Err(format!(
            "{label}: check disagrees with a fresh engine (feasible = {})",
            want.feasible
        ));
    }
    match &answered.outcome {
        Outcome::Feasible(design) => {
            answers::validate(&want.scenario, design, label)?;
            let echoed: Design = netarch_rt::json::from_str(&answered.rendered)
                .map_err(|e| format!("{label}: rendered design does not parse: {e}"))?;
            if echoed != *design {
                return Err(format!("{label}: rendered design differs from the answer"));
            }
            Ok(1)
        }
        Outcome::Infeasible(diagnosis) => {
            let labels: Vec<&str> = diagnosis
                .conflicts
                .iter()
                .map(|c| c.label.as_str())
                .collect();
            if labels.is_empty() || labels.iter().any(|l| !answered.rendered.contains(l)) {
                return Err(format!(
                    "{label}: diagnosis {labels:?} is empty or not rendered"
                ));
            }
            // A minimal conflict: unsatisfiable together, satisfiable
            // once any one rule is dropped.
            let engine = &mut answered.engine;
            if engine
                .check_rule_subset(&labels)
                .map_err(|e| e.to_string())?
            {
                return Err(format!("{label}: diagnosis {labels:?} is satisfiable"));
            }
            for drop in 0..labels.len() {
                let mut rest = labels.clone();
                rest.remove(drop);
                if !engine.check_rule_subset(&rest).map_err(|e| e.to_string())? {
                    return Err(format!("{label}: diagnosis {labels:?} is not minimal"));
                }
            }
            Ok(0)
        }
    }
}

/// Per-pass counts: sums over one cycle of the variant stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct PassCounts {
    compiles: u64,
    solver_vars: u64,
    clauses: u64,
    answers_checked: u64,
    designs_validated: u64,
}

/// Requests per throughput window.
const WINDOW: usize = 64;

struct Inputs {
    spec: SweepSpec,
    base: Scenario,
    variants: usize,
    texts: Vec<VariantText>,
}

fn measure(
    inputs: &Inputs,
    oracle: &[Expected],
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Phase, PassCounts), String> {
    let mut phase = Phase::default();
    let mut counts = PassCounts::default();
    let n = inputs.texts.len();
    let mut i = 0usize;
    // Answered requests and timed seconds of the current window.
    let mut window = (0u64, 0.0f64);
    while i < n || phase.timed_s < seconds {
        let text = &inputs.texts[i % n];
        let id = i as u64;
        let root = tracer.enter("request", id);
        let start = Instant::now();
        let result = guarded(|| request(text, tracer, id));
        let elapsed = start.elapsed().as_secs_f64();
        phase.latencies_ms.push(elapsed * 1e3);
        window.1 += elapsed;
        phase.timed_s += elapsed;
        tracer.exit(root);

        // Checks, outside the timed region.
        phase.attempted += 1;
        let label = format!(
            "variant {}",
            netarch_sweep::variant_label(&inputs.spec, &text.picks)
        );
        let want = &oracle[i % n];
        match result {
            Ok(mut answered) => {
                let stats = answered.engine.stats();
                let validated = check_answer(&mut answered, want, &label)?;
                window.0 += 1;
                if i < n {
                    counts.compiles += 1;
                    counts.solver_vars += stats.solver_vars as u64;
                    counts.clauses += stats.clauses as u64;
                    counts.answers_checked += 1;
                    counts.designs_validated += validated;
                }
            }
            Err(_) => phase.failed += 1,
        }
        i += 1;
        if i.is_multiple_of(WINDOW) {
            phase.windows.push(std::mem::take(&mut window));
        }
    }
    if phase.windows.is_empty() {
        phase.windows.push(window);
    }
    Ok((phase, counts))
}

/// Set-up shared by the plain and the traced run: the variant texts,
/// the oracle's view of each variant, and the set-up times. With an
/// enabled tracer, each sweep enumeration is a span.
fn prepare(
    config: &RunConfig,
    tracer: &mut Tracer,
) -> Result<(Inputs, Vec<Expected>, Vec<f64>), String> {
    let (inputs, setup_s) = repeat_setup(|| {
        let doc = inputs::load_corpus(true)?;
        let base = inputs::case_study(&doc)?;
        let span = tracer.enter("sweep.enumerate", 0);
        let (spec, stream) = inputs::variant_stream(&doc, config.seed)?;
        tracer.exit(span);
        let texts = inputs::render_variants(&spec, &base, &stream);
        Ok(Inputs {
            spec,
            base,
            variants: stream.variants.len(),
            texts,
        })
    })?;
    if inputs.texts.is_empty() {
        return Err("the sweep has no variants".to_string());
    }
    let oracle: Vec<Expected> = inputs
        .texts
        .iter()
        .map(|text| expected(&inputs.spec, &inputs.base, &text.picks))
        .collect::<Result<_, _>>()?;
    Ok((inputs, oracle, setup_s))
}

/// Runs the workload untraced; returns its requests and set-up times.
pub fn untraced(config: &RunConfig) -> Result<(Phase, Vec<f64>), String> {
    let mut tracer = Tracer::new(false);
    let (inputs, oracle, setup_s) = prepare(config, &mut tracer)?;
    let (phase, _) = measure(&inputs, &oracle, config.seconds, &mut tracer)?;
    Ok((phase, setup_s))
}

/// Runs the workload traced and reports the metrics of its layers.
pub fn traced(config: &RunConfig) -> Result<Traced, String> {
    let mut tracer = Tracer::new(true);
    let (inputs, oracle, _) = prepare(config, &mut tracer)?;
    let (phase, counts) = measure(&inputs, &oracle, config.seconds, &mut tracer)?;
    let mut metrics = Metrics::default();
    put_layers(&mut metrics, &tracer, &counts);
    metrics.put_span_median_ms("sweep.enumerate_ms", &tracer, "sweep.enumerate");
    metrics.put("sweep.variants", inputs.variants as f64);
    let request_ms = stats::median(&phase.latencies_ms).unwrap_or(0.0);
    metrics.put_ratio("request.frontend_share", frontend_ms(&tracer), request_ms);
    Ok(Traced {
        metrics,
        phase,
        tracer,
    })
}

/// Median over requests of the traced time spent parsing and
/// fingerprinting the request's text, in ms.
fn frontend_ms(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let mut frontend = vec![0u64; spans.len()];
    for (span, t) in spans.iter().zip(tracer.self_times_ns()) {
        if matches!(span.name, "dsl.load" | "json.parse" | "fingerprint") {
            if let Some(parent) = span.parent {
                frontend[parent] += t;
            }
        }
    }
    let per_request: Vec<f64> = spans
        .iter()
        .zip(frontend)
        .filter(|(s, _)| s.name == "request")
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect();
    stats::median(&per_request).unwrap_or(0.0)
}

fn put_layers(metrics: &mut Metrics, tracer: &Tracer, counts: &PassCounts) {
    for (metric, span) in [
        ("dsl.load_ms", "dsl.load"),
        ("json.parse_ms", "json.parse"),
        ("fingerprint.ms", "fingerprint"),
        ("compile.ms", "compile"),
        ("query.check_infeasible_ms", "query.check_infeasible"),
        ("render.ms", "render"),
    ] {
        metrics.put_span_median_ms(metric, tracer, span);
    }
    metrics.put_span_mib_s("dsl.load_mib_s", tracer, "dsl.load");
    metrics.put_span_mib_s("json.parse_mib_s", tracer, "json.parse");
    let per_compile = |total: u64| stats::ratio(total as f64, counts.compiles as f64);
    metrics.put("compile.solver_vars", per_compile(counts.solver_vars));
    metrics.put("compile.clauses", per_compile(counts.clauses));
    metrics.put("oracle.answers_checked", counts.answers_checked as f64);
    metrics.put("oracle.designs_validated", counts.designs_validated as f64);
}
