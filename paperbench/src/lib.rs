//! Paper-workload benchmark for the netarch engine.
//!
//! Three seeded workloads drive the engine through its public entry
//! points only: an architect session on the §2.3 case study
//! ([`session`]), a cold stream of sweep variants submitted as text
//! ([`cold`]), and a serve replay tape ([`replay`]). Every run checks
//! every answer outside the timed region and fails on a wrong one. See
//! `README.md` for the metrics and what each layer should move.

#![forbid(unsafe_code)]

pub mod answers;
pub mod cold;
pub mod inputs;
pub mod replay;
pub mod report;
pub mod session;
pub mod stats;
pub mod trace;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::time::Instant;
use trace::Tracer;

/// Names of the workloads, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["case_study_session", "variant_cold_check", "serve_replay"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// One benchmark run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed; the inputs are a pure function of it.
    pub seed: u64,
    /// Timed work to measure, in seconds: requests run until the timed
    /// regions add up to this (checks and oracle work in between are not
    /// counted). A traced run splits it into four parts (see [`run`]).
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct RunResult {
    /// Requests attempted in the reported runs.
    pub attempted: u64,
    /// Requests that gave an error, an unknown or a panic.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// The traced run's spans as JSON lines; empty when untraced.
    pub spans_jsonl: String,
}

impl RunResult {
    /// The result line: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        self.metrics
            .result_line(catalogue, self.attempted, self.failed)
    }
}

/// Runs one workload. `Err` means the run is invalid: a wrong answer,
/// a broken input, or an unknown workload.
///
/// An untraced run measures the workload for `config.seconds` and
/// reports the end-to-end metrics. A traced run reports the per-layer
/// profile: each workload runs traced for a quarter of the time, every
/// layer metric comes from the workload whose path it lies on (see
/// [`report::home`]), and the named workload also runs untraced for the
/// remaining quarter so that the tracing overhead can be stated.
pub fn run(workload: &str, config: &RunConfig) -> Result<RunResult, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    if !config.trace {
        return run_plain(workload, config);
    }
    let part = RunConfig {
        seconds: config.seconds / 4.0,
        ..*config
    };
    let mut profile = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut spans_jsonl = String::new();
    for name in WORKLOADS {
        let traced = match *name {
            "case_study_session" => session::traced(&part)?,
            "variant_cold_check" => cold::traced(&part)?,
            _ => replay::traced(&part)?,
        };
        if *name == workload {
            let (untraced, _) = untraced(workload, &part)?;
            profile.put_ratio(
                "trace.overhead_ratio",
                traced.phase.throughput_rps(),
                untraced.throughput_rps(),
            );
        }
        for (metric, _) in PER_LAYER {
            let Some(value) = traced.metrics.get(metric) else {
                continue;
            };
            match report::home(metric) {
                report::Home::Workload(home) if home == *name => profile.put(metric, value),
                report::Home::Sum => {
                    profile.put(metric, profile.get(metric).unwrap_or(0.0) + value)
                }
                _ => {}
            }
        }
        attempted += traced.phase.attempted;
        failed += traced.phase.failed;
        spans_jsonl.push_str(&traced.tracer.to_jsonl(name));
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics: profile,
        spans_jsonl,
    })
}

fn run_plain(workload: &str, config: &RunConfig) -> Result<RunResult, String> {
    let (phase, setup_s) = untraced(workload, config)?;
    let mut metrics = Metrics::default();
    phase.put_end_to_end(&mut metrics, &setup_s)?;
    Ok(RunResult {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
        spans_jsonl: String::new(),
    })
}

fn untraced(workload: &str, config: &RunConfig) -> Result<(Phase, Vec<f64>), String> {
    match workload {
        "case_study_session" => session::untraced(config),
        "variant_cold_check" => cold::untraced(config),
        _ => replay::untraced(config),
    }
}

/// A traced run of one workload.
pub struct Traced {
    /// Metrics of the layers on the workload's path.
    pub metrics: Metrics,
    /// The traced requests.
    pub phase: Phase,
    /// Every span recorded.
    pub tracer: Tracer,
}

/// Requests of one measured phase, with the time spent in them.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every attempted request, in ms.
    pub latencies_ms: Vec<f64>,
    /// Answered requests and timed seconds of each window of the phase
    /// (a session, a run of cold requests, a replay).
    pub windows: Vec<(u64, f64)>,
    /// Seconds of timed work so far.
    pub timed_s: f64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl Phase {
    /// Requests answered per second of timed work: the median over the
    /// phase's windows, so that a burst of load from elsewhere on the
    /// host moves it less than it moves a mean.
    pub fn throughput_rps(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|&(answered, s)| stats::ratio(answered as f64, s))
            .collect();
        stats::median(&rates).unwrap_or(0.0)
    }

    /// Sets the end-to-end metrics of an untraced run.
    pub fn put_end_to_end(&self, metrics: &mut Metrics, setup_s: &[f64]) -> Result<(), String> {
        metrics.put(
            "setup_s",
            stats::median(setup_s).ok_or("no set-up was timed")?,
        );
        metrics.put("throughput_rps", self.throughput_rps());
        metrics.put(
            "latency_p50_ms",
            stats::percentile(&self.latencies_ms, 0.5)?,
        );
        metrics.put(
            "latency_p90_ms",
            stats::percentile(&self.latencies_ms, 0.9)?,
        );
        metrics.put(
            "success_rate",
            stats::ratio((self.attempted - self.failed) as f64, self.attempted as f64),
        );
        metrics.put(
            "peak_rss_mb",
            report::peak_rss_mb().ok_or("VmHWM is not readable")?,
        );
        Ok(())
    }
}

/// Times `f` [`SETUP_REPEATS`] times; returns the last result and every
/// duration in seconds.
pub fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS > 0"), times))
}

/// Runs a panicking call as a failed request instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".to_string()))
}
