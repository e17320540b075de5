//! Metric catalogue and the result line.

use crate::stats;
use crate::trace::Tracer;

/// Every end-to-end metric, printed by each workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, printed by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("json.parse_ms", "ms"),
    ("json.parse_mib_s", "MiB/s"),
    ("dsl.load_ms", "ms"),
    ("dsl.load_mib_s", "MiB/s"),
    ("fingerprint.ms", "ms"),
    ("compile.ms", "ms"),
    ("compile.solver_vars", "count"),
    ("compile.clauses", "count"),
    ("query.check_ms", "ms"),
    ("query.check_infeasible_ms", "ms"),
    ("query.enumerate_ms", "ms"),
    ("query.disambiguate_ms", "ms"),
    ("query.capacity_ms", "ms"),
    ("query.optimize_ms", "ms"),
    ("query.check_after_optimize_ms", "ms"),
    ("query.enumerate_after_optimize_ms", "ms"),
    ("query.disambiguate_after_optimize_ms", "ms"),
    ("query.capacity_after_optimize_ms", "ms"),
    ("query.after_optimize_slowdown", "ratio"),
    ("query.before_optimize_ms", "ms"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.learnt_clauses", "count"),
    ("sat.retired_activations", "count"),
    ("sat.recompiles", "count"),
    ("render.ms", "ms"),
    ("request.ms", "ms"),
    ("request.frontend_share", "ratio"),
    ("sweep.enumerate_ms", "ms"),
    ("sweep.variants", "count"),
    ("serve.makespan_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.requests", "count"),
    ("serve.compiles", "count"),
    ("serve.evictions", "count"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.check_p50_ms", "ms"),
    ("serve.optimize_p50_ms", "ms"),
    ("serve.enumerate_p50_ms", "ms"),
    ("serve.capacity_p50_ms", "ms"),
    ("serve.shard_busy_imbalance", "ratio"),
    ("serve.shard_busy_mean_s", "s"),
    ("oracle.answers_checked", "count"),
    ("oracle.designs_validated", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_rps", "1/s"),
];

/// Each ratio metric and the metric that holds its base (denominator).
pub const RATIO_BASES: &[(&str, &str)] = &[
    ("query.after_optimize_slowdown", "query.before_optimize_ms"),
    ("request.frontend_share", "request.ms"),
    ("serve.cache_hit_ratio", "serve.requests"),
    ("serve.shard_busy_imbalance", "serve.shard_busy_mean_s"),
    ("trace.overhead_ratio", "trace.untraced_rps"),
];

/// Where a traced run takes a per-layer metric from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Home {
    /// The workload whose path the layer lies on.
    Workload(&'static str),
    /// The sum over every workload's pass.
    Sum,
    /// The workload the run is for (tracing overhead).
    Selected,
}

/// The home of a per-layer metric. Queries and solver effort are the
/// case-study session's (`check_infeasible` excepted: only cold variants
/// are infeasible), the serve layer is the replay's, checks are summed,
/// and the frontend, compile, render and sweep layers are measured on the
/// cold path, where they dominate a request.
pub fn home(metric: &str) -> Home {
    if metric.starts_with("trace.") {
        Home::Selected
    } else if metric.starts_with("oracle.") {
        Home::Sum
    } else if metric.starts_with("serve.") {
        Home::Workload("serve_replay")
    } else if metric.starts_with("sat.")
        || (metric.starts_with("query.") && metric != "query.check_infeasible_ms")
    {
        Home::Workload("case_study_session")
    } else {
        Home::Workload("variant_cold_check")
    }
}

/// Named metric values, in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets a metric; a later value replaces an earlier one.
    pub fn put(&mut self, name: &'static str, value: f64) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.entries.push((name, value)),
        }
    }

    /// Sets a ratio metric together with its base, the denominator. The
    /// base's name comes from [`RATIO_BASES`], so no ratio is printed
    /// without it.
    pub fn put_ratio(&mut self, name: &'static str, numerator: f64, base: f64) {
        let (_, base_name) = RATIO_BASES
            .iter()
            .find(|(ratio, _)| *ratio == name)
            .unwrap_or_else(|| panic!("{name} is not a ratio metric"));
        self.put(name, stats::ratio(numerator, base));
        self.put(base_name, base);
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Sets the median self time in ms of the spans named `span` (0 when
    /// none ran).
    pub fn put_span_median_ms(&mut self, metric: &'static str, tracer: &Tracer, span: &str) {
        self.put(metric, span_median_ms(tracer, span));
    }

    /// Sets a throughput in MiB/s over the spans named `span`: their
    /// summed input bytes over their summed self time.
    pub fn put_span_mib_s(&mut self, metric: &'static str, tracer: &Tracer, span: &str) {
        let self_times = tracer.self_times_ns();
        let (mut bytes, mut ns) = (0u64, 0u64);
        for (s, t) in tracer.spans().iter().zip(&self_times) {
            if s.name == span {
                bytes += s.bytes;
                ns += t;
            }
        }
        let mib_s = stats::ratio(bytes as f64 / (1024.0 * 1024.0), ns as f64 / 1e9);
        self.put(metric, mib_s);
    }

    /// The result line for a set of metrics that must be exactly
    /// `catalogue`, printed in its order.
    pub fn result_line(
        &self,
        catalogue: &[(&str, &str)],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some((extra, _)) = self
            .entries
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = self
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

/// Self times in ms of the spans named `span`; `None` when none ran.
pub fn span_self_ms(tracer: &Tracer, span: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = tracer
        .spans()
        .iter()
        .zip(tracer.self_times_ns())
        .filter(|(s, _)| s.name == span)
        .map(|(_, t)| t as f64 / 1e6)
        .collect();
    (!values.is_empty()).then_some(values)
}

/// Median self time in ms of the spans named `span`; 0 when none ran.
pub fn span_median_ms(tracer: &Tracer, span: &str) -> f64 {
    span_self_ms(tracer, span)
        .and_then(|v| stats::median(&v))
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_home_is_a_workload() {
        for (name, _) in PER_LAYER {
            if let Home::Workload(w) = home(name) {
                assert!(crate::WORKLOADS.contains(&w), "{name} -> {w}");
            }
        }
    }

    #[test]
    fn every_ratio_base_is_a_per_layer_metric() {
        for (ratio, base) in RATIO_BASES {
            let unit = |name: &str| PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
            assert_eq!(unit(ratio), Some("ratio"), "{ratio}");
            assert!(
                unit(base).is_some(),
                "{ratio} has base {base} outside the catalogue"
            );
        }
        for (name, unit) in PER_LAYER.iter().chain(END_TO_END) {
            if *unit == "ratio" && *name != "success_rate" {
                assert!(
                    RATIO_BASES.iter().any(|(r, _)| r == name),
                    "{name} has no base"
                );
            }
        }
    }

    #[test]
    fn put_ratio_prints_the_base() {
        let mut metrics = Metrics::default();
        metrics.put_ratio("serve.cache_hit_ratio", 3.0, 4.0);
        assert_eq!(metrics.get("serve.cache_hit_ratio"), Some(0.75));
        assert_eq!(metrics.get("serve.requests"), Some(4.0));
    }

    #[test]
    fn result_line_checks_the_catalogue() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.5);
        assert!(metrics.result_line(END_TO_END, 1, 0).is_err());
        for (name, _) in END_TO_END {
            metrics.put(name, 1.0);
        }
        assert!(metrics.result_line(END_TO_END, 1, 0).is_ok());
        metrics.put("bogus", 1.0);
        assert!(metrics.result_line(END_TO_END, 1, 0).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut metrics = Metrics::default();
        for (name, _) in END_TO_END {
            metrics.put(name, 1.0 / 3.0);
        }
        let line = metrics.result_line(END_TO_END, 3, 0).unwrap();
        assert!(line.contains("\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    }
}
