//! Summary statistics for latency samples.

/// Points that must lie strictly above a reported percentile. A tail
/// percentile resting on fewer points is a guess, so it is refused.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th quantile (`0 < p < 1`) of `samples` by nearest rank.
///
/// Refuses a sample that leaves fewer than [`MIN_BEYOND`] points above
/// the chosen rank, and a sample holding NaN.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("percentile {p} is outside (0, 1)"));
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err("sample holds NaN".to_string());
    }
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples would leave {beyond} points beyond it; \
             at least {MIN_BEYOND} are needed",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The middle value (mean of the two middle values for an even count),
/// or `None` for an empty sample. Used for per-layer summaries, where a
/// layer may see only a few dozen calls in a run.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `numerator / base`, or 0 when the base is 0 (nothing to compare).
pub fn ratio(numerator: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        numerator / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_points_beyond_it() {
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        let err = percentile(&ramp(99), 0.9).unwrap_err();
        assert!(err.contains("9 points beyond"), "{err}");
    }

    #[test]
    fn p50_needs_twenty_points() {
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), percentile(&ramp(200), 0.9));
    }

    #[test]
    fn percentile_refuses_bad_input() {
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&ramp(100), 1.0).is_err());
        let mut with_nan = ramp(100);
        with_nan[3] = f64::NAN;
        assert!(percentile(&with_nan, 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_of_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
