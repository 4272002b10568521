//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of an ascending sample:
/// the smallest value with at least a `q` share of the sample at or
/// below it. `NaN` for an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` ascending (NaN-free samples only).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The nearest-rank median.
#[must_use]
pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The arithmetic mean; `NaN` for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = values.len() as f64;
    values.iter().sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    // A nearest-rank quantile is one of the samples, bit for bit.
    #[allow(clippy::float_cmp)]
    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.991), 100.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&hundred, 0.001), 1.0);
        assert_eq!(median(vec![5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
