//! Order statistics for reported samples.

/// Nearest-rank percentile: the smallest sample `x` such that at least a
/// fraction `q` of the samples are `<= x`. Always returns one of the
/// samples (no interpolation); `NaN` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median (the lower middle sample of an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_samples() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Unsorted input; even count takes the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 0.05), 15.0);
        assert_eq!(percentile(&five, 0.30), 20.0);
        assert_eq!(percentile(&five, 0.40), 20.0);
        assert_eq!(percentile(&five, 0.50), 35.0);
        assert_eq!(percentile(&five, 0.90), 50.0);
        assert_eq!(percentile(&five, 1.0), 50.0);
    }
}
