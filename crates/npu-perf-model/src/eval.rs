//! Model-accuracy evaluation: relative errors, CDFs (Fig. 15), and
//! per-operator prediction curves (Fig. 16).

use crate::model::{FreqProfile, PerfModelStore};
use npu_sim::{FreqMhz, OpClass};

/// The paper excludes operators shorter than this from accuracy analysis
/// (58.3 % of ops, but only 0.9 % of total execution time).
pub const SHORT_OP_CUTOFF_US: f64 = 20.0;

/// Relative prediction errors of a store against truth profiles at
/// frequencies *not* used for building. Only compute operators at or above
/// `min_dur_us` (measured at the truth frequency) are scored.
#[must_use]
pub fn prediction_errors(
    store: &PerfModelStore,
    truth: &[FreqProfile],
    min_dur_us: f64,
) -> Vec<f64> {
    let mut errors = Vec::new();
    for profile in truth {
        for (i, rec) in profile.records.iter().enumerate() {
            if rec.class != OpClass::Compute || rec.dur_us < min_dur_us {
                continue;
            }
            let pred = store.predict_time_us(i, profile.freq);
            errors.push((pred - rec.dur_us).abs() / rec.dur_us);
        }
    }
    errors
}

/// Summary statistics over a set of relative errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Mean relative error.
    pub mean: f64,
    /// Median relative error.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
    /// Number of scored predictions.
    pub count: usize,
}

impl ErrorStats {
    /// Computes statistics; returns `None` for an empty error set.
    #[must_use]
    pub fn from_errors(errors: &[f64]) -> Option<Self> {
        if errors.is_empty() {
            return None;
        }
        let mut sorted = errors.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            let idx = (p * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        Some(Self {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: q(0.5),
            p90: q(0.9),
            max: sorted[sorted.len() - 1],
            count: sorted.len(),
        })
    }

    /// Fraction of errors at or below `threshold`.
    #[must_use]
    pub fn fraction_within(errors: &[f64], threshold: f64) -> f64 {
        if errors.is_empty() {
            return 0.0;
        }
        errors.iter().filter(|&&e| e <= threshold).count() as f64 / errors.len() as f64
    }
}

/// An empirical CDF over relative errors: `(error, cumulative fraction)`
/// pairs, ascending — the series plotted in paper Fig. 15.
#[must_use]
pub fn error_cdf(errors: &[f64], points: usize) -> Vec<(f64, f64)> {
    if errors.is_empty() || points == 0 {
        return Vec::new();
    }
    let mut sorted = errors.to_vec();
    sorted.sort_by(f64::total_cmp);
    let max = sorted[sorted.len() - 1];
    (0..=points)
        .map(|i| {
            let e = max * i as f64 / points as f64;
            let frac = sorted.partition_point(|&x| x <= e) as f64 / sorted.len() as f64;
            (e, frac)
        })
        .collect()
}

/// Predicted-vs-actual curve for one operator across the frequency band —
/// one panel of paper Fig. 16.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionCurve {
    /// Operator name.
    pub name: String,
    /// Frequency points, MHz.
    pub freq_mhz: Vec<u32>,
    /// Predicted execution times, µs.
    pub predicted_us: Vec<f64>,
    /// Measured execution times, µs.
    pub actual_us: Vec<f64>,
}

impl PredictionCurve {
    /// Relative error per frequency point.
    #[must_use]
    pub fn errors(&self) -> Vec<f64> {
        self.predicted_us
            .iter()
            .zip(self.actual_us.iter())
            .map(|(p, a)| (p - a).abs() / a.max(1e-12))
            .collect()
    }
}

/// Builds the prediction curve of operator `op_index` from a store and
/// truth profiles covering the band.
#[must_use]
pub fn prediction_curve(
    store: &PerfModelStore,
    truth: &[FreqProfile],
    op_index: usize,
) -> PredictionCurve {
    let name = truth
        .first()
        .and_then(|p| p.records.get(op_index))
        .map_or_else(String::new, |r| r.name.to_string());
    let mut freq_mhz = Vec::new();
    let mut predicted = Vec::new();
    let mut actual = Vec::new();
    for p in truth {
        freq_mhz.push(p.freq.mhz());
        predicted.push(store.predict_time_us(op_index, p.freq));
        actual.push(p.records[op_index].dur_us);
    }
    PredictionCurve {
        name,
        freq_mhz,
        predicted_us: predicted,
        actual_us: actual,
    }
}

/// Convenience: the list of supported evaluation frequencies excluding the
/// build points, as `FreqMhz`.
#[must_use]
pub fn holdout_frequencies(all: &[FreqMhz], build: &[FreqMhz]) -> Vec<FreqMhz> {
    all.iter().copied().filter(|f| !build.contains(f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_errors() {
        let errors = vec![0.01, 0.02, 0.03, 0.04, 0.10];
        let s = ErrorStats::from_errors(&errors).unwrap();
        assert!((s.mean - 0.04).abs() < 1e-12);
        assert_eq!(s.p50, 0.03);
        assert_eq!(s.max, 0.10);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn stats_empty_is_none() {
        assert!(ErrorStats::from_errors(&[]).is_none());
    }

    #[test]
    fn fraction_within_threshold() {
        let errors = vec![0.01, 0.03, 0.06, 0.2];
        assert_eq!(ErrorStats::fraction_within(&errors, 0.05), 0.5);
        assert_eq!(ErrorStats::fraction_within(&errors, 1.0), 1.0);
        assert_eq!(ErrorStats::fraction_within(&[], 0.05), 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let errors = vec![0.01, 0.05, 0.02, 0.08, 0.03];
        let cdf = error_cdf(&errors, 50);
        assert!(cdf.windows(2).all(|w| w[1].1 >= w[0].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_empty_is_empty() {
        assert!(error_cdf(&[], 10).is_empty());
        assert!(error_cdf(&[0.1], 0).is_empty());
    }

    #[test]
    fn holdout_excludes_build_points() {
        let all: Vec<FreqMhz> = [1000, 1400, 1800].into_iter().map(FreqMhz::new).collect();
        let build = vec![FreqMhz::new(1000), FreqMhz::new(1800)];
        let holdout = holdout_frequencies(&all, &build);
        assert_eq!(holdout, vec![FreqMhz::new(1400)]);
    }

    #[test]
    fn curve_errors_shape() {
        let c = PredictionCurve {
            name: "Add".into(),
            freq_mhz: vec![1000, 1800],
            predicted_us: vec![10.0, 6.0],
            actual_us: vec![10.0, 5.0],
        };
        let e = c.errors();
        assert_eq!(e.len(), 2);
        assert!((e[0] - 0.0).abs() < 1e-12);
        assert!((e[1] - 0.2).abs() < 1e-12);
    }
}
