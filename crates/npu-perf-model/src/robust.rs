//! Robust model inputs: outlier-rejecting fit samples.
//!
//! Real profilers produce timing outliers (preemption, interrupt storms,
//! a stuck counter); a single 8× stretched record poisons a two-point
//! closed-form fit outright. [`fit_samples_robust`] collapses repeated
//! `(frequency, time)` measurements to their per-frequency median, with
//! an optional MAD-based rejection of what remains — the sample path of
//! [`crate::PerfModelStore::build_robust`], which a serving runtime's
//! drift-response ladder re-fits through. The plain fit path never
//! touches this module.

/// Median of a sample set; `None` when empty. Non-finite values are
/// ignored (a NaN-poisoned sort would otherwise scramble the order).
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median absolute deviation around the sample median; `None` when empty.
#[must_use]
pub fn mad(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let devs: Vec<f64> = xs
        .iter()
        .filter(|x| x.is_finite())
        .map(|x| (x - m).abs())
        .collect();
    median(&devs)
}

/// Keeps the values within `k` MADs of the median (the classic robust
/// z-score cut; `k = 3.5` is the conventional threshold). A zero MAD
/// (half the samples identical) keeps only exact-median values when
/// outliers exist, which is the desired degenerate behavior.
#[must_use]
pub fn mad_filter(xs: &[f64], k: f64) -> Vec<f64> {
    let (Some(m), Some(d)) = (median(xs), mad(xs)) else {
        return Vec::new();
    };
    let cut = k * d;
    xs.iter()
        .copied()
        .filter(|x| x.is_finite() && (x - m).abs() <= cut)
        .collect()
}

/// Collapses repeated `(f_mhz, time_us)` measurements into one robust
/// sample per distinct frequency: the median time of that frequency's
/// repeats, after dropping repeats more than `mad_k` MADs from their
/// median (skip the MAD cut with `mad_k = f64::INFINITY`).
///
/// The output is sorted by frequency and feeds [`crate::fit`] directly.
#[must_use]
pub fn fit_samples_robust(samples: &[(f64, f64)], mad_k: f64) -> Vec<(f64, f64)> {
    let mut sorted: Vec<(f64, f64)> = samples
        .iter()
        .copied()
        .filter(|&(f, t)| f.is_finite() && t.is_finite())
        .collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let f = sorted[i].0;
        let mut times = Vec::new();
        while i < sorted.len() && (sorted[i].0 - f).abs() < 1e-9 {
            times.push(sorted[i].1);
            i += 1;
        }
        let kept = if mad_k.is_finite() {
            let filtered = mad_filter(&times, mad_k);
            if filtered.is_empty() {
                times
            } else {
                filtered
            }
        } else {
            times
        };
        if let Some(t) = median(&kept) {
            out.push((f, t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_nan() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[f64::NAN, 1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN]), None);
    }

    #[test]
    fn mad_measures_spread() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(1.0));
        assert_eq!(mad(&[7.0, 7.0, 7.0]), Some(0.0));
    }

    #[test]
    fn mad_filter_drops_the_outlier() {
        let xs = [10.0, 10.2, 9.9, 10.1, 80.0];
        let kept = mad_filter(&xs, 3.5);
        assert_eq!(kept.len(), 4);
        assert!(kept.iter().all(|&x| x < 11.0));
    }

    #[test]
    fn robust_samples_collapse_repeats_and_reject_spikes() {
        let samples = vec![
            (1000.0, 10.0),
            (1000.0, 10.2),
            (1000.0, 90.0), // spike
            (1800.0, 6.0),
            (1800.0, 6.1),
        ];
        let robust = fit_samples_robust(&samples, 3.5);
        assert_eq!(robust.len(), 2);
        assert!((robust[0].1 - 10.1).abs() < 1e-9);
        assert!((robust[1].1 - 6.05).abs() < 1e-9);
    }

    #[test]
    fn robust_samples_then_fit_recover_truth_despite_outlier() {
        let t = |f: f64| {
            let x = f / 1000.0;
            (2.0 * x * x + 3.0) / x
        };
        let mut samples = Vec::new();
        for f in [1000.0, 1400.0, 1800.0] {
            for _ in 0..3 {
                samples.push((f, t(f)));
            }
        }
        samples.push((1400.0, 50.0 * t(1400.0))); // one wild profiler outlier
        let robust = fit_samples_robust(&samples, 3.5);
        let p = crate::fit(crate::FitFunction::Quadratic, &robust).unwrap();
        assert!((p.predict_time_us(1200.0) - t(1200.0)).abs() < 1e-9);
    }
}
