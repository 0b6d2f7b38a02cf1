//! Online power-model construction and prediction (paper Fig. 11, right
//! half; Sects. 5.4–5.5).
//!
//! For every operator, the activity factor is extracted from measured
//! power at the build frequencies:
//! `α = (P − P_idle(f) − γ·ΔT·V) / (f·V²)` (Eq. (14)), for both the
//! AICore and the SoC. Prediction at a new frequency solves the
//! `P_soc ↔ ΔT` interdependence with the paper's iterative fix-point
//! (Sect. 5.4.2, "takes no more than 4 iterations").

use crate::calib::HardwareCalibration;
use npu_perf_model::FreqProfile;
use npu_sim::{FreqMhz, VoltageCurve};
use std::fmt;

/// Which power rail a query refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerDomain {
    /// The AICore (compute component) rail.
    AiCore,
    /// The whole SoC.
    Soc,
}

/// Per-operator fitted activity factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPower {
    /// AICore activity factor, W/(GHz·V²).
    pub alpha_aicore: f64,
    /// SoC activity factor, W/(GHz·V²).
    pub alpha_soc: f64,
}

/// A power prediction for one operator at one frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerPrediction {
    /// Predicted AICore power, W.
    pub aicore_w: f64,
    /// Predicted SoC power, W.
    pub soc_w: f64,
    /// Converged temperature rise, °C.
    pub dt_c: f64,
    /// Fix-point iterations used.
    pub iterations: u32,
}

/// Temperature-independent base power of one operator at one frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasePower {
    /// AICore base power (`α·f·V² + P_idle(f)`), W.
    pub aicore_w: f64,
    /// SoC base power, W.
    pub soc_w: f64,
    /// Supply voltage at the frequency, V.
    pub volts: f64,
}

/// Errors building a [`PowerModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PowerBuildError {
    /// No profiles supplied.
    NoProfiles,
    /// Profiles disagree on operator count.
    MismatchedProfiles {
        /// Expected record count.
        expected: usize,
        /// Offending profile's record count.
        got: usize,
    },
}

impl fmt::Display for PowerBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoProfiles => write!(f, "at least one frequency profile is required"),
            Self::MismatchedProfiles { expected, got } => {
                write!(
                    f,
                    "profiles have different op counts: expected {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for PowerBuildError {}

/// Temperature-aware per-operator power model.
///
/// # Examples
///
/// See the crate-level example; construction requires a
/// [`HardwareCalibration`] from the offline phase plus per-operator power
/// profiles from the online phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    calib: HardwareCalibration,
    voltage: VoltageCurve,
    /// Per operator, the activity factors fitted with the calibrated
    /// temperature coefficients and with `γ = 0` (what
    /// [`Self::without_temperature`] serves). Both are fitted at build
    /// time, so the model keeps no raw observations.
    fits: Vec<[OpPower; 2]>,
    gamma_enabled: bool,
}

impl PowerModel {
    /// Builds per-operator activity factors from profiles measured at the
    /// build frequencies (the paper uses 1000 MHz and 1800 MHz data).
    ///
    /// # Errors
    ///
    /// Returns [`PowerBuildError`] on empty or mismatched profiles.
    pub fn build(
        calib: HardwareCalibration,
        voltage: VoltageCurve,
        profiles: &[FreqProfile],
    ) -> Result<Self, PowerBuildError> {
        let first = profiles.first().ok_or(PowerBuildError::NoProfiles)?;
        let n = first.records.len();
        for p in profiles {
            if p.records.len() != n {
                return Err(PowerBuildError::MismatchedProfiles {
                    expected: n,
                    got: p.records.len(),
                });
            }
        }
        let fits = (0..n)
            .map(|i| fit_op(&calib, &voltage, profiles, i))
            .collect();
        Ok(Self {
            calib,
            voltage,
            fits,
            gamma_enabled: true,
        })
    }

    /// The temperature-blind ablation: every activity factor fitted with
    /// `γ = 0`, as in the paper's Sect. 7.3 comparison (temperature power
    /// gets misclassified as `α·f·V²`, inflating its frequency slope).
    #[must_use]
    pub fn without_temperature(&self) -> Self {
        Self {
            gamma_enabled: false,
            ..self.clone()
        }
    }

    /// Whether the temperature term is active.
    #[must_use]
    pub fn temperature_enabled(&self) -> bool {
        self.gamma_enabled
    }

    /// Number of operator models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fits.len()
    }

    /// Whether the model is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fits.is_empty()
    }

    /// The fitted activity factors of operator `index`.
    #[must_use]
    pub fn op(&self, index: usize) -> Option<&OpPower> {
        self.fits.get(index).map(|fit| self.fitted(fit))
    }

    /// The calibration this model was built on.
    #[must_use]
    pub fn calibration(&self) -> &HardwareCalibration {
        &self.calib
    }

    /// The voltage curve this model was built with.
    #[must_use]
    pub fn voltage_curve(&self) -> &VoltageCurve {
        &self.voltage
    }

    /// The thermal coupling constant `k` (°C/W) from calibration.
    #[must_use]
    pub fn k_c_per_w(&self) -> f64 {
        self.calib.thermal.k_c_per_w
    }

    /// The effective temperature coefficient for `domain` (0 when the
    /// temperature term is disabled).
    #[must_use]
    pub fn gamma(&self, domain: PowerDomain) -> f64 {
        if !self.gamma_enabled {
            return 0.0;
        }
        match domain {
            PowerDomain::AiCore => self.calib.gamma_aicore,
            PowerDomain::Soc => self.calib.gamma_soc,
        }
    }

    /// The fit of one operator this model serves: the γ-aware one, or
    /// the `γ = 0` one once the temperature term is disabled.
    fn fitted<'a>(&self, fit: &'a [OpPower; 2]) -> &'a OpPower {
        &fit[usize::from(!self.gamma_enabled)]
    }

    /// Temperature-independent base power of operator `index` at `f`:
    /// `α·f·V² + P_idle(f)` for both rails, plus the supply voltage. The
    /// caller supplies the temperature context (see
    /// [`Self::predict_at_dt`] and [`Self::workload_dt`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn predict_base(&self, index: usize, f: FreqMhz) -> BasePower {
        let op = self.fitted(&self.fits[index]);
        let v = self.voltage.volts(f);
        let fv2 = f.ghz() * v * v;
        BasePower {
            aicore_w: op.alpha_aicore * fv2 + self.calib.aicore_idle.predict(f, &self.voltage),
            soc_w: op.alpha_soc * fv2 + self.calib.soc_idle.predict(f, &self.voltage),
            volts: v,
        }
    }

    /// Power of operator `index` at `f` given an externally determined
    /// temperature rise `dt_c` (typically the workload-level steady-state
    /// rise from [`Self::workload_dt`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn predict_at_dt(&self, index: usize, f: FreqMhz, dt_c: f64) -> PowerPrediction {
        let base = self.predict_base(index, f);
        PowerPrediction {
            aicore_w: base.aicore_w + self.gamma(PowerDomain::AiCore) * dt_c * base.volts,
            soc_w: base.soc_w + self.gamma(PowerDomain::Soc) * dt_c * base.volts,
            dt_c,
            iterations: 0,
        }
    }

    /// Steady-state temperature rise of a whole workload: solves the
    /// `ΔT ↔ P_soc` fix point (paper Sect. 5.4.2, ≤4 iterations) against
    /// the *time-averaged* SoC power of the operators, since the thermal
    /// time constant dwarfs any single operator.
    ///
    /// `ops` yields `(op_index, freq, duration_us)` triples.
    #[must_use]
    pub fn workload_dt(&self, ops: impl Iterator<Item = (usize, FreqMhz, f64)> + Clone) -> f64 {
        let mut base_e = 0.0; // W·µs, temperature-independent part
        let mut vt = 0.0; // V·µs
        let mut time = 0.0;
        for (i, f, dur) in ops {
            let b = self.predict_base(i, f);
            base_e += b.soc_w * dur;
            vt += b.volts * dur;
            time += dur;
        }
        if time <= 0.0 {
            return 0.0;
        }
        let g = self.gamma(PowerDomain::Soc);
        let k = self.calib.thermal.k_c_per_w;
        let mut dt = 0.0;
        for _ in 0..8 {
            let p_soc = (base_e + g * dt * vt) / time;
            let new_dt = k * p_soc;
            if (new_dt - dt).abs() < 0.05 {
                return new_dt;
            }
            dt = new_dt;
        }
        dt
    }

    /// Predicts AICore and SoC power of operator `index` at `f` as a
    /// *sustained* load — the operator's own equilibrium temperature is
    /// resolved iteratively (this is the regime of the paper's Fig. 10,
    /// where each operator runs long enough to reach equilibrium). For
    /// operators inside a workload, use [`Self::workload_dt`] +
    /// [`Self::predict_at_dt`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn predict(&self, index: usize, f: FreqMhz) -> PowerPrediction {
        let op = self.fitted(&self.fits[index]);
        let v = self.voltage.volts(f);
        let fv2 = f.ghz() * v * v;
        let soc_base = op.alpha_soc * fv2 + self.calib.soc_idle.predict(f, &self.voltage);
        let g_soc = self.gamma(PowerDomain::Soc);
        let mut dt = 0.0;
        let mut p_soc = soc_base;
        let mut iterations = 0;
        for _ in 0..8 {
            iterations += 1;
            p_soc = soc_base + g_soc * dt * v;
            let new_dt = self.calib.thermal.k_c_per_w * p_soc;
            if (new_dt - dt).abs() < 0.05 {
                dt = new_dt;
                break;
            }
            dt = new_dt;
        }
        let p_ai = op.alpha_aicore * fv2
            + self.calib.aicore_idle.predict(f, &self.voltage)
            + self.gamma(PowerDomain::AiCore) * dt * v;
        PowerPrediction {
            aicore_w: p_ai,
            soc_w: p_soc,
            dt_c: dt,
            iterations,
        }
    }

    /// Time-weighted average predicted power over operators
    /// `[start, end)`, where `durations_us[i]` is each operator's
    /// (predicted) execution time at its assigned frequency `freqs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the range.
    #[must_use]
    pub fn weighted_average(
        &self,
        indices: std::ops::Range<usize>,
        freqs: &[FreqMhz],
        durations_us: &[f64],
        domain: PowerDomain,
    ) -> f64 {
        let n = indices.len();
        assert_eq!(freqs.len(), n);
        assert_eq!(durations_us.len(), n);
        let mut energy = 0.0;
        let mut time = 0.0;
        for (j, i) in indices.enumerate() {
            let p = self.predict(i, freqs[j]);
            let pw = match domain {
                PowerDomain::AiCore => p.aicore_w,
                PowerDomain::Soc => p.soc_w,
            };
            energy += pw * durations_us[j];
            time += durations_us[j];
        }
        if time > 0.0 {
            energy / time
        } else {
            0.0
        }
    }
}

/// Operator `i`'s activity factors from its record in every profile
/// (Eq. (14), averaged over the profiles): fitted with the calibrated
/// temperature coefficients, and with `γ = 0`.
fn fit_op(
    calib: &HardwareCalibration,
    voltage: &VoltageCurve,
    profiles: &[FreqProfile],
    i: usize,
) -> [OpPower; 2] {
    let gammas = [(calib.gamma_aicore, calib.gamma_soc), (0.0, 0.0)];
    let mut sums = [[0.0_f64; 2]; 2];
    for p in profiles {
        let (f, rec) = (p.freq, &p.records[i]);
        let dt_c = rec.temp_c - calib.thermal.ambient_c;
        let v = voltage.volts(f);
        let fv2 = f.ghz() * v * v;
        let idle_ai = calib.aicore_idle.predict(f, voltage);
        let idle_soc = calib.soc_idle.predict(f, voltage);
        for ([ai, soc], (g_ai, g_soc)) in sums.iter_mut().zip(gammas) {
            *ai += (rec.aicore_w - idle_ai - g_ai * dt_c * v) / fv2;
            *soc += (rec.soc_w - idle_soc - g_soc * dt_c * v) / fv2;
        }
    }
    let n = profiles.len().max(1) as f64;
    sums.map(|[ai, soc]| OpPower {
        alpha_aicore: (ai / n).max(0.0),
        alpha_soc: (soc / n).max(0.0),
    })
}

/// Relative power-prediction errors of `model` against holdout profiles
/// (frequencies not used for building). Each profile's temperature rise is
/// predicted once at workload level (the chip integrates power over a
/// thermal constant much longer than any operator), then per-operator
/// predictions are scored against the measured per-operator powers.
#[must_use]
pub fn validation_errors(
    model: &PowerModel,
    truth: &[FreqProfile],
    domain: PowerDomain,
    min_dur_us: f64,
) -> Vec<f64> {
    let mut errors = Vec::new();
    for p in truth {
        let dt = model.workload_dt(
            p.records
                .iter()
                .enumerate()
                .map(|(i, r)| (i, p.freq, r.dur_us)),
        );
        for (i, rec) in p.records.iter().enumerate() {
            if rec.dur_us < min_dur_us {
                continue;
            }
            let pred = model.predict_at_dt(i, p.freq, dt);
            let (pw, meas) = match domain {
                PowerDomain::AiCore => (pred.aicore_w, rec.aicore_w),
                PowerDomain::Soc => (pred.soc_w, rec.soc_w),
            };
            if meas > 0.0 {
                errors.push((pw - meas).abs() / meas);
            }
        }
    }
    errors
}

/// The paper's Table 2 error-bin breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorDistribution {
    /// Fraction of predictions with error ≤ 1 %.
    pub within_1pct: f64,
    /// Fraction in (1 %, 5 %].
    pub pct_1_to_5: f64,
    /// Fraction in (5 %, 10 %].
    pub pct_5_to_10: f64,
    /// Fraction above 10 %.
    pub over_10pct: f64,
    /// Mean relative error.
    pub mean: f64,
    /// Number of scored predictions.
    pub count: usize,
}

impl ErrorDistribution {
    /// Bins a set of relative errors; returns `None` when empty.
    #[must_use]
    pub fn from_errors(errors: &[f64]) -> Option<Self> {
        if errors.is_empty() {
            return None;
        }
        let n = errors.len() as f64;
        let frac = |lo: f64, hi: f64| -> f64 {
            errors.iter().filter(|&&e| e > lo && e <= hi).count() as f64 / n
        };
        Some(Self {
            within_1pct: frac(-1.0, 0.01),
            pct_1_to_5: frac(0.01, 0.05),
            pct_5_to_10: frac(0.05, 0.10),
            over_10pct: errors.iter().filter(|&&e| e > 0.10).count() as f64 / n,
            mean: errors.iter().sum::<f64>() / n,
            count: errors.len(),
        })
    }
}

impl fmt::Display for ErrorDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(0,1%]: {:.1}%  (1%,5%]: {:.1}%  (5%,10%]: {:.1}%  (10%,inf): {:.1}%  avg: {:.2}%",
            100.0 * self.within_1pct,
            100.0 * self.pct_1_to_5,
            100.0 * self.pct_5_to_10,
            100.0 * self.over_10pct,
            100.0 * self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{IdleFit, ThermalFit};

    fn synthetic_calibration() -> HardwareCalibration {
        HardwareCalibration {
            aicore_idle: IdleFit {
                beta: 4.0,
                theta: 5.0,
            },
            soc_idle: IdleFit {
                beta: 4.0,
                theta: 183.0,
            },
            gamma_aicore: 0.25,
            gamma_soc: 0.9,
            thermal: ThermalFit {
                k_c_per_w: 0.11,
                ambient_c: 40.0,
            },
        }
    }

    fn synthetic_profile(freq: FreqMhz, alpha_ai: f64, alpha_soc: f64) -> FreqProfile {
        use npu_sim::{OpClass, OpRecord, PipelineRatios, Scenario};
        let calib = synthetic_calibration();
        let voltage = VoltageCurve::ascend_default();
        let v = voltage.volts(freq);
        let fv2 = freq.ghz() * v * v;
        // Ground truth consistent with the model's own form so we can test
        // exact recovery.
        let soc_base = alpha_soc * fv2 + calib.soc_idle.predict(freq, &voltage);
        let mut dt = 0.0;
        for _ in 0..20 {
            dt = calib.thermal.k_c_per_w * (soc_base + calib.gamma_soc * dt * v);
        }
        let soc = soc_base + calib.gamma_soc * dt * v;
        let ai = alpha_ai * fv2 + calib.aicore_idle.predict(freq, &voltage) + 0.25 * dt * v;
        FreqProfile {
            freq,
            records: vec![OpRecord {
                index: 0,
                name: "MatMul".into(),
                class: OpClass::Compute,
                scenario: Scenario::PingPongIndependent,
                start_us: 0.0,
                dur_us: 100.0,
                freq_mhz: freq,
                ratios: PipelineRatios::default(),
                aicore_w: ai,
                soc_w: soc,
                temp_c: 40.0 + dt,
                traffic_bytes: 0.0,
            }],
        }
    }

    #[test]
    fn recovers_alpha_exactly_on_consistent_data() {
        let profiles = vec![
            synthetic_profile(FreqMhz::new(1000), 18.0, 30.0),
            synthetic_profile(FreqMhz::new(1800), 18.0, 30.0),
        ];
        let model = PowerModel::build(
            synthetic_calibration(),
            VoltageCurve::ascend_default(),
            &profiles,
        )
        .unwrap();
        let op = model.op(0).unwrap();
        assert!((op.alpha_aicore - 18.0).abs() < 1e-6, "{}", op.alpha_aicore);
        assert!((op.alpha_soc - 30.0).abs() < 1e-6, "{}", op.alpha_soc);
    }

    #[test]
    fn prediction_matches_truth_at_holdout_frequency() {
        let profiles = vec![
            synthetic_profile(FreqMhz::new(1000), 18.0, 30.0),
            synthetic_profile(FreqMhz::new(1800), 18.0, 30.0),
        ];
        let model = PowerModel::build(
            synthetic_calibration(),
            VoltageCurve::ascend_default(),
            &profiles,
        )
        .unwrap();
        let truth = synthetic_profile(FreqMhz::new(1400), 18.0, 30.0);
        let pred = model.predict(0, FreqMhz::new(1400));
        let rec = &truth.records[0];
        assert!((pred.aicore_w - rec.aicore_w).abs() / rec.aicore_w < 1e-3);
        assert!((pred.soc_w - rec.soc_w).abs() / rec.soc_w < 1e-3);
        assert!(pred.iterations <= 4, "paper: converges within 4 iterations");
    }

    #[test]
    fn gamma_ablation_changes_predictions() {
        let profiles = vec![
            synthetic_profile(FreqMhz::new(1000), 18.0, 30.0),
            synthetic_profile(FreqMhz::new(1800), 18.0, 30.0),
        ];
        let model = PowerModel::build(
            synthetic_calibration(),
            VoltageCurve::ascend_default(),
            &profiles,
        )
        .unwrap();
        let blind = model.without_temperature();
        assert!(!blind.temperature_enabled());
        // The blind model absorbs γΔTV into α, so its α is larger.
        assert!(blind.op(0).unwrap().alpha_aicore > model.op(0).unwrap().alpha_aicore);
        // At a holdout frequency the predictions differ (that is the whole
        // point of the ablation).
        let a = model.predict(0, FreqMhz::new(1400)).aicore_w;
        let b = blind.predict(0, FreqMhz::new(1400)).aicore_w;
        assert!((a - b).abs() > 1e-3);
    }

    #[test]
    fn build_rejects_empty_and_mismatched() {
        assert_eq!(
            PowerModel::build(synthetic_calibration(), VoltageCurve::ascend_default(), &[])
                .unwrap_err(),
            PowerBuildError::NoProfiles
        );
        let mut p2 = synthetic_profile(FreqMhz::new(1800), 18.0, 30.0);
        p2.records.clear();
        let err = PowerModel::build(
            synthetic_calibration(),
            VoltageCurve::ascend_default(),
            &[synthetic_profile(FreqMhz::new(1000), 18.0, 30.0), p2],
        )
        .unwrap_err();
        assert!(matches!(err, PowerBuildError::MismatchedProfiles { .. }));
    }

    #[test]
    fn error_distribution_bins() {
        let errors = vec![0.005, 0.02, 0.04, 0.07, 0.2];
        let d = ErrorDistribution::from_errors(&errors).unwrap();
        assert!((d.within_1pct - 0.2).abs() < 1e-12);
        assert!((d.pct_1_to_5 - 0.4).abs() < 1e-12);
        assert!((d.pct_5_to_10 - 0.2).abs() < 1e-12);
        assert!((d.over_10pct - 0.2).abs() < 1e-12);
        assert_eq!(d.count, 5);
        assert!(ErrorDistribution::from_errors(&[]).is_none());
    }

    #[test]
    fn weighted_average_weights_by_time() {
        let profiles = vec![
            synthetic_profile(FreqMhz::new(1000), 18.0, 30.0),
            synthetic_profile(FreqMhz::new(1800), 18.0, 30.0),
        ];
        let model = PowerModel::build(
            synthetic_calibration(),
            VoltageCurve::ascend_default(),
            &profiles,
        )
        .unwrap();
        let f = FreqMhz::new(1800);
        let avg = model.weighted_average(0..1, &[f], &[42.0], PowerDomain::AiCore);
        assert!((avg - model.predict(0, f).aicore_w).abs() < 1e-12);
    }
}
