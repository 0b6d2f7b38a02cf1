//! Offline calibration (paper Fig. 11, left half): extract the
//! hardware-related parameters from idle measurements, a test load's
//! cool-down, and equilibrium temperatures under different loads.
//!
//! * Idle power at two frequencies → `β`, `θ` of
//!   `P_idle(f) = β·f·V² + θ·V` (Eq. (12));
//! * power-vs-temperature during post-load cool-down → `γ` via
//!   `dP/dT = γ·V` (Sect. 5.4.2);
//! * equilibrium temperature vs SoC power across loads → `k`, `T0` of
//!   `T = T0 + k·P_soc` (Eq. (15), Fig. 10).

use npu_sim::{FreqMhz, VoltageCurve};
use std::fmt;

/// Least-squares line fit; returns `(slope, intercept)`.
///
/// # Errors
///
/// Returns [`CalibrationError::Degenerate`] when fewer than two points or
/// zero variance in `x`.
pub fn linear_regression(points: &[(f64, f64)]) -> Result<(f64, f64), CalibrationError> {
    if points.len() < 2 {
        return Err(CalibrationError::Degenerate("need at least two points"));
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-12 {
        return Err(CalibrationError::Degenerate("zero variance in x"));
    }
    let slope = (n * sxy - sx * sy) / det;
    let intercept = (sy - slope * sx) / n;
    Ok((slope, intercept))
}

/// Fitted load-independent power `P_idle(f) = β·f·V² + θ·V`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleFit {
    /// β in W/(GHz·V²).
    pub beta: f64,
    /// θ in W/V.
    pub theta: f64,
}

impl IdleFit {
    /// Solves β, θ from idle power measured at two or more frequencies
    /// (least squares beyond two).
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::Degenerate`] with fewer than two
    /// distinct frequencies.
    pub fn fit(
        points: &[(FreqMhz, f64)],
        voltage: &VoltageCurve,
    ) -> Result<Self, CalibrationError> {
        if points.len() < 2 {
            return Err(CalibrationError::Degenerate("need two idle points"));
        }
        // Normal equations for P = β·(f·V²) + θ·V.
        let (mut a11, mut a12, mut a22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for &(f, p) in points {
            let v = voltage.volts(f);
            let x1 = f.ghz() * v * v;
            let x2 = v;
            a11 += x1 * x1;
            a12 += x1 * x2;
            a22 += x2 * x2;
            b1 += x1 * p;
            b2 += x2 * p;
        }
        let det = a11 * a22 - a12 * a12;
        if det.abs() < 1e-12 {
            return Err(CalibrationError::Degenerate("idle points not distinct"));
        }
        Ok(Self {
            beta: (a22 * b1 - a12 * b2) / det,
            theta: (a11 * b2 - a12 * b1) / det,
        })
    }

    /// Predicted idle power at `f`, W.
    #[must_use]
    pub fn predict(&self, f: FreqMhz, voltage: &VoltageCurve) -> f64 {
        let v = voltage.volts(f);
        self.beta * f.ghz() * v * v + self.theta * v
    }
}

/// Fits `γ` from `(power, temperature)` samples collected while the chip
/// cools down after a test load: `dP/dT = γ·V` (paper Sect. 5.4.2).
///
/// # Errors
///
/// Returns [`CalibrationError`] on degenerate samples or non-positive
/// voltage.
pub fn fit_gamma(
    cooldown: &[(f64, f64)], // (temp_c, power_w)
    volts: f64,
) -> Result<f64, CalibrationError> {
    if volts <= 0.0 {
        return Err(CalibrationError::Degenerate("voltage must be positive"));
    }
    let (slope, _) = linear_regression(cooldown)?;
    Ok(slope / volts)
}

/// Fitted thermal coupling `T = T0 + k·P_soc` (Eq. (15)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalFit {
    /// `k` in °C/W.
    pub k_c_per_w: f64,
    /// `T0` (idle ambient-coupled temperature), °C.
    pub ambient_c: f64,
}

impl ThermalFit {
    /// Fits from `(p_soc_w, equilibrium_temp_c)` pairs across loads
    /// (paper Fig. 10).
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::Degenerate`] on fewer than two loads.
    pub fn fit(points: &[(f64, f64)]) -> Result<Self, CalibrationError> {
        let (k, t0) = linear_regression(points)?;
        Ok(Self {
            k_c_per_w: k,
            ambient_c: t0,
        })
    }

    /// Equilibrium temperature at SoC power `p_w`, °C.
    #[must_use]
    pub fn temp_at(&self, p_w: f64) -> f64 {
        self.ambient_c + self.k_c_per_w * p_w
    }
}

/// Everything the offline phase extracts (paper Fig. 11:
/// `P_AICore,idle`, `P_soc,idle`, `γ_AICore`, `γ_soc`, `k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareCalibration {
    /// AICore load-independent power fit.
    pub aicore_idle: IdleFit,
    /// SoC load-independent power fit (includes the uncore floor).
    pub soc_idle: IdleFit,
    /// AICore temperature coefficient, W/(K·V).
    pub gamma_aicore: f64,
    /// SoC temperature coefficient, W/(K·V).
    pub gamma_soc: f64,
    /// Thermal coupling fit.
    pub thermal: ThermalFit,
}

impl HardwareCalibration {
    /// Oracle calibration for a simulated device: derives the same
    /// quantities the offline procedure measures, but noise-free, straight
    /// from the simulator's ground-truth physics. Useful for tests and for
    /// isolating model error from calibration error in ablations.
    #[must_use]
    pub fn ground_truth(cfg: &npu_sim::NpuConfig) -> Self {
        use npu_sim::{power, FreqMhz};
        let voltage = cfg.voltage_curve;
        let lo = cfg.freq_table.min();
        let hi = cfg.freq_table.max();
        let ai_pts: Vec<(FreqMhz, f64)> = [lo, hi]
            .iter()
            .map(|&f| (f, power::aicore_idle_power(cfg, f)))
            .collect();
        let soc_pts: Vec<(FreqMhz, f64)> = [lo, hi]
            .iter()
            .map(|&f| {
                (
                    f,
                    power::aicore_idle_power(cfg, f) + power::uncore_power(cfg, 0.0, f, 0.0),
                )
            })
            .collect();
        // The two points are the table's distinct min/max frequencies, so
        // the fit cannot be degenerate.
        let fit_exact = |pts: &[(FreqMhz, f64)]| match IdleFit::fit(pts, &voltage) {
            Ok(fit) => fit,
            Err(e) => unreachable!("ground-truth idle fit degenerate: {e}"),
        };
        Self {
            aicore_idle: fit_exact(&ai_pts),
            soc_idle: fit_exact(&soc_pts),
            gamma_aicore: cfg.gamma_aicore_w_per_k_v,
            gamma_soc: cfg.gamma_soc_w_per_k_v,
            thermal: ThermalFit {
                k_c_per_w: cfg.k_c_per_w,
                ambient_c: cfg.ambient_c,
            },
        }
    }
}

/// Errors from calibration fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationError {
    /// The sample set cannot determine the parameters.
    Degenerate(&'static str),
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Degenerate(what) => write!(f, "degenerate calibration data: {what}"),
        }
    }
}

impl std::error::Error for CalibrationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let (m, b) = linear_regression(&pts).unwrap();
        assert!((m - 3.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn regression_rejects_degenerate() {
        assert!(linear_regression(&[(1.0, 2.0)]).is_err());
        assert!(linear_regression(&[(1.0, 2.0), (1.0, 3.0)]).is_err());
    }

    #[test]
    fn idle_fit_recovers_beta_theta() {
        let voltage = VoltageCurve::ascend_default();
        let truth = |f: FreqMhz| {
            let v = voltage.volts(f);
            4.0 * f.ghz() * v * v + 5.0 * v
        };
        let pts = vec![
            (FreqMhz::new(1000), truth(FreqMhz::new(1000))),
            (FreqMhz::new(1800), truth(FreqMhz::new(1800))),
        ];
        let fit = IdleFit::fit(&pts, &voltage).unwrap();
        assert!((fit.beta - 4.0).abs() < 1e-9, "beta {}", fit.beta);
        assert!((fit.theta - 5.0).abs() < 1e-9, "theta {}", fit.theta);
        // Interpolates the whole band.
        let f = FreqMhz::new(1400);
        assert!((fit.predict(f, &voltage) - truth(f)).abs() < 1e-9);
    }

    #[test]
    fn idle_fit_rejects_single_point() {
        let voltage = VoltageCurve::ascend_default();
        assert!(IdleFit::fit(&[(FreqMhz::new(1000), 10.0)], &voltage).is_err());
    }

    #[test]
    fn gamma_from_cooldown_slope() {
        // P = γ·V·T + const with γ = 0.25, V = 0.98.
        let v = 0.98;
        let pts: Vec<(f64, f64)> = (40..70)
            .map(|t| (f64::from(t), 0.25 * v * f64::from(t) + 11.0))
            .collect();
        let gamma = fit_gamma(&pts, v).unwrap();
        assert!((gamma - 0.25).abs() < 1e-9);
    }

    #[test]
    fn gamma_rejects_bad_voltage() {
        assert!(fit_gamma(&[(40.0, 10.0), (50.0, 11.0)], 0.0).is_err());
    }

    #[test]
    fn thermal_fit_matches_fig10_form() {
        let pts: Vec<(f64, f64)> = [200.0, 250.0, 300.0, 400.0]
            .iter()
            .map(|&p| (p, 40.0 + 0.11 * p))
            .collect();
        let fit = ThermalFit::fit(&pts).unwrap();
        assert!((fit.k_c_per_w - 0.11).abs() < 1e-9);
        assert!((fit.ambient_c - 40.0).abs() < 1e-9);
        assert!((fit.temp_at(250.0) - 67.5).abs() < 1e-9);
    }
}
