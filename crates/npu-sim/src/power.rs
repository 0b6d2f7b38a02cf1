//! Ground-truth power physics (paper Sect. 5).
//!
//! Chip power decomposes as `P = α·f·V² + β·f·V² + γ·ΔT·V + θ·V`
//! (Eq. (11)): load-dependent dynamic power, load-independent dynamic
//! power, temperature-dependent leakage, and constant leakage. The uncore
//! adds an idle floor plus a per-byte memory-transfer energy and its own
//! temperature-dependent leakage.
//!
//! Each formula is written once, in [`PowerConstants`]: the terms that
//! depend only on the configuration, the core frequency and the uncore
//! scale are computed when the constants are built, and
//! [`PowerConstants::aicore`] / [`PowerConstants::uncore`] add the load
//! and temperature terms. The device builds the constants once per
//! frequency (and once per operator only while a drift model rewrites
//! the configuration); the free functions below build them per call.

use crate::config::NpuConfig;
use crate::freq::FreqMhz;

/// The load- and temperature-independent power terms of one operating
/// point: a configuration, a core frequency and an uncore idle floor
/// ([`uncore_idle_floor`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConstants {
    ghz: f64,
    volts: f64,
    /// `β·f·V² + θ·V` (Eq. (12)).
    aicore_idle_w: f64,
    gamma_aicore: f64,
    /// Uncore idle floor plus `θ_uncore·V`.
    uncore_static_w: f64,
    gamma_uncore: f64,
    hbm_pj_per_byte: f64,
}

impl PowerConstants {
    /// The constants of `cfg` at core frequency `f` with the uncore idle
    /// floor `uncore_floor_w`.
    #[must_use]
    pub fn new(cfg: &NpuConfig, f: FreqMhz, uncore_floor_w: f64) -> Self {
        let volts = cfg.voltage_curve.volts(f);
        let ghz = f.ghz();
        Self {
            ghz,
            volts,
            aicore_idle_w: cfg.beta_w_per_ghz_v2 * ghz * volts * volts + cfg.theta_w_per_v * volts,
            gamma_aicore: cfg.gamma_aicore_w_per_k_v,
            uncore_static_w: uncore_floor_w + cfg.uncore_theta_w_per_v * volts,
            gamma_uncore: (cfg.gamma_soc_w_per_k_v - cfg.gamma_aicore_w_per_k_v).max(0.0),
            hbm_pj_per_byte: cfg.hbm_pj_per_byte,
        }
    }

    /// Full AICore power at activity factor `alpha` (W/(GHz·V²)) and
    /// temperature rise `dt_c` above ambient (Eq. (11)).
    #[inline]
    #[must_use]
    pub fn aicore(&self, alpha: f64, dt_c: f64) -> f64 {
        alpha * self.ghz * self.volts * self.volts
            + self.aicore_idle_w
            + self.gamma_aicore * dt_c * self.volts
    }

    /// Uncore power at a memory traffic rate of `traffic_bytes_per_us`
    /// and temperature rise `dt_c`: idle floor + transfer energy + the
    /// uncore share of temperature-dependent leakage.
    #[inline]
    #[must_use]
    pub fn uncore(&self, traffic_bytes_per_us: f64, dt_c: f64) -> f64 {
        self.uncore_static_w
            + self.hbm_pj_per_byte * traffic_bytes_per_us * 1e-6
            + self.gamma_uncore * dt_c * self.volts
    }

    /// SoC leakage per degree of temperature rise, W/K: `aicore` plus
    /// `uncore` is affine in `dt_c` with this slope.
    #[must_use]
    pub(crate) fn soc_w_per_k(&self) -> f64 {
        (self.gamma_aicore + self.gamma_uncore) * self.volts
    }
}

/// The uncore idle floor with the uncore domain downclocked to `scale`
/// of its nominal frequency (1.0 = nominal; the paper's Sect. 8.2 future
/// work). The clock-dynamic share follows `scale^2.5` (frequency × the
/// squared, roughly linear uncore voltage).
///
/// # Panics
///
/// Panics (debug) if `scale` is outside `(0, 1]`.
#[must_use]
pub fn uncore_idle_floor(cfg: &NpuConfig, scale: f64) -> f64 {
    debug_assert!(scale > 0.0 && scale <= 1.0);
    let dyn_frac = cfg.uncore_dynamic_fraction;
    cfg.uncore_idle_w * ((1.0 - dyn_frac) + dyn_frac * scale.powf(2.5))
}

/// AICore load-independent power `β·f·V² + θ·V` (Eq. (12)).
#[must_use]
pub fn aicore_idle_power(cfg: &NpuConfig, f: FreqMhz) -> f64 {
    PowerConstants::new(cfg, f, 0.0).aicore_idle_w
}

/// Full AICore power at activity factor `alpha` (W/(GHz·V²)) and
/// temperature rise `dt_c` above ambient (Eq. (11)).
#[must_use]
pub fn aicore_power(cfg: &NpuConfig, alpha: f64, f: FreqMhz, dt_c: f64) -> f64 {
    PowerConstants::new(cfg, f, 0.0).aicore(alpha, dt_c)
}

/// Uncore power at a memory traffic rate of `traffic_bytes_per_us` and
/// temperature rise `dt_c`: idle floor + transfer energy + the uncore share
/// of temperature-dependent leakage. Uncore clocks at nominal frequency.
#[must_use]
pub fn uncore_power(cfg: &NpuConfig, traffic_bytes_per_us: f64, f: FreqMhz, dt_c: f64) -> f64 {
    uncore_power_scaled(cfg, traffic_bytes_per_us, f, dt_c, 1.0)
}

/// Uncore power with the uncore domain downclocked to `scale` of its
/// nominal frequency: the idle floor shrinks ([`uncore_idle_floor`]);
/// transfer energy per byte and static leakage are unchanged.
///
/// # Panics
///
/// Panics (debug) if `scale` is outside `(0, 1]`.
#[must_use]
pub fn uncore_power_scaled(
    cfg: &NpuConfig,
    traffic_bytes_per_us: f64,
    f: FreqMhz,
    dt_c: f64,
    scale: f64,
) -> f64 {
    PowerConstants::new(cfg, f, uncore_idle_floor(cfg, scale)).uncore(traffic_bytes_per_us, dt_c)
}

/// Whole-SoC power: AICore plus uncore (Eq. (16) ground truth).
#[must_use]
pub fn soc_power(
    cfg: &NpuConfig,
    alpha: f64,
    traffic_bytes_per_us: f64,
    f: FreqMhz,
    dt_c: f64,
) -> f64 {
    aicore_power(cfg, alpha, f, dt_c) + uncore_power(cfg, traffic_bytes_per_us, f, dt_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NpuConfig {
        // Explicitly the embedded ascend profile (what `ascend_like`
        // wraps), so these physics pins track the declarative source.
        crate::profile::ascend_910().config().clone()
    }

    #[test]
    fn idle_power_increases_with_frequency() {
        let cfg = cfg();
        let mut prev = 0.0;
        for f in cfg.freq_table.iter() {
            let p = aicore_idle_power(&cfg, f);
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn idle_power_magnitude_plausible() {
        // Calibration target: ~32 W load-independent AICore power at
        // 1800 MHz — clock trees and always-on structures dominate NPU
        // core power, which is what makes idle/memory phases worth
        // downclocking (the headline mechanism of the paper's savings).
        let p = aicore_idle_power(&cfg(), FreqMhz::new(1800));
        assert!((25.0..40.0).contains(&p), "got {p}");
    }

    #[test]
    fn active_power_adds_alpha_term() {
        let cfg = cfg();
        let f = FreqMhz::new(1800);
        let idle = aicore_power(&cfg, 0.0, f, 0.0);
        let busy = aicore_power(&cfg, 20.0, f, 0.0);
        let v = cfg.voltage_curve.volts(f);
        assert!((busy - idle - 20.0 * 1.8 * v * v).abs() < 1e-9);
    }

    #[test]
    fn temperature_term_is_linear() {
        let cfg = cfg();
        let f = FreqMhz::new(1400);
        let v = cfg.voltage_curve.volts(f);
        let p0 = aicore_power(&cfg, 5.0, f, 0.0);
        let p25 = aicore_power(&cfg, 5.0, f, 25.0);
        assert!((p25 - p0 - cfg.gamma_aicore_w_per_k_v * 25.0 * v).abs() < 1e-9);
    }

    #[test]
    fn temperature_dependent_share_matches_paper_range() {
        // Paper Sect. 7.3: AICore P_dT is roughly 3–8 W, ~10–20 % of AICore
        // power under load.
        let cfg = cfg();
        let f = FreqMhz::new(1800);
        let v = cfg.voltage_curve.volts(f);
        let dt = 25.0; // typical rise under load
        let p_dt = cfg.gamma_aicore_w_per_k_v * dt * v;
        assert!((3.0..=8.0).contains(&p_dt), "P_dT = {p_dt}");
        let total = aicore_power(&cfg, 10.0, f, dt);
        let share = p_dt / total;
        assert!((0.05..=0.25).contains(&share), "share = {share}");
    }

    #[test]
    fn uncore_power_scales_with_traffic() {
        let cfg = cfg();
        let f = FreqMhz::new(1800);
        let v = cfg.voltage_curve.volts(f);
        let quiet = uncore_power(&cfg, 0.0, f, 0.0);
        assert!((quiet - cfg.uncore_idle_w - cfg.uncore_theta_w_per_v * v).abs() < 1e-9);
        // 1.6e6 B/us = 1.6 TB/s at 40 pJ/B -> +64 W.
        let busy = uncore_power(&cfg, 1.6e6, f, 0.0);
        assert!((busy - quiet - 64.0).abs() < 1e-6);
    }

    #[test]
    fn uncore_rail_tracks_core_voltage() {
        // Part of the SoC idle floor follows the core supply, so deep
        // downclocks save uncore power too (paper Table 3: SoC savings
        // exceed the AICore savings in watts).
        let cfg = cfg();
        let hi = uncore_power(&cfg, 0.0, FreqMhz::new(1800), 0.0);
        let lo = uncore_power(&cfg, 0.0, FreqMhz::new(1000), 0.0);
        let dv = cfg.voltage_curve.volts(FreqMhz::new(1800))
            - cfg.voltage_curve.volts(FreqMhz::new(1000));
        assert!((hi - lo - cfg.uncore_theta_w_per_v * dv).abs() < 1e-9);
    }

    #[test]
    fn uncore_downclock_saves_dynamic_power_only() {
        let cfg = cfg();
        let f = FreqMhz::new(1800);
        let nominal = uncore_power_scaled(&cfg, 0.0, f, 0.0, 1.0);
        let slow = uncore_power_scaled(&cfg, 0.0, f, 0.0, 0.7);
        assert!(slow < nominal);
        let expect = cfg.uncore_idle_w * cfg.uncore_dynamic_fraction * (1.0 - 0.7f64.powf(2.5));
        assert!((nominal - slow - expect).abs() < 1e-9);
        // Transfer energy is per byte, not per cycle: unchanged by scale.
        let d_nominal = uncore_power_scaled(&cfg, 1e6, f, 0.0, 1.0) - nominal;
        let d_slow = uncore_power_scaled(&cfg, 1e6, f, 0.0, 0.7) - slow;
        assert!((d_nominal - d_slow).abs() < 1e-9);
    }

    #[test]
    fn soc_is_sum_of_parts() {
        let cfg = cfg();
        let f = FreqMhz::new(1500);
        let total = soc_power(&cfg, 10.0, 1e6, f, 20.0);
        let sum = aicore_power(&cfg, 10.0, f, 20.0) + uncore_power(&cfg, 1e6, f, 20.0);
        assert!((total - sum).abs() < 1e-12);
    }

    #[test]
    fn gpt3_like_mix_lands_near_paper_magnitudes() {
        // Sanity calibration: an average GPT-3 operator mix (alpha ~ 7,
        // ~0.3 TB/s traffic, ~25 K rise) should land near the paper's
        // 45.9 W AICore / 250 W SoC at 1800 MHz.
        let cfg = cfg();
        let f = FreqMhz::new(1800);
        let ai = aicore_power(&cfg, 7.0, f, 25.0);
        let soc = soc_power(&cfg, 7.0, 0.3e6, f, 25.0);
        assert!((38.0..=55.0).contains(&ai), "AICore {ai}");
        assert!((215.0..=285.0).contains(&soc), "SoC {soc}");
    }
}
