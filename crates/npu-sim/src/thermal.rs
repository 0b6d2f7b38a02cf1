//! First-order thermal model.
//!
//! The paper observes (Fig. 10, Eq. (15)) that equilibrium AICore
//! temperature is linear in SoC power: `T = T0 + k · P_soc`. We realize
//! that with a first-order RC model — the temperature relaxes
//! exponentially toward the equilibrium of the instantaneous power with
//! time constant τ — which also produces the gradual post-load cool-down
//! the paper exploits to fit γ (Sect. 5.4.2).

use crate::config::NpuConfig;

/// Chip thermal state in virtual time.
///
/// # Examples
///
/// ```
/// use npu_sim::{NpuConfig, ThermalState};
///
/// let cfg = NpuConfig::ascend_like();
/// let mut thermal = ThermalState::new(&cfg);
/// let start = thermal.temp_c();
/// // Hold 300 W for three time constants: temperature approaches T0 + k·300.
/// thermal.advance(&cfg, 300.0, 3.0 * cfg.thermal_tau_us);
/// assert!(thermal.temp_c() > start);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    temp_c: f64,
}

impl ThermalState {
    /// Starts at the idle ambient-coupled temperature.
    #[must_use]
    pub fn new(cfg: &NpuConfig) -> Self {
        Self {
            temp_c: cfg.ambient_c,
        }
    }

    /// Starts at an explicit temperature (e.g. resuming a warm device).
    #[must_use]
    pub fn at_temperature(temp_c: f64) -> Self {
        Self { temp_c }
    }

    /// Current chip temperature, °C.
    #[must_use]
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Temperature rise above the idle ambient-coupled point, °C (`ΔT`).
    #[must_use]
    pub fn delta_t(&self, cfg: &NpuConfig) -> f64 {
        self.temp_c - cfg.ambient_c
    }

    /// Equilibrium temperature under sustained SoC power (Eq. (15)).
    #[must_use]
    pub fn equilibrium(cfg: &NpuConfig, p_soc_w: f64) -> f64 {
        cfg.ambient_c + cfg.k_c_per_w * p_soc_w.max(0.0)
    }

    /// Advances the state by `dt_us` under constant SoC power `p_soc_w`,
    /// relaxing exponentially toward [`Self::equilibrium`].
    pub fn advance(&mut self, cfg: &NpuConfig, p_soc_w: f64, dt_us: f64) {
        debug_assert!(dt_us >= 0.0);
        let eq = Self::equilibrium(cfg, p_soc_w);
        let decay = (-dt_us / cfg.thermal_tau_us).exp();
        self.temp_c = eq + (self.temp_c - eq) * decay;
    }
}

/// The map [`ThermalState::advance`] applies to the temperature rise
/// `ΔT` when the SoC power is affine in it (the `γ·ΔT·V` leakage of
/// Eq. (11)) and non-negative: `ΔT ↦ ΔT + relax · (fixed_point − ΔT)`.
/// Steps compose with [`RiseMap::then`], so one map describes a whole
/// schedule iteration. `relax` (`1 − a` of the affine form `a·ΔT + b`)
/// is carried directly: it is small for short steps, and `1 − a` would
/// lose its digits to cancellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RiseMap {
    /// Fraction of the gap to the fixed point that the map closes.
    relax: f64,
    /// `b` of the affine form, °C.
    offset_c: f64,
}

impl RiseMap {
    /// The map that changes nothing.
    pub const IDENTITY: Self = Self {
        relax: 0.0,
        offset_c: 0.0,
    };

    /// One step of `dt_us` under SoC power `p0_w + w_per_k · ΔT`.
    pub fn step(cfg: &NpuConfig, p0_w: f64, w_per_k: f64, dt_us: f64) -> Self {
        // ΔT' = k·P·(1 − d) + ΔT·d with d = e^(−dt/τ): the RC step of
        // `advance`, measured from ambient.
        let heat = -(-dt_us / cfg.thermal_tau_us).exp_m1();
        Self {
            relax: heat * (1.0 - cfg.k_c_per_w * w_per_k),
            offset_c: heat * cfg.k_c_per_w * p0_w,
        }
    }

    /// This map followed by `next`.
    #[must_use]
    pub fn then(self, next: Self) -> Self {
        Self {
            relax: self.relax + next.relax - self.relax * next.relax,
            offset_c: (1.0 - next.relax) * self.offset_c + next.offset_c,
        }
    }

    /// The image of the rise `dt_c`.
    pub fn apply(self, dt_c: f64) -> f64 {
        (1.0 - self.relax) * dt_c + self.offset_c
    }

    /// The rise the map leaves unchanged, `b / (1 − a)`: the steady state
    /// of repeating it. Meaningful only when `relax > 0`.
    pub fn fixed_point(self) -> f64 {
        self.offset_c / self.relax
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NpuConfig {
        NpuConfig::ascend_like()
    }

    #[test]
    fn starts_at_ambient() {
        let cfg = cfg();
        assert_eq!(ThermalState::new(&cfg).temp_c(), cfg.ambient_c);
        assert_eq!(ThermalState::new(&cfg).delta_t(&cfg), 0.0);
    }

    #[test]
    fn equilibrium_is_linear_in_power() {
        let cfg = cfg();
        let t200 = ThermalState::equilibrium(&cfg, 200.0);
        let t300 = ThermalState::equilibrium(&cfg, 300.0);
        let t400 = ThermalState::equilibrium(&cfg, 400.0);
        assert!((t300 - t200 - (t400 - t300)).abs() < 1e-9, "linear spacing");
        assert!(((t300 - t200) / 100.0 - cfg.k_c_per_w).abs() < 1e-12);
    }

    #[test]
    fn fig10_band_matches_paper() {
        // Paper Fig. 10: SoC power 200–400 W maps to roughly 60–85 °C.
        let cfg = cfg();
        let lo = ThermalState::equilibrium(&cfg, 200.0);
        let hi = ThermalState::equilibrium(&cfg, 400.0);
        assert!((55.0..=70.0).contains(&lo), "lo={lo}");
        assert!((75.0..=95.0).contains(&hi), "hi={hi}");
    }

    #[test]
    fn converges_to_equilibrium() {
        let cfg = cfg();
        let mut th = ThermalState::new(&cfg);
        th.advance(&cfg, 250.0, 10.0 * cfg.thermal_tau_us);
        let eq = ThermalState::equilibrium(&cfg, 250.0);
        assert!((th.temp_c() - eq).abs() < 0.01);
    }

    #[test]
    fn cools_down_after_load() {
        let cfg = cfg();
        let mut th = ThermalState::at_temperature(80.0);
        let before = th.temp_c();
        th.advance(&cfg, 0.0, cfg.thermal_tau_us);
        assert!(th.temp_c() < before);
        assert!(th.temp_c() > cfg.ambient_c);
    }

    #[test]
    fn advance_is_composable() {
        // Two half steps equal one full step for constant power.
        let cfg = cfg();
        let mut a = ThermalState::new(&cfg);
        a.advance(&cfg, 300.0, 1e6);
        let mut b = ThermalState::new(&cfg);
        b.advance(&cfg, 300.0, 5e5);
        b.advance(&cfg, 300.0, 5e5);
        assert!((a.temp_c() - b.temp_c()).abs() < 1e-9);
    }

    #[test]
    fn zero_dt_is_identity() {
        let cfg = cfg();
        let mut th = ThermalState::at_temperature(55.0);
        th.advance(&cfg, 400.0, 0.0);
        assert_eq!(th.temp_c(), 55.0);
    }

    #[test]
    fn huge_power_spike_stays_bounded_by_equilibrium() {
        // A pathological power excursion must not overshoot its own
        // equilibrium, however large the step: the exponential decay
        // factor stays within (0, 1].
        let cfg = cfg();
        let mut th = ThermalState::new(&cfg);
        th.advance(&cfg, 1.0e6, 1.0e12);
        let eq = ThermalState::equilibrium(&cfg, 1.0e6);
        assert!(th.temp_c() <= eq + 1e-9, "temp {} eq {eq}", th.temp_c());
        assert!(th.temp_c().is_finite());
        // And it relaxes back down once the spike ends.
        th.advance(&cfg, 0.0, 1.0e12);
        assert!((th.temp_c() - cfg.ambient_c).abs() < 1e-6);
    }

    #[test]
    fn negative_power_clamps_to_idle_equilibrium() {
        // Sensor glitches can hand the model a negative power; the
        // equilibrium clamps at the ambient point instead of predicting a
        // chip colder than its environment.
        let cfg = cfg();
        assert_eq!(ThermalState::equilibrium(&cfg, -100.0), cfg.ambient_c);
        let mut th = ThermalState::at_temperature(70.0);
        th.advance(&cfg, -100.0, 10.0 * cfg.thermal_tau_us);
        assert!((th.temp_c() - cfg.ambient_c).abs() < 0.01);
    }

    #[test]
    fn rise_map_matches_advance_and_composes() {
        let cfg = cfg();
        let (p0, w) = (250.0, 0.9);
        let power = |t: &ThermalState| p0 + w * t.delta_t(&cfg);
        let mut th = ThermalState::at_temperature(55.0);
        let mut map = RiseMap::IDENTITY;
        for dt in [300.0, 4_000.0, 2.5e6] {
            let step = RiseMap::step(&cfg, p0, w, dt);
            let before = th.delta_t(&cfg);
            th.advance(&cfg, power(&th), dt);
            assert!((step.apply(before) - th.delta_t(&cfg)).abs() < 1e-9);
            map = map.then(step);
        }
        assert!((map.apply(15.0) - th.delta_t(&cfg)).abs() < 1e-9);
        // The fixed point is the equilibrium of its own power.
        let rise = map.fixed_point();
        assert!((rise - cfg.k_c_per_w * (p0 + w * rise)).abs() < 1e-9);
        assert_eq!(RiseMap::IDENTITY.then(map), map);
    }

    #[test]
    fn equilibrium_of_zero_power_is_ambient() {
        let cfg = cfg();
        assert_eq!(ThermalState::equilibrium(&cfg, 0.0), cfg.ambient_c);
    }
}
