//! Hardware description of the simulated NPU.
//!
//! All constants mirror the quantities the paper's models depend on: the
//! core count and per-core port widths (`C` in Eq. (1)), L2/HBM bandwidths
//! (which blend into `BW_uncore`), the fixed memory-access overhead `T0`
//! (Eq. (3)), the power coefficients α/β/γ/θ (Eq. (11)), and the thermal
//! coupling `T = T_ambient + k · P_soc` (Eq. (15), Fig. 10).

use crate::freq::{FrequencyTable, VoltageCurve};
use std::fmt;

/// Simulated time in microseconds.
pub type Micros = f64;

/// Complete hardware description of the simulated device.
///
/// Construct via [`NpuConfig::builder`] or use the Ascend-calibrated
/// [`NpuConfig::ascend_like`] default.
///
/// # Examples
///
/// ```
/// use npu_sim::NpuConfig;
///
/// let cfg = NpuConfig::ascend_like();
/// assert_eq!(cfg.core_num, 24);
/// assert_eq!(cfg.freq_table.max().mhz(), 1800);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NpuConfig {
    /// Number of AICores sharing the uncore (paper uses `core_num`).
    pub core_num: u32,
    /// Core-side load port width `C_ld`, bytes per cycle per core (MTE2).
    pub ld_bytes_per_cycle_per_core: f64,
    /// Core-side store port width `C_st`, bytes per cycle per core (MTE3).
    pub st_bytes_per_cycle_per_core: f64,
    /// Peak L2 cache bandwidth, bytes/µs.
    pub l2_bw_bytes_per_us: f64,
    /// Peak HBM bandwidth, bytes/µs.
    pub hbm_bw_bytes_per_us: f64,
    /// Fixed per-transfer overhead `T0` in µs (initiation, signal
    /// propagation); appears as `T0·f` cycles in Eq. (4).
    pub mem_overhead_us: f64,
    /// Supported core frequencies.
    pub freq_table: FrequencyTable,
    /// Firmware voltage ladder.
    pub voltage_curve: VoltageCurve,
    /// Load-independent dynamic coefficient β, W/(GHz·V²) (Eq. (12)).
    pub beta_w_per_ghz_v2: f64,
    /// Static coefficient θ, W/V (Eq. (12)); absorbs gate leakage and the
    /// ambient part of subthreshold leakage.
    pub theta_w_per_v: f64,
    /// Temperature coefficient of AICore leakage γ, W/(K·V) (Eq. (10)).
    pub gamma_aicore_w_per_k_v: f64,
    /// Temperature coefficient of whole-SoC leakage γ_soc, W/(K·V).
    pub gamma_soc_w_per_k_v: f64,
    /// Core-voltage-independent uncore idle power (HBM standby, buses,
    /// AICPU), W.
    pub uncore_idle_w: f64,
    /// Core-voltage-coupled uncore idle power, W/V: parts of the SoC rail
    /// (shared power delivery, interface leakage) track the core supply
    /// voltage even though the uncore clock is fixed.
    pub uncore_theta_w_per_v: f64,
    /// Uncore energy per byte moved to/from memory, pJ/B.
    pub hbm_pj_per_byte: f64,
    /// Fraction of the constant uncore idle power that is clock-dynamic
    /// (scales with the uncore frequency when uncore DVFS is available —
    /// the paper's Sect. 8.2 future work).
    pub uncore_dynamic_fraction: f64,
    /// Lowest supported uncore frequency scale (1.0 = nominal).
    pub uncore_min_scale: f64,
    /// Chip temperature with the SoC fully idle, °C (`T0` in Eq. (15)).
    pub ambient_c: f64,
    /// Thermal coupling `k`, °C per W of SoC power (Eq. (15)).
    pub k_c_per_w: f64,
    /// First-order thermal time constant, µs.
    pub thermal_tau_us: f64,
    /// Latency between dispatching `SetFreq` and the new frequency taking
    /// effect, µs (1 ms on the Ascend platform, 15 ms class on V100).
    pub setfreq_latency_us: f64,
    /// Relative standard deviation of per-op execution-time noise.
    pub exec_noise_sd: f64,
    /// Relative standard deviation of power-measurement noise.
    pub power_noise_sd: f64,
    /// Absolute standard deviation of temperature-measurement noise, °C.
    pub temp_noise_sd_c: f64,
    /// Content fingerprint of the [device profile](crate::profile) this
    /// configuration was loaded from, or `0` for a hand-built
    /// configuration. Artifact-cache keys hash this field so cached
    /// results can never alias across device descriptions.
    pub profile_fp: u64,
}

impl NpuConfig {
    /// Ascend-910-class calibration used throughout the reproduction: a
    /// thin wrapper over the embedded `ascend-910` device profile, whose
    /// values are bit-identical to the historical hardcoded literal
    /// (regression-pinned in [`crate::profile`]'s tests).
    #[must_use]
    pub fn ascend_like() -> Self {
        crate::profile::ascend_910().config().clone()
    }

    /// Starts building a custom configuration.
    #[must_use]
    pub fn builder() -> NpuConfigBuilder {
        NpuConfigBuilder::new()
    }

    /// The float fields as `(key, value)` pairs, keyed and ordered as a
    /// device profile declares them: every field except the core count,
    /// the frequency ladder, the voltage curve and `profile_fp`.
    pub fn float_fields(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        ROWS.iter().map(|row| (row.key, (row.get)(self)))
    }

    /// Effective uncore bandwidth for a transfer with the given L2 hit
    /// rate, bytes/µs: the harmonic blend of L2 and HBM bandwidth.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `l2_hit_rate` is outside `[0, 1]`.
    #[must_use]
    pub fn uncore_bw(&self, l2_hit_rate: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&l2_hit_rate));
        1.0 / (l2_hit_rate / self.l2_bw_bytes_per_us
            + (1.0 - l2_hit_rate) / self.hbm_bw_bytes_per_us)
    }

    /// Aggregate core-side load throughput at frequency `f` MHz, bytes/µs
    /// (`C · f · core_num` of Eq. (1)).
    #[must_use]
    pub fn core_ld_bw(&self, f_mhz: f64) -> f64 {
        self.ld_bytes_per_cycle_per_core * f_mhz * f64::from(self.core_num)
    }

    /// Aggregate core-side store throughput at frequency `f` MHz, bytes/µs.
    #[must_use]
    pub fn core_st_bw(&self, f_mhz: f64) -> f64 {
        self.st_bytes_per_cycle_per_core * f_mhz * f64::from(self.core_num)
    }

    /// Loop gain of the thermal feedback at the top frequency,
    /// `k · max(γ_soc, γ_aicore) · V(f_max)`: each degree of temperature
    /// rise adds `max(γ_soc, γ_aicore) · V` watts of SoC leakage, which
    /// hold the chip `k` degrees per watt hotter. Voltage never falls
    /// with frequency, so no ladder point has a larger gain.
    #[must_use]
    pub fn thermal_loop_gain(&self) -> f64 {
        let volts = self.voltage_curve.volts(self.freq_table.max());
        self.k_c_per_w * self.gamma_soc_w_per_k_v.max(self.gamma_aicore_w_per_k_v) * volts
    }

    /// Whether every frequency has a thermal steady state (Eq. (15)): the
    /// [loop gain](Self::thermal_loop_gain) is below 1. At or above 1 the
    /// leakage outgrows the cooling and the temperature runs away.
    #[must_use]
    pub fn has_thermal_steady_state(&self) -> bool {
        self.thermal_loop_gain() < 1.0
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::ascend_like()
    }
}

/// The rule a float field obeys. The profile parser and
/// [`NpuConfigBuilder::build`] check the same rule on each [`Row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Finite and strictly positive.
    Positive,
    /// Finite and non-negative.
    NonNegative,
    /// Within `[0, 1]`.
    UnitRange,
    /// Finite and strictly positive, then within `[0, 1]`.
    PositiveUnitRange,
    /// Finite.
    Finite,
}

impl Rule {
    /// Checks `v`, naming `key` in the error.
    pub(crate) fn check(self, key: &'static str, v: f64) -> Result<(), ConfigError> {
        let positive = v > 0.0 && v.is_finite();
        let non_negative = v >= 0.0 && v.is_finite();
        let in_unit_range = (0.0..=1.0).contains(&v);
        match self {
            Self::Positive | Self::PositiveUnitRange if !positive => {
                Err(ConfigError::NonPositive(key))
            }
            Self::NonNegative if !non_negative => Err(ConfigError::Negative(key)),
            Self::UnitRange | Self::PositiveUnitRange if !in_unit_range => {
                Err(ConfigError::OutOfUnitRange(key))
            }
            Self::Finite if !v.is_finite() => Err(ConfigError::NonFinite(key)),
            _ => Ok(()),
        }
    }
}

/// One float field of [`NpuConfig`]: the `[section] key` a device
/// profile declares it under, the rule it obeys, and how to read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub(crate) section: &'static str,
    pub(crate) key: &'static str,
    pub(crate) rule: Rule,
    pub(crate) get: fn(&NpuConfig) -> f64,
}

/// Declares the rows: each becomes a `Row` constant named after its
/// field, an entry of [`ROWS`] and a binding in `NpuConfig::from_rows`,
/// whose struct literal makes a float field without a row a compile
/// error.
macro_rules! rows {
    ($($field:ident: [$section:literal] $key:literal, $rule:ident;)*) => {
        #[allow(non_upper_case_globals)]
        impl Row {
            $(pub(crate) const $field: Self = Self {
                section: $section,
                key: $key,
                rule: Rule::$rule,
                get: |cfg| cfg.$field,
            };)*
        }

        /// Every float field of [`NpuConfig`], in profile order.
        pub(crate) const ROWS: &[Row] = &[$(Row::$field),*];

        impl NpuConfig {
            /// A configuration of the given structured fields and the
            /// float values in [`ROWS`] order, with `profile_fp` 0.
            pub(crate) fn from_rows(
                core_num: u32,
                freq_table: FrequencyTable,
                voltage_curve: VoltageCurve,
                rows: [f64; ROWS.len()],
            ) -> Self {
                let [$($field),*] = rows;
                Self { core_num, freq_table, voltage_curve, profile_fp: 0, $($field),* }
            }
        }
    };
}

rows! {
    ld_bytes_per_cycle_per_core: ["cores"] "ld_bytes_per_cycle", Positive;
    st_bytes_per_cycle_per_core: ["cores"] "st_bytes_per_cycle", Positive;
    l2_bw_bytes_per_us: ["memory"] "l2_bw_bytes_per_us", Positive;
    hbm_bw_bytes_per_us: ["memory"] "hbm_bw_bytes_per_us", Positive;
    mem_overhead_us: ["memory"] "mem_overhead_us", NonNegative;
    hbm_pj_per_byte: ["memory"] "hbm_pj_per_byte", NonNegative;
    setfreq_latency_us: ["frequency"] "setfreq_latency_us", NonNegative;
    beta_w_per_ghz_v2: ["power"] "beta_w_per_ghz_v2", Positive;
    theta_w_per_v: ["power"] "theta_w_per_v", Positive;
    gamma_aicore_w_per_k_v: ["power"] "gamma_aicore_w_per_k_v", Positive;
    gamma_soc_w_per_k_v: ["power"] "gamma_soc_w_per_k_v", Positive;
    uncore_idle_w: ["power"] "uncore_idle_w", Positive;
    uncore_theta_w_per_v: ["power"] "uncore_theta_w_per_v", Positive;
    uncore_dynamic_fraction: ["power"] "uncore_dynamic_fraction", UnitRange;
    uncore_min_scale: ["power"] "uncore_min_scale", PositiveUnitRange;
    ambient_c: ["thermal"] "ambient_c", Finite;
    k_c_per_w: ["thermal"] "k_c_per_w", NonNegative;
    thermal_tau_us: ["thermal"] "tau_us", Positive;
    exec_noise_sd: ["noise"] "exec_sd", NonNegative;
    power_noise_sd: ["noise"] "power_sd", NonNegative;
    temp_noise_sd_c: ["noise"] "temp_sd_c", NonNegative;
}

/// Builder for [`NpuConfig`].
///
/// # Examples
///
/// ```
/// use npu_sim::NpuConfig;
///
/// let cfg = NpuConfig::builder()
///     .core_num(32)
///     .setfreq_latency_us(15_000.0) // V100-class DVFS latency
///     .build()?;
/// assert_eq!(cfg.core_num, 32);
/// # Ok::<(), npu_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NpuConfigBuilder {
    cfg: NpuConfig,
}

impl NpuConfigBuilder {
    /// Starts from the Ascend-like defaults (the embedded `ascend-910`
    /// profile). The resulting configuration is considered hand-built:
    /// its `profile_fp` is zeroed, since any field may be overridden
    /// before `build()`.
    #[must_use]
    pub fn new() -> Self {
        let mut cfg = NpuConfig::ascend_like();
        cfg.profile_fp = 0;
        Self { cfg }
    }

    /// Sets the AICore count.
    #[must_use]
    pub fn core_num(mut self, n: u32) -> Self {
        self.cfg.core_num = n;
        self
    }

    /// Sets the fixed memory-access overhead `T0` (µs).
    #[must_use]
    pub fn mem_overhead_us(mut self, t0: f64) -> Self {
        self.cfg.mem_overhead_us = t0;
        self
    }

    /// Sets the SetFreq apply latency (µs).
    #[must_use]
    pub fn setfreq_latency_us(mut self, us: f64) -> Self {
        self.cfg.setfreq_latency_us = us;
        self
    }

    /// Sets the thermal coupling constant (°C/W).
    #[must_use]
    pub fn thermal_coupling(mut self, k_c_per_w: f64) -> Self {
        self.cfg.k_c_per_w = k_c_per_w;
        self
    }

    /// Sets the thermal time constant (µs).
    #[must_use]
    pub fn thermal_tau_us(mut self, tau: f64) -> Self {
        self.cfg.thermal_tau_us = tau;
        self
    }

    /// Sets all noise standard deviations at once (execution, power,
    /// temperature). Pass zeros for a deterministic, noise-free device.
    #[must_use]
    pub fn noise(mut self, exec_sd: f64, power_sd: f64, temp_sd_c: f64) -> Self {
        self.cfg.exec_noise_sd = exec_sd;
        self.cfg.power_noise_sd = power_sd;
        self.cfg.temp_noise_sd_c = temp_sd_c;
        self
    }

    /// Finalizes the configuration. The ladder and voltage curve are
    /// the embedded profile's, already validated.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the profile key of the first value
    /// that breaks the rule the profile parser applies to it (a zero
    /// core count is `count`), or [`ConfigError::ThermalRunaway`] when
    /// the thermal coupling leaves the chip no steady state
    /// ([`NpuConfig::has_thermal_steady_state`]).
    pub fn build(self) -> Result<NpuConfig, ConfigError> {
        if self.cfg.core_num == 0 {
            return Err(ConfigError::NonPositive("count"));
        }
        for row in ROWS {
            row.rule.check(row.key, (row.get)(&self.cfg))?;
        }
        if !self.cfg.has_thermal_steady_state() {
            return Err(ConfigError::ThermalRunaway);
        }
        Ok(self.cfg)
    }
}

impl Default for NpuConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Error building an [`NpuConfig`]. Each variant but `ThermalRunaway`
/// names the profile key of the offending value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A quantity that must be finite and strictly positive was not.
    NonPositive(&'static str),
    /// A quantity that must be finite and non-negative was not.
    Negative(&'static str),
    /// A fraction that must lie in `[0, 1]` did not.
    OutOfUnitRange(&'static str),
    /// A quantity that must be finite was not.
    NonFinite(&'static str),
    /// The thermal loop gain is 1 or more, so the temperature runs away
    /// ([`NpuConfig::has_thermal_steady_state`]).
    ThermalRunaway,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonPositive(what) => write!(f, "{what} must be strictly positive"),
            Self::Negative(what) => write!(f, "{what} must be non-negative"),
            Self::OutOfUnitRange(what) => write!(f, "{what} must lie in [0, 1]"),
            Self::NonFinite(what) => write!(f, "{what} must be finite"),
            Self::ThermalRunaway => write!(
                f,
                "k_c_per_w · max(γ_soc, γ_aicore) · V(f_max) must be below 1, \
                 or the chip has no thermal steady state"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FreqMhz;

    #[test]
    fn default_builds() {
        let cfg = NpuConfig::ascend_like();
        assert!(cfg.uncore_bw(0.0) <= cfg.hbm_bw_bytes_per_us + 1e-9);
        assert!(cfg.uncore_bw(1.0) <= cfg.l2_bw_bytes_per_us + 1e-9);
    }

    #[test]
    fn uncore_bw_blends_monotonically() {
        let cfg = NpuConfig::ascend_like();
        let mut prev = 0.0;
        for i in 0..=10 {
            let bw = cfg.uncore_bw(f64::from(i) / 10.0);
            assert!(bw > prev, "bandwidth must increase with hit rate");
            prev = bw;
        }
    }

    #[test]
    fn core_bw_scales_with_frequency() {
        let cfg = NpuConfig::ascend_like();
        assert!(cfg.core_ld_bw(1800.0) > cfg.core_ld_bw(1000.0));
        let per_core = cfg.core_ld_bw(1000.0) / f64::from(cfg.core_num);
        assert!((per_core - 128.0 * 1000.0).abs() < 1e-6);
    }

    #[test]
    fn builder_rejects_zero_cores() {
        let err = NpuConfig::builder().core_num(0).build().unwrap_err();
        assert_eq!(err, ConfigError::NonPositive("count"));
    }

    #[test]
    fn builder_rejects_negative_latency() {
        let err = NpuConfig::builder()
            .setfreq_latency_us(-1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::Negative("setfreq_latency_us"));
    }

    #[test]
    fn builder_rejects_negative_noise() {
        let err = NpuConfig::builder()
            .noise(-0.1, 0.0, 0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::Negative("exec_sd"));
    }

    #[test]
    fn builder_rejects_a_coupling_without_steady_state() {
        // Ascend: k · γ_soc · V(1800) = 0.11 · 0.9 · 0.98 ≈ 0.097.
        let cfg = NpuConfig::ascend_like();
        assert!((cfg.thermal_loop_gain() - 0.11 * 0.9 * 0.98).abs() < 1e-12);
        assert!(cfg.has_thermal_steady_state());
        for k in [1.2, 1.5, 5.0] {
            let err = NpuConfig::builder()
                .thermal_coupling(k)
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::ThermalRunaway, "k = {k}");
        }
        assert!(NpuConfig::builder().thermal_coupling(1.1).build().is_ok());
    }

    #[test]
    fn builder_overrides_apply() {
        let cfg = NpuConfig::builder()
            .core_num(32)
            .mem_overhead_us(0.5)
            .build()
            .unwrap();
        assert_eq!(cfg.core_num, 32);
        assert_eq!(cfg.mem_overhead_us, 0.5);
    }

    #[test]
    fn saturation_frequency_in_range_for_moderate_hit_rates() {
        // The design relies on the Ld saturation point f_s = BW_uncore /
        // (C·core_num) falling inside [1000, 1800] MHz for mid hit rates so
        // that operators exhibit breakpoints in the supported band.
        let cfg = NpuConfig::ascend_like();
        let fs = |hit: f64| {
            cfg.uncore_bw(hit) / (cfg.ld_bytes_per_cycle_per_core * f64::from(cfg.core_num))
        };
        assert!(
            fs(0.0) < 1000.0,
            "pure-HBM ops saturate below band: {}",
            fs(0.0)
        );
        let mid = fs(0.9);
        assert!(
            (1000.0..=1800.0).contains(&mid),
            "hit=0.9 saturation {mid} should be in band"
        );
        assert!(fs(1.0) > 1800.0, "pure-L2 ops never saturate: {}", fs(1.0));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ConfigError::NonPositive("core_num").to_string(),
            "core_num must be strictly positive"
        );
        assert!(ConfigError::ThermalRunaway
            .to_string()
            .contains("no thermal steady state"));
        let _ = FreqMhz::new(1); // keep import used
    }
}
