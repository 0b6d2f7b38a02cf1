//! Drives a simulated device through the paper's offline calibration
//! procedure (Fig. 11, "Offline Computation"): idle-state measurements at
//! two frequencies, a test load followed by a cool-down observation for
//! `γ`, and equilibrium runs under several loads for `k`. Each load reaches
//! its thermal equilibrium through [`Device::warm_until_steady`], the
//! closed-form steady state profiling warms to as well.

use crate::calib::{fit_gamma, CalibrationError, HardwareCalibration, IdleFit, ThermalFit};
use npu_obs::{Event, Phase};
use npu_sim::{summarize, Device, DeviceError, FreqMhz, RunOptions, Schedule};
use std::fmt;
use std::time::Instant;

/// Options for the offline calibration procedure.
#[derive(Debug, Clone)]
pub struct CalibrationOptions {
    /// Frequencies for the idle two-point fit.
    pub idle_freqs: Vec<FreqMhz>,
    /// How long to observe each idle point, µs.
    pub idle_observe_us: f64,
    /// Cool-down observation length, µs.
    pub cooldown_us: f64,
    /// Cool-down sampling period, µs.
    pub cooldown_sample_us: f64,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        Self {
            idle_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1800)],
            idle_observe_us: 30_000.0,
            cooldown_us: 8.0e6,
            cooldown_sample_us: 5_000.0,
        }
    }
}

impl CalibrationOptions {
    /// Defaults with the idle-fit frequencies taken from the device's
    /// own ladder endpoints, so calibration works on any device profile.
    /// For the Ascend ladder this is identical to `default()`
    /// (`[1000, 1800]` MHz).
    #[must_use]
    pub fn for_table(table: &npu_sim::FrequencyTable) -> Self {
        let mut idle_freqs = vec![table.min()];
        if table.max() != table.min() {
            idle_freqs.push(table.max());
        }
        Self {
            idle_freqs,
            ..Self::default()
        }
    }
}

/// Errors from device-driven calibration.
#[derive(Debug)]
pub enum DeviceCalibrationError {
    /// The underlying device rejected a run.
    Device(DeviceError),
    /// A fit on the collected data failed.
    Fit(CalibrationError),
    /// The caller supplied no equilibrium loads.
    NoLoads,
    /// An idle observation window produced no telemetry samples (e.g.
    /// every sample was lost to a dropout fault).
    EmptyObservation,
}

impl fmt::Display for DeviceCalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Device(e) => write!(f, "device error during calibration: {e}"),
            Self::Fit(e) => write!(f, "calibration fit failed: {e}"),
            Self::NoLoads => write!(f, "at least two equilibrium loads are required"),
            Self::EmptyObservation => {
                write!(f, "idle observation produced no telemetry samples")
            }
        }
    }
}

impl std::error::Error for DeviceCalibrationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Device(e) => Some(e),
            Self::Fit(e) => Some(e),
            Self::NoLoads | Self::EmptyObservation => None,
        }
    }
}

impl From<DeviceError> for DeviceCalibrationError {
    fn from(e: DeviceError) -> Self {
        Self::Device(e)
    }
}

impl From<CalibrationError> for DeviceCalibrationError {
    fn from(e: CalibrationError) -> Self {
        Self::Fit(e)
    }
}

/// Runs the full offline calibration on `dev`.
///
/// `test_load` heats the chip for the `γ` cool-down fit; `equilibrium_loads`
/// (two or more schedules of different intensity) provide the
/// `(P_soc, T_eq)` points for the `k` fit, as in paper Fig. 10. All loads
/// run at the ladder's top frequency. The chip reaches each load's thermal
/// steady state through [`Device::warm_until_steady`]; the idle points,
/// the cool-down and one record-free run per equilibrium load are
/// simulated, because they are the measurements.
///
/// # Errors
///
/// Returns [`DeviceCalibrationError`] if a run fails, data is degenerate,
/// or fewer than two equilibrium loads are supplied. A drift model that
/// ages the chip past its thermal stability line during a warm-up is
/// [`DeviceCalibrationError::Device`] wrapping
/// [`DeviceError::ThermalRunaway`]: such a chip has no equilibrium to
/// measure.
pub fn calibrate_device(
    dev: &mut Device,
    test_load: &Schedule,
    equilibrium_loads: &[Schedule],
    opts: &CalibrationOptions,
) -> Result<HardwareCalibration, DeviceCalibrationError> {
    if equilibrium_loads.len() < 2 {
        return Err(DeviceCalibrationError::NoLoads);
    }
    let obs = dev.observer().clone();
    let wall_start = Instant::now();
    obs.emit(Event::PhaseStarted {
        phase: Phase::Calibrate,
    });
    let voltage = dev.config().voltage_curve;
    let fmax = dev.config().freq_table.max();

    // 1. Idle power at each calibration frequency, from cold (ΔT ≈ 0).
    let mut ai_pts = Vec::new();
    let mut soc_pts = Vec::new();
    for &f in &opts.idle_freqs {
        dev.reset();
        dev.set_frequency(f)?;
        let samples = dev.observe_idle(opts.idle_observe_us, opts.idle_observe_us / 30.0)?;
        let s = summarize(&samples).ok_or(DeviceCalibrationError::EmptyObservation)?;
        ai_pts.push((f, s.mean_aicore_w));
        soc_pts.push((f, s.mean_soc_w));
    }
    let aicore_idle = IdleFit::fit(&ai_pts, &voltage)?;
    let soc_idle = IdleFit::fit(&soc_pts, &voltage)?;

    // 2. γ from the post-load cool-down: warm to the test load's steady
    //    state, then watch power fall with temperature at fixed
    //    frequency/voltage.
    dev.reset();
    dev.warm_until_steady(test_load, fmax)?;
    let cooldown = dev.observe_idle(opts.cooldown_us, opts.cooldown_sample_us)?;
    let v = voltage.volts(fmax);
    let ai_ct: Vec<(f64, f64)> = cooldown.iter().map(|s| (s.temp_c, s.aicore_w)).collect();
    let soc_ct: Vec<(f64, f64)> = cooldown.iter().map(|s| (s.temp_c, s.soc_w)).collect();
    let gamma_aicore = fit_gamma(&ai_ct, v)?;
    let gamma_soc = fit_gamma(&soc_ct, v)?;

    // 3. k from equilibrium temperature under different loads (Fig. 10):
    //    one run at each load's steady state gives its SoC power and the
    //    temperature it holds.
    let mut k_pts = Vec::new();
    for load in equilibrium_loads {
        dev.reset();
        dev.warm_until_steady(load, fmax)?;
        let run = dev.run(load, &RunOptions::at(fmax).without_records())?;
        k_pts.push((run.avg_soc_w(), dev.temp_c()));
    }
    let thermal = ThermalFit::fit(&k_pts)?;

    if obs.enabled() {
        for (param, value) in [
            ("aicore_idle.beta", aicore_idle.beta),
            ("aicore_idle.theta", aicore_idle.theta),
            ("soc_idle.beta", soc_idle.beta),
            ("soc_idle.theta", soc_idle.theta),
            ("gamma_aicore", gamma_aicore),
            ("gamma_soc", gamma_soc),
            ("thermal.k_c_per_w", thermal.k_c_per_w),
            ("thermal.ambient_c", thermal.ambient_c),
        ] {
            obs.emit(Event::CalibrationFitted {
                param: param.to_owned(),
                value,
            });
        }
    }
    obs.emit(Event::PhaseFinished {
        phase: Phase::Calibrate,
        wall_us: wall_start.elapsed().as_secs_f64() * 1e6,
    });

    Ok(HardwareCalibration {
        aicore_idle,
        soc_idle,
        gamma_aicore,
        gamma_soc,
        thermal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_sim::{NpuConfig, OpDescriptor, Scenario};

    fn quiet_cfg() -> NpuConfig {
        // Noise-free device; the fast thermal constant lets `fast_opts`'
        // short cool-down span two time constants.
        NpuConfig::builder()
            .noise(0.0, 0.0, 0.0)
            .thermal_tau_us(2.0e5)
            .build()
            .unwrap()
    }

    fn compute_load(alpha: f64) -> Schedule {
        Schedule::new(vec![
            OpDescriptor::compute(
                "MatMul",
                Scenario::PingPongIndependent
            )
            .blocks(8)
            .ld_bytes_per_block(256.0 * 1024.0)
            .st_bytes_per_block(128.0 * 1024.0)
            .l2_hit_rate(0.9)
            .core_cycles_per_block(200_000.0)
            .activity(alpha);
            20
        ])
    }

    fn fast_opts() -> CalibrationOptions {
        CalibrationOptions {
            idle_observe_us: 10_000.0,
            cooldown_us: 4.0e5,
            cooldown_sample_us: 5_000.0,
            ..CalibrationOptions::default()
        }
    }

    #[test]
    fn calibration_recovers_ground_truth() {
        let cfg = quiet_cfg();
        let mut dev = Device::new(cfg.clone());
        let loads = vec![compute_load(5.0), compute_load(15.0), compute_load(28.0)];
        let calib = calibrate_device(&mut dev, &compute_load(20.0), &loads, &fast_opts()).unwrap();
        assert!(
            (calib.aicore_idle.beta - cfg.beta_w_per_ghz_v2).abs() < 0.4,
            "beta {} vs {}",
            calib.aicore_idle.beta,
            cfg.beta_w_per_ghz_v2
        );
        assert!(
            (calib.aicore_idle.theta - cfg.theta_w_per_v).abs() < 0.5,
            "theta {}",
            calib.aicore_idle.theta
        );
        assert!(
            (calib.gamma_aicore - cfg.gamma_aicore_w_per_k_v).abs() < 0.05,
            "gamma {} vs {}",
            calib.gamma_aicore,
            cfg.gamma_aicore_w_per_k_v
        );
        assert!(
            (calib.thermal.k_c_per_w - cfg.k_c_per_w).abs() < 0.02,
            "k {} vs {}",
            calib.thermal.k_c_per_w,
            cfg.k_c_per_w
        );
        assert!(
            (calib.thermal.ambient_c - cfg.ambient_c).abs() < 3.0,
            "ambient {}",
            calib.thermal.ambient_c
        );
    }

    #[test]
    fn calibration_emits_phase_and_fit_events() {
        use npu_obs::{MetricsRegistry, ObserverHandle};
        use std::sync::Arc;

        let mut dev = Device::new(quiet_cfg());
        let metrics = Arc::new(MetricsRegistry::new());
        dev.set_observer(ObserverHandle::from_arc(metrics.clone()));
        let loads = vec![compute_load(5.0), compute_load(15.0), compute_load(28.0)];
        calibrate_device(&mut dev, &compute_load(20.0), &loads, &fast_opts()).unwrap();
        assert_eq!(metrics.counter("event.PhaseStarted"), 1);
        assert_eq!(metrics.counter("event.PhaseFinished"), 1);
        // One CalibrationFitted per recovered parameter.
        assert_eq!(metrics.counter("event.CalibrationFitted"), 8);
        assert!(metrics.histogram("phase.calibrate.wall_us").is_some());
        // The device itself reported its (record-free) calibration runs.
        assert!(metrics.counter("event.DeviceRun") > 0);
    }

    #[test]
    fn calibration_requires_two_loads() {
        let cfg = quiet_cfg();
        let mut dev = Device::new(cfg);
        let err = calibrate_device(
            &mut dev,
            &compute_load(20.0),
            &[compute_load(5.0)],
            &fast_opts(),
        )
        .unwrap_err();
        assert!(matches!(err, DeviceCalibrationError::NoLoads));
    }

    #[test]
    fn calibration_of_a_chip_aging_past_its_stability_line_is_a_runaway_error() {
        use npu_sim::DriftModel;
        use npu_workloads::{models, ops};

        // Loop gain 0.88 at the top frequency; γ aging of up to +50 %
        // takes it past 1 within the first warm-up.
        let cfg = NpuConfig::builder().thermal_coupling(1.0).build().unwrap();
        let mut dev = Device::new(cfg.clone());
        dev.set_drift(DriftModel::none().with_gamma_aging(0.5, 0.5));
        let heat = models::operator_loop(ops::matmul(&cfg, "Heat", 4096, 4096, 4096, 0.5), 24);
        let loads = vec![
            models::tanh_loop(&cfg, 24).schedule().clone(),
            models::tiny(&cfg).schedule().clone(),
            heat.schedule().clone(),
        ];
        let err = calibrate_device(
            &mut dev,
            heat.schedule(),
            &loads,
            &CalibrationOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                DeviceCalibrationError::Device(DeviceError::ThermalRunaway(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn calibration_rejects_a_cooldown_period_that_never_advances() {
        let mut dev = Device::new(quiet_cfg());
        let loads = vec![compute_load(5.0), compute_load(15.0)];
        for period in [0.0, -5_000.0, f64::NAN] {
            let opts = CalibrationOptions {
                cooldown_sample_us: period,
                ..fast_opts()
            };
            let err = calibrate_device(&mut dev, &compute_load(20.0), &loads, &opts).unwrap_err();
            assert!(
                matches!(
                    err,
                    DeviceCalibrationError::Device(DeviceError::InvalidSamplePeriod(_))
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn calibration_tolerates_measurement_noise() {
        let cfg = NpuConfig::builder().thermal_tau_us(2.0e5).build().unwrap(); // default noise levels
        let mut dev = Device::new(cfg.clone());
        let loads = vec![compute_load(5.0), compute_load(15.0), compute_load(28.0)];
        let calib = calibrate_device(&mut dev, &compute_load(20.0), &loads, &fast_opts()).unwrap();
        // Noise widens tolerances but the parameters stay in the ballpark.
        assert!((calib.aicore_idle.beta - cfg.beta_w_per_ghz_v2).abs() < 1.5);
        assert!((calib.gamma_aicore - cfg.gamma_aicore_w_per_k_v).abs() < 0.15);
        assert!((calib.thermal.k_c_per_w - cfg.k_c_per_w).abs() < 0.04);
    }
}
