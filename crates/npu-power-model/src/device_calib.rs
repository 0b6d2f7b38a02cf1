//! Drives a simulated device through the paper's offline calibration
//! procedure (Fig. 11, "Offline Computation"): idle-state measurements at
//! two frequencies, a test load followed by a cool-down observation for
//! `γ`, and equilibrium runs under several loads for `k`.

use crate::calib::{
    fit_gamma, fit_gamma_robust, CalibrationError, HardwareCalibration, IdleFit, ThermalFit,
};
use npu_obs::{Event, Phase};
use npu_sim::par::par_map_ordered;
use npu_sim::{summarize, Device, DeviceError, FreqMhz, RunOptions, Schedule, TelemetrySample};
use std::fmt;
use std::time::Instant;

/// Options for the offline calibration procedure.
#[derive(Debug, Clone)]
pub struct CalibrationOptions {
    /// Frequencies for the idle two-point fit.
    pub idle_freqs: Vec<FreqMhz>,
    /// How long to observe each idle point, µs.
    pub idle_observe_us: f64,
    /// How long to run the test load before the cool-down, µs.
    pub heat_us: f64,
    /// Cool-down observation length, µs.
    pub cooldown_us: f64,
    /// Cool-down sampling period, µs.
    pub cooldown_sample_us: f64,
    /// How long each equilibrium load runs for the `k` fit, µs (several
    /// thermal time constants).
    pub equilibrium_us: f64,
    /// Robust statistics: median idle summaries and MAD outlier
    /// rejection on the cool-down fit, so telemetry spikes and stuck
    /// sensors don't skew the recovered parameters. Off by default —
    /// the default path is unchanged (bit-identical results).
    pub robust: bool,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        Self {
            idle_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1800)],
            idle_observe_us: 30_000.0,
            heat_us: 10.0e6,
            cooldown_us: 8.0e6,
            cooldown_sample_us: 5_000.0,
            equilibrium_us: 10.0e6,
            robust: false,
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

fn run_until(
    dev: &mut Device,
    schedule: &Schedule,
    freq: FreqMhz,
    duration_us: f64,
) -> Result<(f64, f64), DeviceError> {
    // Repeats the schedule until `duration_us` has elapsed; returns the
    // average AICore/SoC power of the final repetition.
    let start = dev.clock_us();
    let mut last = (0.0, 0.0);
    while dev.clock_us() - start < duration_us {
        let r = dev.run(schedule, &RunOptions::at(freq).without_records())?;
        last = (r.avg_aicore_w(), r.avg_soc_w());
        if r.duration_us <= 0.0 {
            break; // empty schedule cannot make progress
        }
    }
    Ok(last)
}

/// Runs the full offline calibration on `dev`.
///
/// `test_load` heats the chip for the `γ` cool-down fit; `equilibrium_loads`
/// (two or more schedules of different intensity) provide the
/// `(P_soc, T_eq)` points for the `k` fit, as in paper Fig. 10.
///
/// # Errors
///
/// Returns [`DeviceCalibrationError`] if a run fails, data is degenerate,
/// or fewer than two equilibrium loads are supplied.
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
        let samples = dev.observe_idle(opts.idle_observe_us, opts.idle_observe_us / 30.0);
        let (ai_w, soc_w) = if opts.robust {
            // Median-of-samples: a handful of spiked or stuck readings
            // leave the idle point untouched.
            let ai: Vec<f64> = samples.iter().map(|s| s.aicore_w).collect();
            let soc: Vec<f64> = samples.iter().map(|s| s.soc_w).collect();
            match (
                npu_perf_model::robust::median(&ai),
                npu_perf_model::robust::median(&soc),
            ) {
                (Some(a), Some(s)) => (a, s),
                _ => return Err(DeviceCalibrationError::EmptyObservation),
            }
        } else {
            let s = summarize(&samples).ok_or(DeviceCalibrationError::EmptyObservation)?;
            (s.mean_aicore_w, s.mean_soc_w)
        };
        ai_pts.push((f, ai_w));
        soc_pts.push((f, soc_w));
    }
    let aicore_idle = IdleFit::fit(&ai_pts, &voltage)?;
    let soc_idle = IdleFit::fit(&soc_pts, &voltage)?;

    // 2. γ from the post-load cool-down: heat up, then watch power fall
    //    with temperature at fixed frequency/voltage.
    dev.reset();
    run_until(dev, test_load, fmax, opts.heat_us)?;
    let cooldown = dev.observe_idle(opts.cooldown_us, opts.cooldown_sample_us);
    let v = voltage.volts(fmax);
    let ai_ct: Vec<(f64, f64)> = cooldown.iter().map(|s| (s.temp_c, s.aicore_w)).collect();
    let soc_ct: Vec<(f64, f64)> = cooldown.iter().map(|s| (s.temp_c, s.soc_w)).collect();
    let (gamma_aicore, gamma_soc) = if opts.robust {
        (fit_gamma_robust(&ai_ct, v)?, fit_gamma_robust(&soc_ct, v)?)
    } else {
        (fit_gamma(&ai_ct, v)?, fit_gamma(&soc_ct, v)?)
    };

    // 3. k from equilibrium temperature under different loads (Fig. 10).
    let mut k_pts = Vec::new();
    for load in equilibrium_loads {
        dev.reset();
        let (_, soc_w) = run_until(dev, load, fmax, opts.equilibrium_us)?;
        k_pts.push((soc_w, dev.temp_c()));
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

/// One independent measurement segment of the calibration procedure.
enum CalTask<'a> {
    /// Idle observation at one frequency (two-point idle fit).
    Idle(FreqMhz),
    /// Heat with the test load, then watch the cool-down (γ fit).
    Cooldown(&'a Schedule),
    /// Drive one load to thermal equilibrium (`k` fit point).
    Equilibrium(&'a Schedule),
}

/// The raw data a [`CalTask`] produces.
enum CalOut {
    Idle(Vec<TelemetrySample>),
    Cooldown(Vec<TelemetrySample>),
    /// `(P_soc, T_eq)`.
    Equilibrium(f64, f64),
}

fn run_cal_task(
    dev: &Device,
    stream: u64,
    task: &CalTask<'_>,
    opts: &CalibrationOptions,
    fmax: FreqMhz,
) -> Result<CalOut, DeviceCalibrationError> {
    // Every segment starts from a cold fork: the serial procedure resets
    // the device before each segment for exactly this independence, which
    // is what makes the fan-out legal in the first place.
    let mut d = dev.fork(stream);
    match task {
        CalTask::Idle(f) => {
            d.set_frequency(*f)?;
            Ok(CalOut::Idle(d.observe_idle(
                opts.idle_observe_us,
                opts.idle_observe_us / 30.0,
            )))
        }
        CalTask::Cooldown(load) => {
            run_until(&mut d, load, fmax, opts.heat_us)?;
            Ok(CalOut::Cooldown(
                d.observe_idle(opts.cooldown_us, opts.cooldown_sample_us),
            ))
        }
        CalTask::Equilibrium(load) => {
            let (_, soc_w) = run_until(&mut d, load, fmax, opts.equilibrium_us)?;
            Ok(CalOut::Equilibrium(soc_w, d.temp_c()))
        }
    }
}

/// Like [`calibrate_device`], but fans the independent measurement
/// segments — one idle observation per frequency, the heat + cool-down,
/// and one equilibrium run per load — out over `threads` workers
/// (`0` = auto-detect via [`npu_sim::par::resolve_threads`], which
/// honours the `NPU_THREADS` override), each on a cold [`Device::fork`]
/// of `dev`.
///
/// Results are **bit-identical for every thread count**: each segment's
/// fork is seeded from `(dev.seed(), segment index)` and shares no
/// state, and the fits consume the segment results in the fixed serial
/// order. They are *not* bit-identical to [`calibrate_device`] (whose
/// segments share one RNG stream sequentially), but recover the same
/// physical parameters to within measurement noise. Unlike the serial procedure this never mutates
/// `dev` — the device is left exactly as the caller handed it over —
/// and faults injected via the device hook do **not** reach the forked
/// workers; calibrate a hooked device through the serial path.
///
/// # Errors
///
/// Returns [`DeviceCalibrationError`] if a run fails, data is
/// degenerate, or fewer than two equilibrium loads are supplied.
pub fn calibrate_device_parallel(
    dev: &Device,
    test_load: &Schedule,
    equilibrium_loads: &[Schedule],
    opts: &CalibrationOptions,
    threads: usize,
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

    let mut tasks: Vec<CalTask<'_>> = opts.idle_freqs.iter().map(|&f| CalTask::Idle(f)).collect();
    tasks.push(CalTask::Cooldown(test_load));
    tasks.extend(equilibrium_loads.iter().map(CalTask::Equilibrium));

    // Each segment's fork seed depends only on the segment index, so the
    // assembled outputs cannot observe the schedule; the first failure in
    // segment order wins.
    let mut outs = par_map_ordered(threads, tasks.len(), |i| {
        run_cal_task(dev, i as u64, &tasks[i], opts, fmax)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?
    .into_iter();

    // Fits happen on this thread, in the exact order of the serial
    // procedure.
    let mut ai_pts = Vec::new();
    let mut soc_pts = Vec::new();
    for &f in &opts.idle_freqs {
        let Some(CalOut::Idle(samples)) = outs.next() else {
            unreachable!("idle segments come first");
        };
        let (ai_w, soc_w) = if opts.robust {
            let ai: Vec<f64> = samples.iter().map(|s| s.aicore_w).collect();
            let soc: Vec<f64> = samples.iter().map(|s| s.soc_w).collect();
            match (
                npu_perf_model::robust::median(&ai),
                npu_perf_model::robust::median(&soc),
            ) {
                (Some(a), Some(s)) => (a, s),
                _ => return Err(DeviceCalibrationError::EmptyObservation),
            }
        } else {
            let s = summarize(&samples).ok_or(DeviceCalibrationError::EmptyObservation)?;
            (s.mean_aicore_w, s.mean_soc_w)
        };
        ai_pts.push((f, ai_w));
        soc_pts.push((f, soc_w));
    }
    let aicore_idle = IdleFit::fit(&ai_pts, &voltage)?;
    let soc_idle = IdleFit::fit(&soc_pts, &voltage)?;

    let Some(CalOut::Cooldown(cooldown)) = outs.next() else {
        unreachable!("cool-down segment follows the idle segments");
    };
    let v = voltage.volts(fmax);
    let ai_ct: Vec<(f64, f64)> = cooldown.iter().map(|s| (s.temp_c, s.aicore_w)).collect();
    let soc_ct: Vec<(f64, f64)> = cooldown.iter().map(|s| (s.temp_c, s.soc_w)).collect();
    let (gamma_aicore, gamma_soc) = if opts.robust {
        (fit_gamma_robust(&ai_ct, v)?, fit_gamma_robust(&soc_ct, v)?)
    } else {
        (fit_gamma(&ai_ct, v)?, fit_gamma(&soc_ct, v)?)
    };

    let mut k_pts = Vec::new();
    for _ in equilibrium_loads {
        let Some(CalOut::Equilibrium(soc_w, temp_c)) = outs.next() else {
            unreachable!("equilibrium segments come last");
        };
        k_pts.push((soc_w, temp_c));
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
        // Noise-free device and a fast thermal constant keep the test quick
        // while preserving the calibration structure.
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
            heat_us: 8.0e5,
            cooldown_us: 4.0e5,
            cooldown_sample_us: 5_000.0,
            equilibrium_us: 1.2e6,
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
    fn robust_calibration_survives_telemetry_faults() {
        use npu_fault::{FaultPlan, FaultyDevice};

        let cfg = quiet_cfg();
        // Spiked and stuck telemetry during the idle/cool-down windows.
        let plan = FaultPlan::seeded(11)
            .spike_telemetry(0.10, 5.0)
            .stick_sensor(0.02, 4);
        let run = |robust: bool| {
            let mut dev = FaultyDevice::new(Device::new(cfg.clone()), plan.clone());
            let loads = vec![compute_load(5.0), compute_load(15.0), compute_load(28.0)];
            let opts = CalibrationOptions {
                robust,
                ..fast_opts()
            };
            calibrate_device(&mut dev, &compute_load(20.0), &loads, &opts).unwrap()
        };
        let fragile = run(false);
        let robust = run(true);
        let truth = cfg.beta_w_per_ghz_v2;
        let err_fragile = (fragile.aicore_idle.beta - truth).abs();
        let err_robust = (robust.aicore_idle.beta - truth).abs();
        // The median idle summary shrugs off the 5× spikes; the mean
        // cannot.
        assert!(
            err_robust < 0.5,
            "robust beta {} vs {truth}",
            robust.aicore_idle.beta
        );
        assert!(
            err_robust < err_fragile,
            "robust {err_robust} should beat fragile {err_fragile}"
        );
        assert!(
            (robust.gamma_aicore - cfg.gamma_aicore_w_per_k_v).abs() < 0.06,
            "robust gamma {} vs {}",
            robust.gamma_aicore,
            cfg.gamma_aicore_w_per_k_v
        );
    }

    #[test]
    fn robust_flag_changes_nothing_on_a_healthy_device() {
        let cfg = quiet_cfg();
        let loads = vec![compute_load(5.0), compute_load(15.0), compute_load(28.0)];
        let plain = calibrate_device(
            &mut Device::new(cfg.clone()),
            &compute_load(20.0),
            &loads,
            &fast_opts(),
        )
        .unwrap();
        let robust = calibrate_device(
            &mut Device::new(cfg),
            &compute_load(20.0),
            &loads,
            &CalibrationOptions {
                robust: true,
                ..fast_opts()
            },
        )
        .unwrap();
        // Noise-free telemetry: median and mean see the same constant
        // idle power, and the cool-down has no outliers to reject.
        assert!((plain.aicore_idle.beta - robust.aicore_idle.beta).abs() < 0.2);
        assert!((plain.gamma_aicore - robust.gamma_aicore).abs() < 0.01);
        assert_eq!(plain.thermal, robust.thermal);
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

    #[test]
    fn parallel_calibration_is_thread_count_invariant() {
        let cfg = NpuConfig::builder().thermal_tau_us(2.0e5).build().unwrap(); // keep the noise on
        let dev = Device::new(cfg.clone());
        let loads = vec![compute_load(5.0), compute_load(15.0), compute_load(28.0)];
        let test_load = compute_load(20.0);
        let opts = fast_opts();
        let run = |threads: usize| {
            calibrate_device_parallel(&dev, &test_load, &loads, &opts, threads).unwrap()
        };
        let one = run(1);
        // Parameters are close to ground truth (same physics as serial).
        assert!((one.aicore_idle.beta - cfg.beta_w_per_ghz_v2).abs() < 1.5);
        assert!((one.gamma_aicore - cfg.gamma_aicore_w_per_k_v).abs() < 0.15);
        assert!((one.thermal.k_c_per_w - cfg.k_c_per_w).abs() < 0.04);
        // Bit-identical at every worker count, including auto-detect: the
        // forks' seeds depend only on the segment index, never on which
        // worker picked the segment up.
        for threads in [2, 8, 0] {
            assert_eq!(one, run(threads), "threads={threads} diverged");
        }
        // And the parent device was never touched.
        assert_eq!(dev.clock_us(), 0.0);
    }

    #[test]
    fn parallel_calibration_emits_same_events_as_serial() {
        use npu_obs::{MetricsRegistry, ObserverHandle};
        use std::sync::Arc;

        let mut dev = Device::new(quiet_cfg());
        let metrics = Arc::new(MetricsRegistry::new());
        dev.set_observer(ObserverHandle::from_arc(metrics.clone()));
        let loads = vec![compute_load(5.0), compute_load(15.0), compute_load(28.0)];
        calibrate_device_parallel(&dev, &compute_load(20.0), &loads, &fast_opts(), 4).unwrap();
        assert_eq!(metrics.counter("event.PhaseStarted"), 1);
        assert_eq!(metrics.counter("event.PhaseFinished"), 1);
        assert_eq!(metrics.counter("event.CalibrationFitted"), 8);
        // Worker forks are silent: the parent observer sees no DeviceRun
        // chatter from inside the segments.
        assert_eq!(metrics.counter("event.DeviceRun"), 0);
    }

    #[test]
    fn parallel_calibration_requires_two_loads() {
        let dev = Device::new(quiet_cfg());
        let err = calibrate_device_parallel(
            &dev,
            &compute_load(20.0),
            &[compute_load(5.0)],
            &fast_opts(),
            4,
        )
        .unwrap_err();
        assert!(matches!(err, DeviceCalibrationError::NoLoads));
    }
}
