//! The end-to-end energy optimizer (paper Fig. 1): profile → build
//! performance and power models → classify/preprocess → strategy search
//! → execute the strategy → compare against baseline.

use crate::report::OptimizationReport;
use crate::serve::ConfigError;
use crate::session::OptimizationSession;
use npu_dvfs::{GaConfig, GaOutcome, TableError};
use npu_exec::ExecError;
use npu_obs::ObserverHandle;
use npu_perf_model::{BuildError, FitFunction};
use npu_power_model::{
    calibrate_device, CalibrationOptions, DeviceCalibrationError, HardwareCalibration,
    PowerBuildError,
};
use npu_sim::{Device, DeviceError, FreqMhz, NpuConfig};
use npu_workloads::{models, ops, Workload};
use std::fmt;

/// Configuration of one end-to-end optimization.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Frequencies profiled to build the models (paper: 1000 + 1800 MHz).
    pub build_freqs: Vec<FreqMhz>,
    /// Performance-model fitting function (paper production choice:
    /// Func. 2).
    pub fit: FitFunction,
    /// Frequency-adjustment interval for candidate merging, µs.
    pub fai_us: f64,
    /// Search settings. A session runs [`npu_dvfs::serving_search`],
    /// which reads one field: `perf_loss_target`. The other fields
    /// configure [`npu_dvfs::search`], the paper's GA, for callers that
    /// run it on a stage table directly; [`Self::validate`] still checks
    /// them.
    pub ga: GaConfig,
    /// Externally supplied warm-start strategies — e.g. a fleet
    /// neighbour's cached strategy transferred across devices. The
    /// session's search scores each one as a candidate next to the exact
    /// solver's answer ([`npu_dvfs::serving_search`] says how a seed of
    /// another stage count maps onto the table). Seeds change results,
    /// so they enter the search cache key. Empty seeds are skipped; an
    /// empty list (the default) changes nothing.
    pub warm_seeds: Vec<Vec<FreqMhz>>,
    /// Worker threads for the parallel profiling sweep (`0` =
    /// auto-detect via [`npu_sim::par::resolve_threads`], which honours the
    /// `NPU_THREADS` override). Thread count changes wall time only,
    /// never results — sweeps are bit-identical at every count.
    pub threads: usize,
    /// Trigger-placement latency override (see
    /// [`npu_exec::ExecutorOptions::planned_latency_us`]).
    pub planned_latency_us: Option<f64>,
}

impl OptimizerConfig {
    /// Defaults with the model-building profile frequencies taken from
    /// the device's own ladder endpoints, so one set of options runs on
    /// any [device profile](npu_sim::profile). For the Ascend ladder
    /// this is identical to `default()` (`[1000, 1800]` MHz).
    #[must_use]
    pub fn for_device(cfg: &NpuConfig) -> Self {
        let mut build_freqs = vec![cfg.freq_table.min()];
        if cfg.freq_table.max() != cfg.freq_table.min() {
            build_freqs.push(cfg.freq_table.max());
        }
        Self {
            build_freqs,
            ..Self::default()
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            build_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1800)],
            fit: FitFunction::Quadratic,
            fai_us: 5_000.0,
            ga: GaConfig::default(),
            warm_seeds: Vec::new(),
            threads: 0,
            planned_latency_us: None,
        }
    }
}

impl OptimizerConfig {
    /// Sets the performance-loss target, chainable.
    #[must_use]
    pub fn with_loss_target(mut self, target: f64) -> Self {
        self.ga.perf_loss_target = target;
        self
    }

    /// Sets the frequency-adjustment interval, chainable.
    #[must_use]
    pub fn with_fai_us(mut self, fai: f64) -> Self {
        self.fai_us = fai;
        self
    }

    /// Sets the worker count for the profiling sweep (`0` =
    /// auto-detect), chainable. Thread count changes wall time only,
    /// never the outcome. The search itself runs on the calling thread.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the performance-model fitting function, chainable.
    #[must_use]
    pub fn with_fit(mut self, fit: FitFunction) -> Self {
        self.fit = fit;
        self
    }

    /// Sets the model-building profile frequencies, chainable. The
    /// device's maximum frequency is always profiled in addition (it
    /// doubles as the measured baseline).
    #[must_use]
    pub fn with_build_freqs(mut self, freqs: Vec<FreqMhz>) -> Self {
        self.build_freqs = freqs;
        self
    }

    /// Sets the planned trigger-placement latency, chainable (see
    /// [`npu_exec::ExecutorOptions::planned_latency_us`]; `None` uses the device's
    /// actual latency).
    #[must_use]
    pub fn with_planned_latency_us(mut self, latency_us: Option<f64>) -> Self {
        self.planned_latency_us = latency_us;
        self
    }

    /// Checks that the options describe a well-defined optimization.
    /// Every validating entry point runs this: [`ServeBuilder::try_build`],
    /// [`ServiceBuilder::try_build`] and [`FleetController::run`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCount`] for an empty build-frequency grid or
    /// zero GA generations;
    /// [`ConfigError::BadThreshold`] for a GA population below 2 (the
    /// GA's crossover needs two parents), a non-finite or non-positive
    /// frequency-adjustment interval, or a performance-loss target
    /// outside `[0, 1)`.
    ///
    /// [`ServeBuilder::try_build`]: crate::ServeBuilder::try_build
    /// [`ServiceBuilder::try_build`]: crate::ServiceBuilder::try_build
    /// [`FleetController::run`]: crate::FleetController::run
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.build_freqs.is_empty() {
            return Err(ConfigError::ZeroCount {
                field: "opts.build_freqs",
            });
        }
        if self.ga.population < 2 {
            return Err(ConfigError::BadThreshold {
                field: "opts.ga.population",
                value: self.ga.population as f64,
            });
        }
        if self.ga.iterations == 0 {
            return Err(ConfigError::ZeroCount {
                field: "opts.ga.iterations",
            });
        }
        if !self.fai_us.is_finite() || self.fai_us <= 0.0 {
            return Err(ConfigError::BadThreshold {
                field: "opts.fai_us",
                value: self.fai_us,
            });
        }
        let loss = self.ga.perf_loss_target;
        if !loss.is_finite() || !(0.0..1.0).contains(&loss) {
            return Err(ConfigError::BadThreshold {
                field: "opts.ga.perf_loss_target",
                value: loss,
            });
        }
        Ok(())
    }
}

/// Errors from the end-to-end flow.
#[derive(Debug)]
pub enum OptimizeError {
    /// Device run failed.
    Device(DeviceError),
    /// Offline calibration failed.
    Calibration(DeviceCalibrationError),
    /// Performance-model construction failed.
    PerfModel(BuildError),
    /// Power-model construction failed.
    PowerModel(PowerBuildError),
    /// Stage-table construction failed.
    Table(TableError),
    /// Strategy execution failed.
    Exec(ExecError),
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Device(e) => write!(f, "device error: {e}"),
            Self::Calibration(e) => write!(f, "calibration failed: {e}"),
            Self::PerfModel(e) => write!(f, "performance model failed: {e}"),
            Self::PowerModel(e) => write!(f, "power model failed: {e}"),
            Self::Table(e) => write!(f, "stage table failed: {e}"),
            Self::Exec(e) => write!(f, "strategy execution failed: {e}"),
        }
    }
}

impl std::error::Error for OptimizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Device(e) => Some(e),
            Self::Calibration(e) => Some(e),
            Self::PerfModel(e) => Some(e),
            Self::PowerModel(e) => Some(e),
            Self::Table(e) => Some(e),
            Self::Exec(e) => Some(e),
        }
    }
}

impl From<DeviceError> for OptimizeError {
    fn from(e: DeviceError) -> Self {
        Self::Device(e)
    }
}
impl From<DeviceCalibrationError> for OptimizeError {
    fn from(e: DeviceCalibrationError) -> Self {
        Self::Calibration(e)
    }
}
impl From<BuildError> for OptimizeError {
    fn from(e: BuildError) -> Self {
        Self::PerfModel(e)
    }
}
impl From<PowerBuildError> for OptimizeError {
    fn from(e: PowerBuildError) -> Self {
        Self::PowerModel(e)
    }
}
impl From<TableError> for OptimizeError {
    fn from(e: TableError) -> Self {
        Self::Table(e)
    }
}
impl From<ExecError> for OptimizeError {
    fn from(e: ExecError) -> Self {
        Self::Exec(e)
    }
}

/// The end-to-end optimizer: owns a calibrated device.
///
/// # Examples
///
/// ```no_run
/// use npu_core::{EnergyOptimizer, OptimizerConfig};
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let workload = models::tiny(&cfg);
/// let mut optimizer = EnergyOptimizer::calibrated(cfg)?;
/// let report = optimizer.optimize(&workload, &OptimizerConfig::default())?;
/// println!("{report}");
/// # Ok::<(), npu_core::OptimizeError>(())
/// ```
#[derive(Debug)]
pub struct EnergyOptimizer {
    pub(crate) dev: Device,
    pub(crate) calib: HardwareCalibration,
}

impl EnergyOptimizer {
    /// Wraps an already-calibrated device.
    #[must_use]
    pub fn new(dev: Device, calib: HardwareCalibration) -> Self {
        Self { dev, calib }
    }

    /// Creates a device for `cfg` and runs the standard offline
    /// calibration (idle two-point, cool-down γ, three-load `k` fit).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Calibration`] if a calibration fit fails.
    pub fn calibrated(cfg: NpuConfig) -> Result<Self, OptimizeError> {
        // Idle-fit frequencies come from the device's own ladder, so
        // calibration works on any device profile. For the Ascend ladder
        // this resolves to the historical [1000, 1800] MHz defaults.
        let calib_opts = CalibrationOptions::for_table(&cfg.freq_table);
        let mut dev = Device::new(cfg.clone());
        // The heat load mixes cube work with heavy memory traffic so the
        // chip swings well above the idle equilibrium and the cool-down
        // has a wide temperature range for the γ regression.
        let mut heat_ops = Vec::new();
        for _ in 0..12 {
            heat_ops.push(ops::matmul(&cfg, "CalMatMul", 4096, 4096, 4096, 0.55));
            heat_ops.push(ops::gelu(&cfg, 128 << 20));
        }
        let heat = Workload::new("CalHeat", npu_sim::Schedule::new(heat_ops));
        let loads = vec![
            models::tanh_loop(&cfg, 24).schedule().clone(),
            models::tiny(&cfg).schedule().clone(),
            heat.schedule().clone(),
        ];
        let calib = calibrate_device(&mut dev, heat.schedule(), &loads, &calib_opts)?;
        Ok(Self { dev, calib })
    }

    /// The calibration in use.
    #[must_use]
    pub fn calibration(&self) -> &HardwareCalibration {
        &self.calib
    }

    /// Access to the underlying device (e.g. to inspect temperature).
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Mutable access to the underlying device — e.g. to install a
    /// [`npu_sim::DriftModel`] *after* calibration, modelling hardware
    /// that drifts away from the conditions it was calibrated under.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.dev
    }

    /// The structured-event observer (shared with the device).
    #[must_use]
    pub fn observer(&self) -> &ObserverHandle {
        self.dev.observer()
    }

    /// Attaches a structured-event observer to the optimizer and its
    /// device: every pipeline layer — device runs, `SetFreq` applies,
    /// model fits, search results, phase boundaries — reports through it.
    pub fn set_observer(&mut self, obs: ObserverHandle) {
        self.dev.set_observer(obs);
    }

    /// Chainable form of [`Self::set_observer`].
    #[must_use]
    pub fn with_observer(mut self, obs: ObserverHandle) -> Self {
        self.set_observer(obs);
        self
    }

    /// Starts a staged optimization session for one workload.
    ///
    /// The session exposes the Fig. 1 loop one phase at a time —
    /// [`OptimizationSession::profile`], `build_models`, `search`,
    /// `execute`, `report` — with every intermediate artifact
    /// inspectable between stages. [`Self::optimize`] is the one-call
    /// wrapper over the same path.
    pub fn session<'a>(
        &'a mut self,
        workload: &'a Workload,
        opts: &OptimizerConfig,
    ) -> OptimizationSession<'a> {
        OptimizationSession::new(self, workload, opts.clone())
    }

    /// Runs the full Fig. 1 loop on one workload and reports measured
    /// baseline vs. optimized numbers (one Table 3 row).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if any phase fails.
    pub fn optimize(
        &mut self,
        workload: &Workload,
        opts: &OptimizerConfig,
    ) -> Result<OptimizationReport, OptimizeError> {
        let (report, _) = self.optimize_with_outcome(workload, opts)?;
        Ok(report)
    }

    /// Like [`Self::optimize`] but also returns the raw search outcome
    /// (used by experiments that inspect the search itself).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if any phase fails.
    pub fn optimize_with_outcome(
        &mut self,
        workload: &Workload,
        opts: &OptimizerConfig,
    ) -> Result<(OptimizationReport, GaOutcome), OptimizeError> {
        let mut session = self.session(workload, opts);
        let report = session.report()?;
        let outcome = session
            .into_ga_outcome()
            .expect("report() always runs the search stage");
        Ok((report, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_optimizer(cfg: &NpuConfig) -> EnergyOptimizer {
        // Oracle calibration keeps unit tests fast; the measured
        // calibration path is tested in npu-power-model.
        let calib = HardwareCalibration::ground_truth(cfg);
        EnergyOptimizer::new(Device::new(cfg.clone()), calib)
    }

    fn quick_opts() -> OptimizerConfig {
        OptimizerConfig::default().with_fai_us(100.0)
    }

    #[test]
    fn end_to_end_on_tiny_workload() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let mut opt = fast_optimizer(&cfg);
        let report = opt.optimize(&w, &quick_opts()).unwrap();
        assert_eq!(report.workload, "Tiny");
        assert!(report.baseline.time_us > 0.0);
        assert!(report.optimized.time_us > 0.0);
        assert!(report.stage_count >= 1);
        // The strategy should not blow the (predicted) budget by much once
        // measured; allow noise slack on a ~1 ms workload.
        assert!(report.perf_loss() < 0.08, "loss {}", report.perf_loss());
    }

    #[test]
    fn saves_aicore_power_on_memory_heavy_workload() {
        let cfg = NpuConfig::builder()
            .noise(0.003, 0.003, 0.1)
            .build()
            .unwrap();
        // A workload dominated by memory-bound ops has big LFC headroom.
        let w = models::tanh_loop(&cfg, 120);
        let mut opt = fast_optimizer(&cfg);
        let report = opt.optimize(&w, &quick_opts()).unwrap();
        assert!(
            report.aicore_reduction() > 0.10,
            "AICore reduction {}",
            report.aicore_reduction()
        );
        assert!(report.perf_loss() < 0.03, "loss {}", report.perf_loss());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let err = |o: OptimizerConfig| o.validate().expect_err("expected rejection");

        let mut o = quick_opts();
        o.build_freqs.clear();
        assert_eq!(
            err(o),
            ConfigError::ZeroCount {
                field: "opts.build_freqs"
            }
        );

        // The GA's crossover needs two parents, so 0 and 1 both fail.
        for population in [0, 1] {
            let mut o = quick_opts();
            o.ga.population = population;
            assert_eq!(
                err(o),
                ConfigError::BadThreshold {
                    field: "opts.ga.population",
                    value: population as f64
                }
            );
        }

        let mut o = quick_opts();
        o.ga.iterations = 0;
        assert_eq!(
            err(o),
            ConfigError::ZeroCount {
                field: "opts.ga.iterations"
            }
        );

        let mut o = quick_opts();
        o.fai_us = -1.0;
        assert_eq!(
            err(o),
            ConfigError::BadThreshold {
                field: "opts.fai_us",
                value: -1.0
            }
        );

        let mut o = quick_opts();
        o.ga.perf_loss_target = 1.5;
        assert_eq!(
            err(o),
            ConfigError::BadThreshold {
                field: "opts.ga.perf_loss_target",
                value: 1.5
            }
        );

        let mut o = quick_opts();
        o.ga.perf_loss_target = f64::NAN;
        assert!(matches!(
            err(o),
            ConfigError::BadThreshold {
                field: "opts.ga.perf_loss_target",
                value,
            } if value.is_nan()
        ));

        assert!(quick_opts().validate().is_ok());
        assert!(OptimizerConfig::default().validate().is_ok());
        let mut o = OptimizerConfig::default().with_loss_target(0.5);
        o.ga.population = 2;
        assert!(o.validate().is_ok());
    }

    #[test]
    fn every_validating_entry_point_rejects_unsearchable_configs() {
        use crate::{FleetController, FleetError, ServeBuilder, ServiceBuilder};

        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let mut population_one = quick_opts();
        population_one.ga.population = 1;
        let nan_loss = quick_opts().with_loss_target(f64::NAN);
        // Compared as text: a NaN value is never `==` to itself.
        let text = |e: Option<ConfigError>| e.map(|e| e.to_string());
        for bad in [population_one, nan_loss] {
            let want = text(bad.validate().err());
            assert!(want.is_some(), "config must be invalid");

            let service = ServiceBuilder::new(cfg.clone())
                .with_config(bad.clone())
                .try_build();
            assert_eq!(text(service.err()), want, "service");

            let mut opt = fast_optimizer(&cfg);
            let serve = ServeBuilder::new(&mut opt, &w)
                .with_config(bad.clone())
                .try_build();
            assert_eq!(text(serve.err()), want, "serve");

            let fleet = FleetController::new(cfg.clone(), w.clone())
                .with_config(bad)
                .run();
            match fleet {
                Err(FleetError::Invalid(e)) => assert_eq!(text(Some(e)), want, "fleet"),
                other => panic!("fleet: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn config_chaining() {
        let o = OptimizerConfig::default()
            .with_loss_target(0.06)
            .with_fai_us(100_000.0)
            .with_threads(3)
            .with_fit(FitFunction::StallConstant)
            .with_build_freqs(vec![FreqMhz::new(1200), FreqMhz::new(1800)])
            .with_planned_latency_us(Some(2_000.0));
        assert_eq!(o.ga.perf_loss_target, 0.06);
        assert_eq!(o.fai_us, 100_000.0);
        assert_eq!(o.threads, 3);
        assert_eq!(o.fit, FitFunction::StallConstant);
        assert_eq!(o.build_freqs, vec![FreqMhz::new(1200), FreqMhz::new(1800)]);
        assert_eq!(o.planned_latency_us, Some(2_000.0));
    }

    #[test]
    fn staged_session_exposes_artifacts_and_matches_optimize() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);

        // Monolithic path on one identically-seeded optimizer…
        let mut mono = fast_optimizer(&cfg);
        let mono_report = mono.optimize(&w, &quick_opts()).unwrap();

        // …staged path on another, inspecting artifacts between stages.
        let mut staged = fast_optimizer(&cfg);
        let opts = quick_opts();
        let mut session = staged.session(&w, &opts);
        assert!(session.profiles().is_none());
        assert!(session.ga_outcome().is_none());

        let profiles = session.profile().unwrap();
        assert_eq!(profiles.len(), 2); // 1000 MHz + fmax
        assert_eq!(profiles[0].freq, FreqMhz::new(1800));
        assert!(session.baseline().unwrap().time_us > 0.0);

        let (perf, power) = session.build_models().unwrap();
        assert_eq!(perf.len(), w.op_count());
        assert!(power.predict(0, FreqMhz::new(1800)).aicore_w > 0.0);

        let outcome = session.search().unwrap();
        assert!(outcome.best_score > 0.0);
        assert_eq!(
            session.preprocessed().unwrap().len(),
            session.stage_table().unwrap().n_stages()
        );

        let exec = session.execute().unwrap();
        assert!(exec.result.duration_us > 0.0);

        let staged_report = session.report().unwrap();
        // Same device seed, same stage order: the staged API must be
        // byte-identical to the monolithic wrapper.
        assert_eq!(staged_report, mono_report);

        // report() is idempotent and the artifacts remain inspectable.
        assert_eq!(session.report().unwrap(), staged_report);
        assert!(session.profiles().is_some());
    }
}
