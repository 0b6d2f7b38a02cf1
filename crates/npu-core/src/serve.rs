//! Online serving under drift: detect, re-optimize, swap — without
//! stopping the request loop.
//!
//! A DVFS strategy is only as good as the models it was searched
//! against, and deployed hardware does not stay where it was calibrated:
//! ambient temperature creeps, silicon ages, leakage coefficients grow
//! (see [`npu_sim::DriftModel`]). [`ServeRuntime`] runs a long stream of
//! workload iterations under the active strategy while a
//! [`DriftDetector`] compares each measured iteration against the
//! model's prediction. When the windowed residual stays over threshold
//! long enough (hysteresis), the runtime climbs a staged response
//! ladder on a *shadow* snapshot of the device — the live loop keeps
//! serving the stale strategy meanwhile:
//!
//! 1. **minimal re-profile** — sweep only a small frequency subset on a
//!    device frozen at the drifted configuration
//!    ([`npu_sim::Device::drifted_config`]);
//! 2. **robust re-fit** — [`OptimizationSession::refit_models`] with the
//!    MAD-cut fitter forced on, escalating to a wider re-profile
//!    ([`OptimizationSession::refresh_profile`]) if the fit stays poor;
//! 3. **cached re-search** — the GA re-runs against the refreshed
//!    models through the shared [`ArtifactCache`]; because the snapshot
//!    configuration and refreshed calibration are part of every cache
//!    key, stale artifacts can never alias the refreshed ones.
//!
//! The new strategy is swapped into the loop at the next iteration
//! boundary ([`npu_obs::Event::StrategySwapped`]). If the ladder fails,
//! the loop degrades to guardrailed execution via
//! [`npu_exec::execute_resilient`] under the last good strategy and
//! stops attempting re-optimization.
//!
//! Everything is deterministic: shadow devices derive their seeds from
//! the live device's fork stream, the GA is thread-count invariant, and
//! no wall-clock time enters any decision — two runs of the same serve
//! loop are bit-identical at any worker thread count.

use crate::cache::ArtifactCache;
use crate::optimizer::{EnergyOptimizer, OptimizeError, OptimizerConfig};
use crate::report::MeasuredIteration;
use crate::session::OptimizationSession;
use npu_dvfs::{DvfsStrategy, GaOutcome};
use npu_exec::{
    execute_resilient, execute_strategy, Degradation, ExecutorOptions, ResilientOptions,
};
use npu_obs::Event;
use npu_power_model::HardwareCalibration;
use npu_sim::{Device, FreqMhz, OpRecord};
use npu_workloads::Workload;

/// Tuning for the windowed drift detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDetectorConfig {
    /// Iterations per scoring window.
    pub window: usize,
    /// Combined-residual threshold a window must exceed to count as
    /// drifted (relative units; 0.05 = 5 % model error).
    pub threshold: f64,
    /// Consecutive over-threshold windows required before drift is
    /// declared (hysteresis against transient excursions).
    pub hysteresis: usize,
    /// Windows ignored for threshold accounting right after a strategy
    /// swap, while the chip settles under the new frequencies.
    pub cooldown_windows: usize,
    /// Temperature scale used to normalize the temperature residual
    /// into the same relative units as time/power, °C.
    pub temp_scale_c: f64,
}

impl Default for DriftDetectorConfig {
    fn default() -> Self {
        Self {
            window: 8,
            threshold: 0.06,
            hysteresis: 2,
            cooldown_windows: 2,
            temp_scale_c: 10.0,
        }
    }
}

/// What [`DriftDetector::record`] concluded from one iteration residual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftSignal {
    /// Mid-window; nothing to report yet.
    Quiet,
    /// A window closed below threshold (or during post-swap cooldown).
    WindowClosed {
        /// The window's mean residual.
        score: f64,
    },
    /// A window closed over threshold and completed the hysteresis run:
    /// the models no longer describe the hardware.
    Detected {
        /// The window's mean residual.
        score: f64,
        /// Consecutive over-threshold windows, including this one.
        windows: usize,
    },
}

/// Windowed drift detector: per-iteration normalized residuals are
/// averaged over fixed windows, and sustained over-threshold windows
/// (with hysteresis and post-swap cooldown) signal drift.
///
/// The detector is pure bookkeeping over numbers the caller feeds it —
/// no clocks, no randomness — so serve loops using it stay
/// deterministic.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftDetectorConfig,
    sum: f64,
    n: usize,
    over: usize,
    cooldown: usize,
    last_score: Option<f64>,
}

impl DriftDetector {
    /// Creates a detector with the given tuning (fields are clamped to
    /// sane minima: a window of at least 1, hysteresis of at least 1).
    ///
    /// Construction arms the same cooldown as a strategy swap: the chip
    /// starts cold, and until it has relaxed toward the predicted
    /// steady-state temperature the residual reflects warm-up, not
    /// drift. The first [`DriftDetectorConfig::cooldown_windows`]
    /// windows are therefore excluded from threshold accounting.
    #[must_use]
    pub fn new(cfg: DriftDetectorConfig) -> Self {
        let cfg = DriftDetectorConfig {
            window: cfg.window.max(1),
            hysteresis: cfg.hysteresis.max(1),
            ..cfg
        };
        Self {
            cfg,
            sum: 0.0,
            n: 0,
            over: 0,
            cooldown: cfg.cooldown_windows,
            last_score: None,
        }
    }

    /// The tuning this detector runs under.
    #[must_use]
    pub fn config(&self) -> &DriftDetectorConfig {
        &self.cfg
    }

    /// The most recent closed window's score, if any window has closed.
    #[must_use]
    pub fn last_score(&self) -> Option<f64> {
        self.last_score
    }

    /// Normalized residual between one measured iteration and the active
    /// prediction: the worst of relative time error, relative AICore
    /// power error, and temperature error over
    /// [`DriftDetectorConfig::temp_scale_c`]. Non-finite or non-positive
    /// predictions contribute zero (nothing meaningful to compare
    /// against).
    #[must_use]
    pub fn residual(
        &self,
        predicted_time_us: f64,
        predicted_aicore_w: f64,
        predicted_temp_c: f64,
        measured: &MeasuredIteration,
    ) -> f64 {
        let rel = |pred: f64, meas: f64| {
            if pred.is_finite() && pred > 0.0 && meas.is_finite() {
                (meas - pred).abs() / pred
            } else {
                0.0
            }
        };
        let time_r = rel(predicted_time_us, measured.time_us);
        let power_r = rel(predicted_aicore_w, measured.aicore_w);
        let temp_r = if predicted_temp_c.is_finite()
            && measured.temp_c.is_finite()
            && self.cfg.temp_scale_c > 0.0
        {
            (measured.temp_c - predicted_temp_c).abs() / self.cfg.temp_scale_c
        } else {
            0.0
        };
        time_r.max(power_r).max(temp_r)
    }

    /// Feeds one iteration residual; returns what (if anything) the
    /// closing window concluded.
    pub fn record(&mut self, residual: f64) -> DriftSignal {
        self.sum += residual.max(0.0);
        self.n += 1;
        if self.n < self.cfg.window {
            return DriftSignal::Quiet;
        }
        let score = self.sum / self.n as f64;
        self.sum = 0.0;
        self.n = 0;
        self.last_score = Some(score);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return DriftSignal::WindowClosed { score };
        }
        if score > self.cfg.threshold {
            self.over += 1;
        } else {
            self.over = 0;
        }
        if self.over >= self.cfg.hysteresis {
            let windows = self.over;
            self.over = 0;
            return DriftSignal::Detected { score, windows };
        }
        DriftSignal::WindowClosed { score }
    }

    /// Arms the post-swap cooldown and clears window/hysteresis state.
    /// Call after swapping a strategy (the old prediction no longer
    /// applies and the chip needs time to settle).
    pub fn reset_after_swap(&mut self) {
        self.sum = 0.0;
        self.n = 0;
        self.over = 0;
        self.cooldown = self.cfg.cooldown_windows;
    }
}

/// Options for a [`ServeRuntime`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Workload iterations to serve.
    pub iterations: usize,
    /// Drift-detector tuning.
    pub detector: DriftDetectorConfig,
    /// Frequency subset the response ladder re-profiles (the device
    /// maximum is always added). Empty uses the session's full build
    /// frequencies — correct but slower, defeating "minimal".
    pub ladder_freqs: Vec<FreqMhz>,
    /// Re-optimizations allowed over the whole run (0 = detect-only:
    /// drift events are emitted but the strategy is never swapped).
    pub max_swaps: usize,
    /// If the robust re-fit's maximum relative residual exceeds this,
    /// the ladder escalates: it re-profiles the remaining build
    /// frequencies before re-fitting again.
    pub fit_error_escalation: f64,
    /// Guardrailed execution used after a ladder failure.
    pub fallback: ResilientOptions,
    /// GA iteration budget when a re-optimization runs with armed warm
    /// seeds ([`ServeRuntime::arm_warm_seeds`]): a transferred strategy
    /// already sits near the optimum, so the search can afford a much
    /// shorter refinement. `None` (the default) keeps the full budget.
    pub warm_ga_iterations: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            iterations: 48,
            detector: DriftDetectorConfig::default(),
            ladder_freqs: Vec::new(),
            max_swaps: 1,
            fit_error_escalation: 0.1,
            fallback: ResilientOptions::default(),
            warm_ga_iterations: None,
        }
    }
}

/// One served iteration, as measured on the live device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeIteration {
    /// Iteration index (0-based).
    pub index: usize,
    /// Strategy generation this iteration ran under (0 = initial).
    pub generation: usize,
    /// Measured iteration time, µs.
    pub time_us: f64,
    /// Measured AICore energy, W·µs.
    pub aicore_energy_wus: f64,
    /// Measured SoC energy, W·µs.
    pub soc_energy_wus: f64,
    /// End-of-iteration chip temperature, °C.
    pub temp_c: f64,
    /// The drift window score, when a window closed at this iteration.
    pub drift_score: Option<f64>,
}

/// Everything a serve loop produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-iteration measurements, in order.
    pub iterations: Vec<ServeIteration>,
    /// Strategy swaps performed.
    pub swaps: usize,
    /// Drift detections (a detection with the swap budget exhausted, or
    /// in detect-only mode, does not swap).
    pub detections: usize,
    /// Whether the loop degraded to guardrailed fallback execution.
    pub fell_back: bool,
    /// How many of [`Self::swaps`] ran with warm-start transfer seeds
    /// armed (see [`ServeRuntime::arm_warm_seeds`]).
    pub warm_swaps: usize,
    /// The worst degradation-ladder rung any iteration of this window
    /// executed on ([`Degradation::None`] unless the loop fell back and
    /// the guardrailed executor had to degrade).
    pub degradation: Degradation,
}

/// Severity order of the degradation-ladder rungs: 0 for
/// [`Degradation::None`] through 3 for [`Degradation::Baseline`]. Lets
/// callers compare rungs without matching on their payloads.
#[must_use]
pub fn degradation_rank(d: &Degradation) -> u32 {
    match d {
        Degradation::None => 0,
        Degradation::Retried { .. } => 1,
        Degradation::PinnedStages { .. } => 2,
        Degradation::Baseline => 3,
    }
}

impl ServeOutcome {
    /// Total measured AICore energy over `iterations[range]`, W·µs.
    #[must_use]
    pub fn aicore_energy_wus(&self, range: std::ops::Range<usize>) -> f64 {
        self.iterations[range]
            .iter()
            .map(|i| i.aicore_energy_wus)
            .sum()
    }

    /// Total served virtual time over `iterations[range]`, µs.
    #[must_use]
    pub fn time_us(&self, range: std::ops::Range<usize>) -> f64 {
        self.iterations[range].iter().map(|i| i.time_us).sum()
    }

    /// Index of the first iteration served under the newest strategy
    /// generation, if any swap happened.
    #[must_use]
    pub fn first_swapped_index(&self) -> Option<usize> {
        let last_gen = self.iterations.last()?.generation;
        if last_gen == 0 {
            return None;
        }
        self.iterations
            .iter()
            .position(|i| i.generation == last_gen)
    }
}

/// The active prediction the detector compares reality against.
#[derive(Debug, Clone, Copy)]
struct ActivePrediction {
    time_us: f64,
    aicore_w: f64,
    temp_c: f64,
}

impl ActivePrediction {
    fn from_eval(eval: &npu_dvfs::Evaluation, calib: &HardwareCalibration) -> Self {
        let time_us = eval.time_us;
        let soc_w = if time_us > 0.0 {
            eval.soc_energy_wus / time_us
        } else {
            0.0
        };
        Self {
            time_us,
            aicore_w: if time_us > 0.0 {
                eval.aicore_energy_wus / time_us
            } else {
                0.0
            },
            temp_c: calib.thermal.temp_at(soc_w),
        }
    }
}

/// Serving state that persists across epoch windows: the active
/// strategy, its prediction and baseline records, the detector, and the
/// global iteration/swap counters. Owned by the runtime after the first
/// window; transplantable (crate-internal) so a fleet controller can
/// rebuild a borrowing [`ServeRuntime`] around the same device every
/// epoch.
#[derive(Debug, Clone)]
pub(crate) struct ServeState {
    pub(crate) strategy: DvfsStrategy,
    pub(crate) baseline_records: Vec<OpRecord>,
    active: ActivePrediction,
    detector: DriftDetector,
    pub(crate) generation: usize,
    pub(crate) fell_back: bool,
    served: usize,
    total_swaps: u64,
    pub(crate) last_search: GaOutcome,
    pub(crate) reopt_wall_s: f64,
    pub(crate) warm_reopt_wall_s: f64,
}

impl ServeState {
    /// Clears the sticky fallback flag and re-arms the detector's
    /// cooldown — the rehabilitation a fleet controller applies when a
    /// quarantined device passes probation and rejoins the fleet. The
    /// standing strategy, prediction and counters are untouched.
    pub(crate) fn rehabilitate(&mut self) {
        self.fell_back = false;
        self.detector.reset_after_swap();
    }
}

/// Builder for a [`ServeRuntime`], consistent with the `with_*` style of
/// [`OptimizerConfig`]: borrow the optimizer and workload, chain the
/// optional pieces, `build()`.
///
/// ```no_run
/// use npu_core::{ArtifactCache, EnergyOptimizer, ServeBuilder, ServeOptions};
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let workload = models::tiny(&cfg);
/// let mut optimizer = EnergyOptimizer::calibrated(cfg)?;
/// let mut runtime = ServeBuilder::new(&mut optimizer, &workload)
///     .with_serve_options(ServeOptions::default())
///     .with_cache(ArtifactCache::new())
///     .build();
/// let outcome = runtime.run()?;
/// # Ok::<(), npu_core::OptimizeError>(())
/// ```
/// A builder input that cannot produce a well-defined run: a count that
/// must be positive was zero, or a numeric parameter was non-finite or
/// out of range.
/// Returned by [`OptimizerConfig::validate`] and every builder that runs
/// it instead of panicking or silently misbehaving later.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A count that must be at least one was zero.
    ZeroCount {
        /// The offending field, dotted path from the builder.
        field: &'static str,
    },
    /// A numeric parameter was non-finite or out of its valid range.
    BadThreshold {
        /// The offending field, dotted path from the builder.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroCount { field } => write!(f, "{field} must be at least 1, got 0"),
            Self::BadThreshold { field, value } => {
                write!(f, "{field} must be finite and in range, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates serve options for [`ServeBuilder::try_build`] (and the
/// fleet controller, which embeds them).
pub(crate) fn validate_serve_options(serve: &ServeOptions) -> Result<(), ConfigError> {
    if serve.iterations == 0 {
        return Err(ConfigError::ZeroCount {
            field: "serve.iterations",
        });
    }
    let det = &serve.detector;
    if det.window == 0 {
        return Err(ConfigError::ZeroCount {
            field: "serve.detector.window",
        });
    }
    let positive = [
        ("serve.detector.threshold", det.threshold),
        ("serve.detector.temp_scale_c", det.temp_scale_c),
        (
            "serve.fallback.guardrail.sla_slack",
            serve.fallback.guardrail.sla_slack,
        ),
    ];
    for (field, value) in positive {
        if !value.is_finite() || value <= 0.0 {
            return Err(ConfigError::BadThreshold { field, value });
        }
    }
    // `+inf` means "never escalate on fit error" and is a valid sentinel;
    // only NaN and negatives are rejected here.
    let esc = serve.fit_error_escalation;
    if esc.is_nan() || esc < 0.0 {
        return Err(ConfigError::BadThreshold {
            field: "serve.fit_error_escalation",
            value: esc,
        });
    }
    let tol = serve.fallback.guardrail.apply_tolerance_us;
    if !tol.is_finite() || tol < 0.0 {
        return Err(ConfigError::BadThreshold {
            field: "serve.fallback.guardrail.apply_tolerance_us",
            value: tol,
        });
    }
    if !serve.fallback.guardrail.temp_ceiling_c.is_finite() {
        return Err(ConfigError::BadThreshold {
            field: "serve.fallback.guardrail.temp_ceiling_c",
            value: serve.fallback.guardrail.temp_ceiling_c,
        });
    }
    Ok(())
}

/// Assembles a [`ServeRuntime`] over a live optimizer: optimizer and
/// serve options plus a shared artifact cache, with `try_build` for
/// validated construction.
#[derive(Debug)]
pub struct ServeBuilder<'a> {
    opt: &'a mut EnergyOptimizer,
    workload: &'a Workload,
    opts: OptimizerConfig,
    serve: ServeOptions,
    cache: ArtifactCache,
}

impl<'a> ServeBuilder<'a> {
    /// Starts a builder over `optimizer`'s live device with default
    /// optimizer/serve options and a fresh in-memory cache.
    #[must_use]
    pub fn new(optimizer: &'a mut EnergyOptimizer, workload: &'a Workload) -> Self {
        Self {
            opt: optimizer,
            workload,
            opts: OptimizerConfig::default(),
            serve: ServeOptions::default(),
            cache: ArtifactCache::new(),
        }
    }

    /// Sets the optimizer configuration (profiling, fitting, GA).
    #[must_use]
    pub fn with_config(mut self, opts: OptimizerConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the serving options (iterations, detector, ladder, budget).
    #[must_use]
    pub fn with_serve_options(mut self, serve: ServeOptions) -> Self {
        self.serve = serve;
        self
    }

    /// Shares an artifact cache with the initial optimization and every
    /// ladder re-optimization. Keys cover the (possibly drift-snapshot)
    /// device configuration, seed and refreshed calibration, so
    /// refreshed artifacts never alias stale ones.
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = cache;
        self
    }

    /// Assembles the runtime.
    #[must_use]
    pub fn build(self) -> ServeRuntime<'a> {
        ServeRuntime {
            opt: self.opt,
            workload: self.workload,
            opts: self.opts,
            serve: self.serve,
            cache: self.cache,
            state: None,
            pending_seeds: Vec::new(),
            force_reopt_failure: false,
        }
    }

    /// Validates the optimizer and serve options, then assembles the
    /// runtime.
    ///
    /// # Errors
    ///
    /// Any [`OptimizerConfig::validate`] error; [`ConfigError::ZeroCount`]
    /// for a zero window length or zero detector window;
    /// [`ConfigError::BadThreshold`] for a non-finite or out-of-range
    /// detector/guardrail threshold.
    pub fn try_build(self) -> Result<ServeRuntime<'a>, ConfigError> {
        self.opts.validate()?;
        validate_serve_options(&self.serve)?;
        Ok(self.build())
    }
}

/// The long-running serving loop: iterations under the active strategy,
/// drift detection, staged re-optimization, fallback (see the module
/// docs for the full contract).
///
/// # Examples
///
/// ```no_run
/// use npu_core::{EnergyOptimizer, OptimizerConfig, ServeOptions, ServeRuntime};
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let workload = models::tiny(&cfg);
/// let mut optimizer = EnergyOptimizer::calibrated(cfg)?;
/// let mut runtime = ServeRuntime::builder(&mut optimizer, &workload)
///     .with_config(OptimizerConfig::default())
///     .with_serve_options(ServeOptions::default())
///     .build();
/// let outcome = runtime.run()?;
/// println!("served {} iterations, {} swaps", outcome.iterations.len(), outcome.swaps);
/// # Ok::<(), npu_core::OptimizeError>(())
/// ```
#[derive(Debug)]
pub struct ServeRuntime<'a> {
    opt: &'a mut EnergyOptimizer,
    workload: &'a Workload,
    opts: OptimizerConfig,
    serve: ServeOptions,
    cache: ArtifactCache,
    state: Option<ServeState>,
    pending_seeds: Vec<Vec<FreqMhz>>,
    /// Chaos hook (fleet-internal): when set, the next re-optimizations
    /// are treated as hung — they fail without running, exercising the
    /// degrade-don't-die fallback path deterministically.
    force_reopt_failure: bool,
}

impl<'a> ServeRuntime<'a> {
    /// Starts a [`ServeBuilder`] over `optimizer`'s live device — the
    /// primary construction surface.
    #[must_use]
    pub fn builder(optimizer: &'a mut EnergyOptimizer, workload: &'a Workload) -> ServeBuilder<'a> {
        ServeBuilder::new(optimizer, workload)
    }

    /// Replaces the artifact cache the initial optimization and every
    /// ladder re-optimization consult. Keys cover the (possibly
    /// drift-snapshot) device configuration, seed and refreshed
    /// calibration, so refreshed artifacts never alias stale ones.
    pub fn set_cache(&mut self, cache: ArtifactCache) {
        self.cache = cache;
    }

    /// The serve options this runtime runs under.
    #[must_use]
    pub fn options(&self) -> &ServeOptions {
        &self.serve
    }

    /// Arms externally supplied warm-start strategies (e.g. a fleet
    /// neighbor's cached strategy) for the *next* re-optimization: they
    /// are injected into the GA's first generation via
    /// [`npu_dvfs::GaConfig`]'s warm seeds and, when
    /// [`ServeOptions::warm_ga_iterations`] is set, the search runs with
    /// that reduced budget. Consumed by the next ladder run, whether it
    /// succeeds or not; re-arm per re-optimization.
    pub fn arm_warm_seeds(&mut self, seeds: Vec<Vec<FreqMhz>>) {
        self.pending_seeds = seeds;
    }

    /// Strategy generation currently being served (0 before the first
    /// swap — and before the first window initializes the loop).
    #[must_use]
    pub fn generation(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.generation)
    }

    /// Whether the loop has degraded to guardrailed fallback execution.
    #[must_use]
    pub fn fell_back(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.fell_back)
    }

    /// Total iterations served across every window so far.
    #[must_use]
    pub fn served(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.served)
    }

    /// The GA outcome behind the currently active strategy (the initial
    /// search, or the latest successful re-optimization). `None` until
    /// the first window initializes the loop.
    #[must_use]
    pub fn last_search(&self) -> Option<&GaOutcome> {
        self.state.as_ref().map(|s| &s.last_search)
    }

    /// Host wall-clock seconds spent inside re-optimization ladders so
    /// far. Measurement only — never feeds back into any serving
    /// decision, so outcomes stay bit-reproducible.
    #[must_use]
    pub fn reopt_wall_s(&self) -> f64 {
        self.state.as_ref().map_or(0.0, |s| s.reopt_wall_s)
    }

    /// Detaches the persistent serving state (fleet-internal: lets a
    /// controller rebuild a borrowing runtime around the same device
    /// next epoch).
    pub(crate) fn take_state(&mut self) -> Option<ServeState> {
        self.state.take()
    }

    /// Restores serving state detached by [`Self::take_state`].
    pub(crate) fn restore_state(&mut self, state: Option<ServeState>) {
        self.state = state;
    }

    /// Arms or disarms the hung-re-optimization chaos hook (fleet
    /// fault injection): while armed, any ladder attempt fails without
    /// running and the loop degrades to guardrailed fallback.
    pub(crate) fn set_force_reopt_failure(&mut self, force: bool) {
        self.force_reopt_failure = force;
    }

    /// Runs one serve window of [`ServeOptions::iterations`] iterations.
    ///
    /// The first call brings the loop up (initial optimization on the
    /// live device) and serves the window; every further call continues
    /// the same loop — counters, detector state and the active strategy
    /// carry over — so repeated `run()` calls serve consecutive windows.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if the *initial* optimization or a live
    /// iteration fails. Ladder (re-optimization) failures do not abort
    /// the loop — they degrade it to guardrailed fallback execution.
    pub fn run(&mut self) -> Result<ServeOutcome, OptimizeError> {
        self.run_epoch(self.serve.iterations)
    }

    /// Runs one serve window of exactly `iterations` iterations (the
    /// epoch primitive fleet controllers schedule). Identical to
    /// [`Self::run`] except for the window length; the returned
    /// [`ServeOutcome`] covers only this window, while
    /// [`ServeIteration::index`] and the swap seeds stay global across
    /// windows.
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_epoch(&mut self, iterations: usize) -> Result<ServeOutcome, OptimizeError> {
        if self.state.is_none() {
            self.initialize()?;
        }
        let mut out = ServeOutcome {
            iterations: Vec::with_capacity(iterations),
            swaps: 0,
            detections: 0,
            fell_back: false,
            warm_swaps: 0,
            degradation: Degradation::None,
        };
        let Some(mut st) = self.state.take() else {
            return Ok(out);
        };
        let result = self.serve_window(&mut st, iterations, &mut out);
        self.state = Some(st);
        result?;
        Ok(out)
    }

    /// Initial optimization on the live device (bring-up: profiling
    /// advances the live clock, as it would in deployment).
    fn initialize(&mut self) -> Result<(), OptimizeError> {
        let (strategy, baseline_records, outcome) = {
            let mut session = self.opt.session(self.workload, &self.opts.clone());
            session.set_cache(self.cache.clone());
            let outcome = session.search()?.clone();
            let strategy = outcome.strategy.clone();
            let records = session
                .profiles()
                .and_then(|p| p.first())
                .map(|p| p.records.clone())
                .unwrap_or_default();
            (strategy, records, outcome)
        };
        let active = ActivePrediction::from_eval(&outcome.best_eval, self.opt.calibration());
        self.state = Some(ServeState {
            strategy,
            baseline_records,
            active,
            detector: DriftDetector::new(self.serve.detector),
            generation: 0,
            fell_back: false,
            served: 0,
            total_swaps: 0,
            last_search: outcome,
            reopt_wall_s: 0.0,
            warm_reopt_wall_s: 0.0,
        });
        Ok(())
    }

    /// The window loop proper. `st` is detached from `self.state` for
    /// the duration so re-optimization can borrow `self` mutably.
    fn serve_window(
        &mut self,
        st: &mut ServeState,
        iterations: usize,
        out: &mut ServeOutcome,
    ) -> Result<(), OptimizeError> {
        let obs = self.opt.observer().clone();
        let exec_opts = ExecutorOptions {
            planned_latency_us: self.opts.planned_latency_us,
            ..ExecutorOptions::default()
        };
        for _ in 0..iterations {
            let i = st.served;
            let exec = if st.fell_back {
                execute_resilient(
                    &mut self.opt.dev,
                    self.workload.schedule(),
                    &st.strategy,
                    &st.baseline_records,
                    &self.serve.fallback,
                )
                .map_err(OptimizeError::Exec)?
                .outcome
            } else {
                execute_strategy(
                    &mut self.opt.dev,
                    self.workload.schedule(),
                    &st.strategy,
                    &st.baseline_records,
                    &exec_opts,
                )
                .map_err(OptimizeError::Exec)?
            };
            if degradation_rank(&exec.degradation) > degradation_rank(&out.degradation) {
                out.degradation = exec.degradation.clone();
            }
            let meas = MeasuredIteration::from_run(&exec.result);
            let gen_used = st.generation;
            let residual = st.detector.residual(
                st.active.time_us,
                st.active.aicore_w,
                st.active.temp_c,
                &meas,
            );
            let mut drift_score = None;
            match st.detector.record(residual) {
                DriftSignal::Quiet => {}
                DriftSignal::WindowClosed { score } => {
                    drift_score = Some(score);
                    if obs.enabled() {
                        obs.emit(Event::DriftScore {
                            iter: i,
                            score,
                            threshold: st.detector.config().threshold,
                        });
                    }
                }
                DriftSignal::Detected { score, windows } => {
                    drift_score = Some(score);
                    if obs.enabled() {
                        obs.emit(Event::DriftScore {
                            iter: i,
                            score,
                            threshold: st.detector.config().threshold,
                        });
                        obs.emit(Event::DriftDetected {
                            iter: i,
                            score,
                            windows,
                        });
                    }
                    out.detections += 1;
                    if !st.fell_back && out.swaps < self.serve.max_swaps {
                        let ladder_len = if self.serve.ladder_freqs.is_empty() {
                            self.opts.build_freqs.len()
                        } else {
                            self.serve.ladder_freqs.len()
                        };
                        obs.emit(Event::ReoptimizationStarted {
                            iter: i,
                            freqs: ladder_len,
                        });
                        let warm = !self.pending_seeds.is_empty();
                        let t0 = std::time::Instant::now();
                        // The chaos hook models a ladder that hangs: it
                        // consumes the armed seeds (a real ladder would)
                        // and produces no result.
                        let reopt = if self.force_reopt_failure {
                            self.pending_seeds.clear();
                            None
                        } else {
                            Some(self.reoptimize(st.total_swaps))
                        };
                        let reopt_s = t0.elapsed().as_secs_f64();
                        st.reopt_wall_s += reopt_s;
                        if warm {
                            st.warm_reopt_wall_s += reopt_s;
                        }
                        match reopt {
                            Some(Ok((new_strategy, new_records, new_active, search))) => {
                                st.strategy = new_strategy;
                                st.baseline_records = new_records;
                                st.active = new_active;
                                st.last_search = search;
                                st.generation += 1;
                                st.total_swaps += 1;
                                out.swaps += 1;
                                if warm {
                                    out.warm_swaps += 1;
                                }
                                st.detector.reset_after_swap();
                                obs.emit(Event::StrategySwapped {
                                    iter: i + 1,
                                    generation: st.generation,
                                    predicted_energy_wus: st.active.aicore_w * st.active.time_us,
                                });
                            }
                            Some(Err(_)) | None => {
                                // Degrade, don't die: keep serving the
                                // last good strategy behind guardrails.
                                // The generation counter does NOT bump —
                                // no swap happened — and the detector's
                                // cooldown is re-armed to match: the
                                // execution mode just changed under it
                                // (resilient fallback), so the residuals
                                // it scores next reflect the switch, not
                                // fresh drift. Without the reset the
                                // stale prediction re-detects every
                                // window while the counters say nothing
                                // was swapped.
                                st.fell_back = true;
                                st.detector.reset_after_swap();
                            }
                        }
                    }
                }
            }
            out.iterations.push(ServeIteration {
                index: i,
                generation: gen_used,
                time_us: exec.result.duration_us,
                aicore_energy_wus: exec.result.energy_aicore_j * 1e6,
                soc_energy_wus: exec.result.energy_soc_j * 1e6,
                temp_c: meas.temp_c,
                drift_score,
            });
            st.served += 1;
        }
        out.fell_back = st.fell_back;
        Ok(())
    }

    /// The staged response ladder, on a shadow device frozen at the live
    /// device's drifted configuration. Returns the re-optimized strategy
    /// with its (freshly measured) baseline records, prediction and the
    /// GA outcome behind it.
    fn reoptimize(
        &mut self,
        swap_index: u64,
    ) -> Result<(DvfsStrategy, Vec<OpRecord>, ActivePrediction, GaOutcome), OptimizeError> {
        // Freeze "the hardware right now": a snapshot config reproduces
        // the live drifted physics exactly on a fresh device, and its
        // distinct field values give every cache key a distinct hash.
        let snapshot_cfg = self.opt.dev.drifted_config();
        let seed = self.opt.dev.fork(0x5EED_0A00 + swap_index).seed();
        let shadow_dev = Device::with_seed(snapshot_cfg.clone(), seed);
        // Refreshed calibration against the snapshot: stands in for
        // re-running the offline calibration protocol on the drifted
        // hardware.
        let calib = HardwareCalibration::ground_truth(&snapshot_cfg);
        let mut shadow =
            EnergyOptimizer::new(shadow_dev, calib).with_observer(self.opt.observer().clone());

        let mut ladder_cfg = self.opts.clone();
        if !self.serve.ladder_freqs.is_empty() {
            ladder_cfg.build_freqs = self.serve.ladder_freqs.clone();
        }
        // Armed transfer seeds ride into the GA's first generation (and
        // into the search cache key — a warm search never aliases a cold
        // one). They are one-shot: consumed here whether the ladder
        // succeeds or fails.
        let seeds = std::mem::take(&mut self.pending_seeds);
        if !seeds.is_empty() {
            ladder_cfg.ga.warm_seeds = seeds;
            if let Some(iters) = self.serve.warm_ga_iterations {
                ladder_cfg.ga.iterations = iters;
            }
        }
        let full_freqs = self.opts.build_freqs.clone();
        let escalation = self.serve.fit_error_escalation;

        let mut session = shadow.session(self.workload, &ladder_cfg);
        session.set_cache(self.cache.clone());
        // Rung 1: minimal re-profile (the session sweeps only the ladder
        // subset, plus the device maximum).
        session.profile()?;
        // Rung 2: robust re-fit; escalate to the remaining build
        // frequencies if the MAD-cut fit still misses badly.
        let fit_err = Self::refit_error(&mut session)?;
        if fit_err > escalation {
            let extra: Vec<FreqMhz> = full_freqs
                .iter()
                .copied()
                .filter(|f| !ladder_cfg.build_freqs.contains(f))
                .collect();
            if !extra.is_empty() {
                session.refresh_profile(&extra)?;
                let _ = Self::refit_error(&mut session)?;
            }
        }
        // Rung 3: re-search through the shared cache.
        let outcome = session.search()?.clone();
        let strategy = outcome.strategy.clone();
        let eval = outcome.best_eval;
        let records = session
            .profiles()
            .and_then(|p| p.first())
            .map(|p| p.records.clone())
            .unwrap_or_default();
        drop(session);
        Ok((
            strategy,
            records,
            ActivePrediction::from_eval(&eval, shadow.calibration()),
            outcome,
        ))
    }

    /// Robust re-fit, returning the perf model's worst relative residual
    /// against the session's current profiles.
    fn refit_error(session: &mut OptimizationSession<'_>) -> Result<f64, OptimizeError> {
        session.refit_models(true)?;
        Ok(match (session.perf_model(), session.profiles()) {
            (Some(perf), Some(profiles)) => perf.max_fit_error(profiles),
            _ => 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(time_us: f64, aicore_w: f64, temp_c: f64) -> MeasuredIteration {
        MeasuredIteration {
            time_us,
            aicore_w,
            soc_w: 2.0 * aicore_w,
            temp_c,
        }
    }

    #[test]
    fn residual_is_worst_normalized_component() {
        let d = DriftDetector::new(DriftDetectorConfig::default());
        // 10 % time error, 5 % power error, 0.5 °C / 10 °C temp error.
        let r = d.residual(100.0, 40.0, 50.0, &meas(110.0, 42.0, 50.5));
        assert!((r - 0.10).abs() < 1e-12, "{r}");
        // Temperature dominates when it is the worst.
        let r = d.residual(100.0, 40.0, 50.0, &meas(100.0, 40.0, 58.0));
        assert!((r - 0.8).abs() < 1e-12, "{r}");
        // Degenerate predictions contribute nothing.
        assert_eq!(
            d.residual(0.0, f64::NAN, f64::INFINITY, &meas(1.0, 1.0, 1.0)),
            0.0
        );
    }

    #[test]
    fn detector_requires_hysteresis_and_honors_cooldown() {
        let mut d = DriftDetector::new(DriftDetectorConfig {
            window: 2,
            threshold: 0.1,
            hysteresis: 2,
            cooldown_windows: 1,
            temp_scale_c: 10.0,
        });
        // Construction arms one warm-up cooldown window.
        assert_eq!(d.record(0.9), DriftSignal::Quiet);
        assert_eq!(d.record(0.9), DriftSignal::WindowClosed { score: 0.9 });
        // First over-threshold window: not yet a detection.
        assert_eq!(d.record(0.3), DriftSignal::Quiet);
        assert_eq!(d.record(0.3), DriftSignal::WindowClosed { score: 0.3 });
        // Second consecutive over-threshold window: detected.
        assert_eq!(d.record(0.3), DriftSignal::Quiet);
        assert_eq!(
            d.record(0.3),
            DriftSignal::Detected {
                score: 0.3,
                windows: 2
            }
        );
        // A quiet window resets the run.
        assert_eq!(d.record(0.3), DriftSignal::Quiet);
        assert!(matches!(d.record(0.3), DriftSignal::WindowClosed { .. }));
        assert_eq!(d.record(0.0), DriftSignal::Quiet);
        assert_eq!(d.record(0.0), DriftSignal::WindowClosed { score: 0.0 });
        assert_eq!(d.record(0.3), DriftSignal::Quiet);
        assert!(matches!(d.record(0.3), DriftSignal::WindowClosed { .. }));
        // Post-swap cooldown swallows one over-threshold window.
        d.reset_after_swap();
        assert_eq!(d.record(0.5), DriftSignal::Quiet);
        assert_eq!(d.record(0.5), DriftSignal::WindowClosed { score: 0.5 });
        assert_eq!(d.record(0.5), DriftSignal::Quiet);
        assert!(matches!(d.record(0.5), DriftSignal::WindowClosed { .. }));
        assert_eq!(d.record(0.5), DriftSignal::Quiet);
        assert!(matches!(d.record(0.5), DriftSignal::Detected { .. }));
        assert_eq!(d.last_score(), Some(0.5));
    }

    #[test]
    fn outcome_range_helpers_sum_energy_and_time() {
        let it = |index, generation, e| ServeIteration {
            index,
            generation,
            time_us: 10.0,
            aicore_energy_wus: e,
            soc_energy_wus: 2.0 * e,
            temp_c: 50.0,
            drift_score: None,
        };
        let out = ServeOutcome {
            iterations: vec![it(0, 0, 5.0), it(1, 0, 6.0), it(2, 1, 3.0), it(3, 1, 4.0)],
            swaps: 1,
            detections: 1,
            fell_back: false,
            warm_swaps: 0,
            degradation: Degradation::None,
        };
        assert_eq!(out.aicore_energy_wus(0..2), 11.0);
        assert_eq!(out.aicore_energy_wus(2..4), 7.0);
        assert_eq!(out.time_us(0..4), 40.0);
        assert_eq!(out.first_swapped_index(), Some(2));
        let no_swap = ServeOutcome {
            iterations: vec![it(0, 0, 5.0)],
            swaps: 0,
            detections: 0,
            fell_back: false,
            warm_swaps: 0,
            degradation: Degradation::None,
        };
        assert_eq!(no_swap.first_swapped_index(), None);
    }

    #[test]
    fn degradation_rank_orders_the_ladder() {
        assert_eq!(degradation_rank(&Degradation::None), 0);
        assert_eq!(degradation_rank(&Degradation::Retried { reruns: 2 }), 1);
        assert_eq!(
            degradation_rank(&Degradation::PinnedStages { stages: vec![1] }),
            2
        );
        assert_eq!(degradation_rank(&Degradation::Baseline), 3);
    }

    #[test]
    fn serve_options_reject_zero_counts() {
        let serve = ServeOptions {
            iterations: 0,
            ..ServeOptions::default()
        };
        assert_eq!(
            validate_serve_options(&serve),
            Err(ConfigError::ZeroCount {
                field: "serve.iterations"
            })
        );
        let mut serve = ServeOptions::default();
        serve.detector.window = 0;
        assert_eq!(
            validate_serve_options(&serve),
            Err(ConfigError::ZeroCount {
                field: "serve.detector.window"
            })
        );
    }

    #[test]
    fn serve_options_reject_bad_thresholds() {
        type Poison = Box<dyn Fn(&mut ServeOptions)>;
        let cases: Vec<(&str, Poison)> = vec![
            (
                "serve.detector.threshold",
                Box::new(|s: &mut ServeOptions| s.detector.threshold = f64::NAN),
            ),
            (
                "serve.detector.threshold",
                Box::new(|s: &mut ServeOptions| s.detector.threshold = -0.1),
            ),
            (
                "serve.detector.temp_scale_c",
                Box::new(|s: &mut ServeOptions| s.detector.temp_scale_c = 0.0),
            ),
            (
                "serve.fit_error_escalation",
                Box::new(|s: &mut ServeOptions| s.fit_error_escalation = -1.0),
            ),
            (
                "serve.fallback.guardrail.sla_slack",
                Box::new(|s: &mut ServeOptions| s.fallback.guardrail.sla_slack = f64::INFINITY),
            ),
            (
                "serve.fallback.guardrail.temp_ceiling_c",
                Box::new(|s: &mut ServeOptions| s.fallback.guardrail.temp_ceiling_c = f64::NAN),
            ),
            (
                "serve.fallback.guardrail.apply_tolerance_us",
                Box::new(|s: &mut ServeOptions| s.fallback.guardrail.apply_tolerance_us = -5.0),
            ),
        ];
        for (field, poison) in cases {
            let mut serve = ServeOptions::default();
            poison(&mut serve);
            match validate_serve_options(&serve) {
                Err(ConfigError::BadThreshold { field: got, .. }) => {
                    assert_eq!(got, field);
                }
                other => panic!("{field}: expected BadThreshold, got {other:?}"),
            }
        }
        assert!(validate_serve_options(&ServeOptions::default()).is_ok());
    }
}
