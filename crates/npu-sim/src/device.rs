//! The virtual device: executes operator schedules in virtual time with
//! fine-grained DVFS semantics.
//!
//! The device models the two-stream mechanism of paper Sect. 7.1: compute
//! operators run in order on the compute stream; `SetFreq` commands are
//! dispatched on a dedicated stream after a chosen *trigger operator*
//! completes (Event Record / Event Wait synchronization) and the new
//! frequency takes effect a fixed latency later (1 ms on Ascend, ~15 ms on
//! a V100). A frequency change landing mid-operator splits the remaining
//! work at the new frequency, which is exactly why a delayed `SetFreq`
//! costs both performance and energy (paper Fig. 18).
//!
//! Every run goes through one per-operator loop. It derives each
//! operator's timing model and power load terms once, and builds the
//! power constants of the current frequency ([`PowerConstants`]) once;
//! they are rebuilt when a `SetFreq` applies, and per operator only while
//! a drift model rewrites the configuration.
//! [`Device::warm_until_steady`] runs no loop: it solves the thermal
//! steady state of repeating a schedule in closed form.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

use crate::config::NpuConfig;
use crate::drift::DriftModel;
use crate::freq::FreqMhz;
use crate::hook::{HookHandle, RecordFate, SampleFate, SetFreqFate};
use crate::noise::NoiseSource;
use crate::operator::{OpClass, OpDescriptor};
use crate::power::{uncore_idle_floor, PowerConstants};
use crate::profiler::OpRecord;
use crate::telemetry::{summarize, TelemetrySample};
use crate::thermal::{RiseMap, ThermalState};
use crate::timeline::CycleModel;
use npu_obs::{Event, ObserverHandle};

/// An ordered list of operators to execute on the compute stream.
///
/// # Examples
///
/// ```
/// use npu_sim::{OpDescriptor, Scenario, Schedule};
///
/// let ops = vec![
///     OpDescriptor::compute("Add", Scenario::PingPongFreeIndependent)
///         .ld_bytes_per_block(1024.0)
///         .st_bytes_per_block(1024.0)
///         .core_cycles_per_block(500.0),
/// ];
/// let schedule = Schedule::new(ops);
/// assert_eq!(schedule.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    ops: Vec<OpDescriptor>,
}

impl Schedule {
    /// Creates a schedule from operators in execution order.
    #[must_use]
    pub fn new(ops: Vec<OpDescriptor>) -> Self {
        Self { ops }
    }

    /// The operators in execution order.
    #[must_use]
    pub fn ops(&self) -> &[OpDescriptor] {
        &self.ops
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule has no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an operator.
    pub fn push(&mut self, op: OpDescriptor) {
        self.ops.push(op);
    }

    /// Appends all operators of `other`.
    pub fn extend_from(&mut self, other: &Schedule) {
        self.ops.extend_from_slice(&other.ops);
    }
}

impl FromIterator<OpDescriptor> for Schedule {
    fn from_iter<I: IntoIterator<Item = OpDescriptor>>(iter: I) -> Self {
        Self {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<OpDescriptor> for Schedule {
    fn extend<I: IntoIterator<Item = OpDescriptor>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

/// A `SetFreq` dispatch: after the compute stream completes the operator at
/// `after_op`, request `target`; it takes effect `setfreq_latency_us` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetFreqCmd {
    /// Index of the trigger operator in the schedule.
    pub after_op: usize,
    /// Requested frequency.
    pub target: FreqMhz,
}

/// Retry policy for `SetFreq` dispatches rejected at the device boundary
/// (only reachable when a [`crate::DeviceHook`] injects rejections).
///
/// Backoff is deterministic and measured in virtual time: a rejected
/// dispatch is retried no earlier than `backoff_us · multiplier^(n-1)`
/// after the n-th rejection, at the next operator boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetFreqRetry {
    /// Maximum dispatch attempts per command (1 = no retry).
    pub max_attempts: u32,
    /// Base backoff before the first retry, µs.
    pub backoff_us: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
}

impl Default for SetFreqRetry {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_us: 100.0,
            backoff_multiplier: 2.0,
        }
    }
}

/// What a [`Device::run`] keeps of its per-operator measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Measure every operator and keep its [`OpRecord`] in
    /// [`RunResult::records`].
    Keep,
    /// Measure every operator as [`RecordMode::Keep`] does, and keep no
    /// record. The run draws the same measurement noise, and an installed
    /// hook still sees (and may tamper with) each record, so the device
    /// ends in the state a recorded run leaves: the next run is the same
    /// either way. Without a hook no record is built. For loops that
    /// repeat a schedule and read only the run's totals.
    Discard,
    /// Measure no operator: no record is built and no measurement noise
    /// is drawn, so later runs draw different noise than after a
    /// recorded run. For sweeps that read only totals or telemetry.
    Skip,
}

/// Options controlling one [`Device::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Core frequency at the start of the run.
    pub initial_freq: FreqMhz,
    /// `SetFreq` dispatches, any order. A list already sorted by trigger
    /// is used as it is; any other is sorted (stably) into a copy.
    pub setfreq: Vec<SetFreqCmd>,
    /// What the run keeps of its per-operator measurements.
    pub records: RecordMode,
    /// Collect telemetry samples.
    pub collect_telemetry: bool,
    /// Telemetry sampling period, µs.
    pub telemetry_period_us: f64,
    /// Retry policy for rejected `SetFreq` dispatches; `None` gives up on
    /// the first rejection.
    pub setfreq_retry: Option<SetFreqRetry>,
}

impl RunOptions {
    /// A plain fixed-frequency run with profiling enabled.
    #[must_use]
    pub fn at(freq: FreqMhz) -> Self {
        Self {
            initial_freq: freq,
            setfreq: Vec::new(),
            records: RecordMode::Keep,
            collect_telemetry: false,
            telemetry_period_us: 1_000.0,
            setfreq_retry: None,
        }
    }

    /// Adds `SetFreq` commands.
    #[must_use]
    pub fn with_setfreq(mut self, cmds: Vec<SetFreqCmd>) -> Self {
        self.setfreq = cmds;
        self
    }

    /// Enables telemetry with the given sampling period.
    #[must_use]
    pub fn with_telemetry(mut self, period_us: f64) -> Self {
        self.collect_telemetry = true;
        self.telemetry_period_us = period_us;
        self
    }

    /// Measures no operator ([`RecordMode::Skip`]; saves memory on long
    /// sweeps).
    #[must_use]
    pub fn without_records(mut self) -> Self {
        self.records = RecordMode::Skip;
        self
    }

    /// Arms device-level retry of rejected `SetFreq` dispatches.
    #[must_use]
    pub fn with_setfreq_retry(mut self, retry: SetFreqRetry) -> Self {
        self.setfreq_retry = Some(retry);
        self
    }
}

/// Outcome of one [`Device::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Wall-clock duration of the run, µs.
    pub duration_us: f64,
    /// True AICore energy over the run, J.
    pub energy_aicore_j: f64,
    /// True SoC energy over the run, J.
    pub energy_soc_j: f64,
    /// Per-op profiler records (empty if disabled).
    pub records: Vec<OpRecord>,
    /// Telemetry samples (empty if disabled).
    pub telemetry: Vec<TelemetrySample>,
    /// Chip temperature at the end of the run, °C.
    pub end_temp_c: f64,
    /// `(time_us, freq)` trace of applied frequency changes, including the
    /// initial point.
    pub freq_trace: Vec<(f64, FreqMhz)>,
}

impl RunResult {
    /// Average AICore power over the run, W.
    #[must_use]
    pub fn avg_aicore_w(&self) -> f64 {
        if self.duration_us > 0.0 {
            self.energy_aicore_j / (self.duration_us * 1e-6)
        } else {
            0.0
        }
    }

    /// Average SoC power over the run, W.
    #[must_use]
    pub fn avg_soc_w(&self) -> f64 {
        if self.duration_us > 0.0 {
            self.energy_soc_j / (self.duration_us * 1e-6)
        } else {
            0.0
        }
    }
}

/// Errors from device operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceError {
    /// Requested frequency is not in the device's frequency table.
    UnsupportedFrequency(FreqMhz),
    /// Requested uncore scale is outside the supported range.
    UnsupportedUncoreScale(f64),
    /// A `SetFreq` trigger index is out of range for the schedule.
    TriggerOutOfRange {
        /// Offending trigger index.
        index: usize,
        /// Schedule length.
        len: usize,
    },
    /// A telemetry sampling period is zero, negative or not finite.
    InvalidSamplePeriod(f64),
    /// The configuration in effect has no thermal steady state: its
    /// [loop gain](NpuConfig::thermal_loop_gain), carried here, is 1 or
    /// more.
    ThermalRunaway(f64),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedFrequency(freq) => {
                write!(f, "frequency {freq} is not supported by the device")
            }
            Self::UnsupportedUncoreScale(s) => {
                write!(f, "uncore scale {s} is outside the supported range")
            }
            Self::TriggerOutOfRange { index, len } => {
                write!(
                    f,
                    "SetFreq trigger index {index} out of range for schedule of length {len}"
                )
            }
            Self::InvalidSamplePeriod(p) => {
                write!(
                    f,
                    "telemetry sampling period {p} µs must be positive and finite"
                )
            }
            Self::ThermalRunaway(gain) => write!(
                f,
                "thermal loop gain {gain} is not below 1: the chip has no thermal steady state"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// The simulated NPU.
///
/// The device is stateful across runs: its clock, temperature and current
/// frequency persist, so calibration flows like "run a test load, then
/// watch the cool-down" (paper Sect. 5.4.2) work naturally.
///
/// # Examples
///
/// ```
/// use npu_sim::{Device, NpuConfig, OpDescriptor, RunOptions, Scenario, Schedule, FreqMhz};
///
/// let mut dev = Device::new(NpuConfig::ascend_like());
/// let schedule = Schedule::new(vec![
///     OpDescriptor::compute("Gelu", Scenario::PingPongIndependent)
///         .blocks(4)
///         .ld_bytes_per_block((1 << 20) as f64)
///         .st_bytes_per_block((1 << 20) as f64)
///         .core_cycles_per_block(2_000.0),
/// ]);
/// let result = dev.run(&schedule, &RunOptions::at(FreqMhz::new(1800)))?;
/// assert!(result.duration_us > 0.0);
/// # Ok::<(), npu_sim::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    cfg: NpuConfig,
    /// Effective (possibly drifted) configuration the power/thermal
    /// physics reads. Always a clone of `cfg` with only the drifted
    /// fields rewritten; identical to `cfg` when no drift is installed,
    /// so the drift-free path stays bit-identical to a device built
    /// before drift existed. Operator *timing* intentionally keeps
    /// reading `cfg` — drift models power/thermal degradation, not
    /// clock-for-clock slowdown.
    eff: NpuConfig,
    /// Optional slow environment/hardware drift, a pure function of the
    /// device clock (see [`crate::DriftModel`]).
    drift: Option<DriftModel>,
    /// Noise seed the device was constructed with (worker forks and
    /// content-addressed caches key on it).
    seed: u64,
    noise: NoiseSource,
    thermal: ThermalState,
    clock_us: f64,
    freq: FreqMhz,
    uncore_scale: f64,
    /// Structured-event sink; disabled (`NullObserver`) by default.
    /// Cloning the device shares the sink.
    obs: ObserverHandle,
    /// Optional boundary hook (fault injection); absent by default, in
    /// which case every interposition site is a single branch and runs are
    /// bit-identical to a hook-less device. Cloning shares the hook.
    hook: Option<HookHandle>,
}

impl Device {
    /// Creates a cold device with the default seed.
    #[must_use]
    pub fn new(cfg: NpuConfig) -> Self {
        Self::with_seed(cfg, 0xA5CE_0001)
    }

    /// Creates a cold device with an explicit noise seed.
    #[must_use]
    pub fn with_seed(cfg: NpuConfig, seed: u64) -> Self {
        let thermal = ThermalState::new(&cfg);
        let freq = cfg.freq_table.max();
        Self {
            eff: cfg.clone(),
            drift: None,
            cfg,
            seed,
            noise: NoiseSource::from_seed(seed),
            thermal,
            clock_us: 0.0,
            freq,
            uncore_scale: 1.0,
            obs: ObserverHandle::default(),
            hook: None,
        }
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &NpuConfig {
        &self.cfg
    }

    /// The noise seed this device was constructed with. Together with
    /// the configuration it fully determines every run from cold, which
    /// is what content-addressed result caches fingerprint.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Creates a cold, silent worker device for an independent parallel
    /// simulation: same configuration, noise seeded deterministically
    /// from `(self.seed(), stream)`, no observer and no boundary hook.
    ///
    /// Forks are what frequency sweeps and batch drivers hand to their
    /// worker threads: because a fork never shares mutable state with
    /// its parent (the observer is detached, the hook dropped, the RNG
    /// re-seeded), results are a pure function of `(config, seed,
    /// stream, schedule)` — independent of thread count, scheduling
    /// order, and whatever the parent device ran before the fork.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Self {
        Self::with_seed(self.cfg.clone(), derive_stream_seed(self.seed, stream))
    }

    /// The structured-event observer attached to this device.
    #[must_use]
    pub fn observer(&self) -> &ObserverHandle {
        &self.obs
    }

    /// Attaches a structured-event observer. The device emits
    /// [`Event::SetFreqIssued`] when a frequency request takes effect and
    /// per-run [`Event::DeviceRun`] / [`Event::TelemetrySummarized`]
    /// counters; with the default disabled handle every emission site is
    /// a single branch.
    pub fn set_observer(&mut self, obs: ObserverHandle) {
        self.obs = obs;
    }

    /// Installs a boundary hook (see [`crate::DeviceHook`]). The hook sees
    /// every `SetFreq` dispatch, telemetry sample and profiler record, and
    /// may offset the *measured* temperature — this is the interposition
    /// point fault injection builds on. Survives [`Device::reset`].
    pub fn set_hook(&mut self, hook: HookHandle) {
        self.hook = Some(hook);
    }

    /// Removes the boundary hook, restoring pristine device behaviour.
    pub fn clear_hook(&mut self) {
        self.hook = None;
    }

    /// The installed boundary hook, if any.
    #[must_use]
    pub fn hook(&self) -> Option<&HookHandle> {
        self.hook.as_ref()
    }

    /// Installs a slow drift model (see [`crate::DriftModel`]). From now
    /// on the power/thermal physics reads the drifted view of the
    /// configuration at the current device clock; a static model (or
    /// [`Device::clear_drift`]) restores bit-identical pristine
    /// behaviour. Survives [`Device::reset`] (which rewinds the clock,
    /// and with it the drift, to zero). [`Device::fork`] does *not*
    /// propagate drift: forks are cold pristine workers by contract.
    pub fn set_drift(&mut self, drift: DriftModel) {
        self.drift = Some(drift);
        self.refresh_drift();
    }

    /// Removes the drift model and restores the pristine configuration.
    pub fn clear_drift(&mut self) {
        self.drift = None;
        self.eff = self.cfg.clone();
    }

    /// The installed drift model, if any.
    #[must_use]
    pub fn drift(&self) -> Option<&DriftModel> {
        self.drift.as_ref()
    }

    /// The effective configuration the physics is currently running
    /// under: the base configuration with the drifted fields rewritten
    /// for the current device clock. Identical to [`Device::config`]
    /// when no drift is installed.
    #[must_use]
    pub fn effective_config(&self) -> &NpuConfig {
        &self.eff
    }

    /// An owned snapshot of the effective configuration at the current
    /// device clock — what a re-profiling pass should treat as "the
    /// hardware right now". Building a fresh [`Device`] from this
    /// snapshot reproduces the live drifted physics frozen at this
    /// instant (drift is applied identically to both).
    #[must_use]
    pub fn drifted_config(&self) -> NpuConfig {
        self.eff.clone()
    }

    /// Re-derives `eff` from the drift model at the current clock.
    /// A single branch when no drift is installed.
    fn refresh_drift(&mut self) {
        if let Some(d) = self.drift {
            d.apply(&self.cfg, self.clock_us, &mut self.eff);
        }
    }

    /// Current chip temperature, °C.
    #[must_use]
    pub fn temp_c(&self) -> f64 {
        self.thermal.temp_c()
    }

    /// Current device clock, µs.
    #[must_use]
    pub fn clock_us(&self) -> f64 {
        self.clock_us
    }

    /// Current core frequency.
    #[must_use]
    pub fn freq(&self) -> FreqMhz {
        self.freq
    }

    /// Cold-resets clock, temperature and frequency (noise state persists,
    /// and an installed drift model rewinds with the clock).
    pub fn reset(&mut self) {
        self.clock_us = 0.0;
        self.thermal = ThermalState::new(&self.cfg);
        self.freq = self.cfg.freq_table.max();
        self.uncore_scale = 1.0;
        self.refresh_drift();
    }

    /// Sets the core frequency immediately (out-of-band, e.g. between
    /// calibration runs).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnsupportedFrequency`] if `f` is off-grid.
    pub fn set_frequency(&mut self, f: FreqMhz) -> Result<(), DeviceError> {
        if !self.cfg.freq_table.contains(f) {
            return Err(DeviceError::UnsupportedFrequency(f));
        }
        self.freq = f;
        Ok(())
    }

    /// Current uncore frequency scale (1.0 = nominal).
    #[must_use]
    pub fn uncore_scale(&self) -> f64 {
        self.uncore_scale
    }

    /// Sets the uncore frequency scale immediately. The real Ascend NPU
    /// does not support uncore frequency tuning (paper Sect. 8.2); the
    /// simulator exposes it as the future-work exploration knob.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnsupportedUncoreScale`] if `scale` is
    /// outside `[uncore_min_scale, 1.0]`.
    pub fn set_uncore_scale(&mut self, scale: f64) -> Result<(), DeviceError> {
        if !(self.cfg.uncore_min_scale..=1.0).contains(&scale) {
            return Err(DeviceError::UnsupportedUncoreScale(scale));
        }
        self.uncore_scale = scale;
        Ok(())
    }

    /// Lets the device sit idle for `duration_us` at the current frequency,
    /// sampling telemetry every `period_us`. This is how calibration
    /// observes the post-load cool-down (paper Sect. 5.4.2).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSamplePeriod`] unless `period_us` is
    /// positive and finite.
    pub fn observe_idle(
        &mut self,
        duration_us: f64,
        period_us: f64,
    ) -> Result<Vec<TelemetrySample>, DeviceError> {
        check_sample_period(period_us)?;
        let mut samples = Vec::new();
        let mut t = 0.0;
        let floor = uncore_idle_floor(&self.eff, self.uncore_scale);
        let mut power = self.power_constants(floor);
        while t < duration_us {
            if self.drift.is_some() {
                self.refresh_drift();
                power = self.power_constants(floor);
            }
            let step = period_us.min(duration_us - t);
            let dt_c = self.thermal.delta_t(&self.eff);
            let p_ai = power.aicore(0.0, dt_c);
            let p_soc = p_ai + power.uncore(0.0, dt_c);
            let s = self.sample(self.clock_us, p_ai, p_soc);
            self.push_telemetry(s, &mut samples);
            self.thermal.advance(&self.eff, p_soc, step);
            self.clock_us += step;
            t += step;
        }
        Ok(samples)
    }

    /// Brings the chip to the thermal steady state of running `schedule`
    /// back to back at `freq`, and returns that temperature. This
    /// reproduces the paper's protocol of collecting data "once stable
    /// training is achieved" (Eq. (15)).
    ///
    /// The steady state is solved, not simulated. SoC power is affine in
    /// the temperature rise (the `γ·ΔT·V` leakage) and each operator's
    /// thermal step is affine in the temperature, so one noise-free
    /// iteration of the schedule is an affine map of the rise; the chip
    /// is set to its fixed point. The clock advances by the whole
    /// noise-free iterations a simulated warm-up would run: until the
    /// temperature moves by less than 0.2 °C per thermal time constant,
    /// and for at most 12 time constants. A drift model is read at the
    /// clock where the warm-up ends. No noise is drawn, no hook is
    /// consulted and no event is emitted; the device is left at `freq`.
    /// A schedule that takes no time leaves the temperature and the clock
    /// as they are.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnsupportedFrequency`] if `freq` is off-grid,
    /// and [`DeviceError::ThermalRunaway`] if the configuration in effect
    /// at either end of the warm-up has no steady state
    /// ([`NpuConfig::has_thermal_steady_state`]); the device is then left
    /// as it was.
    pub fn warm_until_steady(
        &mut self,
        schedule: &Schedule,
        freq: FreqMhz,
    ) -> Result<f64, DeviceError> {
        if !self.cfg.freq_table.contains(freq) {
            return Err(DeviceError::UnsupportedFrequency(freq));
        }
        self.check_thermal_steady_state()?;
        let (mut map, iter_us) = self.iteration_map(schedule, freq);
        if iter_us <= 0.0 {
            self.freq = freq;
            return Ok(self.thermal.temp_c());
        }
        // The simulated stop rule, on the scalar map: the move per
        // iteration, extrapolated over one time constant (short
        // iterations move the temperature only a little each).
        let tau = self.cfg.thermal_tau_us;
        let mut rise = self.thermal.delta_t(&self.eff);
        let mut iterations = 0.0;
        loop {
            let next = map.apply(rise);
            iterations += 1.0;
            let drift_per_tau = (next - rise).abs() * tau / iter_us;
            rise = next;
            if drift_per_tau < WARM_SETTLED_C_PER_TAU || iterations * iter_us >= WARM_MAX_TAUS * tau
            {
                break;
            }
        }
        let start_us = self.clock_us;
        self.clock_us += iterations * iter_us;
        if self.drift.is_some() {
            self.refresh_drift();
            if let Err(e) = self.check_thermal_steady_state() {
                self.clock_us = start_us;
                self.refresh_drift();
                return Err(e);
            }
            map = self.iteration_map(schedule, freq).0;
        }
        self.freq = freq;
        self.thermal = ThermalState::at_temperature(self.eff.ambient_c + map.fixed_point());
        Ok(self.thermal.temp_c())
    }

    /// Fails unless the effective configuration has a thermal steady
    /// state.
    fn check_thermal_steady_state(&self) -> Result<(), DeviceError> {
        if self.eff.has_thermal_steady_state() {
            Ok(())
        } else {
            Err(DeviceError::ThermalRunaway(self.eff.thermal_loop_gain()))
        }
    }

    /// The map of the temperature rise over one noise-free iteration of
    /// `schedule` at `freq` under the effective configuration, and the
    /// iteration's length in µs. Operators that take no time are skipped,
    /// as the device loop skips them.
    fn iteration_map(&self, schedule: &Schedule, freq: FreqMhz) -> (RiseMap, f64) {
        let floor = uncore_idle_floor(&self.eff, self.uncore_scale);
        let power = PowerConstants::new(&self.eff, freq, floor);
        let w_per_k = power.soc_w_per_k();
        let mut map = RiseMap::IDENTITY;
        let mut iter_us = 0.0;
        for op in schedule.ops() {
            let prep = PreparedOp::new(op, &self.cfg, self.uncore_scale, freq);
            let t = prep.time_us;
            if t <= 0.0 {
                continue;
            }
            let traffic_rate = prep.traffic_bytes.map_or(0.0, |bytes| bytes / t);
            let p0 = power.aicore(prep.alpha, 0.0) + power.uncore(traffic_rate, 0.0);
            map = map.then(RiseMap::step(&self.eff, p0, w_per_k, t));
            iter_us += t;
        }
        (map, iter_us)
    }

    /// Executes `schedule` under `options`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] when the initial frequency or a `SetFreq`
    /// target is off-grid, a trigger index is out of range, or telemetry
    /// is on with a sampling period that is not positive and finite.
    pub fn run(
        &mut self,
        schedule: &Schedule,
        options: &RunOptions,
    ) -> Result<RunResult, DeviceError> {
        if !self.cfg.freq_table.contains(options.initial_freq) {
            return Err(DeviceError::UnsupportedFrequency(options.initial_freq));
        }
        if options.collect_telemetry {
            check_sample_period(options.telemetry_period_us)?;
        }
        for cmd in &options.setfreq {
            if cmd.after_op >= schedule.len() {
                return Err(DeviceError::TriggerOutOfRange {
                    index: cmd.after_op,
                    len: schedule.len(),
                });
            }
            if !self.cfg.freq_table.contains(cmd.target) {
                return Err(DeviceError::UnsupportedFrequency(cmd.target));
            }
        }
        // Compiled strategies hand over their commands sorted.
        let cmds = if options.setfreq.is_sorted_by_key(|c| c.after_op) {
            Cow::Borrowed(options.setfreq.as_slice())
        } else {
            let mut sorted = options.setfreq.clone();
            sorted.sort_by_key(|c| c.after_op);
            Cow::Owned(sorted)
        };

        self.freq = options.initial_freq;
        let start_t = self.clock_us;
        let mut pending: VecDeque<(f64, FreqMhz)> = VecDeque::new();
        let mut retries: Vec<RetryEntry> = Vec::new();
        // One record per operator: reserved up front, so a profile holds
        // exactly what it records instead of the slack a doubling `Vec`
        // leaves.
        let keep_records = options.records == RecordMode::Keep;
        let records = if keep_records {
            Vec::with_capacity(schedule.len())
        } else {
            Vec::new()
        };
        // The initial point plus at most one apply per command.
        let mut freq_trace = Vec::with_capacity(options.setfreq.len() + 1);
        freq_trace.push((start_t, self.freq));
        let mut result = RunResult {
            freq_trace,
            records,
            ..RunResult::default()
        };
        let mut energy_ai_wus = 0.0; // W·µs
        let mut energy_soc_wus = 0.0;
        let mut next_sample = start_t;
        let mut cmd_iter = cmds.iter().copied().peekable();
        // The uncore clock is fixed for the run; the core clock and (with
        // drift) the configuration change the constants below.
        let floor = uncore_idle_floor(&self.eff, self.uncore_scale);
        let drifting = self.drift.is_some();
        let mut power = self.power_constants(floor);

        for (i, op) in schedule.ops().iter().enumerate() {
            // Prepared as the loop reaches it: collecting the prepared
            // operators first made single ResNet-50 runs about 30 % slower
            // per operator on x86-64.
            let prep = PreparedOp::new(op, &self.cfg, self.uncore_scale, self.freq);
            // Drift is slow (seconds) next to operators (µs–ms): one
            // refresh per operator keeps the effective config current to
            // well under a drift time constant. Timing stays on the base
            // config by design.
            if drifting {
                self.refresh_drift();
                power = self.power_constants(floor);
            }
            let noise_f = self.noise.factor(self.cfg.exec_noise_sd);
            let op_start = self.clock_us;
            let start_freq = self.freq;
            let mut op_energy_ai = 0.0;
            let mut op_energy_soc = 0.0;
            let mut remaining = 1.0_f64;

            while remaining > 1e-12 {
                let dur_full = prep.time_us(self.freq) * noise_f;
                if dur_full <= 0.0 {
                    break;
                }
                let full_end = self.clock_us + remaining * dur_full;
                // Split the segment at the next pending frequency apply.
                let (seg_end, apply_now) = match pending.front() {
                    Some(&(at, _)) if at < full_end => (at.max(self.clock_us), true),
                    _ => (full_end, false),
                };
                let seg_t = seg_end - self.clock_us;
                let dt_c = self.thermal.delta_t(&self.eff);
                let traffic_rate = match prep.traffic_bytes {
                    Some(bytes) if dur_full > 0.0 => bytes / dur_full,
                    _ => 0.0,
                };
                let p_ai = power.aicore(prep.alpha, dt_c);
                let p_soc = p_ai + power.uncore(traffic_rate, dt_c);
                energy_ai_wus += p_ai * seg_t;
                energy_soc_wus += p_soc * seg_t;
                op_energy_ai += p_ai * seg_t;
                op_energy_soc += p_soc * seg_t;
                if options.collect_telemetry {
                    while next_sample <= seg_end {
                        let s = self.sample(next_sample, p_ai, p_soc);
                        self.push_telemetry(s, &mut result.telemetry);
                        next_sample += options.telemetry_period_us;
                    }
                }
                self.thermal.advance(&self.eff, p_soc, seg_t);
                self.clock_us = seg_end;
                if apply_now {
                    remaining -= seg_t / dur_full;
                    if let Some((_, nf)) = pending.pop_front() {
                        self.freq = nf;
                        power = self.power_constants(floor);
                        result.freq_trace.push((self.clock_us, nf));
                        self.obs.emit(Event::SetFreqIssued {
                            at_us: self.clock_us,
                            freq_mhz: nf.mhz(),
                        });
                    }
                } else {
                    remaining = 0.0;
                }
            }

            // Rejected dispatches whose backoff expired go first, then the
            // SetFreq commands triggered by this operator.
            self.flush_due_retries(&mut retries, &mut pending, options);
            while let Some(cmd) = cmd_iter.next_if(|c| c.after_op == i) {
                self.dispatch_setfreq(cmd.target, 1, &mut pending, &mut retries, options);
            }

            // A discarded measurement draws its noise all the same, so the
            // noise stream does not depend on whether records are kept.
            if options.records != RecordMode::Skip {
                let ai_noise = self.noise.factor(self.cfg.power_noise_sd);
                let soc_noise = self.noise.factor(self.cfg.power_noise_sd);
                let temp_noise = self.noise.normal(0.0, self.cfg.temp_noise_sd_c);
                if !keep_records && self.hook.is_none() {
                    continue; // nothing to keep, and no hook to show it to
                }
                let dur = self.clock_us - op_start;
                let (p_ai_avg, p_soc_avg) = if dur > 0.0 {
                    (op_energy_ai / dur, op_energy_soc / dur)
                } else {
                    (0.0, 0.0)
                };
                let m_ai = p_ai_avg * ai_noise;
                let m_soc = p_soc_avg * soc_noise;
                let mut m_temp = self.thermal.temp_c() + temp_noise;
                if let Some(h) = &self.hook {
                    m_temp += h.with(|hk| hk.temp_offset_c(self.clock_us));
                }
                let record = OpRecord {
                    index: i,
                    name: op.shared_name(),
                    class: op.class(),
                    scenario: op.scenario(),
                    start_us: op_start - start_t,
                    dur_us: dur,
                    freq_mhz: start_freq,
                    ratios: prep.model.ratios(start_freq),
                    aicore_w: m_ai,
                    soc_w: m_soc,
                    temp_c: m_temp,
                    traffic_bytes: op.total_traffic_bytes(),
                };
                let record = match &self.hook {
                    None => record,
                    Some(h) => {
                        let orig_dur = record.dur_us;
                        match h.with(|hk| hk.on_record(record)) {
                            RecordFate::Keep(r) => r,
                            RecordFate::Tampered(r, kind) => {
                                if self.obs.enabled() {
                                    self.obs.emit(Event::FaultInjected {
                                        kind: kind.to_owned(),
                                        at_us: self.clock_us,
                                        magnitude: r.dur_us - orig_dur,
                                    });
                                }
                                r
                            }
                        }
                    }
                };
                if keep_records {
                    result.records.push(record);
                }
            }
        }

        // Frequency requests still in flight apply after the run.
        while let Some((at, nf)) = pending.pop_front() {
            self.freq = nf;
            result.freq_trace.push((at, nf));
            self.obs.emit(Event::SetFreqIssued {
                at_us: at,
                freq_mhz: nf.mhz(),
            });
        }

        result.duration_us = self.clock_us - start_t;
        result.energy_aicore_j = energy_ai_wus * 1e-6;
        result.energy_soc_j = energy_soc_wus * 1e-6;
        result.end_temp_c = self.thermal.temp_c();
        if self.obs.enabled() {
            self.obs.emit(Event::DeviceRun {
                ops: schedule.len(),
                duration_us: result.duration_us,
                energy_aicore_j: result.energy_aicore_j,
                energy_soc_j: result.energy_soc_j,
                setfreq_applied: result.freq_trace.len() - 1,
                end_temp_c: result.end_temp_c,
            });
            if let Some(summary) = summarize(&result.telemetry) {
                self.obs.emit(Event::TelemetrySummarized {
                    mean_aicore_w: summary.mean_aicore_w,
                    mean_soc_w: summary.mean_soc_w,
                    mean_temp_c: summary.mean_temp_c,
                    samples: result.telemetry.len(),
                });
            }
        }
        Ok(result)
    }

    /// The power constants of the effective configuration at the current
    /// frequency.
    fn power_constants(&self, uncore_floor_w: f64) -> PowerConstants {
        PowerConstants::new(&self.eff, self.freq, uncore_floor_w)
    }

    /// Draws one telemetry sample stamped `t_us` (sensor offsets from the
    /// boundary hook are evaluated at the sample's own timestamp).
    fn sample(&mut self, t_us: f64, p_ai: f64, p_soc: f64) -> TelemetrySample {
        let aicore_w = p_ai * self.noise.factor(self.cfg.power_noise_sd);
        let soc_w = p_soc * self.noise.factor(self.cfg.power_noise_sd);
        let mut temp_c = self.thermal.temp_c() + self.noise.normal(0.0, self.cfg.temp_noise_sd_c);
        if let Some(h) = &self.hook {
            temp_c += h.with(|hk| hk.temp_offset_c(t_us));
        }
        TelemetrySample {
            t_us,
            aicore_w,
            soc_w,
            temp_c,
        }
    }

    /// Dispatches one `SetFreq` toward the pending-apply queue, consulting
    /// the boundary hook for its fate. Applies insert in apply-time order:
    /// injected extra delays could otherwise reorder the queue.
    fn dispatch_setfreq(
        &mut self,
        target: FreqMhz,
        attempt: u32,
        pending: &mut VecDeque<(f64, FreqMhz)>,
        retries: &mut Vec<RetryEntry>,
        options: &RunOptions,
    ) {
        let fate = match &self.hook {
            Some(h) => h.with(|hk| hk.on_setfreq(self.clock_us, target, attempt)),
            None => SetFreqFate::healthy(),
        };
        match fate {
            SetFreqFate::Apply { extra_delay_us } => {
                let extra = extra_delay_us.max(0.0);
                if extra > 0.0 && self.obs.enabled() {
                    self.obs.emit(Event::FaultInjected {
                        kind: "setfreq_delay".to_owned(),
                        at_us: self.clock_us,
                        magnitude: extra,
                    });
                }
                let at = self.clock_us + self.cfg.setfreq_latency_us + extra;
                let pos = pending.partition_point(|&(t, _)| t <= at);
                pending.insert(pos, (at, target));
            }
            SetFreqFate::Drop => {
                if self.obs.enabled() {
                    self.obs.emit(Event::FaultInjected {
                        kind: "setfreq_drop".to_owned(),
                        at_us: self.clock_us,
                        magnitude: 0.0,
                    });
                }
            }
            SetFreqFate::Reject => {
                let retry = options.setfreq_retry.filter(|r| attempt < r.max_attempts);
                self.obs.emit(Event::SetFreqRejected {
                    at_us: self.clock_us,
                    freq_mhz: target.mhz(),
                    attempt,
                    will_retry: retry.is_some(),
                });
                if let Some(r) = retry {
                    let exp = i32::try_from(attempt.saturating_sub(1)).unwrap_or(i32::MAX);
                    let backoff = r.backoff_us * r.backoff_multiplier.powi(exp);
                    retries.push(RetryEntry {
                        not_before: self.clock_us + backoff.max(0.0),
                        target,
                        attempt: attempt + 1,
                    });
                }
            }
        }
    }

    /// Re-dispatches rejected commands whose backoff has expired, in the
    /// order they were first rejected. Called at operator boundaries, so
    /// retry granularity is one operator.
    fn flush_due_retries(
        &mut self,
        retries: &mut Vec<RetryEntry>,
        pending: &mut VecDeque<(f64, FreqMhz)>,
        options: &RunOptions,
    ) {
        if retries.is_empty() {
            return;
        }
        let mut due = Vec::new();
        retries.retain(|e| {
            if e.not_before <= self.clock_us {
                due.push(*e);
                false
            } else {
                true
            }
        });
        for e in due {
            self.dispatch_setfreq(e.target, e.attempt, pending, retries, options);
        }
    }

    /// Routes one telemetry sample through the boundary hook (if any) into
    /// `out`, emitting a fault event when the hook tampers with or drops it.
    fn push_telemetry(&self, sample: TelemetrySample, out: &mut Vec<TelemetrySample>) {
        let Some(h) = &self.hook else {
            out.push(sample);
            return;
        };
        match h.with(|hk| hk.on_telemetry(sample)) {
            SampleFate::Keep(s) => out.push(s),
            SampleFate::Tampered(s, kind) => {
                if self.obs.enabled() {
                    self.obs.emit(Event::FaultInjected {
                        kind: kind.to_owned(),
                        at_us: sample.t_us,
                        magnitude: s.soc_w - sample.soc_w,
                    });
                }
                out.push(s);
            }
            SampleFate::Lost => {
                if self.obs.enabled() {
                    self.obs.emit(Event::FaultInjected {
                        kind: "telemetry_drop".to_owned(),
                        at_us: sample.t_us,
                        magnitude: 0.0,
                    });
                }
            }
        }
    }
}

/// A rejected `SetFreq` awaiting re-dispatch.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    not_before: f64,
    target: FreqMhz,
    attempt: u32,
}

/// One operator readied for the device loop: its timing model, its
/// duration at one frequency, and the load terms of its power. A run
/// prepares each operator once; [`Device::warm_until_steady`] prepares
/// each once per map it builds.
#[derive(Debug, Clone)]
struct PreparedOp {
    model: CycleModel,
    /// Activity factor; idle gaps freeze the AICore at 0.
    alpha: f64,
    /// Bytes the operator moves; `None` for host-side operators, which
    /// put no traffic on the uncore.
    traffic_bytes: Option<f64>,
    /// `model.time_us(freq)` at the frequency the op was prepared for.
    freq: FreqMhz,
    time_us: f64,
}

impl PreparedOp {
    fn new(op: &OpDescriptor, cfg: &NpuConfig, uncore_scale: f64, freq: FreqMhz) -> Self {
        let model = CycleModel::with_uncore_scale(op, cfg, uncore_scale);
        Self {
            time_us: model.time_us(freq),
            freq,
            model,
            alpha: if op.class() == OpClass::Idle {
                0.0
            } else {
                op.alpha()
            },
            traffic_bytes: (op.class() == OpClass::Compute).then(|| op.total_traffic_bytes()),
        }
    }

    /// Noise-free duration at `f`, µs.
    fn time_us(&self, f: FreqMhz) -> f64 {
        if f == self.freq {
            self.time_us
        } else {
            self.model.time_us(f)
        }
    }
}

/// Move of the temperature per thermal time constant, °C, below which a
/// warm-up counts as settled.
const WARM_SETTLED_C_PER_TAU: f64 = 0.2;
/// Longest warm-up, in thermal time constants.
const WARM_MAX_TAUS: f64 = 12.0;

/// Rejects telemetry sampling periods that would never advance the
/// sampling clock (zero, negative) or stall it (non-finite).
fn check_sample_period(period_us: f64) -> Result<(), DeviceError> {
    if period_us.is_finite() && period_us > 0.0 {
        Ok(())
    } else {
        Err(DeviceError::InvalidSamplePeriod(period_us))
    }
}

/// Splitmix64-style mix of a base seed and a worker stream index, so
/// forked devices draw statistically independent noise per stream while
/// staying a deterministic function of the parent seed.
fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Scenario;

    fn cfg() -> NpuConfig {
        NpuConfig::ascend_like()
    }

    fn quiet_cfg() -> NpuConfig {
        NpuConfig::builder().noise(0.0, 0.0, 0.0).build().unwrap()
    }

    fn mem_op(name: &str) -> OpDescriptor {
        OpDescriptor::compute(name, Scenario::PingPongIndependent)
            .blocks(8)
            .ld_bytes_per_block(4.0 * 1024.0 * 1024.0)
            .st_bytes_per_block(2.0 * 1024.0 * 1024.0)
            .l2_hit_rate(0.4)
            .core_cycles_per_block(5_000.0)
            .activity(8.0)
    }

    fn compute_op(name: &str) -> OpDescriptor {
        OpDescriptor::compute(name, Scenario::PingPongIndependent)
            .blocks(8)
            .ld_bytes_per_block(128.0 * 1024.0)
            .st_bytes_per_block(64.0 * 1024.0)
            .l2_hit_rate(0.9)
            .core_cycles_per_block(400_000.0)
            .activity(20.0)
    }

    fn small_schedule() -> Schedule {
        Schedule::new(vec![mem_op("Gelu"), compute_op("MatMul"), mem_op("Add")])
    }

    #[test]
    fn run_records_hold_no_spare_capacity() {
        // Three records: a doubling `Vec` would carry a fourth slot.
        let mut dev = Device::new(cfg());
        let r = dev
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records.capacity(), r.records.len());
        let opts = RunOptions::at(FreqMhz::new(1800)).without_records();
        assert_eq!(
            dev.run(&small_schedule(), &opts)
                .unwrap()
                .records
                .capacity(),
            0
        );
    }

    #[test]
    fn run_accumulates_time_and_energy() {
        let mut dev = Device::new(cfg());
        let r = dev
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        assert!(r.duration_us > 0.0);
        assert!(r.energy_aicore_j > 0.0);
        assert!(r.energy_soc_j > r.energy_aicore_j);
        assert_eq!(r.records.len(), 3);
        assert!(r.avg_soc_w() > r.avg_aicore_w());
    }

    #[test]
    fn lower_frequency_is_slower() {
        let mut d1 = Device::with_seed(quiet_cfg(), 1);
        let mut d2 = Device::with_seed(quiet_cfg(), 1);
        let s = small_schedule();
        let hi = d1.run(&s, &RunOptions::at(FreqMhz::new(1800))).unwrap();
        let lo = d2.run(&s, &RunOptions::at(FreqMhz::new(1000))).unwrap();
        assert!(lo.duration_us > hi.duration_us);
    }

    #[test]
    fn lower_frequency_uses_less_aicore_power() {
        let mut d1 = Device::with_seed(quiet_cfg(), 1);
        let mut d2 = Device::with_seed(quiet_cfg(), 1);
        let s = Schedule::new(vec![compute_op("MatMul")]);
        let hi = d1.run(&s, &RunOptions::at(FreqMhz::new(1800))).unwrap();
        let lo = d2.run(&s, &RunOptions::at(FreqMhz::new(1000))).unwrap();
        assert!(lo.avg_aicore_w() < hi.avg_aicore_w());
    }

    #[test]
    fn static_drift_is_bit_identical_to_no_drift() {
        let s = small_schedule();
        let opts = RunOptions::at(FreqMhz::new(1800));
        let mut pristine = Device::with_seed(cfg(), 7);
        let mut static_drift = Device::with_seed(cfg(), 7);
        static_drift.set_drift(DriftModel::none());
        for _ in 0..3 {
            let a = pristine.run(&s, &opts).unwrap();
            let b = static_drift.run(&s, &opts).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(pristine.temp_c().to_bits(), static_drift.temp_c().to_bits());
        assert_eq!(static_drift.effective_config(), static_drift.config());
    }

    #[test]
    fn drift_raises_power_against_a_pristine_twin() {
        // +5 °C/s capped at +10 °C, +25 %/s γ aging capped at +50 %: the
        // caps bind within the first two virtual seconds. Drift costs
        // energy only once the chip heats toward the shifted equilibrium
        // (at the calibrated ambient the γ and θ shifts cancel by
        // construction), so soak both devices through several thermal
        // time constants before comparing.
        let drift = DriftModel::ambient_ramp(5.0, 10.0).with_gamma_aging(0.25, 0.5);
        let mut pristine = Device::with_seed(quiet_cfg(), 3);
        let mut aging = Device::with_seed(quiet_cfg(), 3);
        aging.set_drift(drift);
        let soak_us = 4.0 * quiet_cfg().thermal_tau_us;
        pristine.observe_idle(soak_us, 2_000.0).unwrap();
        aging.observe_idle(soak_us, 2_000.0).unwrap();
        assert!(
            aging.temp_c() > pristine.temp_c() + 5.0,
            "hotter ambient must heat the chip: {} vs {}",
            aging.temp_c(),
            pristine.temp_c()
        );
        let s = small_schedule();
        let opts = RunOptions::at(FreqMhz::new(1800));
        let e_pristine = pristine.run(&s, &opts).unwrap().energy_aicore_j;
        let e_aging = aging.run(&s, &opts).unwrap().energy_aicore_j;
        assert!(
            e_aging > e_pristine * 1.02,
            "aged leakage should cost energy: {e_aging} vs {e_pristine}"
        );
        // The effective view matches the pure drift function of the clock.
        let expect = drift.snapshot(aging.config(), aging.clock_us());
        assert_eq!(aging.effective_config(), &expect);
    }

    #[test]
    fn drift_rewinds_on_reset_and_clears() {
        let mut dev = Device::with_seed(quiet_cfg(), 3);
        dev.set_drift(DriftModel::ambient_ramp(10_000.0, 15.0));
        let _ = dev
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        assert!(dev.effective_config().ambient_c > dev.config().ambient_c);
        dev.reset();
        assert_eq!(dev.effective_config().ambient_c, dev.config().ambient_c);
        assert!(dev.drift().is_some());
        dev.clear_drift();
        assert!(dev.drift().is_none());
        assert_eq!(dev.effective_config(), dev.config());
        // Forks never inherit drift: they are pristine workers.
        let mut drifting = Device::with_seed(quiet_cfg(), 3);
        drifting.set_drift(DriftModel::ambient_ramp(10_000.0, 15.0));
        assert!(drifting.fork(1).drift().is_none());
    }

    #[test]
    fn memory_bound_op_barely_slows_down() {
        // An op saturating the uncore should lose far less time than the
        // frequency ratio when downclocked (the whole premise of LFC).
        let mut d1 = Device::with_seed(quiet_cfg(), 1);
        let mut d2 = Device::with_seed(quiet_cfg(), 1);
        let s = Schedule::new(vec![OpDescriptor::compute(
            "Copy",
            Scenario::PingPongIndependent,
        )
        .blocks(16)
        .ld_bytes_per_block(8.0 * 1024.0 * 1024.0)
        .st_bytes_per_block(8.0 * 1024.0 * 1024.0)
        .l2_hit_rate(0.0)
        .core_cycles_per_block(100.0)]);
        let hi = d1.run(&s, &RunOptions::at(FreqMhz::new(1800))).unwrap();
        let lo = d2.run(&s, &RunOptions::at(FreqMhz::new(1000))).unwrap();
        let slowdown = lo.duration_us / hi.duration_us;
        assert!(slowdown < 1.10, "memory-bound slowdown {slowdown}");
    }

    #[test]
    fn setfreq_applies_after_latency() {
        let cfg = quiet_cfg();
        let latency = cfg.setfreq_latency_us;
        let mut dev = Device::with_seed(cfg, 1);
        // Long schedule so the change lands inside it.
        let ops: Vec<OpDescriptor> = (0..50).map(|i| mem_op(&format!("Op{i}"))).collect();
        let s = Schedule::new(ops);
        let opts = RunOptions::at(FreqMhz::new(1800)).with_setfreq(vec![SetFreqCmd {
            after_op: 0,
            target: FreqMhz::new(1000),
        }]);
        let r = dev.run(&s, &opts).unwrap();
        assert_eq!(r.freq_trace.len(), 2);
        let (t0, f0) = r.freq_trace[0];
        let (t1, f1) = r.freq_trace[1];
        assert_eq!(f0.mhz(), 1800);
        assert_eq!(f1.mhz(), 1000);
        // Applies exactly one latency after the trigger op finished.
        let trigger_end = r.records[0].end_us() + t0;
        assert!((t1 - trigger_end - latency).abs() < 1e-6);
    }

    #[test]
    fn setfreq_rejects_bad_trigger() {
        let mut dev = Device::new(cfg());
        let s = small_schedule();
        let opts = RunOptions::at(FreqMhz::new(1800)).with_setfreq(vec![SetFreqCmd {
            after_op: 99,
            target: FreqMhz::new(1000),
        }]);
        assert_eq!(
            dev.run(&s, &opts).unwrap_err(),
            DeviceError::TriggerOutOfRange { index: 99, len: 3 }
        );
    }

    #[test]
    fn setfreq_rejects_offgrid_frequency() {
        let mut dev = Device::new(cfg());
        let s = small_schedule();
        let opts = RunOptions::at(FreqMhz::new(1800)).with_setfreq(vec![SetFreqCmd {
            after_op: 0,
            target: FreqMhz::new(1234),
        }]);
        assert!(matches!(
            dev.run(&s, &opts),
            Err(DeviceError::UnsupportedFrequency(_))
        ));
    }

    #[test]
    fn run_rejects_offgrid_initial_frequency() {
        let mut dev = Device::new(cfg());
        assert!(matches!(
            dev.run(&small_schedule(), &RunOptions::at(FreqMhz::new(999))),
            Err(DeviceError::UnsupportedFrequency(_))
        ));
    }

    #[test]
    fn device_warms_up_under_load() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        let start = dev.temp_c();
        let ops: Vec<OpDescriptor> = (0..200).map(|i| compute_op(&format!("M{i}"))).collect();
        let _ = dev
            .run(&Schedule::new(ops), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        assert!(dev.temp_c() > start + 1.0, "temp {}", dev.temp_c());
    }

    #[test]
    fn warm_up_of_an_empty_schedule_changes_nothing() {
        let mut dev = Device::with_seed(cfg(), 1);
        let at = FreqMhz::new(1800);
        dev.run(&small_schedule(), &RunOptions::at(at)).unwrap();
        let (temp, clock) = (dev.temp_c(), dev.clock_us());
        assert!(temp > dev.config().ambient_c);
        let idle = Schedule::new(vec![OpDescriptor::idle_gap(0.0)]);
        for s in [Schedule::default(), idle] {
            assert_eq!(dev.warm_until_steady(&s, FreqMhz::new(1000)).unwrap(), temp);
            assert_eq!((dev.temp_c(), dev.clock_us()), (temp, clock));
        }
        assert_eq!(dev.freq(), FreqMhz::new(1000));
    }

    #[test]
    fn warm_up_refuses_a_config_without_steady_state() {
        // Built without the builder, which would refuse it.
        let runaway = NpuConfig {
            k_c_per_w: 5.0,
            ..cfg()
        };
        let mut dev = Device::new(runaway.clone());
        let err = dev
            .warm_until_steady(&small_schedule(), FreqMhz::new(1000))
            .unwrap_err();
        assert_eq!(
            err,
            DeviceError::ThermalRunaway(runaway.thermal_loop_gain())
        );
        assert_eq!((dev.temp_c(), dev.clock_us()), (runaway.ambient_c, 0.0));
    }

    #[test]
    fn warm_up_refuses_drift_past_the_stability_line() {
        // Gain 0.88 at build time; γ aging of up to +50 % lifts it to 1.32
        // a second into the warm-up.
        let cfg = NpuConfig::builder().thermal_coupling(1.0).build().unwrap();
        let aging = DriftModel::none().with_gamma_aging(0.5, 0.5);
        let mut dev = Device::new(cfg.clone());
        dev.set_drift(aging);
        let err = dev
            .warm_until_steady(&small_schedule(), FreqMhz::new(1800))
            .unwrap_err();
        let DeviceError::ThermalRunaway(gain) = err else {
            unreachable!("wrong error: {err}")
        };
        assert!((gain - 1.5 * cfg.thermal_loop_gain()).abs() < 1e-12);
        // The device is left as it was.
        assert_eq!((dev.temp_c(), dev.clock_us()), (cfg.ambient_c, 0.0));
        assert_eq!(dev.effective_config(), &cfg);
        // Milder aging keeps a steady state, which the warm-up reaches.
        dev.set_drift(DriftModel::none().with_gamma_aging(0.05, 0.05));
        let warm = dev
            .warm_until_steady(&small_schedule(), FreqMhz::new(1800))
            .unwrap();
        assert!(warm > cfg.ambient_c && dev.clock_us() > 0.0);
    }

    #[test]
    fn observe_idle_cools_down() {
        // Fast thermal constant so the load reaches its (hot) equilibrium
        // well above the idle equilibrium within a short run.
        let cfg = NpuConfig::builder()
            .noise(0.0, 0.0, 0.0)
            .thermal_tau_us(1.0e5)
            .build()
            .unwrap();
        let mut dev = Device::with_seed(cfg, 1);
        let ops: Vec<OpDescriptor> = (0..200)
            .map(|i| compute_op(&format!("M{i}")).activity(30.0))
            .collect();
        let _ = dev
            .run(&Schedule::new(ops), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        let hot = dev.temp_c();
        let samples = dev.observe_idle(3.0e6, 10_000.0).unwrap();
        assert!(dev.temp_c() < hot);
        assert!(samples.len() > 100);
        // Power decays along with temperature during cool-down.
        assert!(samples.first().unwrap().aicore_w > samples.last().unwrap().aicore_w);
    }

    #[test]
    fn telemetry_sampling_period_respected() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        let ops: Vec<OpDescriptor> = (0..20).map(|i| mem_op(&format!("Op{i}"))).collect();
        let opts = RunOptions::at(FreqMhz::new(1800)).with_telemetry(500.0);
        let r = dev.run(&Schedule::new(ops), &opts).unwrap();
        assert!(!r.telemetry.is_empty());
        for w in r.telemetry.windows(2) {
            assert!((w[1].t_us - w[0].t_us - 500.0).abs() < 1e-6);
        }
    }

    #[test]
    fn run_rejects_a_telemetry_period_that_never_advances() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        for period in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let opts = RunOptions::at(FreqMhz::new(1800)).with_telemetry(period);
            assert!(matches!(
                dev.run(&small_schedule(), &opts),
                Err(DeviceError::InvalidSamplePeriod(p)) if p.to_bits() == period.to_bits()
            ));
        }
        // The period only matters with telemetry on.
        let mut opts = RunOptions::at(FreqMhz::new(1800));
        opts.telemetry_period_us = 0.0;
        assert!(dev.run(&small_schedule(), &opts).is_ok());
    }

    #[test]
    fn observe_idle_rejects_a_period_that_never_advances() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        for period in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            assert!(matches!(
                dev.observe_idle(1_000.0, period),
                Err(DeviceError::InvalidSamplePeriod(_))
            ));
        }
        assert_eq!(
            dev.clock_us(),
            0.0,
            "a rejected call leaves the device idle"
        );
        assert_eq!(dev.observe_idle(1_000.0, 250.0).unwrap().len(), 4);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut dev = Device::new(cfg());
        let _ = dev
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1000)))
            .unwrap();
        assert!(dev.clock_us() > 0.0);
        dev.reset();
        assert_eq!(dev.clock_us(), 0.0);
        assert_eq!(dev.temp_c(), dev.config().ambient_c);
        assert_eq!(dev.freq(), dev.config().freq_table.max());
    }

    #[test]
    fn idle_ops_freeze_aicore_activity() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        let s = Schedule::new(vec![OpDescriptor::idle_gap(10_000.0)]);
        let r = dev.run(&s, &RunOptions::at(FreqMhz::new(1800))).unwrap();
        assert!((r.duration_us - 10_000.0).abs() < 1e-6);
        let idle_w = crate::power::aicore_idle_power(dev.config(), FreqMhz::new(1800));
        assert!((r.avg_aicore_w() - idle_w).abs() / idle_w < 0.02);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let r1 = Device::with_seed(cfg(), 77)
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1500)))
            .unwrap();
        let r2 = Device::with_seed(cfg(), 77)
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1500)))
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn fork_is_cold_silent_and_deterministic() {
        let mut parent = Device::with_seed(cfg(), 77);
        assert_eq!(parent.seed(), 77);
        // Warm the parent so the fork provably ignores transient state.
        let _ = parent
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        let mut f1 = parent.fork(3);
        assert_eq!(f1.clock_us(), 0.0);
        assert_eq!(f1.temp_c(), f1.config().ambient_c);
        assert!(f1.hook().is_none());
        assert!(!f1.observer().enabled());
        // Same stream forks behave identically; different streams draw
        // different noise.
        let mut f2 = Device::with_seed(cfg(), 77).fork(3);
        let r1 = f1
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1500)))
            .unwrap();
        let r2 = f2
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1500)))
            .unwrap();
        assert_eq!(r1, r2);
        let r3 = parent
            .fork(4)
            .run(&small_schedule(), &RunOptions::at(FreqMhz::new(1500)))
            .unwrap();
        assert_ne!(r1, r3);
    }

    #[test]
    fn empty_schedule_is_empty_run() {
        let mut dev = Device::new(cfg());
        let r = dev
            .run(&Schedule::default(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        assert_eq!(r.duration_us, 0.0);
        assert!(r.records.is_empty());
    }

    #[test]
    fn uncore_downclock_slows_memory_ops_and_saves_soc_power() {
        let s = Schedule::new(vec![OpDescriptor::compute(
            "Copy",
            Scenario::PingPongIndependent,
        )
        .blocks(16)
        .ld_bytes_per_block(8.0 * 1024.0 * 1024.0)
        .st_bytes_per_block(8.0 * 1024.0 * 1024.0)
        .l2_hit_rate(0.0)
        .core_cycles_per_block(100.0)]);
        let mut nominal = Device::with_seed(quiet_cfg(), 1);
        let r_nominal = nominal
            .run(&s, &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        let mut slow = Device::with_seed(quiet_cfg(), 1);
        slow.set_uncore_scale(0.7).unwrap();
        let r_slow = slow.run(&s, &RunOptions::at(FreqMhz::new(1800))).unwrap();
        // Memory-bound op stretches roughly inversely with uncore BW.
        let slowdown = r_slow.duration_us / r_nominal.duration_us;
        assert!((1.2..1.5).contains(&slowdown), "slowdown {slowdown}");
        // The uncore's dynamic floor drops.
        assert!(r_slow.avg_soc_w() < r_nominal.avg_soc_w());
    }

    #[test]
    fn uncore_downclock_is_free_for_compute_ops() {
        let s = Schedule::new(vec![compute_op("MatMul")]);
        let mut nominal = Device::with_seed(quiet_cfg(), 1);
        let r_nominal = nominal
            .run(&s, &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        let mut slow = Device::with_seed(quiet_cfg(), 1);
        slow.set_uncore_scale(0.7).unwrap();
        let r_slow = slow.run(&s, &RunOptions::at(FreqMhz::new(1800))).unwrap();
        let slowdown = r_slow.duration_us / r_nominal.duration_us;
        assert!(slowdown < 1.02, "compute-bound slowdown {slowdown}");
        assert!(r_slow.avg_soc_w() < r_nominal.avg_soc_w() - 10.0);
    }

    #[test]
    fn uncore_scale_validated_and_reset() {
        let mut dev = Device::new(cfg());
        assert!(matches!(
            dev.set_uncore_scale(0.2),
            Err(DeviceError::UnsupportedUncoreScale(_))
        ));
        assert!(dev.set_uncore_scale(1.1).is_err());
        dev.set_uncore_scale(0.8).unwrap();
        assert_eq!(dev.uncore_scale(), 0.8);
        dev.reset();
        assert_eq!(dev.uncore_scale(), 1.0);
    }

    #[test]
    fn schedule_collects_from_iterator() {
        let s: Schedule = (0..5).map(|i| mem_op(&format!("Op{i}"))).collect();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn device_error_display_covers_every_variant() {
        let cases: Vec<(DeviceError, &str)> = vec![
            (
                DeviceError::UnsupportedFrequency(FreqMhz::new(123)),
                "not supported",
            ),
            (DeviceError::UnsupportedUncoreScale(0.1), "uncore scale"),
            (
                DeviceError::TriggerOutOfRange { index: 9, len: 3 },
                "out of range",
            ),
            (DeviceError::InvalidSamplePeriod(0.0), "sampling period"),
            (DeviceError::ThermalRunaway(1.3), "no thermal steady state"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    // --- boundary-hook behaviour -------------------------------------

    use crate::hook::{DeviceHook, HookHandle, SampleFate, SetFreqFate};

    fn long_schedule(n: usize) -> Schedule {
        Schedule::new((0..n).map(|i| mem_op(&format!("Op{i}"))).collect())
    }

    fn down_switch(after_op: usize) -> Vec<SetFreqCmd> {
        vec![SetFreqCmd {
            after_op,
            target: FreqMhz::new(1000),
        }]
    }

    #[derive(Debug)]
    struct DropFirst {
        left: usize,
    }
    impl DeviceHook for DropFirst {
        fn on_setfreq(&mut self, _at: f64, _t: FreqMhz, _n: u32) -> SetFreqFate {
            if self.left > 0 {
                self.left -= 1;
                SetFreqFate::Drop
            } else {
                SetFreqFate::healthy()
            }
        }
    }

    #[test]
    fn hook_can_drop_setfreq() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        dev.set_hook(HookHandle::new(DropFirst { left: 1 }));
        let opts = RunOptions::at(FreqMhz::new(1800)).with_setfreq(down_switch(0));
        let r = dev.run(&long_schedule(50), &opts).unwrap();
        // The only dispatch was swallowed: no applies beyond the initial.
        assert_eq!(r.freq_trace.len(), 1);
        assert_eq!(dev.freq().mhz(), 1800);
    }

    #[derive(Debug)]
    struct DelayAll {
        extra_us: f64,
    }
    impl DeviceHook for DelayAll {
        fn on_setfreq(&mut self, _at: f64, _t: FreqMhz, _n: u32) -> SetFreqFate {
            SetFreqFate::Apply {
                extra_delay_us: self.extra_us,
            }
        }
    }

    #[test]
    fn hook_extra_delay_defers_apply() {
        let s = long_schedule(80);
        let opts = RunOptions::at(FreqMhz::new(1800)).with_setfreq(down_switch(0));
        let clean = Device::with_seed(quiet_cfg(), 1).run(&s, &opts).unwrap();
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        dev.set_hook(HookHandle::new(DelayAll { extra_us: 14_000.0 }));
        let faulted = dev.run(&s, &opts).unwrap();
        let (t_clean, _) = clean.freq_trace[1];
        let (t_fault, f_fault) = faulted.freq_trace[1];
        assert_eq!(f_fault.mhz(), 1000);
        assert!((t_fault - t_clean - 14_000.0).abs() < 1e-6);
        // Running 14 ms longer at the hot frequency costs AICore energy
        // (the paper's optimization target; SoC energy also pays the
        // uncore floor for the extra duration at low frequency, so it is
        // not a monotone indicator here).
        assert!(faulted.energy_aicore_j > clean.energy_aicore_j);
    }

    #[derive(Debug)]
    struct RejectFirst {
        left: usize,
    }
    impl DeviceHook for RejectFirst {
        fn on_setfreq(&mut self, _at: f64, _t: FreqMhz, _n: u32) -> SetFreqFate {
            if self.left > 0 {
                self.left -= 1;
                SetFreqFate::Reject
            } else {
                SetFreqFate::healthy()
            }
        }
    }

    #[test]
    fn rejected_setfreq_retries_until_applied() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        dev.set_hook(HookHandle::new(RejectFirst { left: 2 }));
        let opts = RunOptions::at(FreqMhz::new(1800))
            .with_setfreq(down_switch(0))
            .with_setfreq_retry(SetFreqRetry {
                max_attempts: 5,
                backoff_us: 50.0,
                backoff_multiplier: 2.0,
            });
        let r = dev.run(&long_schedule(50), &opts).unwrap();
        // Third attempt succeeds: the target frequency eventually applies.
        assert_eq!(r.freq_trace.last().map(|&(_, f)| f.mhz()), Some(1000));
        assert_eq!(dev.freq().mhz(), 1000);
    }

    #[test]
    fn rejected_setfreq_without_retry_is_lost() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        dev.set_hook(HookHandle::new(RejectFirst { left: 1 }));
        let opts = RunOptions::at(FreqMhz::new(1800)).with_setfreq(down_switch(0));
        let r = dev.run(&long_schedule(50), &opts).unwrap();
        assert_eq!(r.freq_trace.len(), 1);
        assert_eq!(dev.freq().mhz(), 1800);
    }

    #[test]
    fn retry_budget_exhaustion_gives_up() {
        let mut dev = Device::with_seed(quiet_cfg(), 1);
        dev.set_hook(HookHandle::new(RejectFirst { left: usize::MAX }));
        let opts = RunOptions::at(FreqMhz::new(1800))
            .with_setfreq(down_switch(0))
            .with_setfreq_retry(SetFreqRetry {
                max_attempts: 3,
                backoff_us: 10.0,
                backoff_multiplier: 1.0,
            });
        let r = dev.run(&long_schedule(50), &opts).unwrap();
        assert_eq!(r.freq_trace.len(), 1);
    }

    #[derive(Debug)]
    struct Inert;
    impl DeviceHook for Inert {}

    #[test]
    fn inert_hook_is_bit_identical_to_no_hook() {
        let s = long_schedule(30);
        let opts = RunOptions::at(FreqMhz::new(1800))
            .with_setfreq(down_switch(3))
            .with_telemetry(500.0);
        let plain = Device::with_seed(cfg(), 42).run(&s, &opts).unwrap();
        let mut hooked_dev = Device::with_seed(cfg(), 42);
        hooked_dev.set_hook(HookHandle::new(Inert));
        let hooked = hooked_dev.run(&s, &opts).unwrap();
        assert_eq!(plain, hooked);
    }

    #[derive(Debug)]
    struct HotSensor {
        offset_c: f64,
    }
    impl DeviceHook for HotSensor {
        fn temp_offset_c(&mut self, _at: f64) -> f64 {
            self.offset_c
        }
    }

    #[test]
    fn temp_offset_shifts_measurements_not_physics() {
        let s = long_schedule(20);
        let opts = RunOptions::at(FreqMhz::new(1800)).with_telemetry(500.0);
        let clean = Device::with_seed(quiet_cfg(), 7).run(&s, &opts).unwrap();
        let mut dev = Device::with_seed(quiet_cfg(), 7);
        dev.set_hook(HookHandle::new(HotSensor { offset_c: 10.0 }));
        let hot = dev.run(&s, &opts).unwrap();
        // Measured channels shift by exactly the offset…
        for (a, b) in clean.telemetry.iter().zip(&hot.telemetry) {
            assert!((b.temp_c - a.temp_c - 10.0).abs() < 1e-9);
        }
        assert!((hot.records[0].temp_c - clean.records[0].temp_c - 10.0).abs() < 1e-9);
        // …while true thermal state and energy are untouched.
        assert_eq!(clean.end_temp_c, hot.end_temp_c);
        assert_eq!(clean.energy_soc_j, hot.energy_soc_j);
    }

    #[derive(Debug)]
    struct DropEverySecondSample {
        n: usize,
    }
    impl DeviceHook for DropEverySecondSample {
        fn on_telemetry(&mut self, sample: TelemetrySample) -> SampleFate {
            self.n += 1;
            if self.n.is_multiple_of(2) {
                SampleFate::Lost
            } else {
                SampleFate::Keep(sample)
            }
        }
    }

    #[test]
    fn telemetry_dropout_thins_the_stream() {
        let s = long_schedule(20);
        let opts = RunOptions::at(FreqMhz::new(1800)).with_telemetry(500.0);
        let clean = Device::with_seed(quiet_cfg(), 7).run(&s, &opts).unwrap();
        let mut dev = Device::with_seed(quiet_cfg(), 7);
        dev.set_hook(HookHandle::new(DropEverySecondSample { n: 0 }));
        let lossy = dev.run(&s, &opts).unwrap();
        assert_eq!(lossy.telemetry.len(), clean.telemetry.len().div_ceil(2));
    }
}
