//! Fleet-scale serving: one controller, N drifting devices,
//! cross-device strategy transfer, per-device fault tolerance.
//!
//! The paper optimizes one accelerator; deployments run thousands, each
//! slightly different (manufacturing spread), each drifting on its own
//! schedule, all re-optimizing against the same physics. A
//! [`FleetController`] owns N simulated devices sampled from a seeded
//! [`ConfigSpread`], shards their [`ServeRuntime`] loops across a
//! bounded worker pool, and turns one device's finished search into
//! another's warm start:
//!
//! 1. **Clustering** — devices are grouped by *calibration
//!    fingerprint*: the quantized vector of their power/thermal
//!    coefficients relative to the fleet's base configuration
//!    ([`calibration_fingerprint`]). Two devices in one cluster are
//!    close enough that a strategy searched for one is a near-optimum
//!    for the other.
//! 2. **Publication** — at the end of every epoch the controller
//!    publishes each device's active strategy into the shared
//!    [`ArtifactCache`] under a [`fleet_strategy_key`] (device config +
//!    seed + generation — never aliased). Publication passes a sanity
//!    gate first: a non-finite score or a strategy outside the fleet's
//!    frequency ladder never reaches the board
//!    ([`npu_obs::Event::TransferRejected`]).
//! 3. **Transfer** — before the next epoch, each device is armed with
//!    its nearest *healthy* in-cluster neighbor's published strategy
//!    ([`ServeRuntime::arm_warm_seeds`]). If the device's drift
//!    detector fires that epoch, its re-search scores the transferred
//!    strategy as one more candidate next to the exact solver's answer
//!    and keeps it if it scores higher — [`npu_obs::Event::TransferHit`]. A
//!    re-optimization with nothing transferable falls back to the cold
//!    path — [`npu_obs::Event::TransferMiss`]. A corrupt cached
//!    artifact is rejected, not armed.
//!
//! # Health lifecycle
//!
//! One erroring device must not abort the fleet. Every device carries a
//! [`DeviceHealth`] state:
//!
//! ```text
//!            clean epoch                strikes ≥ quarantine_after
//!   Healthy ◄───────────── Degraded ──────────────────┐
//!      │ strike ▲              ▲ strike               ▼
//!      └────────┘              │              Quarantined ◄────┐
//!                              │                  │            │ probation
//!   (epoch error / crash ──────┼──────────────────┤            │ failed
//!    quarantines directly)     │   wait           ▼            │
//!                              │ quarantine_  Probation ───────┤
//!                              │ epochs           │            │ probations
//!           probation passed   │                  │            │ exhausted
//!   Healthy ◄──────────────────┴──────────────────┘            ▼
//!   (Recovered)                                             Evicted
//! ```
//!
//! A serve-epoch error, a chaos-injected crash, or accumulated strikes
//! (guardrail degradation, fallback mode, a poisoned publication)
//! quarantine a device: it is skipped in serve phases and excluded from
//! the donor board. After [`HealthPolicy::quarantine_epochs`] idle
//! epochs it gets a bounded probation: a fork-seeded shadow check that
//! re-attaches the device's fault plan (if any) and must execute the
//! standing strategy cleanly. Passing rehabilitates the device
//! ([`npu_obs::Event::DeviceRecovered`]); exhausting
//! [`HealthPolicy::max_probations`] evicts it
//! ([`npu_obs::Event::DeviceEvicted`]). The epoch completes whenever at
//! least one device still serves; [`FleetError::TotalLoss`] is returned
//! only when every device has been evicted.
//!
//! # Chaos injection
//!
//! [`FleetController::with_fault_plan`] installs a seeded
//! [`FleetFaultPlan`]: per-device [`npu_fault::FaultPlan`]s hooked at
//! the device boundary plus fleet-scoped faults (crash-at-epoch, hung
//! re-optimization, poisoned publication, corrupted cache entry). An
//! unarmed plan leaves the run bit-identical to a plan-free one.
//!
//! # Determinism
//!
//! Epochs are barriers. Between barriers every device runs pure
//! per-device work (its own device, its own RNG streams, a shared cache
//! whose artifacts are themselves deterministic functions of their
//! keys), so the worker pool can interleave devices arbitrarily without
//! changing any outcome. Everything order-sensitive — arming transfer
//! seeds from the published board, health transitions, emitting events,
//! publishing strategies — happens sequentially at the barrier, in
//! device-index order. The result: [`FleetOutcome::digest`] and every
//! per-device digest are bit-identical at 1, 2 and 8 workers, and a
//! healthy device's digest is bit-identical between a faulted and a
//! fault-free run.

use crate::cache::{fleet_strategy_key, ArtifactCache, Fingerprint, SearchArtifact};
use crate::optimizer::{EnergyOptimizer, OptimizeError, OptimizerConfig};
use crate::serve::{
    degradation_rank, validate_serve_options, ConfigError, ServeOptions, ServeOutcome,
    ServeRuntime, ServeState,
};
use npu_dvfs::{GaOutcome, LossBudget};
use npu_exec::{execute_resilient, Degradation};
use npu_fault::{FaultInjector, FaultPlan, FleetFaultPlan};
use npu_obs::{Event, ObserverHandle};
use npu_power_model::HardwareCalibration;
use npu_sim::par::par_map_ordered;
use npu_sim::{ConfigSpread, Device, DriftModel, FreqMhz, HookHandle, NpuConfig};
use npu_workloads::Workload;
use std::sync::{Arc, Mutex};

/// Components of a device's calibration vector (see
/// [`calibration_vector`]).
pub const CALIB_DIMS: usize = 6;

/// A device's calibration coordinates relative to the fleet base: the
/// fractional deviation of β, θ, γ_aicore, γ_soc and k, plus the
/// absolute ambient offset in °C. This is the space devices are
/// clustered and matched in.
#[must_use]
pub fn calibration_vector(base: &NpuConfig, cfg: &NpuConfig) -> [f64; CALIB_DIMS] {
    let rel = |x: f64, b: f64| if b != 0.0 { x / b - 1.0 } else { x };
    [
        rel(cfg.beta_w_per_ghz_v2, base.beta_w_per_ghz_v2),
        rel(cfg.theta_w_per_v, base.theta_w_per_v),
        rel(cfg.gamma_aicore_w_per_k_v, base.gamma_aicore_w_per_k_v),
        rel(cfg.gamma_soc_w_per_k_v, base.gamma_soc_w_per_k_v),
        rel(cfg.k_c_per_w, base.k_c_per_w),
        cfg.ambient_c - base.ambient_c,
    ]
}

/// Quantizes a calibration vector into a cluster fingerprint: the five
/// fractional coefficients bucketed by `coeff_quant`, the ambient
/// offset by `ambient_quant_c`. Devices with equal fingerprints form a
/// cluster. A pure per-device function — the fingerprint of a device
/// never depends on which other devices exist or in what order they are
/// listed.
#[must_use]
pub fn calibration_fingerprint(
    vector: &[f64; CALIB_DIMS],
    coeff_quant: f64,
    ambient_quant_c: f64,
) -> [i64; CALIB_DIMS] {
    let bucket = |v: f64, q: f64| {
        if q > 0.0 {
            (v / q).round() as i64
        } else {
            0
        }
    };
    let mut fp = [0i64; CALIB_DIMS];
    for (i, &v) in vector.iter().enumerate() {
        let q = if i == CALIB_DIMS - 1 {
            ambient_quant_c
        } else {
            coeff_quant
        };
        fp[i] = bucket(v, q);
    }
    fp
}

/// Assigns each fingerprint a cluster label: the index of the first
/// device with an equal fingerprint. Labels depend on listing order but
/// the induced *partition* (which devices share a cluster) does not —
/// membership is fingerprint equality, a pure pairwise relation.
#[must_use]
pub fn cluster_by_fingerprint(fps: &[[i64; CALIB_DIMS]]) -> Vec<usize> {
    let mut labels = Vec::with_capacity(fps.len());
    for (i, fp) in fps.iter().enumerate() {
        let label = fps[..i].iter().position(|p| p == fp).unwrap_or(i);
        labels.push(label);
    }
    labels
}

/// Fingerprint bucket width of the five fractional calibration
/// coefficients.
const COEFF_QUANT: f64 = 0.05;

/// Fingerprint bucket width of the ambient offset, °C.
const AMBIENT_QUANT_C: f64 = 3.0;

/// Squared distance in calibration space, each axis normalized by its
/// fingerprint bucket width so all six weigh comparably.
fn calibration_distance(a: &[f64; CALIB_DIMS], b: &[f64; CALIB_DIMS]) -> f64 {
    let mut d = 0.0;
    for i in 0..CALIB_DIMS {
        let q = if i == CALIB_DIMS - 1 {
            AMBIENT_QUANT_C
        } else {
            COEFF_QUANT
        };
        let diff = (a[i] - b[i]) / q;
        d += diff * diff;
    }
    d
}

/// A fleet device's health state (see the module docs for the state
/// machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceHealth {
    /// Serving normally.
    Healthy,
    /// Serving, but carrying strikes (fallback mode, guardrail
    /// degradation, or a rejected publication) that have not yet reached
    /// the quarantine threshold.
    Degraded,
    /// Skipped in serve phases and excluded from the donor board,
    /// waiting out [`HealthPolicy::quarantine_epochs`].
    Quarantined,
    /// Running this epoch's bounded shadow check instead of serving.
    Probation,
    /// Permanently removed from the fleet (probation budget exhausted).
    Evicted,
}

impl DeviceHealth {
    /// Stable lowercase name (used in digests and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::Quarantined => "quarantined",
            Self::Probation => "probation",
            Self::Evicted => "evicted",
        }
    }

    /// Whether the device serves epochs in this state.
    #[must_use]
    pub fn serves(self) -> bool {
        matches!(self, Self::Healthy | Self::Degraded)
    }
}

/// Tunables of the health state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Strikes that trip a quarantine (epoch errors and crashes
    /// quarantine immediately, regardless of this count).
    pub quarantine_after: u32,
    /// Idle epochs a quarantined device waits before probation.
    pub quarantine_epochs: usize,
    /// Failed probations before the device is evicted for good.
    pub max_probations: u32,
    /// Shadow iterations a probation check executes.
    pub probation_iterations: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            quarantine_after: 2,
            quarantine_epochs: 1,
            max_probations: 2,
            probation_iterations: 4,
        }
    }
}

/// One device's health trajectory over a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceHealthReport {
    /// Fleet device index.
    pub device: usize,
    /// Final state after the last epoch.
    pub health: DeviceHealth,
    /// State at the end of each epoch, in epoch order.
    pub trajectory: Vec<DeviceHealth>,
    /// Strikes currently on record.
    pub strikes: u32,
    /// Probation attempts consumed.
    pub probations: u32,
    /// Times the device entered quarantine.
    pub quarantines: usize,
    /// Whether the device ever recovered through probation.
    pub recovered: bool,
    /// Display form of the last serve error, if any epoch errored.
    pub last_error: Option<String>,
}

/// A fleet run that could not produce an outcome.
#[derive(Debug)]
pub enum FleetError {
    /// The controller configuration cannot produce a well-defined run.
    Invalid(ConfigError),
    /// Every device has been evicted — there is no fleet left to serve.
    TotalLoss {
        /// Epoch at which the last device was evicted.
        epoch: usize,
        /// The last serve error observed before the fleet died, with its
        /// device index (`None` when devices died without surfacing an
        /// [`OptimizeError`], e.g. via injected crashes alone).
        last_error: Option<(usize, OptimizeError)>,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(e) => write!(f, "invalid fleet configuration: {e}"),
            Self::TotalLoss { epoch, last_error } => {
                write!(f, "total fleet loss at epoch {epoch}")?;
                if let Some((device, e)) = last_error {
                    write!(f, " (last error, device {device}: {e})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Invalid(e) => Some(e),
            Self::TotalLoss { last_error, .. } => last_error
                .as_ref()
                .map(|(_, e)| e as &(dyn std::error::Error + 'static)),
        }
    }
}

impl From<ConfigError> for FleetError {
    fn from(e: ConfigError) -> Self {
        Self::Invalid(e)
    }
}

/// What a whole fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-device serve outcomes, in device-index order, with every
    /// epoch's window concatenated (iteration indices are global, swap
    /// and detection counters summed). Quarantined epochs contribute no
    /// iterations.
    pub per_device: Vec<ServeOutcome>,
    /// Content fingerprint over [`Self::device_digests`] — the
    /// bit-identity witness: equal digests ⇔ equal fleet trajectories.
    pub digest: u64,
    /// Per-device content fingerprints of every deterministic field of
    /// the matching [`Self::per_device`] entry. A healthy device's
    /// digest is bit-identical between a faulted and a fault-free run
    /// with the same seeds.
    pub device_digests: Vec<u64>,
    /// Per-device health trajectories, in device-index order.
    pub health: Vec<DeviceHealthReport>,
    /// Distinct calibration clusters in the fleet.
    pub clusters: usize,
    /// Re-optimizations that started from a transferred neighbor
    /// strategy.
    pub transfer_hits: usize,
    /// Re-optimizations that ran cold (nothing transferable).
    pub transfer_misses: usize,
    /// Transfers and publications rejected by the hygiene gates
    /// (unsound strategy, corrupt cached artifact).
    pub transfer_rejections: usize,
    /// Quarantine transitions across the run.
    pub quarantines: usize,
    /// Devices re-admitted through probation across the run.
    pub recoveries: usize,
    /// Devices permanently evicted.
    pub evictions: usize,
    /// Strategy swaps across the fleet.
    pub swaps: usize,
    /// Swaps that ran warm (equals [`Self::transfer_hits`]).
    pub warm_swaps: usize,
    /// Epochs served.
    pub epochs: usize,
    /// Host wall-clock seconds spent inside re-optimization ladders,
    /// summed over devices. Measurement only — schedule-dependent, never
    /// part of [`Self::digest`].
    pub reopt_wall_s: f64,
    /// The share of [`Self::reopt_wall_s`] spent in re-optimizations
    /// that started from transferred warm seeds. Measurement only, like
    /// `reopt_wall_s`; `reopt_wall_s - warm_reopt_wall_s` is the cold
    /// share.
    pub warm_reopt_wall_s: f64,
}

impl FleetOutcome {
    /// Fraction of re-optimizations that were warm-started from a
    /// transfer (0.0 when nothing re-optimized).
    #[must_use]
    pub fn transfer_hit_rate(&self) -> f64 {
        let total = self.transfer_hits + self.transfer_misses;
        if total == 0 {
            0.0
        } else {
            self.transfer_hits as f64 / total as f64
        }
    }

    /// Total iterations served across the fleet.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.per_device.iter().map(|o| o.iterations.len()).sum()
    }

    /// Devices whose final state still serves epochs
    /// ([`DeviceHealth::serves`]).
    #[must_use]
    pub fn healthy_devices(&self) -> usize {
        self.health.iter().filter(|h| h.health.serves()).count()
    }

    /// The per-device digest of device `i`.
    #[must_use]
    pub fn device_digest(&self, i: usize) -> u64 {
        self.device_digests[i]
    }
}

/// One device's standing state between epochs.
#[derive(Debug)]
struct DeviceSlot {
    cfg: NpuConfig,
    seed: u64,
    opt: EnergyOptimizer,
    state: Option<ServeState>,
    /// Donor index + seed strategies armed for this epoch's potential
    /// re-optimization.
    armed_donor: Option<usize>,
    armed_seeds: Vec<Vec<FreqMhz>>,
    /// Epochs concatenated so far.
    merged: Option<ServeOutcome>,
}

/// Internal per-device health bookkeeping (the mutable counterpart of
/// [`DeviceHealthReport`]). Mutated only at sequential barriers.
struct HealthRecord {
    state: DeviceHealth,
    strikes: u32,
    probations: u32,
    quarantines: usize,
    /// Idle epochs accumulated in the current quarantine.
    idle_epochs: usize,
    recovered: bool,
    trajectory: Vec<DeviceHealth>,
    last_error: Option<OptimizeError>,
}

impl HealthRecord {
    fn new() -> Self {
        Self {
            state: DeviceHealth::Healthy,
            strikes: 0,
            probations: 0,
            quarantines: 0,
            idle_epochs: 0,
            recovered: false,
            trajectory: Vec::new(),
            last_error: None,
        }
    }

    fn report(&self, device: usize) -> DeviceHealthReport {
        DeviceHealthReport {
            device,
            health: self.state,
            trajectory: self.trajectory.clone(),
            strikes: self.strikes,
            probations: self.probations,
            quarantines: self.quarantines,
            recovered: self.recovered,
            last_error: self.last_error.as_ref().map(|e| e.to_string()),
        }
    }
}

/// What the parallel phase did for one device this epoch.
enum EpochWork {
    /// The device served (or tried to serve) its window.
    Served(Result<ServeOutcome, OptimizeError>),
    /// A chaos-injected crash: the epoch was never attempted.
    Crashed,
    /// The probation shadow check ran; `true` = passed.
    Probed(bool),
}

/// Owns and serves a fleet of N drifting devices with cross-device
/// strategy transfer and per-device fault tolerance (see the module
/// docs for the protocol). Assembled through its own `with_*` chain,
/// consistent with [`crate::ServeBuilder`] and [`crate::ServiceBuilder`].
///
/// # Examples
///
/// ```no_run
/// use npu_core::FleetController;
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let workload = models::tiny(&cfg);
/// let controller = FleetController::new(cfg, workload)
///     .with_devices(64)
///     .with_epochs(3)
///     .with_workers(8);
/// let fleet = controller.run()?;
/// println!(
///     "{} swaps, {:.0}% transfer hits, {} healthy",
///     fleet.swaps,
///     100.0 * fleet.transfer_hit_rate(),
///     fleet.healthy_devices()
/// );
/// # Ok::<(), npu_core::FleetError>(())
/// ```
#[derive(Debug)]
pub struct FleetController {
    base: NpuConfig,
    workload: Workload,
    devices: usize,
    epochs: usize,
    epoch_iterations: usize,
    workers: usize,
    spread: ConfigSpread,
    fleet_seed: u64,
    drift: DriftModel,
    opts: OptimizerConfig,
    serve: ServeOptions,
    cache: ArtifactCache,
    obs: ObserverHandle,
    transfer: bool,
    health: HealthPolicy,
    fault_plan: Option<FleetFaultPlan>,
}

impl FleetController {
    /// Starts a controller for a fleet of devices varying around `base`,
    /// all serving `workload`. Defaults: 8 devices, 2 epochs of the
    /// serve options' iteration count each, auto worker count, default
    /// [`ConfigSpread`], no drift, transfer on, a fresh in-memory cache,
    /// default [`HealthPolicy`], no fault plan.
    #[must_use]
    pub fn new(base: NpuConfig, workload: Workload) -> Self {
        Self {
            base,
            workload,
            devices: 8,
            epochs: 2,
            epoch_iterations: 0,
            workers: 0,
            spread: ConfigSpread::default(),
            fleet_seed: 0xF1EE7,
            drift: DriftModel::none(),
            opts: OptimizerConfig::default(),
            serve: ServeOptions::default(),
            cache: ArtifactCache::new(),
            obs: ObserverHandle::null(),
            transfer: true,
            health: HealthPolicy::default(),
            fault_plan: None,
        }
    }

    /// Sets the fleet size.
    #[must_use]
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// Sets how many epochs to serve.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the iterations each device serves per epoch (`0`, the
    /// default, uses [`ServeOptions::iterations`]).
    #[must_use]
    pub fn with_epoch_iterations(mut self, iterations: usize) -> Self {
        self.epoch_iterations = iterations;
        self
    }

    /// Sets the worker pool size (`0` = auto-detect via
    /// [`npu_sim::par::resolve_threads`]). Worker count changes wall time
    /// only, never any outcome.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-device configuration/drift spread.
    #[must_use]
    pub fn with_spread(mut self, spread: ConfigSpread) -> Self {
        self.spread = spread;
        self
    }

    /// Sets the fleet seed every per-device sample and noise stream
    /// derives from.
    #[must_use]
    pub fn with_fleet_seed(mut self, seed: u64) -> Self {
        self.fleet_seed = seed;
        self
    }

    /// Sets the base drift model (each device gets a rate-scaled variant
    /// via [`ConfigSpread::sample_drift`]).
    #[must_use]
    pub fn with_drift(mut self, drift: DriftModel) -> Self {
        self.drift = drift;
        self
    }

    /// Sets the optimizer configuration every device serves under.
    #[must_use]
    pub fn with_config(mut self, opts: OptimizerConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the serving options every device serves under.
    #[must_use]
    pub fn with_serve_options(mut self, serve: ServeOptions) -> Self {
        self.serve = serve;
        self
    }

    /// Shares an artifact cache across the fleet (searches, transfers
    /// and publications all go through it).
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a structured-event observer. The controller emits
    /// transfer, health and epoch events at epoch barriers, in device
    /// order. Every device's optimizer reports through the same
    /// observer, so its sessions, searches and device runs show
    /// too; those events interleave across workers in schedule order.
    /// Observing never changes the run.
    #[must_use]
    pub fn with_observer(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Enables or disables cross-device strategy transfer (off = every
    /// re-optimization runs the cold oracle-seeded search; the
    /// comparison baseline the fleet bench measures against).
    #[must_use]
    pub fn with_transfer(mut self, transfer: bool) -> Self {
        self.transfer = transfer;
        self
    }

    /// Sets the health state-machine policy.
    #[must_use]
    pub fn with_health_policy(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Installs a seeded fleet fault plan (chaos injection). An unarmed
    /// plan leaves the run bit-identical to no plan at all.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FleetFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The shared artifact cache.
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Validates the controller configuration (the same checks
    /// [`crate::ServeBuilder::try_build`] applies, plus the fleet- and
    /// health-policy counts).
    fn validate(&self) -> Result<(), ConfigError> {
        self.opts.validate()?;
        if self.devices == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.devices",
            });
        }
        if self.epochs == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.epochs",
            });
        }
        validate_serve_options(&self.serve)?;
        if self.health.quarantine_after == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.health.quarantine_after",
            });
        }
        if self.health.max_probations == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.health.max_probations",
            });
        }
        if self.health.probation_iterations == 0 {
            return Err(ConfigError::ZeroCount {
                field: "fleet.health.probation_iterations",
            });
        }
        Ok(())
    }

    /// Serves the configured number of epochs over the whole fleet.
    ///
    /// Device failures do not abort the run: an erroring or faulted
    /// device is quarantined and possibly re-admitted through probation
    /// while the rest of the fleet keeps serving.
    ///
    /// # Errors
    ///
    /// [`FleetError::Invalid`] when the configuration fails validation;
    /// [`FleetError::TotalLoss`] when every device has been evicted.
    pub fn run(&self) -> Result<FleetOutcome, FleetError> {
        self.validate()?;
        let n = self.devices;
        let epoch_iters = if self.epoch_iterations == 0 {
            self.serve.iterations
        } else {
            self.epoch_iterations
        };
        let plan = self
            .fault_plan
            .clone()
            .unwrap_or_else(|| FleetFaultPlan::seeded(0));

        // Materialize the fleet: per-device configuration, drift and
        // noise streams, all pure functions of (spread, base,
        // fleet_seed, index). Devices with an armed fault plan get the
        // injector hooked at their boundary for the whole run.
        let mut slots = Vec::with_capacity(n);
        let mut vectors = Vec::with_capacity(n);
        let mut fps = Vec::with_capacity(n);
        for i in 0..n {
            let cfg = self.spread.sample(&self.base, self.fleet_seed, i);
            let drift = self.spread.sample_drift(&self.drift, self.fleet_seed, i);
            let seed = fleet_device_seed(self.fleet_seed, i);
            let mut dev = Device::with_seed(cfg.clone(), seed);
            dev.set_drift(drift);
            if let Some(dp) = plan.device_plan(i) {
                if dp.is_armed() {
                    install_fault_hook(&mut dev, dp.clone());
                }
            }
            let calib = HardwareCalibration::ground_truth(&cfg);
            vectors.push(calibration_vector(&self.base, &cfg));
            fps.push(calibration_fingerprint(
                &vectors[i],
                COEFF_QUANT,
                AMBIENT_QUANT_C,
            ));
            slots.push(Mutex::new(DeviceSlot {
                cfg,
                seed,
                opt: EnergyOptimizer::new(dev, calib).with_observer(self.obs.clone()),
                state: None,
                armed_donor: None,
                armed_seeds: Vec::new(),
                merged: None,
            }));
        }
        let clusters = cluster_by_fingerprint(&fps);
        let cluster_count = clusters
            .iter()
            .enumerate()
            .filter(|&(i, &l)| l == i)
            .count();
        let cluster_size = |label: usize| clusters.iter().filter(|&&l| l == label).count();

        let mut published: Vec<Option<u64>> = vec![None; n];
        let mut health: Vec<HealthRecord> = (0..n).map(|_| HealthRecord::new()).collect();
        let mut transfer_hits = 0usize;
        let mut transfer_misses = 0usize;
        let mut transfer_rejections = 0usize;
        let mut quarantines = 0usize;
        let mut recoveries = 0usize;
        let mut evictions = 0usize;
        let mut total_swaps = 0usize;
        let mut total_warm = 0usize;

        for epoch in 0..self.epochs {
            // Barrier phase A (sequential, device order): decide each
            // device's work for the epoch, then arm transfer seeds from
            // the board published at the previous barrier — healthy
            // donors only, through the hygiene gate.
            let probing: Vec<bool> = health
                .iter()
                .map(|h| {
                    h.state == DeviceHealth::Quarantined
                        && h.idle_epochs >= self.health.quarantine_epochs
                })
                .collect();
            for i in 0..n {
                if probing[i] {
                    health[i].state = DeviceHealth::Probation;
                }
                let mut slot = lock(&slots[i]);
                slot.armed_donor = None;
                slot.armed_seeds.clear();
                if !self.transfer || !health[i].state.serves() {
                    continue;
                }
                let mut candidates: Vec<usize> = (0..n)
                    .filter(|&j| {
                        j != i
                            && clusters[j] == clusters[i]
                            && published[j].is_some()
                            && health[j].state == DeviceHealth::Healthy
                    })
                    .collect();
                candidates.sort_by(|&a, &b| {
                    let da = calibration_distance(&vectors[i], &vectors[a]);
                    let db = calibration_distance(&vectors[i], &vectors[b]);
                    da.total_cmp(&db).then(a.cmp(&b))
                });
                for j in candidates {
                    let Some(key) = published[j] else { continue };
                    // A counted cache lookup: transfer reads are part
                    // of the fleet's cache-hit economics.
                    match self.cache.try_lookup::<SearchArtifact>(key) {
                        Ok(Some(artifact)) => {
                            if strategy_is_sound(&artifact.outcome, &slot.cfg.freq_table) {
                                slot.armed_seeds = vec![artifact.outcome.strategy.freqs().to_vec()];
                                slot.armed_donor = Some(j);
                                break;
                            }
                            // Defense in depth: the publish gate should
                            // have caught this, but never arm poison.
                            transfer_rejections += 1;
                            published[j] = None;
                            if self.obs.enabled() {
                                self.obs.emit(Event::TransferRejected {
                                    device: i,
                                    donor: j,
                                    reason: "unsound-strategy".to_owned(),
                                });
                            }
                        }
                        Ok(None) => {}
                        Err(_) => {
                            // The cached artifact is unreadable or fails
                            // to decode: reject the donor entry.
                            transfer_rejections += 1;
                            published[j] = None;
                            if self.obs.enabled() {
                                self.obs.emit(Event::TransferRejected {
                                    device: i,
                                    donor: j,
                                    reason: "cache-corrupt".to_owned(),
                                });
                            }
                        }
                    }
                }
            }

            // Parallel phase: serving devices run one epoch window,
            // probation devices run their shadow check, and idle devices
            // (quarantined or evicted) yield `None`. Each device index
            // runs exactly once, so the per-device trajectory is
            // schedule-independent.
            let epoch_work = par_map_ordered(self.workers, n, |i| {
                let record = &health[i];
                if record.state.serves() {
                    if plan.crashes_at(i, epoch) {
                        return Some(EpochWork::Crashed);
                    }
                    let hang = plan.hangs_reopt_at(i, epoch);
                    let mut slot = lock(&slots[i]);
                    Some(EpochWork::Served(self.run_device_epoch(
                        &mut slot,
                        epoch_iters,
                        hang,
                    )))
                } else if record.state == DeviceHealth::Probation {
                    let slot = lock(&slots[i]);
                    Some(EpochWork::Probed(self.run_probation(
                        &slot,
                        plan.device_plan(i),
                        record.probations,
                    )))
                } else {
                    None
                }
            });

            // Barrier phase B (sequential, device order): account
            // transfers, publish through the gate, apply health
            // transitions, emit events.
            let mut epoch_swaps = 0usize;
            let mut epoch_transfers = 0usize;
            for (i, work) in epoch_work.into_iter().enumerate() {
                let record = &mut health[i];
                match work {
                    None => {
                        // Idle: waiting out quarantine, or evicted.
                        if record.state == DeviceHealth::Quarantined {
                            record.idle_epochs += 1;
                        }
                    }
                    Some(EpochWork::Crashed) => {
                        quarantines += 1;
                        quarantine(record, i, epoch, "crash", &mut published, &self.obs);
                    }
                    Some(EpochWork::Served(Err(e))) => {
                        record.last_error = Some(e);
                        quarantines += 1;
                        quarantine(record, i, epoch, "epoch-error", &mut published, &self.obs);
                    }
                    Some(EpochWork::Served(Ok(out))) => {
                        let mut slot = lock(&slots[i]);
                        epoch_swaps += out.swaps;
                        total_swaps += out.swaps;
                        total_warm += out.warm_swaps;
                        if out.swaps > 0 {
                            if out.warm_swaps > 0 {
                                transfer_hits += 1;
                                epoch_transfers += 1;
                                if self.obs.enabled() {
                                    self.obs.emit(Event::TransferHit {
                                        device: i,
                                        donor: slot.armed_donor.unwrap_or(i),
                                        seeds: slot.armed_seeds.len().max(1),
                                    });
                                }
                            } else {
                                transfer_misses += 1;
                                if self.obs.enabled() {
                                    self.obs.emit(Event::TransferMiss {
                                        device: i,
                                        cluster: cluster_size(clusters[i]),
                                    });
                                }
                            }
                        }
                        // Publish through the hygiene gate. A chaos
                        // poison fault corrupts the outgoing artifact,
                        // which the gate must then block at the source.
                        let mut publication_rejected = false;
                        if let Some(state) = &slot.state {
                            let mut outgoing = state.last_search.clone();
                            if plan.poisons_at(i, epoch) {
                                poison_outcome(&mut outgoing);
                            }
                            if strategy_is_sound(&outgoing, &slot.cfg.freq_table) {
                                let key =
                                    fleet_strategy_key(&slot.cfg, slot.seed, state.generation);
                                self.cache.insert(key, SearchArtifact { outcome: outgoing });
                                published[i] = Some(key);
                                if plan.corrupts_at(i, epoch) {
                                    self.corrupt_cache_entry(key);
                                }
                            } else {
                                publication_rejected = true;
                                published[i] = None;
                                transfer_rejections += 1;
                                if self.obs.enabled() {
                                    self.obs.emit(Event::TransferRejected {
                                        device: i,
                                        donor: i,
                                        reason: "unsound-publication".to_owned(),
                                    });
                                }
                            }
                        }
                        // Strikes: fallback mode, guardrail degradation
                        // and rejected publications each add one.
                        let mut strikes = 0u32;
                        if out.fell_back {
                            strikes += 1;
                        }
                        if degradation_rank(&out.degradation) > 0 {
                            strikes += 1;
                        }
                        if publication_rejected {
                            strikes += 1;
                        }
                        if strikes > 0 {
                            record.strikes += strikes;
                            if record.strikes >= self.health.quarantine_after {
                                quarantines += 1;
                                quarantine(record, i, epoch, "strikes", &mut published, &self.obs);
                            } else {
                                record.state = DeviceHealth::Degraded;
                            }
                        } else {
                            // A clean epoch clears the record.
                            record.strikes = 0;
                            record.state = DeviceHealth::Healthy;
                        }
                        merge_outcome(&mut slot.merged, out);
                    }
                    Some(EpochWork::Probed(pass)) => {
                        record.probations += 1;
                        if self.obs.enabled() {
                            self.obs.emit(Event::DeviceProbation {
                                device: i,
                                epoch,
                                iterations: self.health.probation_iterations,
                            });
                        }
                        if pass {
                            record.state = DeviceHealth::Healthy;
                            record.strikes = 0;
                            record.idle_epochs = 0;
                            record.recovered = true;
                            recoveries += 1;
                            if let Some(st) = &mut lock(&slots[i]).state {
                                st.rehabilitate();
                            }
                            if self.obs.enabled() {
                                self.obs.emit(Event::DeviceRecovered {
                                    device: i,
                                    epoch,
                                    probations: record.probations,
                                });
                            }
                        } else if record.probations >= self.health.max_probations {
                            record.state = DeviceHealth::Evicted;
                            evictions += 1;
                            published[i] = None;
                            if self.obs.enabled() {
                                self.obs.emit(Event::DeviceEvicted {
                                    device: i,
                                    epoch,
                                    probations: record.probations,
                                });
                            }
                        } else {
                            record.state = DeviceHealth::Quarantined;
                            record.idle_epochs = 0;
                        }
                    }
                }
                let state_now = health[i].state;
                health[i].trajectory.push(state_now);
            }
            let serving_now = health.iter().filter(|h| h.state.serves()).count();
            if self.obs.enabled() {
                self.obs.emit(Event::FleetEpoch {
                    epoch,
                    devices: n,
                    swaps: epoch_swaps,
                    transfers: epoch_transfers,
                });
                if serving_now < n {
                    self.obs.emit(Event::EpochDegraded {
                        epoch,
                        healthy: serving_now,
                        devices: n,
                    });
                }
            }
            if health.iter().all(|h| h.state == DeviceHealth::Evicted) {
                let last_error = health
                    .iter_mut()
                    .enumerate()
                    .rev()
                    .find_map(|(i, h)| h.last_error.take().map(|e| (i, e)));
                return Err(FleetError::TotalLoss { epoch, last_error });
            }
        }

        let mut per_device = Vec::with_capacity(n);
        let mut reopt_wall_s = 0.0;
        let mut warm_reopt_wall_s = 0.0;
        for slot in &slots {
            let mut slot = lock(slot);
            reopt_wall_s += slot.state.as_ref().map_or(0.0, |s| s.reopt_wall_s);
            warm_reopt_wall_s += slot.state.as_ref().map_or(0.0, |s| s.warm_reopt_wall_s);
            per_device.push(slot.merged.take().unwrap_or(ServeOutcome {
                iterations: Vec::new(),
                swaps: 0,
                detections: 0,
                fell_back: false,
                warm_swaps: 0,
                degradation: Degradation::None,
            }));
        }
        let device_digests: Vec<u64> = per_device.iter().map(device_digest).collect();
        let digest = fleet_digest(&device_digests);
        Ok(FleetOutcome {
            per_device,
            digest,
            device_digests,
            health: health
                .iter()
                .enumerate()
                .map(|(i, h)| h.report(i))
                .collect(),
            clusters: cluster_count,
            transfer_hits,
            transfer_misses,
            transfer_rejections,
            quarantines,
            recoveries,
            evictions,
            swaps: total_swaps,
            warm_swaps: total_warm,
            epochs: self.epochs,
            reopt_wall_s,
            warm_reopt_wall_s,
        })
    }

    /// One device, one epoch: rebuild a borrowing runtime around the
    /// slot's device, restore its standing state, arm any transfer
    /// seeds, serve the window, detach the state again. `hang_reopt`
    /// arms the chaos hook that makes any ladder attempt fail.
    fn run_device_epoch(
        &self,
        slot: &mut DeviceSlot,
        iterations: usize,
        hang_reopt: bool,
    ) -> Result<ServeOutcome, OptimizeError> {
        let mut rt = ServeRuntime::builder(&mut slot.opt, &self.workload)
            .with_config(self.opts.clone())
            .with_serve_options(self.serve.clone())
            .with_cache(self.cache.clone())
            .assemble();
        rt.set_force_reopt_failure(hang_reopt);
        rt.restore_state(slot.state.take());
        if !slot.armed_seeds.is_empty() {
            rt.arm_warm_seeds(slot.armed_seeds.clone());
        }
        let out = rt.run_epoch(iterations);
        slot.state = rt.take_state();
        out
    }

    /// The bounded probation check: a fork-seeded shadow device frozen
    /// at the live device's drifted configuration (fault hook
    /// re-attached, so a still-faulty device cannot sneak back in) must
    /// execute the standing strategy for
    /// [`HealthPolicy::probation_iterations`] iterations with no error
    /// and no degradation. A device with no standing state has nothing
    /// to validate and fails.
    fn run_probation(&self, slot: &DeviceSlot, plan: Option<&FaultPlan>, attempt: u32) -> bool {
        let Some(st) = &slot.state else { return false };
        let snapshot_cfg = slot.opt.device().drifted_config();
        let seed = slot
            .opt
            .device()
            .fork(0x0BAD_0A00 + u64::from(attempt))
            .seed();
        let mut shadow = Device::with_seed(snapshot_cfg, seed);
        if let Some(dp) = plan {
            if dp.is_armed() {
                install_fault_hook(&mut shadow, dp.clone());
            }
        }
        // The fallback guardrail's latency SLA is baseline-anchored, but
        // an energy-optimal strategy legitimately trades up to the search's
        // allowed performance loss against the baseline — widen the
        // slack to the loss budget's ceiling, or no strategy searched
        // under a loss target could ever pass probation. The clamp keeps
        // the slack finite.
        let mut opts = self.serve.fallback;
        let loss = self.opts.ga.perf_loss_target.clamp(0.0, 0.95);
        if let Some(slack) = LossBudget(loss).ceiling(opts.guardrail.sla_slack) {
            opts.guardrail.sla_slack = slack;
        }
        for _ in 0..self.health.probation_iterations {
            match execute_resilient(
                &mut shadow,
                self.workload.schedule(),
                &st.strategy,
                st.baseline_records(),
                &opts,
            ) {
                Ok(r) => {
                    if degradation_rank(&r.outcome.degradation) > 0 {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Chaos corruption of a just-published cache entry: the in-memory
    /// copy is evicted and the persisted artifact (if the cache is
    /// persistent and not degraded) overwritten with garbage, so the
    /// next transfer lookup must reject it.
    fn corrupt_cache_entry(&self, key: u64) {
        self.cache.evict::<SearchArtifact>(key);
        if let Some(path) = self.cache.disk_path::<SearchArtifact>(key) {
            let _ = std::fs::write(path, "corrupted by fleet chaos\n");
        }
    }
}

/// Marks a quarantine transition and removes the device from the donor
/// board.
fn quarantine(
    record: &mut HealthRecord,
    device: usize,
    epoch: usize,
    reason: &str,
    published: &mut [Option<u64>],
    obs: &ObserverHandle,
) {
    record.state = DeviceHealth::Quarantined;
    record.quarantines += 1;
    record.idle_epochs = 0;
    published[device] = None;
    if obs.enabled() {
        obs.emit(Event::DeviceQuarantined {
            device,
            epoch,
            reason: reason.to_owned(),
            strikes: record.strikes,
        });
    }
}

/// Installs `plan` as `dev`'s boundary hook (the same interposition
/// [`npu_fault::FaultyDevice`] uses, without taking device ownership).
fn install_fault_hook(dev: &mut Device, plan: FaultPlan) {
    let injector: Arc<Mutex<dyn npu_sim::DeviceHook>> =
        Arc::new(Mutex::new(FaultInjector::new(plan)));
    dev.set_hook(HookHandle::from_arc(injector));
}

/// The transfer/publication sanity gate: finite score and evaluation,
/// a non-empty strategy, and every frequency supported by the device
/// the strategy is being published for / transferred to.
fn strategy_is_sound(outcome: &GaOutcome, table: &npu_sim::FrequencyTable) -> bool {
    let eval = &outcome.best_eval;
    outcome.best_score.is_finite()
        && eval.time_us.is_finite()
        && eval.aicore_energy_wus.is_finite()
        && eval.soc_energy_wus.is_finite()
        && !outcome.strategy.freqs().is_empty()
        && outcome.strategy.freqs().iter().all(|&f| table.contains(f))
}

/// Chaos poison: wrecks the outgoing publication the way a corrupted
/// scoring pipeline would (non-finite score), which the publish gate
/// must catch.
fn poison_outcome(outcome: &mut GaOutcome) {
    outcome.best_score = f64::NAN;
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-device noise seed: splitmix64 over `(fleet_seed, index)`,
/// stream-separated from [`ConfigSpread`]'s sampling streams.
fn fleet_device_seed(fleet_seed: u64, index: usize) -> u64 {
    let mut x = fleet_seed
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xA076_1D64_78BD_642F);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Appends one epoch window onto a device's accumulated outcome.
fn merge_outcome(merged: &mut Option<ServeOutcome>, window: ServeOutcome) {
    match merged {
        None => *merged = Some(window),
        Some(acc) => {
            acc.iterations.extend(window.iterations);
            acc.swaps += window.swaps;
            acc.detections += window.detections;
            acc.warm_swaps += window.warm_swaps;
            acc.fell_back = window.fell_back;
            if degradation_rank(&window.degradation) > degradation_rank(&acc.degradation) {
                acc.degradation = window.degradation;
            }
        }
    }
}

/// Fingerprints every deterministic field of one device's accumulated
/// outcome. Wall-clock measurements are excluded by construction (they
/// never enter [`ServeOutcome`]).
fn device_digest(out: &ServeOutcome) -> u64 {
    let mut fp = Fingerprint::new("npu-core/fleet-serve/device-digest/v1");
    fp.push_usize(out.iterations.len());
    fp.push_usize(out.swaps);
    fp.push_usize(out.detections);
    fp.push_usize(out.warm_swaps);
    fp.push_bool(out.fell_back);
    fp.push_u64(u64::from(degradation_rank(&out.degradation)));
    if let Degradation::Retried { reruns } = &out.degradation {
        fp.push_u64(u64::from(*reruns));
    }
    if let Degradation::PinnedStages { stages } = &out.degradation {
        for s in stages {
            fp.push_usize(*s);
        }
    }
    for it in &out.iterations {
        fp.push_usize(it.index);
        fp.push_usize(it.generation);
        fp.push_f64(it.time_us);
        fp.push_f64(it.aicore_energy_wus);
        fp.push_f64(it.soc_energy_wus);
        fp.push_f64(it.temp_c);
        match it.drift_score {
            Some(s) => {
                fp.push_bool(true);
                fp.push_f64(s);
            }
            None => fp.push_bool(false),
        }
    }
    fp.finish()
}

/// Combines the per-device digests into the fleet digest.
fn fleet_digest(device_digests: &[u64]) -> u64 {
    let mut fp = Fingerprint::new("npu-core/fleet-serve/digest/v2");
    fp.push_usize(device_digests.len());
    for &d in device_digests {
        fp.push_u64(d);
    }
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_vector_is_zero_at_base() {
        let base = NpuConfig::ascend_like();
        let v = calibration_vector(&base, &base);
        assert_eq!(v, [0.0; CALIB_DIMS]);
        assert_eq!(calibration_fingerprint(&v, 0.05, 3.0), [0i64; CALIB_DIMS]);
    }

    #[test]
    fn fingerprint_buckets_split_and_merge() {
        let base = NpuConfig::ascend_like();
        let mut near = base.clone();
        near.beta_w_per_ghz_v2 *= 1.01; // inside a 5 % bucket
        let mut far = base.clone();
        far.beta_w_per_ghz_v2 *= 1.40; // far outside
        let fp_base = calibration_fingerprint(&calibration_vector(&base, &base), 0.05, 3.0);
        let fp_near = calibration_fingerprint(&calibration_vector(&base, &near), 0.05, 3.0);
        let fp_far = calibration_fingerprint(&calibration_vector(&base, &far), 0.05, 3.0);
        assert_eq!(fp_base, fp_near);
        assert_ne!(fp_base, fp_far);
    }

    #[test]
    fn clustering_labels_by_first_equal_fingerprint() {
        let a = [0i64, 0, 0, 0, 0, 0];
        let b = [1i64, 0, 0, 0, 0, 0];
        let labels = cluster_by_fingerprint(&[a, b, a, b, a]);
        assert_eq!(labels, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn distance_prefers_the_closer_neighbor() {
        let me = [0.0; CALIB_DIMS];
        let near = [0.01, 0.0, 0.0, 0.0, 0.0, 0.5];
        let far = [0.04, 0.01, 0.0, 0.0, 0.0, 2.0];
        assert!(calibration_distance(&me, &near) < calibration_distance(&me, &far));
    }

    #[test]
    fn merge_concatenates_windows() {
        let it = |index| crate::serve::ServeIteration {
            index,
            generation: 0,
            time_us: 1.0,
            aicore_energy_wus: 1.0,
            soc_energy_wus: 2.0,
            temp_c: 50.0,
            drift_score: None,
        };
        let w1 = ServeOutcome {
            iterations: vec![it(0), it(1)],
            swaps: 1,
            detections: 1,
            fell_back: false,
            warm_swaps: 0,
            degradation: Degradation::Baseline,
        };
        let w2 = ServeOutcome {
            iterations: vec![it(2)],
            swaps: 1,
            detections: 2,
            fell_back: false,
            warm_swaps: 1,
            degradation: Degradation::Retried { reruns: 1 },
        };
        let mut merged = None;
        merge_outcome(&mut merged, w1);
        merge_outcome(&mut merged, w2);
        let m = merged.unwrap();
        assert_eq!(m.iterations.len(), 3);
        assert_eq!(m.swaps, 2);
        assert_eq!(m.detections, 3);
        assert_eq!(m.warm_swaps, 1);
        // The worst rung wins the merge, regardless of arrival order.
        assert_eq!(m.degradation, Degradation::Baseline);
    }

    #[test]
    fn health_states_name_and_serve() {
        assert!(DeviceHealth::Healthy.serves());
        assert!(DeviceHealth::Degraded.serves());
        assert!(!DeviceHealth::Quarantined.serves());
        assert!(!DeviceHealth::Probation.serves());
        assert!(!DeviceHealth::Evicted.serves());
        assert_eq!(DeviceHealth::Quarantined.name(), "quarantined");
    }

    #[test]
    fn sound_strategy_gate_rejects_poison() {
        use npu_dvfs::{DvfsStrategy, Evaluation, Stage, StageKind};
        let allowed = npu_sim::FrequencyTable::ascend_default();
        let stage = Stage {
            start_us: 0.0,
            dur_us: 10.0,
            op_range: 0..1,
            kind: StageKind::Hfc,
        };
        let strategy = DvfsStrategy::new(vec![stage.clone()], vec![FreqMhz::new(1000)]);
        let outcome = GaOutcome {
            strategy: strategy.clone(),
            best_eval: Evaluation {
                time_us: 10.0,
                aicore_energy_wus: 1.0,
                soc_energy_wus: 2.0,
            },
            best_score: 1.0,
            score_trace: Vec::new(),
            evaluations: 1,
        };
        assert!(strategy_is_sound(&outcome, &allowed));

        let mut poisoned = outcome.clone();
        poison_outcome(&mut poisoned);
        assert!(!strategy_is_sound(&poisoned, &allowed));

        let mut off_ladder = outcome.clone();
        off_ladder.strategy = DvfsStrategy::new(vec![stage], vec![FreqMhz::new(1)]);
        assert!(!strategy_is_sound(&off_ladder, &allowed));

        let mut bad_eval = outcome;
        bad_eval.best_eval.time_us = f64::INFINITY;
        assert!(!strategy_is_sound(&bad_eval, &allowed));
    }

    #[test]
    fn controller_validation_rejects_zero_counts() {
        let cfg = NpuConfig::ascend_like();
        let workload = npu_workloads::models::tiny(&cfg);
        let err = |c: FleetController| match c.run() {
            Err(FleetError::Invalid(e)) => e,
            other => panic!("expected Invalid, got {other:?}"),
        };
        assert_eq!(
            err(FleetController::new(cfg.clone(), workload.clone()).with_devices(0)),
            ConfigError::ZeroCount {
                field: "fleet.devices"
            }
        );
        assert_eq!(
            err(FleetController::new(cfg.clone(), workload.clone()).with_epochs(0)),
            ConfigError::ZeroCount {
                field: "fleet.epochs"
            }
        );
        assert_eq!(
            err(
                FleetController::new(cfg, workload).with_health_policy(HealthPolicy {
                    quarantine_after: 0,
                    ..HealthPolicy::default()
                })
            ),
            ConfigError::ZeroCount {
                field: "fleet.health.quarantine_after"
            }
        );
    }
}
