//! Optimization-as-a-service front end: bounded admission, deadline
//! shedding, request coalescing, and a deterministic worker pool over
//! the session/cache stack.
//!
//! Clients submit [`OptRequest`]s — workload, device fingerprint,
//! latency budget, priority — and receive [`OptResponse`]s carrying the
//! searched strategy, its predicted energy/EDP and the cache provenance.
//! The layer separates two concerns so both stay exact:
//!
//! 1. **Queueing in virtual time.** Admission, deadline-based load
//!    shedding, priority dispatch and coalescing are simulated on a
//!    discrete-event timeline over a fixed number of *virtual servers*
//!    ([`ServiceBuilder::with_virtual_servers`]). Every queueing
//!    decision — who is admitted, who is shed, who coalesces onto whom,
//!    and every virtual-time latency — is a pure function of the request
//!    stream and the service configuration, independent of the host
//!    machine and of the real worker count.
//! 2. **Strategy computation in real time.** The distinct optimization
//!    problems the timeline admitted are then executed on a real
//!    work-stealing pool ([`npu_sim::par::par_map_ordered`]) against the
//!    shared single-flight [`ArtifactCache`], so the returned strategies
//!    are bit-identical at any worker count while wall-clock throughput
//!    scales.
//!
//! The deterministic load generator ([`generate_load`]) produces seeded
//! open-loop arrivals with Zipf-distributed workload popularity and a
//! configurable duplicate fraction, which is how the service bench
//! drives 10k+ requests through the front end reproducibly.

use crate::cache::{ArtifactCache, Fingerprint};
use crate::optimizer::{EnergyOptimizer, OptimizeError, OptimizerConfig};
use crate::serve::ConfigError;
use npu_dvfs::{DvfsStrategy, Evaluation};
use npu_obs::{Event, ObserverHandle};
use npu_power_model::HardwareCalibration;
use npu_sim::par::par_map_ordered;
use npu_sim::{Device, NpuConfig};
use npu_workloads::Workload;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

/// One optimization request submitted to the service.
#[derive(Debug, Clone)]
pub struct OptRequest {
    /// The workload graph to optimize (shared, not copied per request).
    pub workload: Arc<Workload>,
    /// Device fingerprint: the noise seed of the submitting device.
    /// Requests with the same `(workload, device_seed)` describe the
    /// same optimization problem and are eligible for coalescing.
    pub device_seed: u64,
    /// Open-loop arrival time on the virtual timeline, µs.
    pub arrival_us: f64,
    /// Latency budget, µs: a request still queued this long after its
    /// arrival is shed at dispatch time instead of served.
    pub budget_us: f64,
    /// Dispatch priority — higher dispatches first among queued requests.
    pub priority: u8,
}

impl OptRequest {
    /// The coalescing identity of this request: requests with equal
    /// identities describe the same optimization problem and share one
    /// computation.
    #[must_use]
    pub fn identity(&self) -> u64 {
        let mut fp = Fingerprint::new("npu-core/service-identity/v1");
        fp.push_str(self.workload.name());
        fp.push_usize(self.workload.op_count());
        fp.push_u64(self.device_seed);
        fp.finish()
    }
}

/// How a completed request obtained its strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// This request led its flight: a full session ran for it.
    Computed,
    /// The request coalesced onto an identical in-flight request and
    /// blocked until that leader's result was published.
    Coalesced,
    /// The identity had already completed earlier; the response was
    /// served warm from the cache.
    Cached,
}

impl Provenance {
    /// Stable lowercase slug used in events and bench output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Computed => "computed",
            Self::Coalesced => "coalesced",
            Self::Cached => "cached",
        }
    }
}

/// Why a request was rejected instead of served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The bounded admission queue was full when the request arrived.
    QueueFull {
        /// Queue depth at the rejection (the configured capacity).
        depth: usize,
    },
    /// The request waited past its latency budget and was shed at
    /// dispatch time (serving it would only return a useless, late
    /// response while holding a server).
    Shedding {
        /// The budget the wait exceeded, µs.
        budget_us: f64,
    },
}

impl RejectReason {
    /// Stable lowercase slug used in events and bench output.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::QueueFull { .. } => "queue-full",
            Self::Shedding { .. } => "shedding",
        }
    }
}

/// One served optimization request.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResponse {
    /// Request index in arrival order (0-based).
    pub request: u64,
    /// The searched DVFS strategy.
    pub strategy: DvfsStrategy,
    /// Predicted evaluation of the strategy (time + energies).
    pub predicted: Evaluation,
    /// Predicted energy-delay product, W·µs² (AICore energy × time).
    pub predicted_edp: f64,
    /// How the strategy was obtained.
    pub provenance: Provenance,
    /// Virtual-time latency from arrival to completion, µs.
    pub latency_us: f64,
}

/// The service's verdict on one submitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// The request was served.
    Completed(OptResponse),
    /// The request was rejected.
    Rejected {
        /// Request index in arrival order (0-based).
        request: u64,
        /// Why it was rejected.
        reason: RejectReason,
        /// Virtual time it waited before the rejection, µs.
        waited_us: f64,
    },
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

// Virtual-time costs of the admission simulation: what a cold session
// and a warm cache hit cost on the request timeline. These are modeling
// constants (they shape queueing, shedding and coalescing), not
// measurements — the real sessions run afterwards at wall-clock speed.

/// Fixed virtual cost of a cold session (profile + fit + search), µs.
const COLD_BASE_US: f64 = 20_000.0;
/// Additional virtual cold cost per workload operator, µs.
const COLD_PER_OP_US: f64 = 40.0;
/// Virtual cost of serving a warm identity from the cache, µs.
const WARM_US: f64 = 60.0;

/// Virtual cost of a cold session over `workload`, µs.
fn cold_us(workload: &Workload) -> f64 {
    COLD_BASE_US + COLD_PER_OP_US * workload.op_count() as f64
}

/// Builder for an [`OptService`], consistent with the `with_*` style of
/// [`crate::ServeBuilder`].
#[derive(Debug)]
pub struct ServiceBuilder {
    cfg: NpuConfig,
    calib: Option<HardwareCalibration>,
    opts: OptimizerConfig,
    cache: ArtifactCache,
    obs: ObserverHandle,
    workers: usize,
    queue_capacity: usize,
    virtual_servers: usize,
    coalescing: bool,
    isolated_sessions: bool,
}

impl ServiceBuilder {
    /// Starts a builder for a service over devices of `cfg`, with
    /// default optimizer options, ground-truth calibration, a fresh
    /// in-memory cache, a null observer, auto-detected workers, a
    /// 64-deep admission queue, 8 virtual servers and coalescing on.
    #[must_use]
    pub fn new(cfg: NpuConfig) -> Self {
        Self {
            cfg,
            calib: None,
            opts: OptimizerConfig::default(),
            cache: ArtifactCache::new(),
            obs: ObserverHandle::null(),
            workers: 0,
            queue_capacity: 64,
            virtual_servers: 8,
            coalescing: true,
            isolated_sessions: false,
        }
    }

    /// Sets the hardware calibration sessions optimize against
    /// (defaults to the configuration's ground truth).
    #[must_use]
    pub fn with_calibration(mut self, calib: HardwareCalibration) -> Self {
        self.calib = Some(calib);
        self
    }

    /// Sets the optimizer configuration applied to every request.
    #[must_use]
    pub fn with_config(mut self, opts: OptimizerConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Shares an artifact cache (e.g. a persistent or already-warm one).
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a structured-event observer: the front end emits
    /// [`Event::RequestAdmitted`] / [`Event::RequestRejected`] /
    /// [`Event::RequestCoalesced`] / [`Event::RequestCompleted`], and
    /// the sessions underneath report through the same handle.
    #[must_use]
    pub fn with_observer(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the real worker-pool size (`0` = auto-detect). Changes wall
    /// time only, never any response.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission-queue capacity; arrivals beyond it are
    /// rejected with [`RejectReason::QueueFull`].
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the number of virtual servers the admission timeline
    /// dispatches onto. Part of the service's deterministic semantics
    /// (unlike [`Self::with_workers`], which is an execution detail).
    #[must_use]
    pub fn with_virtual_servers(mut self, servers: usize) -> Self {
        self.virtual_servers = servers;
        self
    }

    /// Enables or disables request coalescing (on by default). With
    /// coalescing off, identical concurrent requests each occupy a
    /// server for a full cold session — the baseline the service bench
    /// measures against.
    #[must_use]
    pub fn with_coalescing(mut self, on: bool) -> Self {
        self.coalescing = on;
        self
    }

    /// Runs every request as an isolated session with no shared cache —
    /// the pre-service status quo where each caller pays the full
    /// pipeline. Implies nothing about coalescing; disable both for the
    /// honest baseline.
    #[must_use]
    pub fn with_isolated_sessions(mut self, on: bool) -> Self {
        self.isolated_sessions = on;
        self
    }

    /// Validates the configuration, then assembles the service.
    ///
    /// # Errors
    ///
    /// Any [`OptimizerConfig::validate`] error;
    /// [`ConfigError::ZeroCount`] for a zero queue capacity or zero
    /// virtual servers.
    pub fn try_build(self) -> Result<OptService, ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroCount {
                field: "service.queue_capacity",
            });
        }
        if self.virtual_servers == 0 {
            return Err(ConfigError::ZeroCount {
                field: "service.virtual_servers",
            });
        }
        self.opts.validate()?;
        let calib = self
            .calib
            .unwrap_or_else(|| HardwareCalibration::ground_truth(&self.cfg));
        Ok(OptService {
            cfg: self.cfg,
            calib,
            opts: self.opts,
            cache: self.cache,
            obs: self.obs,
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            virtual_servers: self.virtual_servers,
            coalescing: self.coalescing,
            isolated_sessions: self.isolated_sessions,
        })
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The request-serving façade over the session/cache stack. Construct
/// through [`OptService::builder`]; drive with [`OptService::run`].
///
/// # Examples
///
/// ```no_run
/// use npu_core::service::{generate_load, LoadSpec, OptService};
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let service = OptService::builder(cfg.clone()).try_build()?;
/// let catalog = [models::tiny(&cfg), models::tanh_loop(&cfg, 12)];
/// let load = generate_load(&catalog, &LoadSpec { requests: 1000, ..LoadSpec::default() });
/// let outcome = service.run(&load)?;
/// println!("completed {}", outcome.metrics.completed);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OptService {
    cfg: NpuConfig,
    calib: HardwareCalibration,
    opts: OptimizerConfig,
    cache: ArtifactCache,
    obs: ObserverHandle,
    workers: usize,
    queue_capacity: usize,
    virtual_servers: usize,
    coalescing: bool,
    isolated_sessions: bool,
}

/// Aggregate counters and latency percentiles for one [`OptService::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMetrics {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests served with a response.
    pub completed: u64,
    /// Completed requests that coalesced onto an in-flight leader.
    pub coalesced: u64,
    /// Completed requests served warm from an earlier completion.
    pub warm: u64,
    /// Requests shed at dispatch for exceeding their latency budget.
    pub shed: u64,
    /// Requests rejected at arrival because the queue was full.
    pub queue_full: u64,
    /// Real optimization sessions executed on the worker pool.
    pub sessions: u64,
    /// Median virtual-time latency of completed requests, µs.
    pub p50_latency_us: f64,
    /// 99th-percentile virtual-time latency of completed requests, µs.
    pub p99_latency_us: f64,
    /// Virtual time of the last completion, µs.
    pub makespan_us: f64,
    /// Host wall-clock time of the real execution phase, seconds.
    /// Excluded from [`ServiceOutcome::digest`].
    pub wall_s: f64,
}

/// The result of one [`OptService::run`]: per-request dispositions in
/// arrival order plus the aggregate metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// One disposition per submitted request, in arrival order.
    pub dispositions: Vec<Disposition>,
    /// Aggregate counters and latency percentiles.
    pub metrics: ServiceMetrics,
}

impl ServiceOutcome {
    /// A content fingerprint of every response and rejection (strategy
    /// bits, evaluation bits, provenance, virtual latencies). Covers
    /// everything the service's determinism contract promises — equal
    /// digests at 1/2/8 workers — and deliberately excludes wall-clock
    /// measurements.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fp = Fingerprint::new("npu-core/service-digest/v1");
        fp.push_usize(self.dispositions.len());
        for d in &self.dispositions {
            match d {
                Disposition::Completed(r) => {
                    fp.push_str("done");
                    fp.push_u64(r.request);
                    fp.push_str(r.provenance.as_str());
                    fp.push_f64(r.latency_us);
                    fp.push_f64(r.predicted.time_us);
                    fp.push_f64(r.predicted.aicore_energy_wus);
                    fp.push_f64(r.predicted.soc_energy_wus);
                    fp.push_f64(r.predicted_edp);
                    fp.push_usize(r.strategy.freqs().len());
                    for f in r.strategy.freqs() {
                        fp.push_u64(u64::from(f.mhz()));
                    }
                }
                Disposition::Rejected {
                    request,
                    reason,
                    waited_us,
                } => {
                    fp.push_str("reject");
                    fp.push_u64(*request);
                    fp.push_str(reason.as_str());
                    fp.push_f64(*waited_us);
                }
            }
        }
        fp.finish()
    }
}

/// The discrete-event admission simulation. Virtual servers are modeled
/// as free-at times; the queue holds request indices; dispatch order is
/// priority-descending, then arrival, then index.
///
/// The timeline writes each request's [`Disposition`] as it decides it.
/// A completed response carries its provenance and virtual latency but
/// an empty strategy and a zero prediction: [`OptService::run`] fills
/// those in from the session results.
struct AdmissionSim<'a> {
    requests: &'a [OptRequest],
    obs: &'a ObserverHandle,
    coalescing: bool,
    isolated: bool,
    capacity: usize,
    servers: Vec<f64>,
    queue: Vec<usize>,
    /// identity → (completion time, leader request index) of the
    /// in-flight computation.
    inflight: HashMap<u64, (f64, u64)>,
    /// identity → completion time of the first finished computation.
    done_at: HashMap<u64, f64>,
    /// One per request that has arrived, in arrival order. A queued
    /// request holds a placeholder until its dispatch decides it.
    dispositions: Vec<Disposition>,
    /// Virtual time of the last completion.
    makespan_us: f64,
    /// The strategy a completed response holds until it is filled in.
    pending: DvfsStrategy,
}

impl<'a> AdmissionSim<'a> {
    fn new(
        requests: &'a [OptRequest],
        obs: &'a ObserverHandle,
        coalescing: bool,
        isolated: bool,
        capacity: usize,
        servers: usize,
    ) -> Self {
        Self {
            requests,
            obs,
            coalescing,
            isolated,
            capacity,
            servers: vec![0.0; servers],
            queue: Vec::new(),
            inflight: HashMap::new(),
            done_at: HashMap::new(),
            dispositions: Vec::with_capacity(requests.len()),
            makespan_us: 0.0,
            pending: DvfsStrategy::new(Vec::new(), Vec::new()),
        }
    }

    /// Runs the timeline: every request's disposition in arrival order,
    /// and the virtual time of the last completion.
    fn run(mut self) -> (Vec<Disposition>, f64) {
        for i in 0..self.requests.len() {
            let arrival = self.requests[i].arrival_us;
            self.drain(arrival);
            if self.queue.len() >= self.capacity {
                self.dispositions.push(Disposition::Rejected {
                    request: i as u64,
                    reason: RejectReason::QueueFull {
                        depth: self.queue.len(),
                    },
                    waited_us: 0.0,
                });
                if self.obs.enabled() {
                    self.obs.emit(Event::RequestRejected {
                        request: i as u64,
                        reason: "queue-full".to_owned(),
                        waited_us: 0.0,
                    });
                }
                continue;
            }
            // Placeholder: `drain` decides every queued request.
            self.dispositions.push(Disposition::Rejected {
                request: i as u64,
                reason: RejectReason::Shedding { budget_us: 0.0 },
                waited_us: 0.0,
            });
            self.queue.push(i);
            if self.obs.enabled() {
                self.obs.emit(Event::RequestAdmitted {
                    request: i as u64,
                    queue_depth: self.queue.len(),
                });
            }
            self.drain(arrival);
        }
        self.drain(f64::INFINITY);
        assert!(self.queue.is_empty(), "every request got a verdict");
        (self.dispositions, self.makespan_us)
    }

    /// Dispatches queued requests while a server frees up no later than
    /// `now`.
    fn drain(&mut self, now: f64) {
        while !self.queue.is_empty() {
            let (server, free_at) = self
                .servers
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(i, &t)| (i, t))
                .expect("virtual_servers >= 1");
            if free_at > now {
                return;
            }
            // Priority descending, then arrival, then index — scanned,
            // not heap-ordered, so ties break identically everywhere.
            let pos = self
                .queue
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    let ra = &self.requests[a];
                    let rb = &self.requests[b];
                    rb.priority
                        .cmp(&ra.priority)
                        .then(ra.arrival_us.total_cmp(&rb.arrival_us))
                        .then(a.cmp(&b))
                })
                .map(|(pos, _)| pos)
                .expect("queue is non-empty");
            let i = self.queue.remove(pos);
            let req = &self.requests[i];
            let start = free_at.max(req.arrival_us);
            let waited = start - req.arrival_us;
            if waited > req.budget_us {
                self.dispositions[i] = Disposition::Rejected {
                    request: i as u64,
                    reason: RejectReason::Shedding {
                        budget_us: req.budget_us,
                    },
                    waited_us: waited,
                };
                if self.obs.enabled() {
                    self.obs.emit(Event::RequestRejected {
                        request: i as u64,
                        reason: "shedding".to_owned(),
                        waited_us: waited,
                    });
                }
                continue; // the server stays free for the next pick
            }
            let identity = req.identity();
            // Promote a finished flight before classifying.
            if let Some(&(completion, _)) = self.inflight.get(&identity) {
                if completion <= start {
                    self.inflight.remove(&identity);
                    self.done_at.entry(identity).or_insert(completion);
                }
            }
            let (completion, provenance) = if !self.isolated && self.done_at.contains_key(&identity)
            {
                (start + WARM_US, Provenance::Cached)
            } else if self.coalescing && !self.isolated {
                match self.inflight.get(&identity) {
                    Some(&(completion, leader)) => {
                        // Follower: blocks on the leader's result, and
                        // holds its server while blocked (exactly what a
                        // single-flight condvar wait does to a worker).
                        if self.obs.enabled() {
                            self.obs.emit(Event::RequestCoalesced {
                                request: i as u64,
                                leader,
                            });
                        }
                        (completion, Provenance::Coalesced)
                    }
                    None => {
                        let completion = start + cold_us(&req.workload);
                        self.inflight.insert(identity, (completion, i as u64));
                        (completion, Provenance::Computed)
                    }
                }
            } else {
                let completion = start + cold_us(&req.workload);
                if !self.isolated {
                    self.inflight
                        .entry(identity)
                        .or_insert((completion, i as u64));
                }
                (completion, Provenance::Computed)
            };
            self.servers[server] = completion;
            self.makespan_us = self.makespan_us.max(completion);
            let latency_us = completion - req.arrival_us;
            self.dispositions[i] = Disposition::Completed(OptResponse {
                request: i as u64,
                strategy: self.pending.clone(),
                predicted: Evaluation {
                    time_us: 0.0,
                    aicore_energy_wus: 0.0,
                    soc_energy_wus: 0.0,
                },
                predicted_edp: 0.0,
                provenance,
                latency_us,
            });
            if self.obs.enabled() {
                self.obs.emit(Event::RequestCompleted {
                    request: i as u64,
                    provenance: provenance.as_str().to_owned(),
                    latency_us,
                });
            }
        }
    }
}

impl OptService {
    /// Starts a [`ServiceBuilder`] for devices of `cfg`.
    #[must_use]
    pub fn builder(cfg: NpuConfig) -> ServiceBuilder {
        ServiceBuilder::new(cfg)
    }

    /// The shared artifact cache (inspect
    /// [`ArtifactCache::flight_stats`] for single-flight counters).
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Serves a request stream: admission → coalesce → dispatch →
    /// respond. Requests must be in non-decreasing `arrival_us` order
    /// (the order [`generate_load`] produces). Returns one disposition
    /// per request, in arrival order, bit-identical at every worker
    /// count.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing session's [`OptimizeError`]
    /// if a real optimization session fails.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not sorted by arrival time.
    pub fn run(&self, load: &[OptRequest]) -> Result<ServiceOutcome, OptimizeError> {
        assert!(
            load.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us),
            "requests must arrive in non-decreasing time order"
        );
        let (mut dispositions, makespan_us) = AdmissionSim::new(
            load,
            &self.obs,
            self.coalescing,
            self.isolated_sessions,
            self.queue_capacity,
            self.virtual_servers,
        )
        .run();

        // Count the dispositions and collect the real work: one session
        // per distinct identity in arrival order, or one per completed
        // request when sessions are isolated. The latency percentiles are
        // taken here, before any session result exists.
        let mut metrics = ServiceMetrics {
            submitted: load.len() as u64,
            admitted: 0,
            completed: 0,
            coalesced: 0,
            warm: 0,
            shed: 0,
            queue_full: 0,
            sessions: 0,
            p50_latency_us: f64::NAN,
            p99_latency_us: f64::NAN,
            makespan_us,
            wall_s: 0.0,
        };
        let mut latencies: Vec<f64> = Vec::new();
        let mut items: Vec<usize> = Vec::new();
        let mut identity_slot: HashMap<u64, usize> = HashMap::new();
        for (i, d) in dispositions.iter().enumerate() {
            let r = match d {
                Disposition::Rejected {
                    reason: RejectReason::QueueFull { .. },
                    ..
                } => {
                    metrics.queue_full += 1;
                    continue;
                }
                Disposition::Rejected {
                    reason: RejectReason::Shedding { .. },
                    ..
                } => {
                    metrics.admitted += 1;
                    metrics.shed += 1;
                    continue;
                }
                Disposition::Completed(r) => r,
            };
            metrics.admitted += 1;
            metrics.completed += 1;
            match r.provenance {
                Provenance::Computed => {}
                Provenance::Coalesced => metrics.coalesced += 1,
                Provenance::Cached => metrics.warm += 1,
            }
            latencies.push(r.latency_us);
            if self.isolated_sessions {
                items.push(i);
            } else if let std::collections::hash_map::Entry::Vacant(e) =
                identity_slot.entry(load[i].identity())
            {
                e.insert(items.len());
                items.push(i);
            }
        }
        // Equal under `total_cmp` means equal bits, so the unstable sort
        // (which needs no scratch buffer) orders exactly as a stable one.
        latencies.sort_unstable_by(f64::total_cmp);
        metrics.p50_latency_us = percentile(&latencies, 0.50);
        metrics.p99_latency_us = percentile(&latencies, 0.99);
        drop(latencies);
        metrics.sessions = items.len() as u64;

        let wall_start = Instant::now();
        let results = self.execute(load, &items)?;
        metrics.wall_s = wall_start.elapsed().as_secs_f64();

        // Fill the completed responses from their sessions' results.
        // Isolated sessions ran one per completed request, in order.
        let mut isolated_slot = 0;
        for (req, d) in load.iter().zip(&mut dispositions) {
            let Disposition::Completed(r) = d else {
                continue;
            };
            let slot = if self.isolated_sessions {
                isolated_slot += 1;
                isolated_slot - 1
            } else {
                identity_slot[&req.identity()]
            };
            let (strategy, predicted) = &results[slot];
            r.strategy = strategy.clone();
            r.predicted = *predicted;
            r.predicted_edp = predicted.aicore_energy_wus * predicted.time_us;
        }
        Ok(ServiceOutcome {
            dispositions,
            metrics,
        })
    }

    /// Runs the distinct sessions on the real work-stealing pool
    /// (results indexed by item slot, bit-identical at any worker
    /// count; the lowest-indexed error wins).
    fn execute(
        &self,
        load: &[OptRequest],
        items: &[usize],
    ) -> Result<Vec<(DvfsStrategy, Evaluation)>, OptimizeError> {
        par_map_ordered(self.workers, items.len(), |slot| {
            let req = &load[items[slot]];
            self.run_one(&req.workload, req.device_seed)
        })
        .into_iter()
        .collect()
    }

    /// One real optimization session through the search stage. Shared
    /// mode attaches the service cache, so identical identities racing
    /// across runs coalesce on the cache's single-flight tables.
    fn run_one(
        &self,
        workload: &Workload,
        device_seed: u64,
    ) -> Result<(DvfsStrategy, Evaluation), OptimizeError> {
        let mut dev = Device::with_seed(self.cfg.clone(), device_seed);
        dev.set_observer(self.obs.clone());
        let mut opt = EnergyOptimizer::new(dev, self.calib);
        let mut session = opt.session(workload, &self.opts);
        if !self.isolated_sessions {
            session.set_cache(self.cache.clone());
        }
        session.search()?;
        let outcome = session.into_ga_outcome().expect("search stage ran");
        Ok((outcome.strategy, outcome.best_eval))
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`NaN` when
/// empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// Parameters of the seeded open-loop load generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Requests to generate.
    pub requests: usize,
    /// RNG seed; equal specs generate identical request streams.
    pub seed: u64,
    /// Mean of the exponential interarrival distribution, µs.
    pub mean_interarrival_us: f64,
    /// Probability a request carries the shared hot device fingerprint
    /// (making it an exact duplicate of every other hot request on the
    /// same workload).
    pub duplicate_fraction: f64,
    /// Zipf skew of workload popularity across the catalog (`0` =
    /// uniform; larger = more concentrated on the first entries).
    pub zipf_s: f64,
    /// Distinct non-hot device fingerprints the generator draws from.
    /// Bounded, as a real device population is — so even "unique"
    /// requests eventually repeat and can be served warm.
    pub unique_pool: usize,
    /// Latency budget stamped on every request, µs.
    pub budget_us: f64,
    /// Priority levels drawn uniformly (`0..priority_levels`).
    pub priority_levels: u8,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            requests: 10_000,
            seed: 9,
            mean_interarrival_us: 150.0,
            duplicate_fraction: 0.7,
            zipf_s: 1.1,
            unique_pool: 24,
            budget_us: 80_000.0,
            priority_levels: 3,
        }
    }
}

/// The device fingerprint shared by "duplicate" requests.
const HOT_SEED: u64 = 0x00F1_EE70;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates a seeded open-loop request stream over `catalog`:
/// exponential interarrivals, Zipf-distributed workload popularity, and
/// `duplicate_fraction` of requests carrying the shared hot device
/// fingerprint (the coalescing/warm-cache target). Deterministic in
/// `spec`; returned sorted by arrival time.
///
/// # Panics
///
/// Panics if `catalog` is empty or `spec.unique_pool` is zero.
#[must_use]
pub fn generate_load(catalog: &[Workload], spec: &LoadSpec) -> Vec<OptRequest> {
    assert!(!catalog.is_empty(), "catalog must not be empty");
    assert!(spec.unique_pool > 0, "unique_pool must be positive");
    let shared: Vec<Arc<Workload>> = catalog.iter().cloned().map(Arc::new).collect();
    // Zipf inverse CDF over catalog ranks: weight(r) = 1 / (r+1)^s.
    let mut cumulative = Vec::with_capacity(shared.len());
    let mut total = 0.0;
    for rank in 0..shared.len() {
        total += 1.0 / ((rank + 1) as f64).powf(spec.zipf_s);
        cumulative.push(total);
    }
    let mut rng = spec.seed ^ 0x005E_ED0F_5EED;
    let mut t = 0.0;
    let mut load = Vec::with_capacity(spec.requests);
    for _ in 0..spec.requests {
        let u = unit(splitmix64(&mut rng));
        t += -(1.0 - u).ln() * spec.mean_interarrival_us;
        let pick = unit(splitmix64(&mut rng)) * total;
        let workload_idx = cumulative
            .iter()
            .position(|&c| pick < c)
            .unwrap_or(shared.len() - 1);
        let device_seed = if unit(splitmix64(&mut rng)) < spec.duplicate_fraction {
            HOT_SEED
        } else {
            let j = splitmix64(&mut rng) % spec.unique_pool as u64;
            HOT_SEED ^ (1 << 63) ^ j
        };
        let priority = if spec.priority_levels == 0 {
            0
        } else {
            (splitmix64(&mut rng) % u64::from(spec.priority_levels)) as u8
        };
        load.push(OptRequest {
            workload: shared[workload_idx].clone(),
            device_seed,
            arrival_us: t,
            budget_us: spec.budget_us,
            priority,
        });
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> OptimizerConfig {
        OptimizerConfig::default().with_fai_us(100.0)
    }

    fn catalog(cfg: &NpuConfig) -> Vec<Workload> {
        vec![
            npu_workloads::models::tiny(cfg),
            npu_workloads::models::tanh_loop(cfg, 12),
        ]
    }

    #[test]
    fn load_generation_is_deterministic_and_sorted() {
        let cfg = NpuConfig::ascend_like();
        let catalog = catalog(&cfg);
        let spec = LoadSpec {
            requests: 500,
            ..LoadSpec::default()
        };
        let a = generate_load(&catalog, &spec);
        let b = generate_load(&catalog, &spec);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.device_seed, y.device_seed);
            assert_eq!(x.arrival_us.to_bits(), y.arrival_us.to_bits());
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.workload.name(), y.workload.name());
        }
        let dups = a.iter().filter(|r| r.device_seed == HOT_SEED).count();
        assert!(dups > 200, "duplicate fraction not realized: {dups}");
    }

    #[test]
    fn identical_requests_share_an_identity() {
        let cfg = NpuConfig::ascend_like();
        let w = Arc::new(npu_workloads::models::tiny(&cfg));
        let a = OptRequest {
            workload: w.clone(),
            device_seed: 7,
            arrival_us: 0.0,
            budget_us: 1e6,
            priority: 0,
        };
        let mut b = a.clone();
        b.arrival_us = 99.0; // arrival does not change the problem
        assert_eq!(a.identity(), b.identity());
        b.device_seed = 8;
        assert_ne!(a.identity(), b.identity());
    }

    #[test]
    fn builder_validation_rejects_bad_configs() {
        let cfg = NpuConfig::ascend_like();
        let err = OptService::builder(cfg.clone())
            .with_queue_capacity(0)
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ZeroCount {
                field: "service.queue_capacity"
            }
        );
        let err = OptService::builder(cfg.clone())
            .with_virtual_servers(0)
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ZeroCount {
                field: "service.virtual_servers"
            }
        );
        assert!(OptService::builder(cfg)
            .with_config(quick_opts())
            .try_build()
            .is_ok());
    }

    #[test]
    fn service_coalesces_and_sheds_deterministically() {
        let cfg = NpuConfig::ascend_like();
        let load = generate_load(
            &catalog(&cfg),
            &LoadSpec {
                requests: 400,
                mean_interarrival_us: 40.0,
                duplicate_fraction: 0.9,
                budget_us: 30_000.0,
                unique_pool: 4,
                ..LoadSpec::default()
            },
        );
        let run = |workers: usize| {
            OptService::builder(cfg.clone())
                .with_config(quick_opts())
                .with_workers(workers)
                .with_queue_capacity(16)
                .with_virtual_servers(2)
                .try_build()
                .unwrap()
                .run(&load)
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one.metrics.submitted, 400);
        assert!(one.metrics.coalesced > 0, "overload must coalesce");
        assert!(
            one.metrics.shed + one.metrics.queue_full > 0,
            "overload must reject"
        );
        assert!(
            one.metrics.sessions < one.metrics.completed,
            "coalescing must dedupe sessions"
        );
        let eight = run(8);
        assert_eq!(one.digest(), eight.digest(), "worker count changed results");
        assert_eq!(one.dispositions, eight.dispositions);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
