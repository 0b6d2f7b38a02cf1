//! The benchmark's workloads: set-up, one timed call into a public entry
//! point, and the output checks that run after the clock stops.
//!
//! Every call repeats identical work (fresh caches, fresh devices), so
//! spread between calls is host noise and every simulated output must
//! repeat bit-exactly.

use crate::trace::Tracer;
use npu_core::cache::Fingerprint;
use npu_core::service::{generate_load, LoadSpec, OptRequest, OptService};
use npu_core::{
    ArtifactCache, DriftDetectorConfig, EnergyOptimizer, FleetController, OptimizerConfig,
    ServeOptions,
};
use npu_dvfs::Evaluation;
use npu_obs::ObserverHandle;
use npu_power_model::HardwareCalibration;
use npu_sim::{
    ConfigSpread, Device, DriftModel, FreqMhz, NpuConfig, OpDescriptor, Scenario, Schedule,
};
use npu_workloads::{models, Workload};
use std::time::Instant;

/// Workload names, in catalogue order.
pub const NAMES: [&str; 3] = ["gpt3_optimize", "service_stream", "fleet_drift"];

/// Requests per `service_stream` call.
const SERVICE_REQUESTS: usize = 6_000;
/// `fleet_drift` shape: devices × epochs × iterations per epoch.
const FLEET_DEVICES: usize = 64;
const FLEET_EPOCHS: usize = 3;
const FLEET_EPOCH_ITERS: usize = 16;
/// GA population of the fleet's (cold) searches.
const FLEET_GA_POPULATION: usize = 60;

/// Exact per-call outputs (a pure function of the seed) plus the
/// call's host wall time.
#[derive(Debug, Clone, Default)]
pub struct CallRecord {
    /// Host wall time of the entry-point call, seconds.
    pub wall_s: f64,
    /// Work items attempted.
    pub attempted: u64,
    /// Items that returned `Ok` and passed the per-call checks.
    pub ok: u64,
    /// Simulated AICore energy per iteration, mJ.
    pub sim_aicore_mj: f64,
    /// Simulated iteration time, ms.
    pub sim_iter_ms: f64,
    /// Fingerprint of every simulated output of the call.
    pub digest: u64,
    /// Layer counters of the call, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Failed checks, human-readable.
    pub errors: Vec<String>,
}

/// A prepared workload.
pub trait Bench {
    /// Runs one timed call, then checks its outputs.
    fn call(&self, obs: ObserverHandle, tracer: Option<&Tracer>) -> CallRecord;
    /// The digest of the same work served by a single worker, when the
    /// workload runs a worker pool.
    fn reference_digest(&self) -> Option<Result<u64, String>>;
    /// The device configurations and schedules the workload simulates,
    /// for the standalone simulator throughput probe.
    fn schedules(&self) -> Vec<(NpuConfig, Schedule)>;
    /// GA population size of the workload's searches.
    fn ga_population(&self) -> usize;
}

fn bits_eq(a: &Evaluation, b: &Evaluation) -> bool {
    a.time_us.to_bits() == b.time_us.to_bits()
        && a.aicore_energy_wus.to_bits() == b.aicore_energy_wus.to_bits()
        && a.soc_energy_wus.to_bits() == b.soc_energy_wus.to_bits()
}

/// Runs set-up step `f` inside a span when tracing.
fn timed<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Runs the entry-point call `f`, as a traced call when `tracer` is set.
fn entry<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let id = t.begin_call(name);
            let out = f();
            t.end_call(id);
            out
        }
        None => f(),
    }
}

fn cache_layers(cache: &ArtifactCache, layers: &mut Vec<(&'static str, f64)>) {
    let stats = cache.stats();
    let flights = cache.flight_stats();
    let lookups = stats.hits() + stats.misses();
    layers.push((
        "core.cache.hit_frac",
        if lookups == 0 {
            0.0
        } else {
            stats.hits() as f64 / lookups as f64
        },
    ));
    layers.push(("core.cache.misses", stats.misses() as f64));
    layers.push((
        "core.cache.flight_coalesced",
        (flights.profile.coalesced + flights.search.coalesced) as f64,
    ));
}

/// Calibrates `cfg`'s device at set-up (gpt3_optimize, service_stream).
fn calibrate(cfg: &NpuConfig, tracer: Option<&Tracer>) -> Result<HardwareCalibration, String> {
    timed(tracer, "power_model.calibrate", || {
        EnergyOptimizer::calibrated(cfg.clone())
            .map(|o| *o.calibration())
            .map_err(|e| format!("calibration failed: {e}"))
    })
}

fn ascend() -> Result<NpuConfig, String> {
    npu_sim::profile::by_name("ascend-910")
        .map(|p| p.config().clone())
        .ok_or_else(|| "device profile ascend-910 is missing".to_owned())
}

/// Builds workload `name` for `seed` with `workers` pool threads.
///
/// # Errors
///
/// An unknown name, or a failing calibration or construction.
pub fn setup(
    name: &str,
    seed: u64,
    workers: usize,
    tracer: Option<&Tracer>,
) -> Result<Box<dyn Bench>, String> {
    match name {
        "gpt3_optimize" => {
            let cfg = ascend()?;
            let calib = calibrate(&cfg, tracer)?;
            let workload = timed(tracer, "workloads.generate", || models::gpt3(&cfg));
            let opts = OptimizerConfig::for_device(&cfg).with_threads(1);
            Ok(Box::new(Gpt3 {
                cfg,
                calib,
                workload,
                opts,
                seed,
            }))
        }
        "service_stream" => {
            let cfg = ascend()?;
            let calib = calibrate(&cfg, tracer)?;
            let (catalog, load) = timed(tracer, "workloads.generate", || {
                let catalog = vec![
                    models::tiny(&cfg),
                    models::tanh_loop(&cfg, 12),
                    models::tanh_loop(&cfg, 4),
                ];
                let spec = LoadSpec {
                    requests: SERVICE_REQUESTS,
                    seed,
                    mean_interarrival_us: 200.0,
                    duplicate_fraction: 0.5,
                    zipf_s: 1.1,
                    unique_pool: 24,
                    budget_us: 1_000_000.0,
                    priority_levels: 3,
                };
                let load = generate_load(&catalog, &spec);
                (catalog, load)
            });
            let mut opts = OptimizerConfig::for_device(&cfg)
                .with_fai_us(100.0)
                .with_threads(1);
            opts.ga = opts.ga.with_population(40).with_iterations(60);
            let svc = Service {
                cfg,
                calib,
                catalog,
                load,
                opts,
                workers,
            };
            // Construction is validated once here, not inside a call.
            svc.service(workers, ObserverHandle::null())?;
            Ok(Box::new(svc))
        }
        "fleet_drift" => {
            // No calibration: FleetController builds every device from
            // its ground-truth calibration, so set-up is generation,
            // construction and the warm-up call only.
            let cfg = NpuConfig::builder()
                .thermal_tau_us(2_000.0)
                .setfreq_latency_us(20.0)
                .build()
                .map_err(|e| format!("fleet device config: {e}"))?;
            let workload = timed(tracer, "workloads.generate", || fleet_workload(48));
            Ok(Box::new(Fleet {
                cfg,
                workload,
                seed,
                workers,
            }))
        }
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

// ---------------------------------------------------------------------------
// gpt3_optimize
// ---------------------------------------------------------------------------

/// One `OptimizationSession::report()` on GPT-3 with the paper's GA.
struct Gpt3 {
    cfg: NpuConfig,
    calib: HardwareCalibration,
    workload: Workload,
    opts: OptimizerConfig,
    seed: u64,
}

impl Bench for Gpt3 {
    fn call(&self, obs: ObserverHandle, tracer: Option<&Tracer>) -> CallRecord {
        let dev = Device::with_seed(self.cfg.clone(), self.seed);
        let mut opt = EnergyOptimizer::new(dev, self.calib).with_observer(obs);
        let cache = ArtifactCache::new();
        let mut session = opt
            .session(&self.workload, &self.opts)
            .with_cache(cache.clone());
        let start = Instant::now();
        let report = entry(tracer, "gpt3_optimize.report", || session.report());
        let wall_s = start.elapsed().as_secs_f64();

        let mut rec = CallRecord {
            wall_s,
            attempted: 1,
            ..CallRecord::default()
        };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                rec.errors.push(format!("session failed: {e}"));
                return rec;
            }
        };
        let (Some(table), Some(outcome)) = (session.stage_table(), session.ga_outcome()) else {
            rec.errors
                .push("session kept no stage table or GA outcome".to_owned());
            return rec;
        };
        let genes: Option<Vec<usize>> = outcome
            .strategy
            .freqs()
            .iter()
            .map(|f| table.freqs().iter().position(|g| g == f))
            .collect();
        match genes {
            Some(g) if g.len() == table.n_stages() => {
                let again = table.evaluate(&g);
                if !bits_eq(&again, &outcome.best_eval) {
                    rec.errors.push(format!(
                        "re-evaluated strategy {again:?} != best_eval {:?}",
                        outcome.best_eval
                    ));
                }
            }
            _ => rec
                .errors
                .push("strategy does not map onto the stage table".to_owned()),
        }
        if let Some(f) = outcome
            .strategy
            .freqs()
            .iter()
            .find(|f| !self.cfg.freq_table.contains(**f))
        {
            rec.errors
                .push(format!("frequency {f:?} is off the ladder"));
        }
        if !bits_eq(&report.predicted, &outcome.best_eval) {
            rec.errors
                .push("report.predicted differs from the GA outcome".to_owned());
        }
        let iter = report.optimized;
        if !(iter.time_us > 0.0 && iter.aicore_w.is_finite()) {
            rec.errors
                .push(format!("implausible measured iteration {iter:?}"));
        }

        let mut fp = Fingerprint::new("perfbench/gpt3-report");
        for x in [
            report.predicted.time_us,
            report.predicted.aicore_energy_wus,
            report.predicted.soc_energy_wus,
            iter.time_us,
            iter.aicore_w,
            iter.soc_w,
            iter.temp_c,
        ] {
            fp.push_f64(x);
        }
        fp.push_u64(report.setfreq_count as u64);
        for f in outcome.strategy.freqs() {
            fp.push_u64(u64::from(f.mhz()));
        }
        rec.digest = fp.finish();
        rec.sim_aicore_mj = iter.aicore_w * iter.time_us / 1e3;
        rec.sim_iter_ms = iter.time_us / 1e3;
        rec.layers
            .push(("exec.setfreq_count", report.setfreq_count as f64));
        cache_layers(&cache, &mut rec.layers);
        if rec.errors.is_empty() {
            rec.ok = 1;
        }
        rec
    }

    fn reference_digest(&self) -> Option<Result<u64, String>> {
        None
    }

    fn schedules(&self) -> Vec<(NpuConfig, Schedule)> {
        vec![(self.cfg.clone(), self.workload.schedule().clone())]
    }

    fn ga_population(&self) -> usize {
        self.opts.ga.population
    }
}

// ---------------------------------------------------------------------------
// service_stream
// ---------------------------------------------------------------------------

/// One `OptService::run` over a seeded open-loop request stream.
struct Service {
    cfg: NpuConfig,
    calib: HardwareCalibration,
    catalog: Vec<Workload>,
    load: Vec<OptRequest>,
    opts: OptimizerConfig,
    workers: usize,
}

impl Service {
    fn service(&self, workers: usize, obs: ObserverHandle) -> Result<OptService, String> {
        OptService::builder(self.cfg.clone())
            .with_calibration(self.calib)
            .with_config(self.opts.clone())
            .with_observer(obs)
            .with_workers(workers)
            .with_queue_capacity(1024)
            .with_virtual_servers(16)
            .try_build()
            .map_err(|e| format!("service config: {e}"))
    }

    fn serve(
        &self,
        workers: usize,
        obs: ObserverHandle,
        tracer: Option<&Tracer>,
    ) -> Result<(CallRecord, npu_core::service::ServiceOutcome, OptService), String> {
        let svc = self.service(workers, obs)?;
        let start = Instant::now();
        let out = entry(tracer, "service_stream.run", || svc.run(&self.load));
        let wall_s = start.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("service run failed: {e}"))?;
        Ok((
            CallRecord {
                wall_s,
                ..CallRecord::default()
            },
            out,
            svc,
        ))
    }
}

impl Bench for Service {
    fn call(&self, obs: ObserverHandle, tracer: Option<&Tracer>) -> CallRecord {
        let (mut rec, out, svc) = match self.serve(self.workers, obs, tracer) {
            Ok(r) => r,
            Err(e) => {
                return CallRecord {
                    attempted: self.load.len() as u64,
                    errors: vec![e],
                    ..CallRecord::default()
                }
            }
        };
        let m = out.metrics;
        rec.attempted = m.submitted;
        if m.submitted != self.load.len() as u64
            || m.completed + m.shed + m.queue_full != m.submitted
            || out.dispositions.len() as u64 != m.submitted
        {
            rec.errors.push(format!(
                "dispositions do not add up: {} completed + {} shed + {} queue-full of {} submitted",
                m.completed, m.shed, m.queue_full, m.submitted
            ));
        }
        let (mut energy, mut time, mut n) = (0.0, 0.0, 0u64);
        for d in &out.dispositions {
            if let npu_core::service::Disposition::Completed(r) = d {
                if r.strategy
                    .freqs()
                    .iter()
                    .any(|f| !self.cfg.freq_table.contains(*f))
                {
                    rec.errors
                        .push(format!("request {}: frequency off the ladder", r.request));
                }
                energy += r.predicted.aicore_energy_wus;
                time += r.predicted.time_us;
                n += 1;
            }
        }
        let n_f = n.max(1) as f64;
        rec.sim_aicore_mj = energy / n_f / 1e3;
        rec.sim_iter_ms = time / n_f / 1e3;
        rec.digest = out.digest();
        let completed = m.completed.max(1) as f64;
        rec.layers = vec![
            ("core.service.admission_ms", (rec.wall_s - m.wall_s) * 1e3),
            ("core.service.pool_wall_ms", m.wall_s * 1e3),
            (
                "core.service.coalesced_frac",
                m.coalesced as f64 / completed,
            ),
            ("core.service.warm_frac", m.warm as f64 / completed),
            (
                "core.service.rejected_frac",
                (m.shed + m.queue_full) as f64 / m.submitted.max(1) as f64,
            ),
            ("core.service.sim_latency_ms_p99", m.p99_latency_us / 1e3),
        ];
        cache_layers(svc.cache(), &mut rec.layers);
        if rec.errors.is_empty() {
            rec.ok = m.completed;
        }
        rec
    }

    fn reference_digest(&self) -> Option<Result<u64, String>> {
        Some(
            self.serve(1, ObserverHandle::null(), None)
                .map(|(_, out, _)| out.digest()),
        )
    }

    fn schedules(&self) -> Vec<(NpuConfig, Schedule)> {
        self.catalog
            .iter()
            .map(|w| (self.cfg.clone(), w.schedule().clone()))
            .collect()
    }

    fn ga_population(&self) -> usize {
        self.opts.ga.population
    }
}

// ---------------------------------------------------------------------------
// fleet_drift
// ---------------------------------------------------------------------------

/// One `FleetController::run` over a drifting 64-device fleet.
struct Fleet {
    cfg: NpuConfig,
    workload: Workload,
    seed: u64,
    workers: usize,
}

/// Compute-bound ops interleaved with memory-bound ops of varying
/// intensity, so the stage table is wide (the fleet bench's stream).
fn fleet_workload(n: usize) -> Workload {
    Workload::new(
        "FleetServe",
        Schedule::new(
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        OpDescriptor::compute(format!("Mm{i}"), Scenario::PingPongIndependent)
                            .blocks(4)
                            .ld_bytes_per_block(64.0 * 1024.0)
                            .core_cycles_per_block(30_000.0 + 2_000.0 * i as f64)
                            .activity(6.0)
                    } else {
                        OpDescriptor::compute(format!("Ld{i}"), Scenario::PingPongIndependent)
                            .blocks(32)
                            .ld_bytes_per_block((4 << 20) as f64 + (i << 14) as f64)
                            .l2_hit_rate(0.1)
                            .core_cycles_per_block(50.0)
                            .activity(2.0)
                    }
                })
                .collect(),
        ),
    )
}

impl Fleet {
    /// The warm-pass settings of the repository's fleet bench: saturated
    /// drift detector, two-point re-profile ladder, 4-generation warm GA,
    /// transfer on.
    fn controller(&self, workers: usize, obs: ObserverHandle) -> FleetController {
        let drift = DriftModel::ambient_ramp(-300.0, 15.0)
            .with_gamma_aging(-9.0, 0.45)
            .with_theta_aging(-9.0, 0.45);
        let spread = ConfigSpread {
            beta_frac: 0.01,
            theta_frac: 0.01,
            gamma_frac: 0.01,
            k_frac: 0.01,
            ambient_range_c: 1.0,
            drift_frac: 0.4,
        };
        let grid: Vec<FreqMhz> = (1000..=1800).step_by(100).map(FreqMhz::new).collect();
        let mut opts = OptimizerConfig::default()
            .with_threads(1)
            .with_loss_target(0.50)
            .with_fai_us(25.0)
            .with_build_freqs(grid);
        opts.ga = opts
            .ga
            .with_population(FLEET_GA_POPULATION)
            .with_iterations(240);
        let serve = ServeOptions {
            detector: DriftDetectorConfig {
                window: 4,
                threshold: 1e-9,
                hysteresis: 2,
                cooldown_windows: 2,
                temp_scale_c: 10.0,
            },
            ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
            warm_ga_iterations: Some(4),
            fit_error_escalation: f64::INFINITY,
            max_swaps: 1,
            ..ServeOptions::default()
        };
        FleetController::new(self.cfg.clone(), self.workload.clone())
            .with_devices(FLEET_DEVICES)
            .with_epochs(FLEET_EPOCHS)
            .with_epoch_iterations(FLEET_EPOCH_ITERS)
            .with_workers(workers)
            .with_spread(spread)
            .with_fleet_seed(self.seed)
            .with_drift(drift)
            .with_config(opts)
            .with_serve_options(serve)
            .with_transfer(true)
            .with_observer(obs)
    }
}

impl Bench for Fleet {
    fn call(&self, obs: ObserverHandle, tracer: Option<&Tracer>) -> CallRecord {
        let ctl = self.controller(self.workers, obs);
        let start = Instant::now();
        let out = entry(tracer, "fleet_drift.run", || ctl.run());
        let wall_s = start.elapsed().as_secs_f64();
        let attempted = (FLEET_DEVICES * FLEET_EPOCHS) as u64;
        let mut rec = CallRecord {
            wall_s,
            attempted,
            ..CallRecord::default()
        };
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                rec.errors.push(format!("fleet run failed: {e}"));
                return rec;
            }
        };
        if out.per_device.len() != FLEET_DEVICES || out.epochs != FLEET_EPOCHS {
            rec.errors.push(format!(
                "fleet served {} devices x {} epochs",
                out.per_device.len(),
                out.epochs
            ));
        }
        let (mut energy, mut time, mut n) = (0.0, 0.0, 0usize);
        for it in out.per_device.iter().flat_map(|d| &d.iterations) {
            energy += it.aicore_energy_wus;
            time += it.time_us;
            n += 1;
        }
        let served = (n / FLEET_EPOCH_ITERS) as u64;
        let n_f = n.max(1) as f64;
        rec.sim_aicore_mj = energy / n_f / 1e3;
        rec.sim_iter_ms = time / n_f / 1e3;
        rec.digest = out.digest;
        let per_swap = |wall: f64, swaps: usize| {
            if swaps == 0 {
                0.0
            } else {
                wall / swaps as f64 * 1e3
            }
        };
        rec.layers = vec![
            (
                "core.fleet.reopt_per_swap_ms",
                per_swap(out.reopt_wall_s, out.swaps),
            ),
            (
                "core.fleet.warm_reopt_per_swap_ms",
                per_swap(out.warm_reopt_wall_s, out.warm_swaps),
            ),
            ("core.fleet.reopt_wall_ms", out.reopt_wall_s * 1e3),
            ("core.fleet.swaps", out.swaps as f64),
            ("core.fleet.transfer_hit_frac", out.transfer_hit_rate()),
        ];
        cache_layers(ctl.cache(), &mut rec.layers);
        if rec.errors.is_empty() {
            rec.ok = served.min(attempted);
        }
        rec
    }

    fn reference_digest(&self) -> Option<Result<u64, String>> {
        Some(
            self.controller(1, ObserverHandle::null())
                .run()
                .map(|o| o.digest)
                .map_err(|e| format!("1-worker reference failed: {e}")),
        )
    }

    fn schedules(&self) -> Vec<(NpuConfig, Schedule)> {
        vec![(self.cfg.clone(), self.workload.schedule().clone())]
    }

    fn ga_population(&self) -> usize {
        FLEET_GA_POPULATION
    }
}
