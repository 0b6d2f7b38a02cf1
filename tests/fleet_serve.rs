//! Integration: fleet-scale serving — sharded device loops stay
//! bit-identical at any worker count, cross-device transfer warm-starts
//! never lose to cold search on the same seed, and calibration
//! fingerprint clustering is invariant to device listing order.

use dvfs_repro::core::fleet_serve::{calibration_fingerprint, calibration_vector};
use dvfs_repro::obs::Tee;
use dvfs_repro::power_model::HardwareCalibration;
use dvfs_repro::prelude::*;
use dvfs_repro::sim::DriftModel;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const SEED: u64 = 42;
const THERMAL_TAU_US: f64 = 2_000.0;
const LOSS_TARGET: f64 = 0.50;

/// The tuned compute-bound stream from the serve_drift scenario: its
/// energy optimum moves when leakage drifts.
fn serve_workload(n: usize) -> Workload {
    Workload::new(
        "FleetServe",
        Schedule::new(
            (0..n)
                .map(|i| {
                    OpDescriptor::compute(format!("Op{i}"), Scenario::PingPongIndependent)
                        .blocks(4)
                        .ld_bytes_per_block(64.0 * 1024.0)
                        .core_cycles_per_block(30_000.0)
                        .activity(6.0)
                })
                .collect(),
        ),
    )
}

fn base_cfg() -> NpuConfig {
    NpuConfig::builder()
        .thermal_tau_us(THERMAL_TAU_US)
        .noise(0.0, 0.0, 0.0)
        .build()
        .unwrap()
}

/// Overnight machine-room cool-down: leakage relaxes, the optimum moves.
fn drift() -> DriftModel {
    DriftModel::ambient_ramp(-300.0, 15.0)
        .with_gamma_aging(-9.0, 0.45)
        .with_theta_aging(-9.0, 0.45)
}

fn detector() -> DriftDetectorConfig {
    DriftDetectorConfig {
        window: 4,
        threshold: 0.08,
        hysteresis: 2,
        cooldown_windows: 2,
        temp_scale_c: 10.0,
    }
}

fn serve_options() -> ServeOptions {
    ServeOptions {
        detector: detector(),
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        max_swaps: 1,
        ..ServeOptions::default()
    }
}

/// A BENCH_fleet-shaped controller, scaled down: N devices from a tight
/// silicon spread with wide drift-rate variation, serving epoch windows
/// under the tuned drift scenario.
fn fleet(workers: usize) -> FleetController {
    let spread = ConfigSpread {
        beta_frac: 0.01,
        theta_frac: 0.01,
        gamma_frac: 0.01,
        k_frac: 0.01,
        ambient_range_c: 1.0,
        drift_frac: 0.4,
    };
    let opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(LOSS_TARGET);
    FleetController::new(base_cfg(), serve_workload(12))
        .with_devices(8)
        .with_epochs(2)
        .with_epoch_iterations(16)
        .with_workers(workers)
        .with_spread(spread)
        .with_fleet_seed(SEED)
        .with_drift(drift())
        .with_config(opts)
        .with_serve_options(serve_options())
}

#[test]
fn fleet_epochs_are_bit_identical_across_worker_counts() {
    let reference = fleet(1).run().unwrap();
    assert!(reference.swaps > 0, "drift must force re-optimizations");
    assert!(
        reference.transfer_hits > 0,
        "epoch-1 re-optimizations must warm-start from the published board"
    );
    assert!(reference
        .per_device
        .iter()
        .all(|d| d.iterations.len() == 32));
    for workers in [2usize, 8] {
        let again = fleet(workers).run().unwrap();
        assert_eq!(
            again.digest, reference.digest,
            "fleet digest diverged at {workers} workers"
        );
        // The digest covers the trajectories; the sequential barrier
        // accounting must agree too.
        assert_eq!(again.swaps, reference.swaps);
        assert_eq!(again.warm_swaps, reference.warm_swaps);
        assert_eq!(again.transfer_hits, reference.transfer_hits);
        assert_eq!(again.transfer_misses, reference.transfer_misses);
        assert_eq!(again.per_device, reference.per_device);
    }
}

/// Search-stage runs of every session in a fleet run: how many ran,
/// how many the shared cache served, and the `SearchSolved` and
/// `GaGeneration` events they emitted.
#[derive(Debug, Default)]
struct SearchCensus(Mutex<SearchCounts>);

#[derive(Debug, Default, Clone, Copy)]
struct SearchCounts {
    stages: usize,
    cache_hits: usize,
    solved: usize,
    ga_generations: usize,
}

impl Observer for SearchCensus {
    fn on_event(&self, event: &Event) {
        let mut c = self.0.lock().unwrap();
        match event {
            Event::PhaseFinished { phase, .. } if *phase == Phase::Search => c.stages += 1,
            Event::CacheHit { kind } if kind == "search" => c.cache_hits += 1,
            Event::SearchSolved { .. } => c.solved += 1,
            Event::GaGeneration { .. } => c.ga_generations += 1,
            _ => {}
        }
    }
}

#[test]
fn observed_fleet_reports_device_sessions_without_perturbing_the_run() {
    // The controller forwards its observer to every device's optimizer,
    // so a traced fleet run shows the session and search layers of its
    // re-optimizations.
    let plain = fleet(2).run().unwrap();
    let metrics = Arc::new(MetricsRegistry::new());
    let census = Arc::new(SearchCensus::default());
    let observed = fleet(2)
        .with_observer(ObserverHandle::new(Tee::new(vec![
            ObserverHandle::from_arc(metrics.clone()),
            ObserverHandle::from_arc(census.clone()),
        ])))
        .run()
        .unwrap();
    assert_eq!(observed.digest, plain.digest, "observing changed the run");
    assert_eq!(observed.per_device, plain.per_device);
    assert!(
        metrics.counter("event.PhaseFinished") > 0,
        "no session phases seen"
    );
    // Exactly one SearchSolved per search stage the cache did not serve,
    // and no session runs the GA.
    let c = *census.0.lock().unwrap();
    assert!(c.solved > 0, "no searches seen: {c:?}");
    assert_eq!(c.solved, c.stages - c.cache_hits, "{c:?}");
    assert_eq!(c.ga_generations, 0, "{c:?}");
}

/// One drifting device, the tuned single-swap scenario. Returns the
/// re-optimization's search outcome.
fn reopt_outcome(warm_seeds: Option<Vec<Vec<FreqMhz>>>) -> GaOutcome {
    let cfg = base_cfg();
    let calib = HardwareCalibration::ground_truth(&cfg);
    let workload = serve_workload(12);
    let mut optimizer = EnergyOptimizer::new(Device::with_seed(cfg, SEED), calib);
    optimizer.device_mut().set_drift(drift());
    let opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(LOSS_TARGET);
    let serve = ServeOptions {
        iterations: 48,
        detector: detector(),
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        max_swaps: 1,
        ..ServeOptions::default()
    };
    let mut rt = ServeRuntime::builder(&mut optimizer, &workload)
        .with_config(opts)
        .with_serve_options(serve)
        .try_build()
        .unwrap();
    let armed = warm_seeds.is_some();
    if let Some(seeds) = warm_seeds {
        rt.arm_warm_seeds(seeds);
    }
    let out = rt.run().unwrap();
    assert_eq!(out.swaps, 1, "scenario must re-optimize exactly once");
    assert_eq!(out.warm_swaps, usize::from(armed));
    rt.last_search().unwrap().clone()
}

#[test]
fn transfer_warm_start_never_scores_below_cold_start() {
    let cold = reopt_outcome(None);
    let warm = reopt_outcome(Some(vec![cold.strategy.freqs().to_vec()]));
    assert!(
        warm.best_score >= cold.best_score,
        "warm-seeded re-optimization lost to cold: {} < {}",
        warm.best_score,
        cold.best_score
    );
}

/// Alternating compute-bound/load-bound stream on a fast-switching part
/// (see `tests/fleet_chaos.rs`): strategies get real multi-stage
/// structure, so `SetFreq` faults are visible every iteration.
fn rung_workload() -> Workload {
    Workload::new(
        "FleetRungs",
        Schedule::new(
            (0..12)
                .map(|i| {
                    if i % 2 == 0 {
                        OpDescriptor::compute(format!("Mm{i}"), Scenario::PingPongIndependent)
                            .blocks(4)
                            .ld_bytes_per_block(64.0 * 1024.0)
                            .core_cycles_per_block(60_000.0)
                            .activity(6.0)
                    } else {
                        OpDescriptor::compute(format!("Ld{i}"), Scenario::PingPongIndependent)
                            .blocks(4)
                            .ld_bytes_per_block(6.4e7)
                            .core_cycles_per_block(100.0)
                            .activity(2.0)
                    }
                })
                .collect(),
        ),
    )
}

/// Delayed applies (recoverable by re-estimating the latency).
const MILD_DEV: usize = 1;
/// Dropped applies (unrecoverable; stages must be pinned to baseline).
const SEVERE_DEV: usize = 3;

fn rung_fleet(fleet_seed: u64, plan: Option<FleetFaultPlan>) -> FleetController {
    let cfg = NpuConfig::builder()
        .thermal_tau_us(THERMAL_TAU_US)
        .setfreq_latency_us(50.0)
        .noise(0.0, 0.0, 0.0)
        .build()
        .unwrap();
    let spread = ConfigSpread {
        beta_frac: 0.01,
        theta_frac: 0.01,
        gamma_frac: 0.01,
        k_frac: 0.01,
        ambient_range_c: 1.0,
        drift_frac: 0.0,
    };
    let opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(LOSS_TARGET)
        .with_fai_us(100.0);
    let serve = ServeOptions {
        detector: detector(),
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        max_swaps: 1,
        // A generous latency SLA keeps the guardrail out of the verdict:
        // the rung each device lands on is decided by what the fault
        // does to its applies, not by running slower than baseline.
        fallback: ResilientOptions {
            guardrail: Guardrail {
                sla_slack: 3.0,
                ..Guardrail::default()
            },
            ..ResilientOptions::default()
        },
        ..ServeOptions::default()
    };
    // One long epoch: the detector needs its cooldown plus two windows
    // to convict (~16 iterations), and the rung only shows on the
    // fallback iterations after that.
    let mut c = FleetController::new(cfg, rung_workload())
        .with_devices(6)
        .with_epochs(1)
        .with_epoch_iterations(32)
        .with_workers(1)
        .with_spread(spread)
        .with_fleet_seed(fleet_seed)
        .with_config(opts)
        .with_serve_options(serve);
    if let Some(plan) = plan {
        c = c.with_fault_plan(plan);
    }
    c
}

/// Satellite (c): the degradation rung each device lands on tracks the
/// injected fault's severity — clean devices stay on rung 0, delayed
/// applies recover on the retry rung, dropped applies force stage
/// pinning — reproducibly across fleet seeds.
#[test]
fn degradation_rungs_track_fault_severity() {
    for fleet_seed in [7u64, 21, 1009] {
        let plan = FleetFaultPlan::seeded(fleet_seed)
            .with_device_plan(MILD_DEV, FaultPlan::seeded(fleet_seed).delay_setfreq(800.0))
            .hang_reopt_at(MILD_DEV, 0)
            .with_device_plan(
                SEVERE_DEV,
                FaultPlan::seeded(fleet_seed).drop_setfreq_prob(1.0),
            )
            .hang_reopt_at(SEVERE_DEV, 0);
        let out = rung_fleet(fleet_seed, Some(plan)).run().unwrap();

        for (i, d) in out.per_device.iter().enumerate() {
            if i != MILD_DEV && i != SEVERE_DEV {
                assert_eq!(
                    degradation_rank(&d.degradation),
                    0,
                    "seed {fleet_seed}: clean device {i} degraded: {:?}",
                    d.degradation
                );
                assert!(!d.fell_back);
            }
        }
        let mild = degradation_rank(&out.per_device[MILD_DEV].degradation);
        let severe = degradation_rank(&out.per_device[SEVERE_DEV].degradation);
        assert!(out.per_device[MILD_DEV].fell_back);
        assert!(out.per_device[SEVERE_DEV].fell_back);
        assert!(
            mild >= 1,
            "seed {fleet_seed}: delayed applies must cost at least the retry rung, got {:?}",
            out.per_device[MILD_DEV].degradation
        );
        assert!(
            severe > mild,
            "seed {fleet_seed}: dropped applies must out-rank delayed ones ({:?} vs {:?})",
            out.per_device[SEVERE_DEV].degradation,
            out.per_device[MILD_DEV].degradation
        );
    }
}

/// Clusters as a canonical partition: for each device, the sorted set of
/// devices sharing its fingerprint.
fn partition(fps: &[[i64; 6]]) -> Vec<Vec<usize>> {
    (0..fps.len())
        .map(|i| {
            (0..fps.len())
                .filter(|&j| fps[j] == fps[i])
                .collect::<Vec<_>>()
        })
        .collect()
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small fleet under the tuned drift scenario for the fault-plan
/// transparency property: big enough to exercise transfer and barrier
/// accounting, small enough to run many cases.
fn tiny_fleet(fleet_seed: u64, plan: Option<FleetFaultPlan>) -> FleetController {
    let spread = ConfigSpread {
        beta_frac: 0.01,
        theta_frac: 0.01,
        gamma_frac: 0.01,
        k_frac: 0.01,
        ambient_range_c: 1.0,
        drift_frac: 0.4,
    };
    let opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(LOSS_TARGET);
    let mut c = FleetController::new(base_cfg(), serve_workload(12))
        .with_devices(3)
        .with_epochs(1)
        .with_epoch_iterations(8)
        .with_workers(1)
        .with_spread(spread)
        .with_fleet_seed(fleet_seed)
        .with_drift(drift())
        .with_config(opts)
        .with_serve_options(serve_options());
    if let Some(plan) = plan {
        c = c.with_fault_plan(plan);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Satellite (d): an *unarmed* fleet fault plan — any seed, any
    /// number of fault-free per-device plans attached — is bit-invisible:
    /// the fleet digest and every per-device digest are identical to a
    /// run with no plan at all.
    #[test]
    fn unarmed_fault_plan_is_bit_transparent(
        fleet_seed in 0u64..200,
        plan_seed in 0u64..1_000,
        dev in 0usize..3,
    ) {
        let unarmed = FleetFaultPlan::seeded(plan_seed)
            .with_device_plan(dev, FaultPlan::seeded(plan_seed ^ 0xA5));
        prop_assert!(!unarmed.is_armed());

        let reference = tiny_fleet(fleet_seed, None).run().unwrap();
        let shadow = tiny_fleet(fleet_seed, Some(unarmed)).run().unwrap();
        prop_assert_eq!(&shadow.digest, &reference.digest);
        prop_assert_eq!(&shadow.device_digests, &reference.device_digests);
        prop_assert_eq!(shadow.quarantines, 0);
        prop_assert_eq!(shadow.transfer_rejections, 0);
        prop_assert_eq!(&shadow.per_device, &reference.per_device);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fingerprints are pure per-device functions, so the partition a
    /// fleet clusters into cannot depend on the order devices are
    /// listed in.
    #[test]
    fn fingerprint_clustering_is_permutation_invariant(
        fleet_seed in 0u64..1_000,
        n in 2usize..24,
        perm_seed in 0u64..1_000,
    ) {
        let base = NpuConfig::ascend_like();
        let spread = ConfigSpread {
            beta_frac: 0.08,
            theta_frac: 0.08,
            gamma_frac: 0.08,
            k_frac: 0.05,
            ambient_range_c: 6.0,
            drift_frac: 0.0,
        };
        let fp_of = |device: usize| {
            let cfg = spread.sample(&base, fleet_seed, device);
            calibration_fingerprint(&calibration_vector(&base, &cfg), 0.05, 3.0)
        };
        let devices: Vec<usize> = (0..n).collect();
        let mut permuted = devices.clone();
        let mut s = perm_seed;
        for i in (1..n).rev() {
            let j = (splitmix(&mut s) % (i as u64 + 1)) as usize;
            permuted.swap(i, j);
        }

        let fps: Vec<_> = devices.iter().map(|&d| fp_of(d)).collect();
        let fps_permuted: Vec<_> = permuted.iter().map(|&d| fp_of(d)).collect();
        let part = partition(&fps);
        let part_permuted = partition(&fps_permuted);

        // Same-cluster is a property of device *pairs*, not positions:
        // devices a and b share a cluster in one listing iff they share
        // one in any other.
        for (pos_a, &a) in permuted.iter().enumerate() {
            for (pos_b, &b) in permuted.iter().enumerate() {
                let together = part[a].contains(&b);
                let together_permuted = part_permuted[pos_a].contains(&pos_b);
                prop_assert_eq!(
                    together, together_permuted,
                    "devices {} and {} cluster differently after permutation", a, b
                );
            }
        }
    }
}
