//! Integration: the online serving runtime detects drift, re-optimizes
//! without stopping the loop, and stays bit-deterministic.
//!
//! Mirrors `examples/serve_drift` with the tuned scenario promoted to
//! assertions: a compute-bound request stream under a leakage-relaxing
//! cool-down must produce exactly one strategy swap that beats the
//! stale strategy on both raw AICore energy and the energy-delay
//! product the Eq. 17 score minimizes, a drift-free device must never
//! trip the detector, and the whole serve loop must be bit-identical
//! across worker thread counts and across consecutive runs.

use dvfs_repro::power_model::HardwareCalibration;
use dvfs_repro::prelude::*;
use dvfs_repro::sim::DriftModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const SEED: u64 = 42;
const ITERATIONS: usize = 48;
/// Fast thermal time constant so the chip tracks the drifting ambient
/// within the serve horizon.
const THERMAL_TAU_US: f64 = 2_000.0;
/// Generous SLO so the search trades speed for energy across the ladder
/// instead of pinning to the fastest strategies.
const LOSS_TARGET: f64 = 0.50;

#[derive(Default)]
struct EventCounts {
    detected: AtomicUsize,
    reopt: AtomicUsize,
    swapped: AtomicUsize,
}

impl Observer for EventCounts {
    fn on_event(&self, event: &Event) {
        match event {
            Event::DriftDetected { .. } => {
                self.detected.fetch_add(1, Ordering::Relaxed);
            }
            Event::ReoptimizationStarted { .. } => {
                self.reopt.fetch_add(1, Ordering::Relaxed);
            }
            Event::StrategySwapped { .. } => {
                self.swapped.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Compute-bound stream: the score optimum balances dynamic against
/// static energy, so it *moves* when leakage drifts (a memory-bound
/// model would stay pinned to the performance budget).
fn serve_workload(n: usize) -> Workload {
    Workload::new(
        "ServeCompute",
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

/// Overnight machine-room cool-down: ambient falls, leakage relaxes.
fn drift() -> DriftModel {
    DriftModel::ambient_ramp(-300.0, 15.0)
        .with_gamma_aging(-9.0, 0.45)
        .with_theta_aging(-9.0, 0.45)
}

fn serve_once(
    threads: usize,
    max_swaps: usize,
    drift: Option<DriftModel>,
) -> (ServeOutcome, Arc<EventCounts>) {
    let cfg = NpuConfig::builder()
        .thermal_tau_us(THERMAL_TAU_US)
        .noise(0.0, 0.0, 0.0)
        .build()
        .unwrap();
    let workload = serve_workload(12);
    let calib = HardwareCalibration::ground_truth(&cfg);
    let mut optimizer = EnergyOptimizer::new(Device::with_seed(cfg, SEED), calib);
    if let Some(d) = drift {
        optimizer.device_mut().set_drift(d);
    }
    let counts = Arc::new(EventCounts::default());
    optimizer.set_observer(ObserverHandle::from_arc(counts.clone()));
    let opts = OptimizerConfig::default()
        .with_threads(threads)
        .with_loss_target(LOSS_TARGET);
    let serve = ServeOptions {
        iterations: ITERATIONS,
        detector: DriftDetectorConfig {
            window: 4,
            threshold: 0.08,
            hysteresis: 2,
            cooldown_windows: 2,
            temp_scale_c: 10.0,
        },
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        max_swaps,
        ..ServeOptions::default()
    };
    let outcome = ServeRuntime::builder(&mut optimizer, &workload)
        .with_config(opts)
        .with_serve_options(serve)
        .try_build()
        .unwrap()
        .run()
        .unwrap();
    (outcome, counts)
}

#[test]
fn drift_triggers_exactly_one_swap_that_beats_the_stale_strategy() {
    let (adaptive, counts) = serve_once(0, 1, Some(drift()));
    assert_eq!(adaptive.swaps, 1);
    assert!(adaptive.detections >= 1);
    assert!(!adaptive.fell_back);
    assert_eq!(counts.swapped.load(Ordering::Relaxed), 1);
    assert_eq!(counts.reopt.load(Ordering::Relaxed), 1);
    assert_eq!(counts.detected.load(Ordering::Relaxed), adaptive.detections);

    let (pinned, _) = serve_once(0, 0, Some(drift()));
    assert_eq!(pinned.swaps, 0);
    assert!(pinned.detections >= 1, "detect-only run must still detect");

    let swap_at = adaptive.first_swapped_index().expect("swap index");
    assert!(swap_at > 0 && swap_at < ITERATIONS);
    // Physics before the swap is shared, so the runs agree bit for bit
    // up to the boundary (no NaN appears, PartialEq is bit-equality).
    assert_eq!(adaptive.iterations[..swap_at], pinned.iterations[..swap_at]);

    // The cool-down deflates static power, so the stale strategy keeps
    // racing to dodge leakage that is no longer there; the refreshed,
    // slower strategy must win on both raw AICore energy and the
    // energy-delay product the Eq. 17 score minimizes.
    let n = adaptive.iterations.len();
    let (fresh, stale) = (
        adaptive.aicore_energy_wus(swap_at..n),
        pinned.aicore_energy_wus(swap_at..n),
    );
    assert!(
        fresh < stale,
        "refreshed strategy must beat the stale one on AICore energy: {fresh} vs {stale}"
    );
    let edp = |out: &ServeOutcome| {
        out.iterations[swap_at..]
            .iter()
            .map(|it| it.aicore_energy_wus * it.time_us)
            .sum::<f64>()
    };
    let (fresh_edp, stale_edp) = (edp(&adaptive), edp(&pinned));
    assert!(
        fresh_edp < stale_edp,
        "refreshed strategy must beat the stale one on E·t: {fresh_edp} vs {stale_edp}"
    );
}

#[test]
fn static_hardware_never_trips_the_detector() {
    let (outcome, counts) = serve_once(0, 1, None);
    assert_eq!(outcome.swaps, 0);
    assert_eq!(outcome.detections, 0);
    assert!(!outcome.fell_back);
    assert_eq!(counts.detected.load(Ordering::Relaxed), 0);
    assert_eq!(counts.swapped.load(Ordering::Relaxed), 0);
    assert!(outcome.iterations.iter().all(|it| it.generation == 0));
}

/// Logs every drift detection's iteration index plus the swap counters.
#[derive(Default)]
struct DetectionLog {
    detected_iters: Mutex<Vec<usize>>,
    reopt: AtomicUsize,
    swapped: AtomicUsize,
}

impl Observer for DetectionLog {
    fn on_event(&self, event: &Event) {
        match event {
            Event::DriftDetected { iter, .. } => {
                self.detected_iters.lock().unwrap().push(*iter);
            }
            Event::ReoptimizationStarted { .. } => {
                self.reopt.fetch_add(1, Ordering::Relaxed);
            }
            Event::StrategySwapped { .. } => {
                self.swapped.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Regression: a re-optimization that *fails* must leave the loop in a
/// consistent degraded state — the generation counter bumps iff a swap
/// occurred, and the detector's post-swap cooldown is re-armed exactly
/// as if one had (the execution mode changed under it, so immediate
/// re-detections would be noise, not fresh drift).
#[test]
fn failed_reoptimization_degrades_without_bumping_generation() {
    let detector = DriftDetectorConfig {
        window: 4,
        threshold: 0.08,
        hysteresis: 2,
        cooldown_windows: 2,
        temp_scale_c: 10.0,
    };
    let cfg = NpuConfig::builder()
        .thermal_tau_us(THERMAL_TAU_US)
        .noise(0.0, 0.0, 0.0)
        .build()
        .unwrap();
    let workload = serve_workload(12);
    let calib = HardwareCalibration::ground_truth(&cfg);
    let mut optimizer = EnergyOptimizer::new(Device::with_seed(cfg, SEED), calib);
    optimizer.device_mut().set_drift(drift());
    let log = Arc::new(DetectionLog::default());
    optimizer.set_observer(ObserverHandle::from_arc(log.clone()));
    let opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(LOSS_TARGET);
    let serve = ServeOptions {
        iterations: 2 * ITERATIONS,
        detector,
        // 1350 MHz is off the device's 100 MHz grid, so the ladder
        // re-profile inside reoptimize() must fail.
        ladder_freqs: vec![FreqMhz::new(1350)],
        max_swaps: 3,
        ..ServeOptions::default()
    };
    let outcome = ServeRuntime::builder(&mut optimizer, &workload)
        .with_config(opts)
        .with_serve_options(serve)
        .try_build()
        .unwrap()
        .run()
        .unwrap();

    // Degrade, don't die: the full window is served behind guardrails.
    assert!(outcome.fell_back);
    assert_eq!(outcome.iterations.len(), 2 * ITERATIONS);
    assert_eq!(log.reopt.load(Ordering::Relaxed), 1);

    // The invariant under test: generation bumps iff a swap occurred.
    assert_eq!(outcome.swaps, 0);
    assert_eq!(outcome.warm_swaps, 0);
    assert_eq!(log.swapped.load(Ordering::Relaxed), 0);
    assert!(outcome.iterations.iter().all(|it| it.generation == 0));

    // The cooldown half of the fix: the first detection is the one that
    // attempted (and failed) the re-optimization, so the detector must
    // need cooldown + hysteresis full windows before firing again —
    // exactly the pacing a successful swap gets. Without the reset the
    // stale prediction re-detects a hysteresis-worth of windows later.
    // (Detections after that run in detect-only mode and pace at
    // hysteresis only, which is fine — no mode change happened.)
    let detected = log.detected_iters.lock().unwrap();
    assert!(detected.len() >= 2, "scenario must re-detect: {detected:?}");
    let min_gap = (detector.cooldown_windows + detector.hysteresis) * detector.window;
    assert!(
        detected[1] - detected[0] >= min_gap,
        "detections {detected:?}: post-failure gap shorter than cooldown + hysteresis ({min_gap})"
    );
}

#[test]
fn serve_loop_is_bit_identical_across_thread_counts_and_runs() {
    let (reference, _) = serve_once(1, 1, Some(drift()));
    assert_eq!(reference.swaps, 1);
    for threads in [1usize, 2, 8] {
        let (again, _) = serve_once(threads, 1, Some(drift()));
        assert_eq!(
            again, reference,
            "serve outcome diverged at {threads} threads"
        );
    }
}
