//! Fleet chaos harness: survival, quarantine and recovery rates under
//! seeded fault injection, plus healthy-device digest stability.
//!
//! Runs the same fleet twice through a [`FleetController`]:
//!
//! * **clean** — no fault plan; every device serves quietly (the
//!   workload has no ambient drift, so the clean run detects nothing);
//! * **chaos** — a seeded [`FleetFaultPlan`] injects a crash, poisoned
//!   publications and delayed-`SetFreq` guardrail faults into 3 devices.
//!
//! The chaos run must complete (the epoch barrier tolerates partial
//! loss), quarantine the faulted devices, and keep every *healthy*
//! device's per-device digest bit-identical to the clean run — fault
//! isolation is total. The chaos fleet is re-run at 2 and 8 workers and
//! its digest must not move. Results go to `BENCH_chaos.json` at the
//! workspace root (`CRITERION_SMOKE=1` → a smaller fleet and
//! `BENCH_chaos.smoke.json`; `bench_gate chaos` checks both, and
//! scripts/check.sh runs it across two fault seeds via `CHAOS_SEED`).

use npu_bench::report::{self, Report};
use npu_core::{
    DeviceHealth, DriftDetectorConfig, FleetController, FleetOutcome, HealthPolicy,
    OptimizerConfig, ServeOptions,
};
use npu_fault::{FaultPlan, FleetFaultPlan};
use npu_sim::{ConfigSpread, FreqMhz, NpuConfig, OpDescriptor, Scenario, Schedule};
use npu_workloads::Workload;
use std::time::Instant;

const DEFAULT_SEED: u64 = 0xC4A05;

/// Alternating compute-bound/load-bound stream on a fast-switching
/// part, so strategies get real multi-stage structure and re-dispatch
/// `SetFreq` every iteration — the surface the chaos plan attacks.
fn serve_workload(n: usize) -> Workload {
    Workload::new(
        "FleetChaos",
        Schedule::new(
            (0..n)
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

/// The three victims, spread across the device range.
fn victims(devices: usize) -> (usize, usize, usize) {
    (1, devices / 2, devices - 2)
}

fn chaos_plan(seed: u64, devices: usize) -> FleetFaultPlan {
    let (crash_dev, poison_dev, delay_dev) = victims(devices);
    FleetFaultPlan::seeded(seed)
        .crash_at(crash_dev, 1)
        .poison_strategy_at(poison_dev, 0)
        .poison_strategy_at(poison_dev, 1)
        .with_device_plan(delay_dev, FaultPlan::seeded(seed).delay_setfreq(4_000.0))
        .hang_reopt_at(delay_dev, 0)
        .hang_reopt_at(delay_dev, 1)
}

fn controller(
    seed: u64,
    devices: usize,
    epochs: usize,
    workers: usize,
    plan: Option<FleetFaultPlan>,
) -> FleetController {
    let cfg = NpuConfig::builder()
        .thermal_tau_us(2_000.0)
        .setfreq_latency_us(50.0)
        .noise(0.0, 0.0, 0.0)
        .build()
        .expect("config");
    // Tight silicon spread (one calibration cluster), no ambient drift:
    // every detection in the run is fault-induced.
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
        .with_loss_target(0.50)
        .with_fai_us(100.0);
    let serve = ServeOptions {
        detector: DriftDetectorConfig {
            window: 4,
            threshold: 0.08,
            hysteresis: 2,
            cooldown_windows: 2,
            temp_scale_c: 10.0,
        },
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        max_swaps: 1,
        ..ServeOptions::default()
    };
    let mut c = FleetController::new(cfg, serve_workload(12))
        .with_devices(devices)
        .with_epochs(epochs)
        .with_epoch_iterations(16)
        .with_workers(workers)
        .with_spread(spread)
        .with_fleet_seed(seed)
        .with_config(opts)
        .with_serve_options(serve)
        .with_health_policy(HealthPolicy {
            quarantine_after: 2,
            quarantine_epochs: 1,
            max_probations: 1,
            probation_iterations: 2,
        });
    if let Some(plan) = plan {
        c = c.with_fault_plan(plan);
    }
    c
}

fn timed(c: &FleetController) -> (FleetOutcome, f64) {
    let start = Instant::now();
    let fleet = c.run().expect("chaos fleet must survive partial loss");
    (fleet, start.elapsed().as_secs_f64())
}

fn main() {
    let smoke = report::smoke();
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let (devices, epochs) = if smoke { (8, 4) } else { (16, 4) };
    let faulted: Vec<usize> = {
        let (a, b, c) = victims(devices);
        vec![a, b, c]
    };

    // Untimed warmup for first-touch costs.
    let _ = controller(seed, 4, 2, 0, None).run();

    let (clean, clean_secs) = timed(&controller(seed, devices, epochs, 0, None));
    assert_eq!(clean.quarantines, 0, "fault-free fleet must stay healthy");

    let chaos_ctl = controller(seed, devices, epochs, 0, Some(chaos_plan(seed, devices)));
    let (chaos, chaos_secs) = timed(&chaos_ctl);

    // Survival: the run completed with at least one serving device.
    let survivors = chaos
        .health
        .iter()
        .filter(|h| h.health != DeviceHealth::Evicted)
        .count();
    assert!(survivors > 0, "total loss");
    assert!(chaos.quarantines > 0, "the faults must draw quarantines");

    // Fault isolation: every healthy device's digest is bit-identical
    // to the clean run's.
    let healthy_total = devices - faulted.len();
    let healthy_stable = (0..devices)
        .filter(|d| !faulted.contains(d))
        .filter(|&d| chaos.device_digest(d) == clean.device_digest(d))
        .count();
    let healthy_digest_stable = healthy_stable == healthy_total;
    assert!(
        healthy_digest_stable,
        "only {healthy_stable}/{healthy_total} healthy devices kept their clean digest"
    );

    // Worker-count invariance of the chaos run itself.
    let mut bit_identical = true;
    for workers in [2usize, 8] {
        let (again, _) = timed(&controller(
            seed,
            devices,
            epochs,
            workers,
            Some(chaos_plan(seed, devices)),
        ));
        if again.digest != chaos.digest || again.device_digests != chaos.device_digests {
            eprintln!("chaos digest diverged at {workers} workers");
            bit_identical = false;
        }
    }
    assert!(
        bit_identical,
        "chaos fleet must be bit-identical at 2/8 workers"
    );

    let survival_rate = survivors as f64 / devices as f64;
    let quarantine_rate = chaos.quarantines as f64 / faulted.len() as f64;
    let recovery_rate = if chaos.quarantines == 0 {
        0.0
    } else {
        chaos.recoveries as f64 / chaos.quarantines as f64
    };
    Report::new("chaos")
        .field("smoke", smoke)
        .field("seed", seed)
        .field("devices", devices)
        .field("epochs", epochs)
        .field("faulted_devices", faulted.len())
        .field("completed", true)
        .fixed("clean_secs", clean_secs, 3)
        .fixed("chaos_secs", chaos_secs, 3)
        .field("quarantines", chaos.quarantines)
        .field("recoveries", chaos.recoveries)
        .field("evictions", chaos.evictions)
        .field("transfer_rejections", chaos.transfer_rejections)
        .fixed("survival_rate", survival_rate, 3)
        .fixed("quarantine_rate", quarantine_rate, 3)
        .fixed("recovery_rate", recovery_rate, 3)
        .field("healthy_devices", healthy_total)
        .field("healthy_stable", healthy_stable)
        .field("healthy_digest_stable", healthy_digest_stable)
        .field("digest", format!("{:016x}", chaos.digest))
        .field("clean_digest", format!("{:016x}", clean.digest))
        .field("bit_identical", bit_identical)
        .write(smoke);
}
