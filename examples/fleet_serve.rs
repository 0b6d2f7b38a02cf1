//! Fleet-scale serving with cross-device strategy transfer.
//!
//! Serves a fleet of drifting devices — each a seeded variation of the
//! base configuration — through one [`FleetController`]: device loops
//! shard across a worker pool, devices cluster by calibration
//! fingerprint, and when one device's drift detector forces a
//! re-optimization it warm-starts from the nearest in-cluster
//! neighbor's published strategy instead of searching cold.
//!
//! Self-checking: asserts the fleet re-optimizes, that at least one
//! re-optimization was a transfer hit, and that the whole fleet
//! trajectory is bit-identical at 1 and 2 workers.
//!
//! ```sh
//! cargo run --release --example fleet_serve
//! FLEET_SEED=7 cargo run --release --example fleet_serve
//! ```

use dvfs_repro::prelude::*;
use dvfs_repro::sim::DriftModel;
use std::time::Instant;

const DEVICES: usize = 12;
const EPOCHS: usize = 3;
const EPOCH_ITERATIONS: usize = 16;

/// Compute-bound request stream whose energy optimum moves when leakage
/// drifts (same scenario the serve_drift example tunes).
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

fn controller(fleet_seed: u64, workers: usize) -> FleetController {
    let cfg = NpuConfig::builder()
        .thermal_tau_us(2_000.0)
        .noise(0.0, 0.0, 0.0)
        .build()
        .expect("config");
    // Overnight machine-room cool-down; each device rides it at its own
    // sampled rate, so detections stagger across epochs.
    let drift = DriftModel::ambient_ramp(-300.0, 15.0)
        .with_gamma_aging(-9.0, 0.45)
        .with_theta_aging(-9.0, 0.45);
    // Tight silicon binning (one big cluster), wide drift-rate spread.
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
        .with_loss_target(0.50);
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
    FleetController::new(cfg, serve_workload(12))
        .with_devices(DEVICES)
        .with_epochs(EPOCHS)
        .with_epoch_iterations(EPOCH_ITERATIONS)
        .with_workers(workers)
        .with_spread(spread)
        .with_fleet_seed(fleet_seed)
        .with_drift(drift)
        .with_config(opts)
        .with_serve_options(serve)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet_seed: u64 = std::env::var("FLEET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let t = Instant::now();
    let fleet = controller(fleet_seed, 0).run()?;
    let wall = t.elapsed().as_secs_f64();

    println!(
        "fleet seed {fleet_seed}: {DEVICES} devices x {EPOCHS} epochs x {EPOCH_ITERATIONS} iters"
    );
    println!(
        "  clusters {}  swaps {}  transfer hits {} / misses {}  hit rate {:.0}%",
        fleet.clusters,
        fleet.swaps,
        fleet.transfer_hits,
        fleet.transfer_misses,
        100.0 * fleet.transfer_hit_rate(),
    );
    println!(
        "  {} iterations in {:.2}s ({:.1} device-epochs/s), digest {:016x}",
        fleet.iterations(),
        wall,
        (DEVICES * EPOCHS) as f64 / wall,
        fleet.digest,
    );

    assert_eq!(fleet.per_device.len(), DEVICES);
    assert!(
        fleet
            .per_device
            .iter()
            .all(|d| d.iterations.len() == EPOCHS * EPOCH_ITERATIONS),
        "every device serves every epoch"
    );
    assert!(fleet.swaps > 0, "drift must force re-optimizations");
    assert!(
        fleet.transfer_hits > 0,
        "re-optimizing after epoch 0 must warm-start from a neighbor"
    );
    assert!(fleet.warm_swaps >= fleet.transfer_hits);

    // The determinism contract: worker count shards wall time, never
    // outcomes. Fresh controllers (fresh caches) per count.
    let one = controller(fleet_seed, 1).run()?;
    let two = controller(fleet_seed, 2).run()?;
    assert_eq!(one.digest, fleet.digest, "1 worker diverged");
    assert_eq!(two.digest, fleet.digest, "2 workers diverged");
    println!("  bit-identical at 1/2/auto workers ✓");
    Ok(())
}
