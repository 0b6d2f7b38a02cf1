//! Fleet serving throughput: transfer-warm re-optimization vs cold
//! search, over a ≥64-device drifting population.
//!
//! Serves the same fleet twice through a [`FleetController`]:
//!
//! * **warm** — cross-device strategy transfer on: a device whose drift
//!   detector fires re-profiles a minimal two-point ladder and scores
//!   the nearest in-cluster neighbor's published strategy as one more
//!   candidate next to the exact search's answer;
//! * **cold** — transfer off, every re-optimization re-profiles the
//!   full frequency ladder and runs the exact search alone, against a
//!   fresh cache.
//!
//! Both passes run one identical, saturated swap schedule (the drift
//! detector's threshold is near zero and drift is always present, so
//! every device re-optimizes every epoch, capped by `max_swaps`): the
//! end-to-end `warm_secs`/`cold_secs` walls therefore compare the same
//! amount of work and the warm pass must win outright — `bench_gate`
//! checks `warm_secs <= cold_secs` on the full run. Both passes also
//! measure the wall-clock spent *inside re-optimization* (summed per
//! device, so the number is worker-count-independent) —
//! `reopt_speedup` is the per-swap ratio. The warm fleet also re-runs
//! at 1, 2 and 8 workers on fresh caches and asserts the fleet digest
//! is bit-identical. Results go to `BENCH_fleet.json` at the workspace
//! root (`CRITERION_SMOKE=1` → a small fleet and
//! `BENCH_fleet.smoke.json`; `bench_gate fleet` checks both).

use npu_bench::report::{self, Report};
use npu_core::{DriftDetectorConfig, FleetController, FleetOutcome, OptimizerConfig, ServeOptions};
use npu_sim::{ConfigSpread, DriftModel, FreqMhz, NpuConfig, OpDescriptor, Scenario, Schedule};
use npu_workloads::Workload;
use std::time::Instant;

const FLEET_SEED: u64 = 42;

/// Mixed request stream: compute-bound ops (whose energy optimum moves
/// when leakage drifts — the tuned serve_drift scenario) interleaved
/// with memory-bound ops of varying intensity, so classification splits
/// the schedule into a wide stage table and the strategy has real
/// width.
fn serve_workload(n: usize) -> Workload {
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

fn controller(devices: usize, epochs: usize, workers: usize, warm: bool) -> FleetController {
    // Fine-grained DVFS hardware: a 20 µs SetFreq apply latency. The
    // effective FAI is max(fai_us, setfreq latency), so the default 1 ms
    // latency would merge the whole request stream into one stage.
    let cfg = NpuConfig::builder()
        .thermal_tau_us(2_000.0)
        .setfreq_latency_us(20.0)
        .noise(0.0, 0.0, 0.0)
        .build()
        .expect("config");
    let drift = DriftModel::ambient_ramp(-300.0, 15.0)
        .with_gamma_aging(-9.0, 0.45)
        .with_theta_aging(-9.0, 0.45);
    // Tight silicon binning (few clusters, good donors), wide
    // drift-rate spread (staggered detections).
    let spread = ConfigSpread {
        beta_frac: 0.01,
        theta_frac: 0.01,
        gamma_frac: 0.01,
        k_frac: 0.01,
        ambient_range_c: 1.0,
        drift_frac: 0.4,
    };
    // Both passes build their initial models over the full 9-point
    // frequency grid — the deployment-realistic ladder. What differs is
    // the *re-optimization* ladder below.
    let grid: Vec<FreqMhz> = (1000..=1800).step_by(100).map(FreqMhz::new).collect();
    // A 25 µs frequency-adjustment interval keeps per-op stages (the
    // default 5 ms FAI would merge this request stream into one stage
    // and collapse the genome to a single gene).
    let opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(0.50)
        .with_fai_us(25.0)
        .with_build_freqs(grid);
    let serve = ServeOptions {
        detector: DriftDetectorConfig {
            window: 4,
            // Near-zero threshold: drift is always present, so every
            // device re-optimizes every epoch in BOTH passes (capped by
            // `max_swaps`). This pins the two passes to one identical,
            // saturated swap schedule — the historical 0.08 threshold
            // let the warm pass's cheap two-point refit leave residual
            // drift that kept the detector firing, giving warm ~3x the
            // swaps of cold and an apples-to-oranges end-to-end wall
            // comparison (the recorded warm_secs > cold_secs inversion).
            threshold: 1e-9,
            hysteresis: 2,
            cooldown_windows: 2,
            temp_scale_c: 10.0,
        },
        // Warm path: minimal two-point re-profile, transferred strategy
        // scored as a candidate. Cold path: empty ladder = re-profile the
        // optimizer's full build grid.
        ladder_freqs: if warm {
            vec![FreqMhz::new(1000), FreqMhz::new(1400)]
        } else {
            Vec::new()
        },
        // Trust the transferred strategy's neighborhood: no full-grid
        // escalation on the warm path (the two-point refit is enough to
        // re-anchor the model the re-search scores it on).
        fit_error_escalation: if warm { f64::INFINITY } else { 0.1 },
        max_swaps: 1,
        ..ServeOptions::default()
    };
    FleetController::new(cfg, serve_workload(48))
        .with_devices(devices)
        .with_epochs(epochs)
        .with_epoch_iterations(16)
        .with_workers(workers)
        .with_spread(spread)
        .with_fleet_seed(FLEET_SEED)
        .with_drift(drift)
        .with_config(opts)
        .with_serve_options(serve)
        .with_transfer(warm)
}

fn timed(c: &FleetController) -> (FleetOutcome, f64) {
    let start = Instant::now();
    let fleet = c.run().expect("fleet serve failed");
    (fleet, start.elapsed().as_secs_f64())
}

fn main() {
    let smoke = report::smoke();
    let (devices, epochs) = if smoke { (8, 2) } else { (64, 3) };

    // Untimed warmup: first-touch costs (allocator, page cache, lazy
    // statics) land here, not in either measured pass.
    let _ = controller(devices.min(8), 2.min(epochs), 0, true).run();

    // Warm pass: transfer on, auto workers.
    let warm_ctl = controller(devices, epochs, 0, true);
    let (warm, warm_secs) = timed(&warm_ctl);
    let stats = warm_ctl.cache().stats();
    let cache_lookups = stats.hits() + stats.misses();
    let cache_hit_rate = if cache_lookups == 0 {
        0.0
    } else {
        stats.hits() as f64 / cache_lookups as f64
    };
    assert!(warm.swaps > 0, "drift must force re-optimizations");
    assert!(
        warm.transfer_hits > 0,
        "re-optimizations after epoch 0 must warm-start from the board"
    );

    // Cold pass: transfer off, full re-profile ladder, fresh cache.
    let (cold, cold_secs) = timed(&controller(devices, epochs, 0, false));
    assert!(cold.swaps > 0, "cold fleet must re-optimize too");

    assert_eq!(cold.transfer_hits, 0, "transfer off cannot hit");
    // The saturated detector schedule makes the end-to-end walls
    // honestly comparable: same devices, same epochs, same swap count —
    // the passes differ only in how each re-optimization is served.
    assert_eq!(
        warm.swaps, cold.swaps,
        "warm and cold passes must perform identical swap schedules"
    );
    // Per-swap comparison: epoch-0 re-optimizations necessarily run cold
    // on both passes (no board published yet), so the transfer benefit
    // is the cost of one warm-seeded re-optimization vs one cold one.
    let cold_per_swap = cold.reopt_wall_s / cold.swaps.max(1) as f64;
    let warm_per_swap = warm.warm_reopt_wall_s / warm.warm_swaps.max(1) as f64;
    let reopt_speedup = cold_per_swap / warm_per_swap.max(1e-12);

    // Determinism: the warm fleet's digest is a pure function of the
    // configuration — worker count and cache interleaving never leak in.
    let mut bit_identical = true;
    for workers in [1usize, 2, 8] {
        let (again, _) = timed(&controller(devices, epochs, workers, true));
        if again.digest != warm.digest {
            eprintln!(
                "fleet digest diverged at {workers} workers: {:016x} != {:016x}",
                again.digest, warm.digest
            );
            bit_identical = false;
        }
    }
    assert!(
        bit_identical,
        "fleet must be bit-identical at 1/2/8 workers"
    );

    Report::new("fleet")
        .field("smoke", smoke)
        .field("devices", devices)
        .field("epochs", epochs)
        .field("workers", npu_sim::par::resolve_threads(0).min(devices))
        .field("clusters", warm.clusters)
        .fixed("warm_secs", warm_secs, 3)
        .fixed("cold_secs", cold_secs, 3)
        .fixed("devices_per_sec", (devices * epochs) as f64 / warm_secs, 3)
        .field("fleet_swaps", warm.swaps)
        .field("cold_swaps", cold.swaps)
        .field("transfer_hits", warm.transfer_hits)
        .field("transfer_misses", warm.transfer_misses)
        .fixed("transfer_hit_rate", warm.transfer_hit_rate(), 3)
        .fixed("cache_hit_rate", cache_hit_rate, 3)
        .fixed("warm_reopt_wall_s", warm.reopt_wall_s, 3)
        .fixed("cold_reopt_wall_s", cold.reopt_wall_s, 3)
        .fixed("warm_reopt_per_swap_ms", warm_per_swap * 1e3, 3)
        .fixed("cold_reopt_per_swap_ms", cold_per_swap * 1e3, 3)
        .fixed("reopt_speedup", reopt_speedup, 2)
        .field("digest", format!("{:016x}", warm.digest))
        .field("bit_identical", bit_identical)
        .write(smoke);
}
