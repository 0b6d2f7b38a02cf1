//! Batch optimization with a shared warm cache.
//!
//! Optimizes a small batch of workloads concurrently, one optimization
//! session per workload fanned out with `par_map_ordered`, over one
//! content-addressed artifact cache. It then runs the same batch again
//! to show the warm path: zero cache misses, no re-profiling, and
//! reports bit-identical to the cold pass.
//!
//! ```sh
//! cargo run --release --example batch_fleet
//! ```

use dvfs_repro::core::OptimizeError;
use dvfs_repro::power_model::HardwareCalibration;
use dvfs_repro::prelude::*;
use dvfs_repro::sim::par::par_map_ordered;
use dvfs_repro::workloads::Workload;
use std::time::Instant;

/// Optimizes every workload of `batch` on a fresh device of `cfg`, all
/// sessions sharing `cache`. Each device starts from the same noise
/// seed, so a report is a pure function of its workload: reports come
/// back in batch order and are identical at every worker count
/// (`0` = auto-detect; `NPU_THREADS=n` pins it).
fn run_batch(
    cfg: &NpuConfig,
    calib: HardwareCalibration,
    opts: &OptimizerConfig,
    cache: &ArtifactCache,
    batch: &[Workload],
) -> Result<Vec<OptimizationReport>, OptimizeError> {
    par_map_ordered(0, batch.len(), |i| {
        let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
        let mut session = opt.session(&batch[i], opts);
        session.set_cache(cache.clone());
        session.report()
    })
    .into_iter()
    .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NpuConfig::ascend_like();
    // Ground-truth calibration: the example is about the shared cache,
    // and the oracle keeps calibration's measurement error out of its
    // reports. `EnergyOptimizer::calibrated(cfg)` runs the measured
    // procedure instead.
    let calib = HardwareCalibration::ground_truth(&cfg);
    let batch = [
        models::tiny(&cfg),
        models::tanh_loop(&cfg, 24),
        models::softmax_loop(&cfg, 16),
        models::tanh_loop(&cfg, 12),
    ];

    let opts = OptimizerConfig::default().with_fai_us(200.0);
    let cache = ArtifactCache::new();

    let t = Instant::now();
    let cold = run_batch(&cfg, calib, &opts, &cache, &batch)?;
    let cold_s = t.elapsed().as_secs_f64();
    println!("── cold batch ({cold_s:.2}s) ──");
    for r in &cold {
        println!(
            "{:<14} aicore −{:>4.1}%  loss {:>4.2}%",
            r.workload,
            r.aicore_reduction() * 100.0,
            r.perf_loss() * 100.0,
        );
    }
    let stats = cache.stats();
    println!(
        "cache: {} hits / {} misses (profile {}, model {}, search {})",
        stats.hits(),
        stats.misses(),
        stats.profile.misses,
        stats.model.misses,
        stats.search.misses,
    );

    cache.reset_stats();
    let t = Instant::now();
    let warm = run_batch(&cfg, calib, &opts, &cache, &batch)?;
    let warm_s = t.elapsed().as_secs_f64();
    let stats = cache.stats();
    println!("── warm batch ({warm_s:.2}s) ──");
    println!(
        "cache: {} hits / {} misses — {:.1}× faster, reports identical: {}",
        stats.hits(),
        stats.misses(),
        cold_s / warm_s,
        warm == cold,
    );
    assert_eq!(stats.misses(), 0, "warm batch must be fully cached");
    assert_eq!(warm, cold, "warm reports must be bit-identical");
    Ok(())
}
