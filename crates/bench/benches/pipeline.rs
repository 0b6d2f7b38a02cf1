//! End-to-end pipeline throughput: cold-serial vs cold-parallel vs
//! warm-cache batch optimization.
//!
//! Models the fleet scenario the pipeline exists for: the same
//! 4-workload batch is (re-)optimized once per epoch — a nightly job,
//! a CI gate, a re-run after an unrelated config change. Pre-pipeline,
//! every service is cold and serial: no cache, single-threaded sweeps,
//! each epoch pays the full profile/fit/search cost again. The
//! pipeline serves the first epoch cold, one session per workload
//! fanned out with `par_map_ordered`, and every later epoch from the
//! shared content-addressed cache. Both schedules are fully measured (no extrapolation) and the
//! bench writes per-pass and whole-epoch sessions/sec plus speedups to
//! `BENCH_pipeline.json` at the workspace root.
//!
//! Every pass must produce bit-identical reports (worker counts and
//! cache state change wall time, never results), and the warm passes
//! must not re-run a single cached stage; the bench asserts both, so
//! it fails loudly if either determinism property regresses.
//!
//! `CRITERION_SMOKE=1` runs a tiny batch and writes
//! `BENCH_pipeline.smoke.json` instead, leaving the checked-in
//! full-run measurement untouched (scripts/check.sh validates the
//! smoke file).

use npu_core::{ArtifactCache, EnergyOptimizer, OptimizationReport, OptimizerConfig};
use npu_power_model::HardwareCalibration;
use npu_sim::par::{par_map_ordered, resolve_threads};
use npu_sim::{Device, NpuConfig};
use npu_workloads::{models, Workload};
use std::time::Instant;

/// Batch services per epoch in both schedules. The baseline re-pays
/// the full cost each service; the pipeline pays one cold service and
/// serves the rest warm.
const EPOCH_BATCHES: usize = 4;

fn batch(cfg: &NpuConfig, smoke: bool) -> Vec<Workload> {
    if smoke {
        vec![
            models::tiny(cfg),
            models::tanh_loop(cfg, 12),
            models::softmax_loop(cfg, 8),
            models::tanh_loop(cfg, 6),
        ]
    } else {
        vec![
            models::bert(cfg),
            models::vit_base(cfg),
            models::resnet50(cfg),
            models::deit_small(cfg),
        ]
    }
}

fn opts(smoke: bool) -> OptimizerConfig {
    let mut o = OptimizerConfig::default();
    if smoke {
        o = o.with_fai_us(100.0);
        o.ga = o.ga.with_population(30).with_iterations(40);
    } else {
        o.ga = o.ga.with_population(200).with_iterations(600);
    }
    o
}

/// One batch service: a session per workload on a fresh device of
/// `cfg`, all sharing `cache`, fanned out over `workers`. Returns the
/// reports in batch order and the wall time.
fn timed(
    cfg: &NpuConfig,
    calib: HardwareCalibration,
    opts: &OptimizerConfig,
    cache: &ArtifactCache,
    workers: usize,
    batch: &[Workload],
) -> (Vec<OptimizationReport>, f64) {
    let start = Instant::now();
    let reports = par_map_ordered(workers, batch.len(), |i| {
        let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
        let mut session = opt.session(&batch[i], opts);
        session.set_cache(cache.clone());
        session.report()
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .expect("batch optimization failed");
    (reports, start.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::var("CRITERION_SMOKE").is_ok_and(|v| v == "1");
    let cfg = NpuConfig::ascend_like();
    let calib = HardwareCalibration::ground_truth(&cfg);
    let batch = batch(&cfg, smoke);
    let n = batch.len();

    // Pre-pipeline baseline: every epoch service is a fresh cold-serial
    // run — no cache survives between services, sweeps on one thread.
    let mut serial_epoch_secs = 0.0;
    let mut serial_reports = Vec::new();
    let serial_opts = opts(smoke).with_threads(1);
    for _ in 0..EPOCH_BATCHES {
        let cache = ArtifactCache::new();
        let (reports, secs) = timed(&cfg, calib, &serial_opts, &cache, 1, &batch);
        serial_epoch_secs += secs;
        serial_reports = reports;
    }
    let serial_secs = serial_epoch_secs / EPOCH_BATCHES as f64;

    // The pipeline: first service cold and parallel…
    let workers = resolve_threads(0).min(n);
    let pipeline_opts = opts(smoke);
    let cache = ArtifactCache::new();
    let (parallel_reports, parallel_secs) =
        timed(&cfg, calib, &pipeline_opts, &cache, workers, &batch);
    let cold_stats = cache.stats();
    assert_eq!(cold_stats.hits(), 0, "cold cache cannot hit");
    assert!(
        parallel_reports == serial_reports,
        "cold-parallel reports diverged from the serial baseline"
    );

    // …then every later service from the shared warm cache.
    cache.reset_stats();
    let mut warm_epoch_secs = 0.0;
    for _ in 1..EPOCH_BATCHES {
        let (warm_reports, secs) = timed(&cfg, calib, &pipeline_opts, &cache, workers, &batch);
        warm_epoch_secs += secs;
        assert!(
            warm_reports == serial_reports,
            "warm reports diverged from the serial baseline"
        );
    }
    let warm_secs = warm_epoch_secs / (EPOCH_BATCHES - 1) as f64;
    let warm_stats = cache.stats();
    assert_eq!(
        warm_stats.misses(),
        0,
        "a warm pass re-ran a cached stage: {warm_stats:?}"
    );
    let pipeline_epoch_secs = parallel_secs + warm_epoch_secs;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pipeline\",\n",
            "  \"smoke\": {},\n",
            "  \"workloads\": {},\n",
            "  \"workers\": {},\n",
            "  \"epoch_batches\": {},\n",
            "  \"cold_serial_secs\": {:.3},\n",
            "  \"cold_parallel_secs\": {:.3},\n",
            "  \"warm_cache_secs\": {:.4},\n",
            "  \"cold_serial_sessions_per_sec\": {:.3},\n",
            "  \"cold_parallel_sessions_per_sec\": {:.3},\n",
            "  \"warm_cache_sessions_per_sec\": {:.3},\n",
            "  \"baseline_epoch_secs\": {:.3},\n",
            "  \"pipeline_epoch_secs\": {:.3},\n",
            "  \"speedup_cold_parallel\": {:.2},\n",
            "  \"speedup_warm_cache\": {:.2},\n",
            "  \"speedup_end_to_end\": {:.2},\n",
            "  \"warm_second_pass_misses\": {},\n",
            "  \"bit_identical\": {}\n",
            "}}\n"
        ),
        smoke,
        n,
        workers,
        EPOCH_BATCHES,
        serial_secs,
        parallel_secs,
        warm_secs,
        n as f64 / serial_secs,
        n as f64 / parallel_secs,
        n as f64 / warm_secs,
        serial_epoch_secs,
        pipeline_epoch_secs,
        serial_secs / parallel_secs,
        serial_secs / warm_secs,
        serial_epoch_secs / pipeline_epoch_secs,
        warm_stats.misses(),
        true, // asserted above, per pass
    );
    let file = if smoke {
        "BENCH_pipeline.smoke.json"
    } else {
        "BENCH_pipeline.json"
    };
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    }
    print!("{json}");
}
