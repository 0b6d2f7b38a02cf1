//! Integration: the paper's deployment claim — "once we optimize a single
//! iteration, the generated policy can be applied to all subsequent
//! iterations" (Sect. 6). The strategy is generated once from one
//! profiled iteration and then re-applied many times on a device whose
//! thermal state keeps evolving; savings and loss must stay stable.

use dvfs_repro::prelude::*;
use npu_exec::{execute_strategy, ExecutorOptions};

#[test]
fn one_policy_serves_many_iterations() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::vit_base(&cfg);
    let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
    let mut optimizer = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
    let opts = OptimizerConfig::default();
    let (report, outcome) = optimizer.optimize_with_outcome(&workload, &opts).unwrap();

    // Fresh steady-state device; profile once for trigger placement.
    let mut dev = Device::new(cfg.clone());
    dev.warm_until_steady(workload.schedule(), FreqMhz::new(1800))
        .unwrap();
    let baseline = dev
        .run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))
        .unwrap();

    // Apply the single generated policy for 25 consecutive iterations.
    let mut losses = Vec::new();
    let mut reductions = Vec::new();
    for _ in 0..25 {
        let exec = execute_strategy(
            &mut dev,
            workload.schedule(),
            &outcome.strategy,
            &baseline.records,
            &ExecutorOptions::default(),
        )
        .unwrap();
        losses.push(LossBudget::measured(
            baseline.duration_us,
            exec.result.duration_us,
        ));
        reductions.push(1.0 - exec.result.avg_aicore_w() / baseline.avg_aicore_w());
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mean_loss = mean(&losses);
    let mean_red = mean(&reductions);
    // Stable across iterations: every iteration within a small band of the
    // mean (execution noise only — no drift).
    for (i, &l) in losses.iter().enumerate() {
        assert!(
            (l - mean_loss).abs() < 0.01,
            "iteration {i}: loss {l:.4} drifted from mean {mean_loss:.4}"
        );
    }
    for (i, &r) in reductions.iter().enumerate() {
        assert!(
            (r - mean_red).abs() < 0.02,
            "iteration {i}: reduction {r:.4} drifted from mean {mean_red:.4}"
        );
    }
    // And consistent with the one-shot report from the generation phase.
    assert!(
        (mean_loss - report.perf_loss()).abs() < 0.015,
        "steady-state loss {mean_loss:.4} vs generation-time {:.4}",
        report.perf_loss()
    );
    assert!(
        mean_red > 0.0,
        "the policy must keep saving power across iterations"
    );
}
