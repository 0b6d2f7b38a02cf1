//! GPT-3 training energy optimization: the paper's headline experiment.
//!
//! ```sh
//! cargo run --release --example gpt3_training
//! ```
//!
//! Runs the full Fig. 1 loop on a GPT-3 training iteration (one
//! tensor-parallel × pipeline-parallel NPU shard, ~11.3 s/iteration at
//! 1800 MHz) under performance-loss targets from 2 % to 10 %, reproducing
//! the shape of the paper's Table 3: power savings grow with the allowed
//! loss, with diminishing returns beyond the 2 % sweet spot.

use dvfs_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NpuConfig::ascend_like();
    let workload = models::gpt3(&cfg);
    println!(
        "GPT-3 iteration: {} operators on one TP×PP shard",
        workload.op_count()
    );

    // Ground-truth calibration keeps calibration's measurement error out
    // of the table, so each row shows the search and the executor alone;
    // `EnergyOptimizer::calibrated(cfg)` runs the measured procedure.
    let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
    let mut optimizer = EnergyOptimizer::new(Device::new(cfg.clone()), calib);

    println!(
        "{:<8} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "target", "iter_s", "loss%", "SoC_W", "SoC_red%", "AIC_W", "AIC_red%"
    );
    for target in [0.02, 0.04, 0.06, 0.08, 0.10] {
        let opts = OptimizerConfig::default().with_loss_target(target);
        let report = optimizer.optimize(&workload, &opts)?;
        println!(
            "{:<8} {:>10.3} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            format!("{:.0}%", 100.0 * target),
            report.optimized.time_s(),
            100.0 * report.perf_loss(),
            report.optimized.soc_w,
            100.0 * report.soc_reduction(),
            report.optimized.aicore_w,
            100.0 * report.aicore_reduction(),
        );
    }
    Ok(())
}
