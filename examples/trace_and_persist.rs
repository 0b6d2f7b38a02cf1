//! Production-style split: generate a DVFS strategy, persist it to a
//! file, reload it in a fresh "executor process", run it, and export a
//! Chrome trace for inspection (open in `chrome://tracing` or Perfetto to
//! see the frequency stepping around operators, as the paper does with
//! the CANN profiler's visualized trace in Sect. 7.4).
//!
//! ```sh
//! cargo run --release --example trace_and_persist
//! ```

use dvfs_repro::prelude::*;
use npu_exec::{execute_strategy, read_strategy, write_strategy, ExecutorOptions};
use npu_sim::trace::write_chrome_trace;
use std::fs::File;
use std::io::BufReader;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NpuConfig::ascend_like();
    let workload = models::bert(&cfg);
    let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
    let mut optimizer = EnergyOptimizer::new(Device::new(cfg.clone()), calib);

    // Phase 1: strategy generation (normally a one-off analysis job).
    let (report, outcome) =
        optimizer.optimize_with_outcome(&workload, &OptimizerConfig::default())?;
    println!("{report}");

    let strategy_path = std::env::temp_dir().join("bert_dvfs.strategy");
    write_strategy(&outcome.strategy, File::create(&strategy_path)?)?;
    println!("strategy written to {}", strategy_path.display());

    // Phase 2: the executor process reloads the strategy and applies it.
    let reloaded = read_strategy(BufReader::new(File::open(&strategy_path)?))?;
    // Timestamps round to µs precision in the file; the executable parts
    // (operator ranges and frequencies) round-trip exactly.
    assert_eq!(reloaded.freqs(), outcome.strategy.freqs());
    assert_eq!(
        reloaded
            .stages()
            .iter()
            .map(|s| s.op_range.clone())
            .collect::<Vec<_>>(),
        outcome
            .strategy
            .stages()
            .iter()
            .map(|s| s.op_range.clone())
            .collect::<Vec<_>>()
    );

    let mut dev = Device::new(cfg.clone());
    dev.warm_until_steady(workload.schedule(), FreqMhz::new(1800))?;
    let baseline = dev.run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))?;
    let exec = execute_strategy(
        &mut dev,
        workload.schedule(),
        &reloaded,
        &baseline.records,
        &ExecutorOptions {
            collect_telemetry: true,
            telemetry_period_us: 200.0,
            ..ExecutorOptions::default()
        },
    )?;
    println!(
        "executed reloaded strategy: {} SetFreq, AICore {:.2} W -> {:.2} W",
        exec.setfreq_count,
        baseline.avg_aicore_w(),
        exec.result.avg_aicore_w()
    );

    let trace_path = std::env::temp_dir().join("bert_dvfs_trace.json");
    write_chrome_trace(&exec.result, File::create(&trace_path)?)?;
    println!(
        "chrome trace written to {} ({} operator events) — open in chrome://tracing",
        trace_path.display(),
        exec.result.records.len()
    );
    Ok(())
}
