//! Integration: the production split — persist a generated strategy,
//! reload it, execute, and export the run as a Chrome trace.

use dvfs_repro::prelude::*;
use npu_exec::{execute_strategy, read_strategy, write_strategy, ExecutorOptions};
use npu_sim::trace::write_chrome_trace;
use std::io::BufReader;

#[test]
fn strategy_round_trips_and_executes_identically() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::vit_base(&cfg);
    let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
    let mut optimizer = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
    let opts = OptimizerConfig::default();
    let (_, outcome) = optimizer.optimize_with_outcome(&workload, &opts).unwrap();

    // Serialize and reload.
    let mut buf = Vec::new();
    write_strategy(&outcome.strategy, &mut buf).unwrap();
    let reloaded = read_strategy(BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(reloaded.freqs(), outcome.strategy.freqs());
    assert_eq!(reloaded.len(), outcome.strategy.len());

    // Executing the original and the reloaded strategy on identical
    // devices produces identical runs (op ranges and frequencies are the
    // executable content; timestamps are only informational).
    let mut dev_a = Device::with_seed(cfg.clone(), 9);
    let mut dev_b = Device::with_seed(cfg.clone(), 9);
    let baseline = Device::with_seed(cfg, 9)
        .run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))
        .unwrap();
    let run_a = execute_strategy(
        &mut dev_a,
        workload.schedule(),
        &outcome.strategy,
        &baseline.records,
        &ExecutorOptions::default(),
    )
    .unwrap();
    let run_b = execute_strategy(
        &mut dev_b,
        workload.schedule(),
        &reloaded,
        &baseline.records,
        &ExecutorOptions::default(),
    )
    .unwrap();
    assert_eq!(run_a.result, run_b.result);
}

#[test]
fn dvfs_run_exports_inspectable_trace() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::tiny(&cfg);
    let mut dev = Device::new(cfg.clone());
    let baseline = dev
        .run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))
        .unwrap();
    // A hand-built two-stage strategy with one switch.
    let mid = workload.op_count() / 2;
    let stages = vec![
        npu_dvfs::Stage {
            start_us: 0.0,
            dur_us: baseline.records[..mid].iter().map(|r| r.dur_us).sum(),
            op_range: 0..mid,
            kind: npu_dvfs::StageKind::Hfc,
        },
        npu_dvfs::Stage {
            start_us: baseline.records[mid].start_us,
            dur_us: baseline.records[mid..].iter().map(|r| r.dur_us).sum(),
            op_range: mid..workload.op_count(),
            kind: npu_dvfs::StageKind::Lfc,
        },
    ];
    let strategy =
        npu_dvfs::DvfsStrategy::new(stages, vec![FreqMhz::new(1800), FreqMhz::new(1200)]);
    let exec = execute_strategy(
        &mut dev,
        workload.schedule(),
        &strategy,
        &baseline.records,
        &ExecutorOptions {
            collect_telemetry: true,
            telemetry_period_us: 100.0,
            ..ExecutorOptions::default()
        },
    )
    .unwrap();
    let mut json = Vec::new();
    write_chrome_trace(&exec.result, &mut json).unwrap();
    let s = String::from_utf8(json).unwrap();
    // Every operator appears, the frequency counter records the switch,
    // and telemetry counters exist.
    assert_eq!(s.matches("\"ph\":\"X\"").count(), workload.op_count());
    assert!(s.contains("\"mhz\":1200"));
    assert!(s.contains("\"power_w\""));
    assert_eq!(s.matches('{').count(), s.matches('}').count());
}
