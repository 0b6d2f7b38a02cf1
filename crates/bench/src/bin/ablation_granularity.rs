//! Granularity ablation: program-level vs phase-level vs operator-level
//! DVFS on GPT-3 (the paper's motivation — prior work controls whole runs
//! or multi-second phases; millisecond `SetFreq` unlocks operator-level
//! control).
//!
//! All strategies are generated against the same models and budget
//! (2 % loss) and *executed* on the same device; measured numbers below.

use npu_bench::{build_models, steady_profiles};
use npu_dvfs::{phase_level, preprocess::preprocess, program_level, search, GaConfig, StageTable};
use npu_exec::{execute_strategy, ExecutorOptions};
use npu_perf_model::FitFunction;
use npu_sim::{Device, FreqMhz, NpuConfig};
use npu_workloads::models;

fn main() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::gpt3(&cfg);
    let mut dev = Device::new(cfg.clone());
    let profiles = steady_profiles(&mut dev, &workload, &[1800, 1000]);
    let baseline_records = profiles[0].records.clone();
    let baseline_time: f64 = baseline_records.iter().map(|r| r.dur_us).sum();
    let baseline_power: f64 = baseline_records
        .iter()
        .map(|r| r.aicore_w * r.dur_us)
        .sum::<f64>()
        / baseline_time;
    let (perf, power) = build_models(&cfg, &profiles, FitFunction::Quadratic);
    let pre = preprocess(&baseline_records, 5_000.0);
    let table = StageTable::build(&pre, &perf, &power, &cfg.freq_table).expect("table");
    let target = 0.02;

    println!("# DVFS granularity ablation on GPT-3, 2% loss target");
    println!(
        "{:<26} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "granularity", "SetFreq", "loss%", "AIC_red%", "pred_loss%", "pred_red%"
    );
    let pred_base = table.baseline();
    let report = |label: &str,
                  strategy: &npu_dvfs::DvfsStrategy,
                  predicted: &npu_dvfs::Evaluation,
                  dev: &mut Device| {
        let exec = execute_strategy(
            dev,
            workload.schedule(),
            strategy,
            &baseline_records,
            &ExecutorOptions::default(),
        )
        .expect("execute");
        println!(
            "{:<26} {:>8} {:>9.2} {:>9.2} {:>10.2} {:>10.2}",
            label,
            strategy.setfreq_count(FreqMhz::new(1800)),
            100.0 * (exec.result.duration_us / baseline_time - 1.0),
            100.0 * (1.0 - exec.result.avg_aicore_w() / baseline_power),
            100.0 * (predicted.time_us / pred_base.time_us - 1.0),
            100.0 * (1.0 - predicted.aicore_w() / pred_base.aicore_w())
        );
    };

    let prog = program_level(&table, target);
    report(
        "program-level (refs 2-15)",
        &prog.strategy,
        &prog.eval,
        &mut dev,
    );

    for phases in [4usize, 16, 64] {
        let ph = phase_level(&table, phases, target);
        report(
            &format!("phase-level x{phases} (refs 32+)"),
            &ph.strategy,
            &ph.eval,
            &mut dev,
        );
    }

    let ga = search(
        &table,
        &GaConfig::default()
            .with_loss_target(target)
            .with_oracle_seeds(8),
    );
    report(
        "operator-level (this work)",
        &ga.strategy,
        &ga.best_eval,
        &mut dev,
    );

    println!("\n# expectation: finer granularity saves more power inside the same");
    println!("# loss budget — the case for millisecond-level DVFS control.");
}
