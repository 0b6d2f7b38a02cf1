//! Sect. 8.1 regeneration: model-based vs model-free strategy search.
//!
//! The model-based GA scores a GPT-3 policy against precomputed stage
//! tables in microseconds (20,000 strategies ≪ 1 s of wall time here;
//! 5 minutes in the paper's multiprocess Python). A model-free search must
//! *execute* each candidate — one ~11 s training iteration per policy —
//! so within the same five minutes of device time it evaluates ~26
//! policies. This binary runs both against the same device and budget
//! accounting and reports what each achieves.

use npu_bench::{build_models, steady_profiles};
use npu_core::model_free_search;
use npu_dvfs::{preprocess::preprocess, search, GaConfig, LossBudget, StageTable};
use npu_exec::{execute_strategy, ExecutorOptions};
use npu_perf_model::FitFunction;
use npu_sim::{Device, NpuConfig};
use npu_workloads::models;
use std::time::Instant;

fn main() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::gpt3(&cfg);
    let mut dev = Device::new(cfg.clone());
    let profiles = steady_profiles(&mut dev, &workload, &[1800, 1000]);
    let baseline_records = &profiles[0].records;
    let baseline_time: f64 = baseline_records.iter().map(|r| r.dur_us).sum();
    let baseline_power: f64 = baseline_records
        .iter()
        .map(|r| r.aicore_w * r.dur_us)
        .sum::<f64>()
        / baseline_time;
    let pre = preprocess(baseline_records, 5_000.0);
    println!(
        "# GPT-3: baseline {:.2} s, {:.2} W AICore, {} candidate stages",
        baseline_time * 1e-6,
        baseline_power,
        pre.len()
    );

    // Model-based: build models once, then search.
    let (perf, power) = build_models(&cfg, &profiles, FitFunction::Quadratic);
    let table = StageTable::build(&pre, &perf, &power, &cfg.freq_table).expect("table");
    let t0 = Instant::now();
    let mb = search(&table, &GaConfig::default().with_oracle_seeds(8));
    let mb_wall = t0.elapsed();
    let mb_exec = execute_strategy(
        &mut dev,
        workload.schedule(),
        &mb.strategy,
        baseline_records,
        &ExecutorOptions::default(),
    )
    .expect("execute");
    println!(
        "\nmodel-based : {} policy evaluations in {mb_wall:?} wall ({:.1} µs/policy)",
        mb.evaluations,
        mb_wall.as_micros() as f64 / mb.evaluations as f64
    );
    println!(
        "  measured: loss {:+.2}%, AICore {:.2} W ({:+.2}%)",
        100.0 * LossBudget::measured(baseline_time, mb_exec.result.duration_us),
        mb_exec.result.avg_aicore_w(),
        100.0 * (1.0 - mb_exec.result.avg_aicore_w() / baseline_power)
    );

    // Model-free with the paper's 5-minute budget, and with 12x more.
    for (label, minutes) in [("5 min", 5.0), ("60 min", 60.0)] {
        let mf = model_free_search(
            &mut dev,
            workload.schedule(),
            baseline_records,
            &pre,
            minutes * 60.0e6,
        )
        .expect("model-free search");
        println!(
            "\nmodel-free ({label} of device time): {} policies executed",
            mf.evaluations
        );
        println!(
            "  best measured: loss {:+.2}%, AICore {:.2} W ({:+.2}%)",
            100.0 * LossBudget::measured(baseline_time, mf.best_eval.time_us),
            mf.best_eval.aicore_w(),
            100.0 * (1.0 - mf.best_eval.aicore_w() / baseline_power)
        );
    }
    println!("\n# paper: ~20,000 model-based assessments in 5 min vs ~30 model-free;");
    println!("# the model-free search cannot explore enough of the space to compete.");
}
