//! Table 3 regeneration: end-to-end energy optimization.
//!
//! GPT-3 at performance-loss targets 2–10 % plus BERT, ResNet-50 and
//! ResNet-152 at the 2 % target, with the paper's reference numbers
//! alongside. Uses the measured offline calibration (not the oracle) —
//! this is the full production flow of Fig. 1.
//!
//! Exits non-zero when any row's *planned* loss — the searched
//! strategy's predicted time T against the stage table's baseline B,
//! T/B − 1 — exceeds the search's own budget 1/(1−ℓ) − 1 (the bound
//! T ≤ B/(1−ℓ) that Eq. 17 rewards). The measured loss is reported, not
//! gated.

use npu_core::{EnergyOptimizer, OptimizerConfig};
use npu_sim::NpuConfig;
use npu_workloads::models;

struct PaperRow {
    loss: f64,
    soc_red: f64,
    aicore_red: f64,
}

fn main() {
    let cfg = NpuConfig::ascend_like();
    let mut optimizer = EnergyOptimizer::calibrated(cfg.clone()).expect("calibration");

    let gpt3 = models::gpt3(&cfg);
    let rows: Vec<(npu_workloads::Workload, f64, PaperRow)> = vec![
        (
            gpt3.clone(),
            0.02,
            PaperRow {
                loss: 1.59,
                soc_red: 5.56,
                aicore_red: 15.27,
            },
        ),
        (
            gpt3.clone(),
            0.04,
            PaperRow {
                loss: 3.28,
                soc_red: 6.98,
                aicore_red: 20.25,
            },
        ),
        (
            gpt3.clone(),
            0.06,
            PaperRow {
                loss: 4.96,
                soc_red: 9.35,
                aicore_red: 25.68,
            },
        ),
        (
            gpt3.clone(),
            0.08,
            PaperRow {
                loss: 7.17,
                soc_red: 10.65,
                aicore_red: 29.77,
            },
        ),
        (
            gpt3,
            0.10,
            PaperRow {
                loss: 8.59,
                soc_red: 11.97,
                aicore_red: 32.01,
            },
        ),
        (
            models::bert(&cfg),
            0.02,
            PaperRow {
                loss: 1.78,
                soc_red: 6.61,
                aicore_red: 17.08,
            },
        ),
        (
            models::resnet50(&cfg),
            0.02,
            PaperRow {
                loss: 1.80,
                soc_red: 3.44,
                aicore_red: 11.05,
            },
        ),
        (
            models::resnet152(&cfg),
            0.02,
            PaperRow {
                loss: 1.88,
                soc_red: 4.20,
                aicore_red: 10.37,
            },
        ),
    ];

    println!(
        "{:<10} {:>6} | {:>9} {:>9} {:>7} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>8}",
        "model",
        "target",
        "base_s",
        "dvfs_s",
        "loss%",
        "SoC_W",
        "dvfsW",
        "red%",
        "AIC_W",
        "dvfsW",
        "red%",
        "SetFreq"
    );
    let mut summary = Vec::new();
    let mut over_budget = Vec::new();
    for (workload, target, paper) in rows {
        let opts = OptimizerConfig::default().with_loss_target(target);
        let mut session = optimizer.session(&workload, &opts);
        let r = session.report().expect("optimize");
        let planned_base = session.stage_table().expect("search ran").baseline();
        // The bound as the score checks it: B/T ≥ 1 − ℓ.
        if planned_base.time_us / r.predicted.time_us < 1.0 - target {
            over_budget.push(format!(
                "{} at {:.0}%: planned loss {:.4}% over the budget {:.4}%",
                r.workload,
                100.0 * target,
                100.0 * (r.predicted.time_us / planned_base.time_us - 1.0),
                100.0 * (1.0 / (1.0 - target) - 1.0)
            ));
        }
        println!(
            "{:<10} {:>5.0}% | {:>9.4} {:>9.4} {:>7.2} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2} | {:>8}",
            r.workload,
            100.0 * target,
            r.baseline.time_s(),
            r.optimized.time_s(),
            100.0 * r.perf_loss(),
            r.baseline.soc_w,
            r.optimized.soc_w,
            100.0 * r.soc_reduction(),
            r.baseline.aicore_w,
            r.optimized.aicore_w,
            100.0 * r.aicore_reduction(),
            r.setfreq_count,
        );
        println!(
            "{:<10} {:>6} | {:>9} {:>9} {:>7.2} | {:>8} {:>8} {:>8.2} | {:>8} {:>8} {:>8.2} |",
            "  (paper)", "", "", "", paper.loss, "", "", paper.soc_red, "", "", paper.aicore_red
        );
        if target == 0.02 {
            summary.push((r.perf_loss(), r.soc_reduction(), r.aicore_reduction()));
        }
    }

    let n = summary.len() as f64;
    let avg = |f: fn(&(f64, f64, f64)) -> f64| summary.iter().map(f).sum::<f64>() / n;
    println!(
        "\n# averages over the four 2%-target rows: loss {:.2}%, SoC reduction {:.2}%, AICore reduction {:.2}%",
        100.0 * avg(|r| r.0),
        100.0 * avg(|r| r.1),
        100.0 * avg(|r| r.2)
    );
    println!("# paper averages: loss 1.76%, SoC reduction 4.95%, AICore reduction 13.44%");
    if !over_budget.is_empty() {
        for row in &over_budget {
            eprintln!("planned loss over budget: {row}");
        }
        std::process::exit(1);
    }
    println!("# every row's planned loss T/B - 1 is within its budget 1/(1-l) - 1");
}
