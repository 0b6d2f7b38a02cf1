//! Operator zoo: per-operator frequency sensitivity, bottleneck class, and
//! performance/power trade-offs.
//!
//! ```sh
//! cargo run --release --example operator_zoo
//! ```
//!
//! For a representative set of operators, prints the bottleneck
//! classification (paper Fig. 12), the LFC/HFC sensitivity (Table 1), and
//! the measured performance/power trade-off of downclocking 1800 MHz →
//! 1300 MHz — the per-operator numbers behind the paper's Sect. 6 claim
//! that "compute-bound operators like MatMul sacrifice 6.9 % performance
//! for a 7.9 % power gain, while memory-bound ones like Gelu could trade a
//! 2 % performance drop for a 5 % or greater power gain".

use dvfs_repro::prelude::*;
use npu_dvfs::classify::{classify, sensitivity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NpuConfig::ascend_like();
    let zoo: Vec<(&str, npu_sim::OpDescriptor)> = vec![
        (
            "MatMul 4096^3",
            ops::matmul(&cfg, "MatMul", 4096, 4096, 4096, 0.55),
        ),
        (
            "Conv2D 56x56x256",
            ops::conv2d(&cfg, "Conv2D", 256, 256, 56, 56, 256, 3, 1, 0.4),
        ),
        ("Gelu 64M", ops::gelu(&cfg, 64 << 20)),
        ("Add 64M", ops::add(&cfg, 64 << 20)),
        ("Tanh 32M", ops::tanh(&cfg, 32 << 20)),
        ("Softmax 8k x 2k", ops::softmax(&cfg, 8192, 2048)),
        ("LayerNorm 16k x 4k", ops::layer_norm(&cfg, 16384, 4096)),
        ("ReduceMean 8k x 4k", ops::reduce_mean(&cfg, 8192, 4096)),
        (
            "BNTrainingUpdate 64M",
            ops::bn_training_update(&cfg, 64 << 20),
        ),
        (
            "AdamW 100M",
            ops::adam_update(&cfg, "ApplyAdamW", 100_000_000),
        ),
        ("TransData 32M", ops::transpose(&cfg, 32 << 20)),
        (
            "StridedSlice 4k",
            ops::scalar_op(&cfg, "StridedSlice", 4096),
        ),
    ];

    println!(
        "{:<22} {:<22} {:<6} {:>8} {:>8} {:>9} {:>9}",
        "operator", "bottleneck", "class", "dPerf%", "dPower%", "t@1800us", "t@1300us"
    );
    for (label, op) in zoo {
        let schedule = Schedule::new(vec![op; 12]);
        let mut dev = Device::new(cfg.clone());
        let hi = dev.run(&schedule, &RunOptions::at(FreqMhz::new(1800)))?;
        let lo = dev.run(&schedule, &RunOptions::at(FreqMhz::new(1300)))?;
        let rec = &hi.records[6];
        let b = classify(rec);
        let sens = match sensitivity(b) {
            npu_dvfs::Sensitivity::Sensitive => "HFC",
            npu_dvfs::Sensitivity::Insensitive => "LFC",
        };
        let d_perf = 100.0 * LossBudget::measured(hi.duration_us, lo.duration_us);
        let d_power = 100.0 * (1.0 - lo.avg_aicore_w() / hi.avg_aicore_w());
        println!(
            "{:<22} {:<22} {:<6} {:>8.2} {:>8.2} {:>9.1} {:>9.1}",
            label,
            b.to_string(),
            sens,
            d_perf,
            d_power,
            hi.duration_us / 12.0,
            lo.duration_us / 12.0,
        );
    }
    Ok(())
}
