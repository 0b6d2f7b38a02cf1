//! Fig. 10 regeneration: equilibrium AICore temperature vs SoC power,
//! one line per operator. Each operator runs as a sustained load at every
//! supported frequency until thermal equilibrium; the (P_soc, T) points of
//! one operator trace one line, and all lines share the `T = T0 + k·P_soc`
//! slope (Eq. (15)).
//!
//! Self-checking: exits non-zero unless the pooled fit recovers the
//! profile's `T0` within 0.25 °C and its `k` within 1 %.

use npu_bench::all_freqs_mhz;
use npu_power_model::linear_regression;
use npu_sim::{Device, FreqMhz, NpuConfig, RunOptions, Schedule};
use npu_workloads::ops;

fn main() {
    let cfg = NpuConfig::ascend_like();
    let operators = vec![
        (
            "MatMul",
            ops::matmul(&cfg, "MatMul", 4096, 4096, 4096, 0.55),
        ),
        (
            "Conv2D",
            ops::conv2d(&cfg, "Conv2D", 256, 256, 28, 28, 256, 3, 1, 0.4),
        ),
        ("Gelu", ops::gelu(&cfg, 128 << 20)),
        ("SoftmaxV2", ops::softmax(&cfg, 16384, 2048)),
        (
            "ApplyAdamW",
            ops::adam_update(&cfg, "ApplyAdamW", 200_000_000),
        ),
    ];
    println!("# Fig 10: equilibrium temperature vs SoC power, one line per operator");
    println!(
        "{:>12} {:>8} {:>10} {:>8}",
        "operator", "f_MHz", "P_soc_W", "T_C"
    );
    let mut all_points = Vec::new();
    for (name, op) in operators {
        let schedule = Schedule::new(vec![op; 8]);
        let mut dev = Device::new(cfg.clone());
        for mhz in all_freqs_mhz().into_iter().step_by(2) {
            let f = FreqMhz::new(mhz);
            dev.warm_until_steady(&schedule, f).expect("warm-up");
            let run = dev
                .run(&schedule, &RunOptions::at(f).without_records())
                .expect("run");
            println!(
                "{:>12} {:>8} {:>10.2} {:>8.2}",
                name,
                mhz,
                run.avg_soc_w(),
                run.end_temp_c
            );
            all_points.push((run.avg_soc_w(), run.end_temp_c));
        }
    }
    let (k, t0) = linear_regression(&all_points).expect("fit");
    println!(
        "# pooled fit: T = {t0:.2} + {k:.4}·P_soc  (ground truth: T = {} + {}·P_soc)",
        cfg.ambient_c, cfg.k_c_per_w
    );
    if (t0 - cfg.ambient_c).abs() > 0.25 || (k / cfg.k_c_per_w - 1.0).abs() > 0.01 {
        eprintln!(
            "fig10_thermal: the pooled fit misses T0 by more than 0.25 °C or k by more than 1 %"
        );
        std::process::exit(1);
    }
}
