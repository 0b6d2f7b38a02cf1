//! Sect. 8.2 future-work exploration: what uncore DVFS would buy.
//!
//! The paper: "other uncore components on the SoC, such as HBM and AICPU,
//! lack frequency-tuning capabilities … averaging around 80 % [of SoC
//! power], which limits the overall power savings. In the future, when
//! hardware supports frequency tuning for these uncore components, we will
//! utilize these capabilities."
//!
//! The simulator has the knob the hardware lacks
//! ([`npu_sim::Device::set_uncore_scale`]): L2/HBM bandwidth and the
//! clock-dynamic share of the uncore floor scale together. This binary
//! sweeps joint static (core-frequency, uncore-scale) settings on GPT-3
//! and reports the measured loss and SoC power, then combines the best
//! uncore setting with the fine-grained core-DVFS strategy.

use npu_core::{EnergyOptimizer, OptimizerConfig};
use npu_dvfs::LossBudget;
use npu_power_model::HardwareCalibration;
use npu_sim::{Device, FreqMhz, NpuConfig, RunOptions};
use npu_workloads::models;

fn main() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::gpt3(&cfg);

    // Baseline: core 1800, uncore nominal.
    let mut dev = Device::new(cfg.clone());
    dev.warm_until_steady(workload.schedule(), FreqMhz::new(1800))
        .expect("warm");
    let base = dev
        .run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))
        .expect("baseline");

    println!(
        "# GPT-3 joint static (core, uncore) sweep; baseline SoC {:.2} W",
        base.avg_soc_w()
    );
    println!(
        "{:<10} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "core", "uncore", "loss%", "SoC_W", "SoC_red%", "AIC_red%"
    );
    for &core in &[1800u32, 1600, 1400] {
        for &scale in &[1.0f64, 0.9, 0.8, 0.7] {
            let mut d = Device::new(cfg.clone());
            d.set_uncore_scale(scale).expect("scale in range");
            d.warm_until_steady(workload.schedule(), FreqMhz::new(core))
                .expect("warm");
            let run = d
                .run(workload.schedule(), &RunOptions::at(FreqMhz::new(core)))
                .expect("run");
            println!(
                "{:<10} {:>8.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                format!("{core} MHz"),
                scale,
                100.0 * LossBudget::measured(base.duration_us, run.duration_us),
                run.avg_soc_w(),
                100.0 * (1.0 - run.avg_soc_w() / base.avg_soc_w()),
                100.0 * (1.0 - run.avg_aicore_w() / base.avg_aicore_w()),
            );
        }
    }

    // Fine-grained core DVFS (the paper's system) on top of a mild static
    // uncore downclock: the workload is compute/communication dominated,
    // so BW headroom exists.
    println!("\n# fine-grained core DVFS (2% target) stacked on a static uncore downclock");
    let calib = HardwareCalibration::ground_truth(&cfg);
    for &scale in &[1.0f64, 0.9, 0.8] {
        let mut d = Device::new(cfg.clone());
        d.set_uncore_scale(scale).expect("scale in range");
        let mut optimizer = EnergyOptimizer::new(d, calib);
        let r = optimizer
            .optimize(&workload, &OptimizerConfig::default())
            .expect("optimize");
        println!(
            "uncore {scale:.1}: loss vs own baseline {:+.2}%, SoC {:.2} W ({:+.2}% vs nominal baseline), AICore {:.2} W",
            100.0 * r.perf_loss(),
            r.optimized.soc_w,
            100.0 * (1.0 - r.optimized.soc_w / base.avg_soc_w()),
            r.optimized.aicore_w,
        );
    }
    println!("\n# paper Sect. 8.2: uncore power is ~80% of the SoC; core-only DVFS");
    println!("# cannot touch it. The sweep shows what the missing knob is worth.");
}
