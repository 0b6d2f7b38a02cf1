//! Sect. 8.4 regeneration: host-bound llama2 decode inference. Lowering
//! every operator to 1300 MHz mostly fills NPU idle time (the CPU
//! dispatches slower than the NPU executes), trading a small performance
//! loss for large power cuts.

use npu_sim::{Device, FreqMhz, NpuConfig, OpClass, RunOptions};
use npu_workloads::models;

fn main() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::llama2_inference(&cfg, 32);
    let mut dev = Device::new(cfg.clone());

    dev.warm_until_steady(workload.schedule(), FreqMhz::new(1800))
        .expect("warm");
    let base = dev
        .run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))
        .expect("baseline");
    let idle_us: f64 = base
        .records
        .iter()
        .filter(|r| r.class == OpClass::Idle)
        .map(|r| r.dur_us)
        .sum();
    println!(
        "# llama2 decode: {} ops, baseline {:.1} ms/32 steps, NPU idle fraction {:.1}%",
        workload.op_count(),
        base.duration_us / 1000.0,
        100.0 * idle_us / base.duration_us
    );

    println!(
        "{:<10} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "freq", "time_ms", "loss%", "SoC_W", "SoC_red%", "AIC_W", "AIC_red%"
    );
    for mhz in [1800u32, 1600, 1400, 1300, 1200, 1000] {
        let f = FreqMhz::new(mhz);
        dev.warm_until_steady(workload.schedule(), f).expect("warm");
        let run = dev
            .run(workload.schedule(), &RunOptions::at(f))
            .expect("run");
        println!(
            "{:<10} {:>9.2} {:>8.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            f.to_string(),
            run.duration_us / 1000.0,
            100.0 * (run.duration_us / base.duration_us - 1.0),
            run.avg_soc_w(),
            100.0 * (1.0 - run.avg_soc_w() / base.avg_soc_w()),
            run.avg_aicore_w(),
            100.0 * (1.0 - run.avg_aicore_w() / base.avg_aicore_w()),
        );
    }
    println!("\n# paper (all operators at 1300 MHz): loss 2.48%, SoC -11.26%, AICore -25.06%");
}
