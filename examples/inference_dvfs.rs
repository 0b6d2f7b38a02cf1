//! Host-bound inference DVFS (paper Sect. 8.4): on a llama2-style decode
//! trace the CPU dispatches operators slower than the NPU executes them,
//! so uniformly lowering the frequency to 1300 MHz mostly fills idle time
//! — a large power cut for a small performance loss.
//!
//! ```sh
//! cargo run --release --example inference_dvfs
//! ```

use dvfs_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NpuConfig::ascend_like();
    let workload = models::llama2_inference(&cfg, 32);
    println!(
        "llama2 decode trace: {} operators over 32 decode steps",
        workload.op_count()
    );

    let mut dev = Device::new(cfg.clone());
    dev.warm_until_steady(workload.schedule(), FreqMhz::new(1800))?;
    let base = dev.run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))?;

    println!(
        "{:<8} {:>10} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "freq", "time_ms", "loss%", "SoC_W", "SoC_red%", "AIC_W", "AIC_red%"
    );
    for mhz in [1800u32, 1500, 1300, 1000] {
        let f = FreqMhz::new(mhz);
        dev.warm_until_steady(workload.schedule(), f)?;
        let run = dev.run(workload.schedule(), &RunOptions::at(f))?;
        println!(
            "{:<8} {:>10.2} {:>8.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            f.to_string(),
            run.duration_us / 1000.0,
            100.0 * LossBudget::measured(base.duration_us, run.duration_us),
            run.avg_soc_w(),
            100.0 * (1.0 - run.avg_soc_w() / base.avg_soc_w()),
            run.avg_aicore_w(),
            100.0 * (1.0 - run.avg_aicore_w() / base.avg_aicore_w()),
        );
    }
    println!("\npaper (all ops at 1300 MHz): loss 2.48%, SoC -11.26%, AICore -25.06%");
    Ok(())
}
