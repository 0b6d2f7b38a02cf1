//! Quickstart: run one end-to-end energy optimization on a small workload.
//!
//! ```sh
//! cargo run --release --example quickstart
//! NPU_PROFILE=v100-class cargo run --release --example quickstart
//! ```
//!
//! The flow is the paper's Fig. 1: profile the workload at two
//! frequencies, build per-operator performance and power models, search a
//! DVFS strategy with the genetic algorithm, execute it with `SetFreq`
//! operators, and compare measured power/performance against baseline.
//!
//! `NPU_PROFILE` selects a built-in device description (`ascend-910`,
//! `v100-class`, `edge-npu`); the default is the Ascend-class device. To
//! run against a custom device, load it with
//! [`DeviceProfile::from_file`] instead — see the README's profile
//! recipe.

use dvfs_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pick the simulated device. Each profile carries its own frequency
    // ladder, voltage curve, memory system and power-model priors.
    let profile = match std::env::var("NPU_PROFILE") {
        Ok(name) => profile::by_name(&name).ok_or_else(|| {
            format!("unknown NPU_PROFILE `{name}` (try ascend-910, v100-class, edge-npu)")
        })?,
        Err(_) => profile::ascend_910(),
    };
    let cfg = profile.config().clone();
    println!(
        "device: {} ({} cores, {}–{}, SetFreq {} µs)",
        profile.name(),
        cfg.core_num,
        cfg.freq_table.min(),
        cfg.freq_table.max(),
        cfg.setfreq_latency_us,
    );

    // A ~1 ms mixed workload: one transformer layer forward+backward plus
    // host-side ops, communication, and an optimizer step.
    let workload = models::tiny(&cfg);
    println!(
        "workload: {} ({} operators)",
        workload.name(),
        workload.op_count()
    );

    // Offline calibration (idle power at two frequencies, cool-down γ fit,
    // equilibrium-temperature k fit) happens once per device.
    let mut optimizer = EnergyOptimizer::calibrated(cfg.clone())?;
    println!(
        "calibrated: gamma_AICore = {:.3} W/(K·V), k = {:.3} °C/W",
        optimizer.calibration().gamma_aicore,
        optimizer.calibration().thermal.k_c_per_w
    );

    // Generate and execute a DVFS strategy targeting ≤2 % performance
    // loss. `for_device` derives the model-build frequencies from the
    // profile's own ladder — required off-Ascend, where the historical
    // 1000/1800 MHz defaults may not exist on the grid.
    let opts = OptimizerConfig::for_device(&cfg).with_fai_us(30.0);
    let report = optimizer.optimize(&workload, &opts)?;
    println!("{report}");
    Ok(())
}
