//! # npu-bench — experiment harness for the reproduction
//!
//! One binary per paper table/figure (see `src/bin/`) plus Criterion
//! benchmarks for the paper's timing claims (Sect. 4.3 fitting cost,
//! Sect. 8.1 policy-evaluation throughput). This library holds the shared
//! plumbing: steady-state profiling, model construction, small printing
//! helpers, and the [`report`] every `BENCH_*.json` bench writes.

#![warn(missing_docs)]

pub mod report;

use npu_perf_model::{FitFunction, FreqProfile, PerfModelStore};
use npu_power_model::{HardwareCalibration, PowerModel};
use npu_sim::{Device, FreqMhz, NpuConfig, RunOptions};
use npu_workloads::Workload;

/// Profiles a workload at each frequency after reaching that frequency's
/// thermal steady state (the paper's "stable training" protocol).
///
/// # Panics
///
/// Panics if a device run fails (experiment harness: fail loudly).
#[must_use]
pub fn steady_profiles(
    dev: &mut Device,
    workload: &Workload,
    freqs_mhz: &[u32],
) -> Vec<FreqProfile> {
    freqs_mhz
        .iter()
        .map(|&mhz| {
            let freq = FreqMhz::new(mhz);
            dev.warm_until_steady(workload.schedule(), freq)
                .expect("warm-up run");
            let run = dev
                .run(workload.schedule(), &RunOptions::at(freq))
                .expect("profile run");
            FreqProfile {
                freq,
                records: run.records,
            }
        })
        .collect()
}

/// Splits profiles into build and holdout sets by frequency.
#[must_use]
pub fn split_profiles(
    profiles: &[FreqProfile],
    build_mhz: &[u32],
) -> (Vec<FreqProfile>, Vec<FreqProfile>) {
    let (build, holdout): (Vec<_>, Vec<_>) = profiles
        .iter()
        .cloned()
        .partition(|p| build_mhz.contains(&p.freq.mhz()));
    (build, holdout)
}

/// Builds the performance and power models from build-frequency profiles,
/// using the oracle hardware calibration (the measured-calibration path is
/// exercised by `table3_end_to_end` and the integration tests).
///
/// # Panics
///
/// Panics if model construction fails.
#[must_use]
pub fn build_models(
    cfg: &NpuConfig,
    build: &[FreqProfile],
    fit: FitFunction,
) -> (PerfModelStore, PowerModel) {
    let perf = PerfModelStore::build(build, fit).expect("perf model");
    let power = PowerModel::build(
        HardwareCalibration::ground_truth(cfg),
        cfg.voltage_curve,
        build,
    )
    .expect("power model");
    (perf, power)
}

/// All nine supported frequency points in MHz.
#[must_use]
pub fn all_freqs_mhz() -> Vec<u32> {
    (10..=18).map(|k| k * 100).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_workloads::models;

    #[test]
    fn steady_profiles_cover_requested_freqs() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg.clone());
        let profiles = steady_profiles(&mut dev, &w, &[1000, 1800]);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].freq.mhz(), 1000);
        assert_eq!(profiles[1].records.len(), w.op_count());
    }

    #[test]
    fn split_partitions() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg.clone());
        let profiles = steady_profiles(&mut dev, &w, &[1000, 1400, 1800]);
        let (build, holdout) = split_profiles(&profiles, &[1000, 1800]);
        assert_eq!(build.len(), 2);
        assert_eq!(holdout.len(), 1);
        assert_eq!(holdout[0].freq.mhz(), 1400);
    }

    #[test]
    fn helpers() {
        assert_eq!(all_freqs_mhz().len(), 9);
    }
}
