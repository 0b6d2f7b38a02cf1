//! # npu-power-model — temperature-aware accelerator power models
//!
//! Implements Sect. 5 of the paper. Chip power decomposes as
//! `P = α·f·V² + β·f·V² + γ·ΔT·V + θ·V` (Eq. (11)); this crate
//!
//! * extracts the hardware parameters offline ([`calibrate_device`]):
//!   idle power at two frequencies → β, θ; the post-load cool-down →
//!   γ (from `dP/dT = γV`); equilibrium temperatures across loads →
//!   `T = T0 + k·P_soc`;
//! * fits a per-operator activity factor α online from profiled power
//!   (Eq. (14)) and predicts power at any frequency, resolving the
//!   `P_soc ↔ ΔT` interdependence with the paper's ≤4-iteration fix-point
//!   ([`PowerModel`]);
//! * provides the γ = 0 ablation of Sect. 7.3
//!   ([`PowerModel::without_temperature`]) and the Table 2 error binning
//!   ([`ErrorDistribution`]).
//!
//! # Example
//!
//! ```
//! use npu_sim::{Device, FreqMhz, NpuConfig, RunOptions, Schedule};
//! use npu_workloads::models;
//! use npu_perf_model::FreqProfile;
//! use npu_power_model::{calibrate_device, CalibrationOptions, PowerModel};
//!
//! let cfg = NpuConfig::ascend_like();
//! let mut dev = Device::new(cfg.clone());
//! let tiny = models::tiny(&cfg);
//! let loads: Vec<Schedule> = vec![
//!     models::softmax_loop(&cfg, 50).schedule().clone(),
//!     models::tiny(&cfg).schedule().clone(),
//! ];
//! let opts = CalibrationOptions::default();
//! let calib = calibrate_device(&mut dev, &loads[1], &loads, &opts)?;
//! let profiles: Vec<FreqProfile> = [1000u32, 1800]
//!     .iter()
//!     .map(|&mhz| {
//!         let freq = FreqMhz::new(mhz);
//!         let run = dev.run(tiny.schedule(), &RunOptions::at(freq)).unwrap();
//!         FreqProfile { freq, records: run.records }
//!     })
//!     .collect();
//! let model = PowerModel::build(calib, cfg.voltage_curve, &profiles)?;
//! let p = model.predict(0, FreqMhz::new(1400));
//! assert!(p.soc_w > p.aicore_w);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calib;
mod device_calib;
mod model;

pub use calib::{
    fit_gamma, linear_regression, CalibrationError, HardwareCalibration, IdleFit, ThermalFit,
};
pub use device_calib::{calibrate_device, CalibrationOptions, DeviceCalibrationError};
pub use model::{
    validation_errors, ErrorDistribution, OpPower, PowerBuildError, PowerDomain, PowerModel,
    PowerPrediction,
};
