//! # npu-perf-model — DVFS-aware operator performance models
//!
//! Implements Sect. 4 of the paper: given per-operator execution times
//! profiled at two or three frequencies, fit a convex model of execution
//! time versus core frequency and predict performance at any supported
//! frequency point.
//!
//! The paper's timeline analysis shows operator cycle counts are convex
//! piecewise-linear in frequency, motivating three fitting candidates
//! ([`FitFunction`]): a full quadratic, a quadratic without the linear
//! term (the production model — closed-form, two build frequencies), and a
//! clamped power law. [`PerfModelStore`] fits one model per operator;
//! [`eval`] computes the error statistics and CDFs of paper Figs. 15–16.
//!
//! # Example
//!
//! ```
//! use npu_sim::{Device, FreqMhz, NpuConfig, RunOptions};
//! use npu_workloads::models;
//! use npu_perf_model::{FitFunction, FreqProfile, PerfModelStore};
//!
//! let cfg = NpuConfig::ascend_like();
//! let workload = models::tiny(&cfg);
//! let mut dev = Device::new(cfg);
//! let profiles: Vec<FreqProfile> = [1000u32, 1800]
//!     .iter()
//!     .map(|&mhz| {
//!         let freq = FreqMhz::new(mhz);
//!         let run = dev.run(workload.schedule(), &RunOptions::at(freq)).unwrap();
//!         FreqProfile { freq, records: run.records }
//!     })
//!     .collect();
//! let store = PerfModelStore::build(&profiles, FitFunction::Quadratic)?;
//! let t_1400 = store.predict_range_us(0, store.len(), FreqMhz::new(1400));
//! assert!(t_1400 > 0.0);
//! # Ok::<(), npu_perf_model::BuildError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eval;
mod fitting;
mod model;
pub mod pwl;

pub use eval::{
    error_cdf, holdout_frequencies, prediction_curve, prediction_errors, ErrorStats,
    PredictionCurve, SHORT_OP_CUTOFF_US,
};
pub use fitting::{fit, FitError, FitFunction, FitParams};
pub use model::{BuildError, FreqProfile, PerfModel, PerfModelStore};
