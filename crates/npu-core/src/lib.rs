//! # npu-core — end-to-end NPU energy optimization
//!
//! The top-level crate of the reproduction: wires the simulator, workload
//! generators, performance/power models, DVFS strategy search and executor
//! into the closed loop of the paper's Fig. 1:
//!
//! ```text
//! profile workload ──> build perf model ──┐
//!        │                                ├──> GA strategy search ──> execute ──> report
//!        └──────────> build power model ──┘
//! ```
//!
//! [`EnergyOptimizer::calibrated`] performs the offline hardware
//! calibration once; [`EnergyOptimizer::optimize`] then runs the full loop
//! for a workload and returns an [`OptimizationReport`] comparing the
//! measured baseline against the measured DVFS-optimized iteration — the
//! numbers of the paper's Table 3.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod fleet_serve;
mod model_free;
mod optimizer;
mod report;
pub mod serve;
pub mod service;
mod session;
pub mod sweep;

pub use cache::{
    ArtifactCache, CacheError, CacheFlightStats, CacheStats, FlightRole, FlightStats,
    SingleFlightError,
};
pub use fleet_serve::{
    calibration_fingerprint, calibration_vector, cluster_by_fingerprint, DeviceHealth,
    DeviceHealthReport, FleetController, FleetError, FleetOutcome, HealthPolicy,
};
pub use model_free::{model_free_search, ModelFreeConfig, ModelFreeOutcome};
pub use optimizer::{EnergyOptimizer, OptimizeError, OptimizerConfig};
pub use report::{MeasuredIteration, OptimizationReport};
pub use serve::{
    degradation_rank, ConfigError, DriftDetector, DriftDetectorConfig, DriftSignal, ServeBuilder,
    ServeIteration, ServeOptions, ServeOutcome, ServeRuntime,
};
pub use service::{
    generate_load, CostModel, Disposition, LoadSpec, OptRequest, OptResponse, OptService,
    Provenance, RejectReason, ServiceBuilder, ServiceMetrics, ServiceOutcome,
};
pub use session::OptimizationSession;
pub use sweep::sweep_profiles;
