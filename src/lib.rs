//! # dvfs-repro — fine-grained DVFS for AI accelerators, end to end
//!
//! A from-scratch reproduction of *"Using Analytical Performance/Power
//! Model and Fine-Grained DVFS to Enhance AI Accelerator Energy
//! Efficiency"* (ASPLOS 2025) in Rust, against a simulated Ascend-class
//! NPU.
//!
//! The workspace crates, re-exported here as modules:
//!
//! * [`sim`] — the NPU simulator: frequency/voltage ladder, the paper's
//!   convex piecewise-linear operator timelines (Eqs. (4)–(8)), power
//!   physics (Eq. (11)), first-order thermal model, a virtual device with
//!   a `SetFreq` stream, profiler and telemetry;
//! * [`workloads`] — GPT-3/BERT/ResNet/ViT/… training iterations and a
//!   host-bound llama2 inference trace as operator schedules;
//! * [`perf_model`] — Sect. 4: fitted performance models (Funcs. 1–3);
//! * [`power_model`] — Sect. 5: temperature-aware power models with
//!   offline calibration;
//! * [`dvfs`] — Sect. 6: classification, LFC/HFC preprocessing, GA search;
//! * [`exec`] — Sect. 7.1: SetFreq trigger placement and execution, plus
//!   the resilient runtime ([`exec::execute_resilient`]): bounded
//!   dispatch retries, an SLA/thermal guardrail and a degradation ladder
//!   that recovers late or lost switches;
//! * [`fault`] — deterministic fault injection at the device boundary:
//!   seeded [`fault::FaultPlan`]s for dropped/rejected/delayed `SetFreq`,
//!   telemetry dropouts/spikes/stuck sensors, profiler outliers and
//!   thermal excursions;
//! * [`obs`] — zero-cost-when-disabled pipeline observability: typed
//!   [`obs::Event`]s, JSON-lines / summary sinks, metrics registry;
//! * [`core`] — Fig. 1: the closed-loop [`core::EnergyOptimizer`] and its
//!   staged [`core::OptimizationSession`] API.
//!
//! # Quickstart
//!
//! ```
//! use dvfs_repro::prelude::*;
//!
//! let cfg = NpuConfig::ascend_like();
//! let workload = models::tiny(&cfg);
//! let mut dev = Device::new(cfg);
//! let run = dev.run(workload.schedule(), &RunOptions::at(FreqMhz::new(1800)))?;
//! assert!(run.duration_us > 0.0);
//! # Ok::<(), npu_sim::DeviceError>(())
//! ```

#![warn(missing_docs)]

pub use npu_core as core;
pub use npu_dvfs as dvfs;
pub use npu_exec as exec;
pub use npu_fault as fault;
pub use npu_obs as obs;
pub use npu_perf_model as perf_model;
pub use npu_power_model as power_model;
pub use npu_sim as sim;
pub use npu_workloads as workloads;

/// Commonly used items for examples and quick experiments.
pub mod prelude {
    pub use npu_core::{
        degradation_rank, generate_load, sweep_profiles, ArtifactCache, CacheError,
        CacheFlightStats, CacheStats, ConfigError, CostModel, DeviceHealth, DeviceHealthReport,
        Disposition, DriftDetector, DriftDetectorConfig, DriftSignal, EnergyOptimizer,
        FleetController, FleetError, FleetOutcome, FlightRole, FlightStats, HealthPolicy, LoadSpec,
        OptRequest, OptResponse, OptService, OptimizationReport, OptimizationSession,
        OptimizerConfig, Provenance, RejectReason, ServeBuilder, ServeIteration, ServeOptions,
        ServeOutcome, ServeRuntime, ServiceBuilder, ServiceMetrics, ServiceOutcome,
        SingleFlightError,
    };
    pub use npu_dvfs::{DvfsStrategy, GaConfig, GaOutcome, StageTable};
    pub use npu_exec::{
        execute_resilient, execute_strategy, Degradation, ExecutionOutcome, ExecutorOptions,
        Guardrail, ResilientOptions, ResilientOutcome, RetryPolicy,
    };
    pub use npu_fault::{
        FaultPlan, FaultyDevice, FleetFaultPlan, InjectionStats, ThermalExcursion,
    };
    pub use npu_obs::{
        Event, JsonLinesSink, MetricsRegistry, NullObserver, Observer, ObserverHandle, Phase,
        SummarySink,
    };
    pub use npu_perf_model::{FitFunction, FreqProfile, PerfModelStore};
    pub use npu_power_model::{
        calibrate_device, calibrate_device_parallel, CalibrationOptions, PowerModel,
    };
    pub use npu_sim::{
        profile, ConfigSpread, Device, DeviceProfile, DriftModel, FreqMhz, FrequencyTable,
        NpuConfig, OpDescriptor, OpRecord, ProfileError, RunOptions, Scenario, Schedule,
        TelemetrySummary, VoltageCurve,
    };
    pub use npu_workloads::{models, ops, Workload};
}
