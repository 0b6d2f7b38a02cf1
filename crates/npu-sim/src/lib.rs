//! # npu-sim — a simulated Ascend-class NPU
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Using Analytical Performance/Power Model and Fine-Grained DVFS to
//! Enhance AI Accelerator Energy Efficiency"* (ASPLOS 2025). It models:
//!
//! * the **frequency/voltage ladder** of the paper's Fig. 9
//!   ([`FrequencyTable`], [`VoltageCurve`]);
//! * **operator timing** via the paper's own timeline analysis — transfer
//!   cycles `max(a·f, c) + T0·f` (Eq. (4)) composed per execution scenario
//!   into the convex piecewise-linear cycle functions of Eqs. (5)–(8)
//!   ([`CycleModel`]);
//! * **power physics** `P = α·f·V² + β·f·V² + γ·ΔT·V + θ·V` (Eq. (11))
//!   plus an uncore floor and per-byte transfer energy ([`power`]);
//! * a **first-order thermal model** converging to `T0 + k·P_soc`
//!   (Eq. (15), [`ThermalState`]);
//! * a **virtual device** with a compute stream, a `SetFreq` stream with
//!   apply latency, a profiler and power telemetry ([`Device`]).
//!
//! # Quick example
//!
//! ```
//! use npu_sim::{Device, NpuConfig, OpDescriptor, RunOptions, Scenario, Schedule, FreqMhz};
//!
//! let mut dev = Device::new(NpuConfig::ascend_like());
//! let schedule = Schedule::new(vec![
//!     OpDescriptor::compute("MatMul", Scenario::PingPongIndependent)
//!         .blocks(8)
//!         .ld_bytes_per_block((1 << 20) as f64)
//!         .st_bytes_per_block((1 << 19) as f64)
//!         .l2_hit_rate(0.9)
//!         .core_cycles_per_block(100_000.0)
//!         .activity(20.0),
//! ]);
//! let hi = dev.run(&schedule, &RunOptions::at(FreqMhz::new(1800)))?;
//! let lo = dev.run(&schedule, &RunOptions::at(FreqMhz::new(1000)))?;
//! assert!(lo.duration_us > hi.duration_us); // compute-bound op slows down
//! # Ok::<(), npu_sim::DeviceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod device;
mod drift;
mod freq;
mod hook;
mod noise;
mod operator;
pub mod par;
pub mod power;
pub mod profile;
mod profiler;
mod spread;
pub mod telemetry;
mod thermal;
mod timeline;
pub mod trace;

pub use config::{ConfigError, Micros, NpuConfig, NpuConfigBuilder};
pub use device::{Device, DeviceError, RunOptions, RunResult, Schedule, SetFreqCmd, SetFreqRetry};
pub use drift::DriftModel;
pub use freq::{FreqMhz, FreqTableError, FrequencyTable, VoltageCurve};
pub use hook::{DeviceHook, HookHandle, RecordFate, SampleFate, SetFreqFate};
pub use noise::NoiseSource;
pub use operator::{CoreMix, OpClass, OpDescriptor, Scenario};
pub use profile::{DeviceProfile, ProfileError};
pub use profiler::OpRecord;
pub use spread::ConfigSpread;
pub use telemetry::{summarize, TelemetrySample, TelemetrySummary};
pub use thermal::ThermalState;
pub use timeline::{ld_throughput, CycleModel, LdStTerm, Pipeline, PipelineBusy, PipelineRatios};
