//! Typed pipeline events and their JSON-lines encoding.
//!
//! Events are plain data: numeric fields for the hot paths (GA
//! generations, `SetFreq` applies) and owned strings only in the cold
//! ones (model fits, calibration), so constructing an event that a
//! [`crate::NullObserver`] will discard costs nothing measurable.

use std::fmt::Write as _;

/// The phases of the Fig. 1 closed loop, plus the one-off offline
/// calibration that precedes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Offline hardware calibration (idle fits, cool-down γ, thermal k).
    Calibrate,
    /// Profiling the workload at the build frequencies.
    Profile,
    /// Fitting the performance and power models.
    BuildModels,
    /// Preprocessing + genetic-algorithm strategy search.
    Search,
    /// Executing the chosen strategy on the device.
    Execute,
    /// Assembling the final optimization report.
    Report,
}

impl Phase {
    /// Stable lowercase name used in event streams.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Calibrate => "calibrate",
            Self::Profile => "profile",
            Self::BuildModels => "model-build",
            Self::Search => "search",
            Self::Execute => "execute",
            Self::Report => "report",
        }
    }

    /// All pipeline phases in execution order (calibration first).
    #[must_use]
    pub fn all() -> [Phase; 6] {
        [
            Self::Calibrate,
            Self::Profile,
            Self::BuildModels,
            Self::Search,
            Self::Execute,
            Self::Report,
        ]
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event from the pipeline.
///
/// Every layer of the stack emits through the same enum so a single sink
/// sees the whole closed loop: device runs and `SetFreq` applies
/// (`npu-sim`), calibration fits (`npu-power-model`), model fits
/// (`npu-perf-model`), per-generation GA statistics (`npu-dvfs`),
/// measured iterations (`npu-exec`) and phase boundaries (`npu-core`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A pipeline phase began.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A pipeline phase completed.
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Host wall-clock time the phase took, µs.
        wall_us: f64,
    },
    /// One profiling run at a build frequency completed.
    ProfileRun {
        /// Core frequency of the run, MHz.
        freq_mhz: u32,
        /// Operators profiled.
        ops: usize,
        /// Virtual duration of the run, µs.
        duration_us: f64,
    },
    /// A performance-model store was fitted.
    ModelFitted {
        /// Fitting-function family (display form, e.g. `T=(af^2+c)/f`).
        func: String,
        /// Operators fitted.
        ops: usize,
        /// Maximum relative residual against the build profiles.
        max_err: f64,
    },
    /// One offline-calibration parameter was fitted.
    CalibrationFitted {
        /// Parameter name (e.g. `gamma_aicore`, `k_c_per_w`).
        param: String,
        /// Fitted value.
        value: f64,
    },
    /// One GA generation finished scoring.
    GaGeneration {
        /// Generation index (0-based).
        iter: usize,
        /// Best score seen so far (the score-trace value).
        best_score: f64,
        /// Individuals served from the evaluation memo this generation.
        memo_hits: usize,
    },
    /// A `SetFreq` request took effect on the device.
    SetFreqIssued {
        /// Device-clock time of the apply, µs.
        at_us: f64,
        /// The new core frequency, MHz.
        freq_mhz: u32,
    },
    /// A full iteration was measured (baseline or under a strategy).
    IterationMeasured {
        /// What was measured (`baseline`, `optimized`, …).
        label: String,
        /// Iteration time, µs.
        time_us: f64,
        /// Average AICore power, W.
        aicore_w: f64,
        /// Average SoC power, W.
        soc_w: f64,
        /// End-of-iteration chip temperature, °C.
        temp_c: f64,
    },
    /// One device run completed (per-run counters).
    DeviceRun {
        /// Operators executed.
        ops: usize,
        /// Virtual duration, µs.
        duration_us: f64,
        /// True AICore energy, J.
        energy_aicore_j: f64,
        /// True SoC energy, J.
        energy_soc_j: f64,
        /// Frequency changes applied during the run.
        setfreq_applied: usize,
        /// Chip temperature at the end of the run, °C.
        end_temp_c: f64,
    },
    /// Telemetry collected during a run, summarized.
    TelemetrySummarized {
        /// Mean AICore power over the window, W.
        mean_aicore_w: f64,
        /// Mean SoC power over the window, W.
        mean_soc_w: f64,
        /// Mean chip temperature over the window, °C.
        mean_temp_c: f64,
        /// Number of samples.
        samples: usize,
    },
    /// A fault was injected at the device boundary (`npu-fault`): a
    /// dropped or delayed `SetFreq`, a telemetry dropout/spike/stuck run,
    /// a profiler timing outlier, or a thermal excursion.
    FaultInjected {
        /// Stable fault-kind slug (e.g. `setfreq-drop`, `telemetry-spike`).
        kind: String,
        /// Device-clock time of the injection, µs.
        at_us: f64,
        /// Kind-specific magnitude (extra delay in µs, spike factor,
        /// excursion °C, dropped target MHz, …).
        magnitude: f64,
    },
    /// The device rejected a `SetFreq` dispatch (transient firmware
    /// error); the command is retried later if a retry policy is armed.
    SetFreqRejected {
        /// Device-clock time of the rejection, µs.
        at_us: f64,
        /// The rejected target frequency, MHz.
        freq_mhz: u32,
        /// Dispatch attempt number (1 = first try).
        attempt: u32,
        /// Whether a bounded retry is scheduled.
        will_retry: bool,
    },
    /// A resilient-execution guardrail detected a violation (SLA latency,
    /// temperature ceiling, or `SetFreq` plan non-conformance).
    GuardrailTripped {
        /// What tripped (`latency-sla`, `temp-ceiling`,
        /// `setfreq-dropped`, `setfreq-deviation`).
        reason: String,
        /// The observed value.
        observed: f64,
        /// The configured limit it exceeded.
        limit: f64,
    },
    /// The resilient executor moved down the degradation ladder.
    DegradationApplied {
        /// The rung taken (`retry`, `pin-stages`, `baseline`).
        rung: String,
        /// Human-readable context (e.g. corrected latency, pinned count).
        detail: String,
    },
    /// A content-addressed artifact-cache lookup was served from the
    /// store (the corresponding pipeline phase is skipped).
    CacheHit {
        /// Artifact kind (`profiles`, `models`, `search`).
        kind: String,
    },
    /// A content-addressed artifact-cache lookup missed (the pipeline
    /// phase runs and its result is inserted).
    CacheMiss {
        /// Artifact kind (`profiles`, `models`, `search`).
        kind: String,
    },
    /// A serving-runtime drift window closed: the windowed mean of the
    /// normalized residual between observed iteration telemetry and the
    /// active model predictions.
    DriftScore {
        /// Serving iteration index at the window close (0-based).
        iter: usize,
        /// Windowed mean combined residual (0 = models match reality).
        score: f64,
        /// Detection threshold the score is compared against.
        threshold: f64,
    },
    /// Sustained model drift was detected (enough consecutive windows
    /// scored over threshold to satisfy the detector's hysteresis).
    DriftDetected {
        /// Serving iteration index at detection.
        iter: usize,
        /// The windowed score that completed the hysteresis run.
        score: f64,
        /// Consecutive over-threshold windows observed.
        windows: usize,
    },
    /// The serving runtime began the staged re-optimization ladder
    /// (minimal re-profile → robust re-fit → cached re-search).
    ReoptimizationStarted {
        /// Serving iteration index where the ladder started.
        iter: usize,
        /// Frequencies in the minimal re-profile subset.
        freqs: usize,
    },
    /// The serving runtime swapped a re-optimized strategy into the
    /// request loop.
    StrategySwapped {
        /// Serving iteration index of the first iteration under the new
        /// strategy.
        iter: usize,
        /// Strategy generation now active (0 = the initial strategy).
        generation: usize,
        /// Predicted AICore energy of the new strategy, W·µs.
        predicted_energy_wus: f64,
    },
    /// A fleet controller found a transferable strategy for a
    /// re-optimizing device: a calibration-cluster neighbor's cached
    /// strategy was injected as a GA warm start.
    TransferHit {
        /// Fleet index of the device being re-optimized.
        device: usize,
        /// Fleet index of the neighbor whose strategy was transferred.
        donor: usize,
        /// Number of warm-seed strategies injected.
        seeds: usize,
    },
    /// A fleet controller found no transferable strategy for a
    /// re-optimizing device (singleton cluster or no neighbor has
    /// published a strategy yet); the device falls back to an
    /// oracle-seeded cold search.
    TransferMiss {
        /// Fleet index of the device being re-optimized.
        device: usize,
        /// Size of the device's calibration cluster (including itself).
        cluster: usize,
    },
    /// A fleet epoch completed: every device advanced its serving loop
    /// by the epoch's iteration window and the controller published the
    /// resulting strategies to the shared cache.
    FleetEpoch {
        /// Epoch index (0-based).
        epoch: usize,
        /// Devices in the fleet.
        devices: usize,
        /// Strategy swaps that occurred across the fleet this epoch.
        swaps: usize,
        /// Transfer hits across the fleet this epoch.
        transfers: usize,
    },
    /// A fleet device was quarantined: its serve epoch erred, it
    /// crashed, or it accumulated degradation strikes. While
    /// quarantined it is skipped in serve phases and excluded from the
    /// donor board.
    DeviceQuarantined {
        /// Fleet index of the quarantined device.
        device: usize,
        /// Epoch at which the quarantine took effect.
        epoch: usize,
        /// Human-readable cause (e.g. `"epoch-error"`, `"strikes"`).
        reason: String,
        /// Strike count at quarantine time.
        strikes: u32,
    },
    /// A quarantined fleet device entered a bounded probation epoch: a
    /// fork-seeded shadow check that must complete cleanly before the
    /// device rejoins the fleet.
    DeviceProbation {
        /// Fleet index of the device on probation.
        device: usize,
        /// Epoch of the probation check.
        epoch: usize,
        /// Shadow iterations the check runs.
        iterations: usize,
    },
    /// A probation check passed and the device rejoined the fleet as
    /// healthy.
    DeviceRecovered {
        /// Fleet index of the recovered device.
        device: usize,
        /// Epoch at which the device rejoined.
        epoch: usize,
        /// Probation attempts consumed so far (including this one).
        probations: u32,
    },
    /// A device exhausted its probation budget and left the fleet for
    /// good.
    DeviceEvicted {
        /// Fleet index of the evicted device.
        device: usize,
        /// Epoch of the eviction.
        epoch: usize,
        /// Probation attempts consumed before eviction.
        probations: u32,
    },
    /// A warm-seed transfer was rejected by the hygiene gate: the donor
    /// was unhealthy, its published strategy failed the sanity check
    /// (non-finite score or freqs outside the recipient's ladder), or
    /// the cached artifact was corrupt.
    TransferRejected {
        /// Fleet index of the would-be recipient.
        device: usize,
        /// Fleet index of the rejected donor.
        donor: usize,
        /// Gate that rejected the transfer (e.g. `"unsound-strategy"`,
        /// `"cache-corrupt"`).
        reason: String,
    },
    /// A fleet epoch completed with at least one non-healthy device.
    EpochDegraded {
        /// Epoch index (0-based).
        epoch: usize,
        /// Devices that served this epoch in a healthy state.
        healthy: usize,
        /// Total devices in the fleet (including evicted ones).
        devices: usize,
    },
    /// A persistent artifact cache failed a disk write and degraded to
    /// memory-only mode; the in-memory store remains authoritative.
    CacheDegraded {
        /// Artifact kind whose write failed (`"profile"`, `"search"`, …).
        kind: String,
        /// Display form of the underlying I/O error.
        error: String,
    },
    /// The service front end admitted an optimization request into the
    /// bounded queue.
    RequestAdmitted {
        /// Request index in arrival order (0-based).
        request: u64,
        /// Queue depth after the admit (including this request).
        queue_depth: usize,
    },
    /// The service front end rejected an optimization request: the
    /// bounded queue was full at arrival, or the request waited past its
    /// latency budget and was shed at dispatch.
    RequestRejected {
        /// Request index in arrival order (0-based).
        request: u64,
        /// Stable rejection slug (`"queue-full"`, `"shedding"`).
        reason: String,
        /// Virtual time the request waited before rejection, µs.
        waited_us: f64,
    },
    /// An admitted request was coalesced onto an identical in-flight
    /// request instead of running its own session.
    RequestCoalesced {
        /// Request index in arrival order (0-based).
        request: u64,
        /// Request index of the flight's leader.
        leader: u64,
    },
    /// An admitted request completed and its response was produced.
    RequestCompleted {
        /// Request index in arrival order (0-based).
        request: u64,
        /// How the strategy was obtained (`"computed"`, `"coalesced"`,
        /// `"cached"`).
        provenance: String,
        /// Virtual latency from arrival to completion, µs.
        latency_us: f64,
    },
}

impl Event {
    /// Stable event-type name (the `event` field of the JSON encoding).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::PhaseStarted { .. } => "PhaseStarted",
            Self::PhaseFinished { .. } => "PhaseFinished",
            Self::ProfileRun { .. } => "ProfileRun",
            Self::ModelFitted { .. } => "ModelFitted",
            Self::CalibrationFitted { .. } => "CalibrationFitted",
            Self::GaGeneration { .. } => "GaGeneration",
            Self::SetFreqIssued { .. } => "SetFreqIssued",
            Self::IterationMeasured { .. } => "IterationMeasured",
            Self::DeviceRun { .. } => "DeviceRun",
            Self::TelemetrySummarized { .. } => "TelemetrySummarized",
            Self::FaultInjected { .. } => "FaultInjected",
            Self::SetFreqRejected { .. } => "SetFreqRejected",
            Self::GuardrailTripped { .. } => "GuardrailTripped",
            Self::DegradationApplied { .. } => "DegradationApplied",
            Self::CacheHit { .. } => "CacheHit",
            Self::CacheMiss { .. } => "CacheMiss",
            Self::DriftScore { .. } => "DriftScore",
            Self::DriftDetected { .. } => "DriftDetected",
            Self::ReoptimizationStarted { .. } => "ReoptimizationStarted",
            Self::StrategySwapped { .. } => "StrategySwapped",
            Self::TransferHit { .. } => "TransferHit",
            Self::TransferMiss { .. } => "TransferMiss",
            Self::FleetEpoch { .. } => "FleetEpoch",
            Self::DeviceQuarantined { .. } => "DeviceQuarantined",
            Self::DeviceProbation { .. } => "DeviceProbation",
            Self::DeviceRecovered { .. } => "DeviceRecovered",
            Self::DeviceEvicted { .. } => "DeviceEvicted",
            Self::TransferRejected { .. } => "TransferRejected",
            Self::EpochDegraded { .. } => "EpochDegraded",
            Self::CacheDegraded { .. } => "CacheDegraded",
            Self::RequestAdmitted { .. } => "RequestAdmitted",
            Self::RequestRejected { .. } => "RequestRejected",
            Self::RequestCoalesced { .. } => "RequestCoalesced",
            Self::RequestCompleted { .. } => "RequestCompleted",
        }
    }

    /// Encodes the event as one JSON object (no trailing newline).
    ///
    /// Numbers are emitted with `f64`'s round-trip `Display`; non-finite
    /// values (which valid pipelines never produce) encode as `null` so
    /// the line always parses as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":\"");
        s.push_str(self.name());
        s.push('"');
        match self {
            Self::PhaseStarted { phase } => {
                push_str_field(&mut s, "phase", phase.as_str());
            }
            Self::PhaseFinished { phase, wall_us } => {
                push_str_field(&mut s, "phase", phase.as_str());
                push_num_field(&mut s, "wall_us", *wall_us);
            }
            Self::ProfileRun {
                freq_mhz,
                ops,
                duration_us,
            } => {
                push_num_field(&mut s, "freq_mhz", f64::from(*freq_mhz));
                push_uint_field(&mut s, "ops", *ops as u64);
                push_num_field(&mut s, "duration_us", *duration_us);
            }
            Self::ModelFitted { func, ops, max_err } => {
                push_str_field(&mut s, "func", func);
                push_uint_field(&mut s, "ops", *ops as u64);
                push_num_field(&mut s, "max_err", *max_err);
            }
            Self::CalibrationFitted { param, value } => {
                push_str_field(&mut s, "param", param);
                push_num_field(&mut s, "value", *value);
            }
            Self::GaGeneration {
                iter,
                best_score,
                memo_hits,
            } => {
                push_uint_field(&mut s, "iter", *iter as u64);
                push_num_field(&mut s, "best_score", *best_score);
                push_uint_field(&mut s, "memo_hits", *memo_hits as u64);
            }
            Self::SetFreqIssued { at_us, freq_mhz } => {
                push_num_field(&mut s, "at_us", *at_us);
                push_num_field(&mut s, "freq_mhz", f64::from(*freq_mhz));
            }
            Self::IterationMeasured {
                label,
                time_us,
                aicore_w,
                soc_w,
                temp_c,
            } => {
                push_str_field(&mut s, "label", label);
                push_num_field(&mut s, "time_us", *time_us);
                push_num_field(&mut s, "aicore_w", *aicore_w);
                push_num_field(&mut s, "soc_w", *soc_w);
                push_num_field(&mut s, "temp_c", *temp_c);
            }
            Self::DeviceRun {
                ops,
                duration_us,
                energy_aicore_j,
                energy_soc_j,
                setfreq_applied,
                end_temp_c,
            } => {
                push_uint_field(&mut s, "ops", *ops as u64);
                push_num_field(&mut s, "duration_us", *duration_us);
                push_num_field(&mut s, "energy_aicore_j", *energy_aicore_j);
                push_num_field(&mut s, "energy_soc_j", *energy_soc_j);
                push_uint_field(&mut s, "setfreq_applied", *setfreq_applied as u64);
                push_num_field(&mut s, "end_temp_c", *end_temp_c);
            }
            Self::TelemetrySummarized {
                mean_aicore_w,
                mean_soc_w,
                mean_temp_c,
                samples,
            } => {
                push_num_field(&mut s, "mean_aicore_w", *mean_aicore_w);
                push_num_field(&mut s, "mean_soc_w", *mean_soc_w);
                push_num_field(&mut s, "mean_temp_c", *mean_temp_c);
                push_uint_field(&mut s, "samples", *samples as u64);
            }
            Self::FaultInjected {
                kind,
                at_us,
                magnitude,
            } => {
                push_str_field(&mut s, "kind", kind);
                push_num_field(&mut s, "at_us", *at_us);
                push_num_field(&mut s, "magnitude", *magnitude);
            }
            Self::SetFreqRejected {
                at_us,
                freq_mhz,
                attempt,
                will_retry,
            } => {
                push_num_field(&mut s, "at_us", *at_us);
                push_num_field(&mut s, "freq_mhz", f64::from(*freq_mhz));
                push_uint_field(&mut s, "attempt", u64::from(*attempt));
                push_bool_field(&mut s, "will_retry", *will_retry);
            }
            Self::GuardrailTripped {
                reason,
                observed,
                limit,
            } => {
                push_str_field(&mut s, "reason", reason);
                push_num_field(&mut s, "observed", *observed);
                push_num_field(&mut s, "limit", *limit);
            }
            Self::DegradationApplied { rung, detail } => {
                push_str_field(&mut s, "rung", rung);
                push_str_field(&mut s, "detail", detail);
            }
            Self::CacheHit { kind } | Self::CacheMiss { kind } => {
                push_str_field(&mut s, "kind", kind);
            }
            Self::DriftScore {
                iter,
                score,
                threshold,
            } => {
                push_uint_field(&mut s, "iter", *iter as u64);
                push_num_field(&mut s, "score", *score);
                push_num_field(&mut s, "threshold", *threshold);
            }
            Self::DriftDetected {
                iter,
                score,
                windows,
            } => {
                push_uint_field(&mut s, "iter", *iter as u64);
                push_num_field(&mut s, "score", *score);
                push_uint_field(&mut s, "windows", *windows as u64);
            }
            Self::ReoptimizationStarted { iter, freqs } => {
                push_uint_field(&mut s, "iter", *iter as u64);
                push_uint_field(&mut s, "freqs", *freqs as u64);
            }
            Self::StrategySwapped {
                iter,
                generation,
                predicted_energy_wus,
            } => {
                push_uint_field(&mut s, "iter", *iter as u64);
                push_uint_field(&mut s, "generation", *generation as u64);
                push_num_field(&mut s, "predicted_energy_wus", *predicted_energy_wus);
            }
            Self::TransferHit {
                device,
                donor,
                seeds,
            } => {
                push_uint_field(&mut s, "device", *device as u64);
                push_uint_field(&mut s, "donor", *donor as u64);
                push_uint_field(&mut s, "seeds", *seeds as u64);
            }
            Self::TransferMiss { device, cluster } => {
                push_uint_field(&mut s, "device", *device as u64);
                push_uint_field(&mut s, "cluster", *cluster as u64);
            }
            Self::FleetEpoch {
                epoch,
                devices,
                swaps,
                transfers,
            } => {
                push_uint_field(&mut s, "epoch", *epoch as u64);
                push_uint_field(&mut s, "devices", *devices as u64);
                push_uint_field(&mut s, "swaps", *swaps as u64);
                push_uint_field(&mut s, "transfers", *transfers as u64);
            }
            Self::DeviceQuarantined {
                device,
                epoch,
                reason,
                strikes,
            } => {
                push_uint_field(&mut s, "device", *device as u64);
                push_uint_field(&mut s, "epoch", *epoch as u64);
                push_str_field(&mut s, "reason", reason);
                push_uint_field(&mut s, "strikes", u64::from(*strikes));
            }
            Self::DeviceProbation {
                device,
                epoch,
                iterations,
            } => {
                push_uint_field(&mut s, "device", *device as u64);
                push_uint_field(&mut s, "epoch", *epoch as u64);
                push_uint_field(&mut s, "iterations", *iterations as u64);
            }
            Self::DeviceRecovered {
                device,
                epoch,
                probations,
            }
            | Self::DeviceEvicted {
                device,
                epoch,
                probations,
            } => {
                push_uint_field(&mut s, "device", *device as u64);
                push_uint_field(&mut s, "epoch", *epoch as u64);
                push_uint_field(&mut s, "probations", u64::from(*probations));
            }
            Self::TransferRejected {
                device,
                donor,
                reason,
            } => {
                push_uint_field(&mut s, "device", *device as u64);
                push_uint_field(&mut s, "donor", *donor as u64);
                push_str_field(&mut s, "reason", reason);
            }
            Self::EpochDegraded {
                epoch,
                healthy,
                devices,
            } => {
                push_uint_field(&mut s, "epoch", *epoch as u64);
                push_uint_field(&mut s, "healthy", *healthy as u64);
                push_uint_field(&mut s, "devices", *devices as u64);
            }
            Self::CacheDegraded { kind, error } => {
                push_str_field(&mut s, "kind", kind);
                push_str_field(&mut s, "error", error);
            }
            Self::RequestAdmitted {
                request,
                queue_depth,
            } => {
                push_uint_field(&mut s, "request", *request);
                push_uint_field(&mut s, "queue_depth", *queue_depth as u64);
            }
            Self::RequestRejected {
                request,
                reason,
                waited_us,
            } => {
                push_uint_field(&mut s, "request", *request);
                push_str_field(&mut s, "reason", reason);
                push_num_field(&mut s, "waited_us", *waited_us);
            }
            Self::RequestCoalesced { request, leader } => {
                push_uint_field(&mut s, "request", *request);
                push_uint_field(&mut s, "leader", *leader);
            }
            Self::RequestCompleted {
                request,
                provenance,
                latency_us,
            } => {
                push_uint_field(&mut s, "request", *request);
                push_str_field(&mut s, "provenance", provenance);
                push_num_field(&mut s, "latency_us", *latency_us);
            }
        }
        s.push('}');
        s
    }
}

fn push_uint_field(s: &mut String, key: &str, v: u64) {
    let _ = write!(s, ",\"{key}\":{v}");
}

fn push_bool_field(s: &mut String, key: &str, v: bool) {
    let _ = write!(s, ",\"{key}\":{v}");
}

fn push_num_field(s: &mut String, key: &str, v: f64) {
    if v.is_finite() {
        let _ = write!(s, ",\"{key}\":{v}");
    } else {
        let _ = write!(s, ",\"{key}\":null");
    }
}

fn push_str_field(s: &mut String, key: &str, v: &str) {
    let _ = write!(s, ",\"{key}\":");
    push_json_string(s, v);
}

/// Appends `v` as a JSON string literal with full escaping.
pub(crate) fn push_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::all().iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "calibrate",
                "profile",
                "model-build",
                "search",
                "execute",
                "report"
            ]
        );
    }

    #[test]
    fn json_encodes_numeric_event() {
        let e = Event::GaGeneration {
            iter: 3,
            best_score: 0.5,
            memo_hits: 12,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"GaGeneration\",\"iter\":3,\"best_score\":0.5,\"memo_hits\":12}"
        );
    }

    #[test]
    fn json_escapes_strings() {
        let e = Event::IterationMeasured {
            label: "a\"b\\c\nd".to_owned(),
            time_us: 1.0,
            aicore_w: 2.0,
            soc_w: 3.0,
            temp_c: 4.0,
        };
        let json = e.to_json();
        assert!(json.contains("\"label\":\"a\\\"b\\\\c\\nd\""), "{json}");
    }

    #[test]
    fn json_encodes_fault_events() {
        let e = Event::FaultInjected {
            kind: "setfreq-drop".to_owned(),
            at_us: 1500.0,
            magnitude: 1200.0,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"FaultInjected\",\"kind\":\"setfreq-drop\",\"at_us\":1500,\"magnitude\":1200}"
        );
        let e = Event::SetFreqRejected {
            at_us: 10.0,
            freq_mhz: 1100,
            attempt: 2,
            will_retry: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"SetFreqRejected\",\"at_us\":10,\"freq_mhz\":1100,\"attempt\":2,\"will_retry\":true}"
        );
        let e = Event::GuardrailTripped {
            reason: "latency-sla".to_owned(),
            observed: 120.0,
            limit: 100.0,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"GuardrailTripped\",\"reason\":\"latency-sla\",\"observed\":120,\"limit\":100}"
        );
        let e = Event::DegradationApplied {
            rung: "baseline".to_owned(),
            detail: "reverted".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"DegradationApplied\",\"rung\":\"baseline\",\"detail\":\"reverted\"}"
        );
    }

    #[test]
    fn json_encodes_cache_events() {
        let e = Event::CacheHit {
            kind: "profiles".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"CacheHit\",\"kind\":\"profiles\"}"
        );
        let e = Event::CacheMiss {
            kind: "search".to_owned(),
        };
        assert_eq!(e.to_json(), "{\"event\":\"CacheMiss\",\"kind\":\"search\"}");
    }

    #[test]
    fn json_encodes_serve_events() {
        let e = Event::DriftScore {
            iter: 40,
            score: 0.25,
            threshold: 0.1,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"DriftScore\",\"iter\":40,\"score\":0.25,\"threshold\":0.1}"
        );
        let e = Event::DriftDetected {
            iter: 48,
            score: 0.3,
            windows: 2,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"DriftDetected\",\"iter\":48,\"score\":0.3,\"windows\":2}"
        );
        let e = Event::ReoptimizationStarted { iter: 48, freqs: 3 };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"ReoptimizationStarted\",\"iter\":48,\"freqs\":3}"
        );
        let e = Event::StrategySwapped {
            iter: 49,
            generation: 1,
            predicted_energy_wus: 1234.5,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"StrategySwapped\",\"iter\":49,\"generation\":1,\"predicted_energy_wus\":1234.5}"
        );
    }

    #[test]
    fn json_encodes_fleet_events() {
        let e = Event::TransferHit {
            device: 7,
            donor: 3,
            seeds: 1,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"TransferHit\",\"device\":7,\"donor\":3,\"seeds\":1}"
        );
        let e = Event::TransferMiss {
            device: 2,
            cluster: 1,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"TransferMiss\",\"device\":2,\"cluster\":1}"
        );
        let e = Event::FleetEpoch {
            epoch: 1,
            devices: 64,
            swaps: 9,
            transfers: 6,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"FleetEpoch\",\"epoch\":1,\"devices\":64,\"swaps\":9,\"transfers\":6}"
        );
    }

    #[test]
    fn json_encodes_health_events() {
        let e = Event::DeviceQuarantined {
            device: 5,
            epoch: 2,
            reason: "strikes".to_owned(),
            strikes: 3,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"DeviceQuarantined\",\"device\":5,\"epoch\":2,\
             \"reason\":\"strikes\",\"strikes\":3}"
        );
        let e = Event::DeviceProbation {
            device: 5,
            epoch: 3,
            iterations: 4,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"DeviceProbation\",\"device\":5,\"epoch\":3,\"iterations\":4}"
        );
        let e = Event::DeviceRecovered {
            device: 5,
            epoch: 3,
            probations: 1,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"DeviceRecovered\",\"device\":5,\"epoch\":3,\"probations\":1}"
        );
        let e = Event::DeviceEvicted {
            device: 6,
            epoch: 4,
            probations: 2,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"DeviceEvicted\",\"device\":6,\"epoch\":4,\"probations\":2}"
        );
        let e = Event::TransferRejected {
            device: 1,
            donor: 7,
            reason: "unsound-strategy".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"TransferRejected\",\"device\":1,\"donor\":7,\
             \"reason\":\"unsound-strategy\"}"
        );
        let e = Event::EpochDegraded {
            epoch: 2,
            healthy: 13,
            devices: 16,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"EpochDegraded\",\"epoch\":2,\"healthy\":13,\"devices\":16}"
        );
        let e = Event::CacheDegraded {
            kind: "search".to_owned(),
            error: "not a directory".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"CacheDegraded\",\"kind\":\"search\",\
             \"error\":\"not a directory\"}"
        );
    }

    #[test]
    fn json_encodes_request_events() {
        let e = Event::RequestAdmitted {
            request: 42,
            queue_depth: 3,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"RequestAdmitted\",\"request\":42,\"queue_depth\":3}"
        );
        let e = Event::RequestRejected {
            request: 43,
            reason: "queue-full".to_owned(),
            waited_us: 0.0,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"RequestRejected\",\"request\":43,\
             \"reason\":\"queue-full\",\"waited_us\":0}"
        );
        let e = Event::RequestCoalesced {
            request: 44,
            leader: 40,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"RequestCoalesced\",\"request\":44,\"leader\":40}"
        );
        let e = Event::RequestCompleted {
            request: 44,
            provenance: "coalesced".to_owned(),
            latency_us: 125.5,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"RequestCompleted\",\"request\":44,\
             \"provenance\":\"coalesced\",\"latency_us\":125.5}"
        );
    }

    #[test]
    fn json_maps_non_finite_to_null() {
        let e = Event::PhaseFinished {
            phase: Phase::Search,
            wall_us: f64::NAN,
        };
        assert!(e.to_json().contains("\"wall_us\":null"));
    }
}
