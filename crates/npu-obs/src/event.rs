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
    /// Preprocessing + strategy search.
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

/// Declares [`Event`] from one table: each variant and each field is
/// written once, and the table generates the enum, [`Event::name`] and
/// [`Event::to_json`]. A field's JSON encoding follows from its type
/// (see [`JsonValue`]), so adding a variant is one entry here and
/// nothing else.
macro_rules! events {
    (
        $(#[$enum_meta:meta])*
        pub enum Event {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident: $ty:ty,
                    )*
                },
            )*
        }
    ) => {
        $(#[$enum_meta])*
        pub enum Event {
            $(
                $(#[$variant_meta])*
                $variant {
                    $(
                        $(#[$field_meta])*
                        $field: $ty,
                    )*
                },
            )*
        }

        impl Event {
            /// Stable event-type name (the `event` field of the JSON
            /// encoding).
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => stringify!($variant),)*
                }
            }

            /// Encodes the event as one JSON object (no trailing newline).
            ///
            /// Numbers are emitted with their round-trip `Display`;
            /// non-finite floats (which valid pipelines never produce)
            /// encode as `null` so the line always parses as JSON.
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut s = String::with_capacity(96);
                s.push_str("{\"event\":\"");
                s.push_str(self.name());
                s.push('"');
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(
                            s.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.push_json(&mut s);
                        )*
                    })*
                }
                s.push('}');
                s
            }
        }
    };
}

events! {
    /// One structured event from the pipeline.
    ///
    /// Every layer of the stack emits through the same enum so a single sink
    /// sees the whole closed loop: device runs and `SetFreq` applies
    /// (`npu-sim`), calibration fits (`npu-power-model`), model fits
    /// (`npu-perf-model`), per-generation GA statistics and serving-search
    /// results (`npu-dvfs`), measured iterations (`npu-exec`) and phase
    /// boundaries (`npu-core`).
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
            /// Always 0: the GA scores every genome from its block sums
            /// and has kept no score memo since the memo was removed. The
            /// field stays because external tracers match it by name.
            memo_hits: usize,
        },
        /// The serving search picked a strategy: the exact solver's answer
        /// or a higher-scoring warm-seed candidate.
        SearchSolved {
            /// Stages in the searched table.
            stages: usize,
            /// Candidates scored: the solver's answer plus each warm seed.
            candidates: usize,
            /// Whether the solver's answer is a certified optimum.
            certified: bool,
            /// Score of the returned strategy.
            best_score: f64,
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
            /// Artifact kind (`profile`, `model`, `search`).
            kind: String,
        },
        /// A content-addressed artifact-cache lookup missed (the pipeline
        /// phase runs and its result is inserted).
        CacheMiss {
            /// Artifact kind (`profile`, `model`, `search`).
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
}

/// How one event field encodes as a JSON value: the field's type picks
/// the encoding. Integers and booleans print their `Display` form.
trait JsonValue: std::fmt::Display {
    fn push_json(&self, s: &mut String) {
        let _ = write!(s, "{self}");
    }
}

impl JsonValue for u32 {}
impl JsonValue for u64 {}
impl JsonValue for usize {}
impl JsonValue for bool {}

impl JsonValue for f64 {
    fn push_json(&self, s: &mut String) {
        if self.is_finite() {
            let _ = write!(s, "{self}");
        } else {
            s.push_str("null");
        }
    }
}

impl JsonValue for String {
    fn push_json(&self, s: &mut String) {
        push_json_string(s, self);
    }
}

impl JsonValue for Phase {
    fn push_json(&self, s: &mut String) {
        push_json_string(s, self.as_str());
    }
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

    /// Asserts each event encodes to exactly its pinned JSON line.
    fn assert_encodes(cases: &[(Event, &str)]) {
        for (event, json) in cases {
            assert_eq!(event.to_json(), *json, "{event:?}");
        }
    }

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
        assert_encodes(&[
            (
                Event::GaGeneration {
                    iter: 3,
                    best_score: 0.5,
                    memo_hits: 12,
                },
                "{\"event\":\"GaGeneration\",\"iter\":3,\"best_score\":0.5,\"memo_hits\":12}",
            ),
            (
                Event::SearchSolved {
                    stages: 960,
                    candidates: 2,
                    certified: false,
                    best_score: 0.25,
                },
                "{\"event\":\"SearchSolved\",\"stages\":960,\"candidates\":2,\
                 \"certified\":false,\"best_score\":0.25}",
            ),
            (
                Event::PhaseStarted {
                    phase: Phase::Profile,
                },
                "{\"event\":\"PhaseStarted\",\"phase\":\"profile\"}",
            ),
            (
                Event::PhaseFinished {
                    phase: Phase::BuildModels,
                    wall_us: 1234.5,
                },
                "{\"event\":\"PhaseFinished\",\"phase\":\"model-build\",\"wall_us\":1234.5}",
            ),
            (
                Event::ProfileRun {
                    freq_mhz: 1800,
                    ops: 12,
                    duration_us: 950.25,
                },
                "{\"event\":\"ProfileRun\",\"freq_mhz\":1800,\"ops\":12,\"duration_us\":950.25}",
            ),
            (
                Event::ModelFitted {
                    func: "T=(af^2+c)/f".to_owned(),
                    ops: 12,
                    max_err: 0.015,
                },
                "{\"event\":\"ModelFitted\",\"func\":\"T=(af^2+c)/f\",\"ops\":12,\
                 \"max_err\":0.015}",
            ),
            (
                Event::CalibrationFitted {
                    param: "gamma_aicore".to_owned(),
                    value: 0.0125,
                },
                "{\"event\":\"CalibrationFitted\",\"param\":\"gamma_aicore\",\"value\":0.0125}",
            ),
            (
                Event::SetFreqIssued {
                    at_us: 2000.5,
                    freq_mhz: 1000,
                },
                "{\"event\":\"SetFreqIssued\",\"at_us\":2000.5,\"freq_mhz\":1000}",
            ),
            (
                Event::IterationMeasured {
                    label: "baseline".to_owned(),
                    time_us: 52000.0,
                    aicore_w: 180.5,
                    soc_w: 310.25,
                    temp_c: 61.0,
                },
                "{\"event\":\"IterationMeasured\",\"label\":\"baseline\",\"time_us\":52000,\
                 \"aicore_w\":180.5,\"soc_w\":310.25,\"temp_c\":61}",
            ),
            (
                Event::DeviceRun {
                    ops: 24,
                    duration_us: 52000.0,
                    energy_aicore_j: 9.386,
                    energy_soc_j: 16.133,
                    setfreq_applied: 3,
                    end_temp_c: 61.5,
                },
                "{\"event\":\"DeviceRun\",\"ops\":24,\"duration_us\":52000,\
                 \"energy_aicore_j\":9.386,\"energy_soc_j\":16.133,\"setfreq_applied\":3,\
                 \"end_temp_c\":61.5}",
            ),
            (
                Event::TelemetrySummarized {
                    mean_aicore_w: f64::NAN,
                    mean_soc_w: 310.25,
                    mean_temp_c: -0.5,
                    samples: 520,
                },
                "{\"event\":\"TelemetrySummarized\",\"mean_aicore_w\":null,\"mean_soc_w\":310.25,\
                 \"mean_temp_c\":-0.5,\"samples\":520}",
            ),
        ]);
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
        assert_encodes(&[
            (
                Event::FaultInjected {
                    kind: "setfreq-drop".to_owned(),
                    at_us: 1500.0,
                    magnitude: 1200.0,
                },
                "{\"event\":\"FaultInjected\",\"kind\":\"setfreq-drop\",\"at_us\":1500,\"magnitude\":1200}",
            ),
            (
                Event::SetFreqRejected {
                    at_us: 10.0,
                    freq_mhz: 1100,
                    attempt: 2,
                    will_retry: true,
                },
                "{\"event\":\"SetFreqRejected\",\"at_us\":10,\"freq_mhz\":1100,\"attempt\":2,\"will_retry\":true}",
            ),
            (
                Event::GuardrailTripped {
                    reason: "latency-sla".to_owned(),
                    observed: 120.0,
                    limit: 100.0,
                },
                "{\"event\":\"GuardrailTripped\",\"reason\":\"latency-sla\",\"observed\":120,\"limit\":100}",
            ),
            (
                Event::DegradationApplied {
                    rung: "baseline".to_owned(),
                    detail: "reverted".to_owned(),
                },
                "{\"event\":\"DegradationApplied\",\"rung\":\"baseline\",\"detail\":\"reverted\"}",
            ),
        ]);
    }

    #[test]
    fn json_encodes_cache_events() {
        assert_encodes(&[
            (
                Event::CacheHit {
                    kind: "profiles".to_owned(),
                },
                "{\"event\":\"CacheHit\",\"kind\":\"profiles\"}",
            ),
            (
                Event::CacheMiss {
                    kind: "search".to_owned(),
                },
                "{\"event\":\"CacheMiss\",\"kind\":\"search\"}",
            ),
        ]);
    }

    #[test]
    fn json_encodes_serve_events() {
        assert_encodes(&[
            (
                Event::DriftScore {
                    iter: 40,
                    score: 0.25,
                    threshold: 0.1,
                },
                "{\"event\":\"DriftScore\",\"iter\":40,\"score\":0.25,\"threshold\":0.1}",
            ),
            (
                Event::DriftDetected {
                    iter: 48,
                    score: 0.3,
                    windows: 2,
                },
                "{\"event\":\"DriftDetected\",\"iter\":48,\"score\":0.3,\"windows\":2}",
            ),
            (
                Event::ReoptimizationStarted { iter: 48, freqs: 3 },
                "{\"event\":\"ReoptimizationStarted\",\"iter\":48,\"freqs\":3}",
            ),
            (
                Event::StrategySwapped {
                    iter: 49,
                    generation: 1,
                    predicted_energy_wus: 1234.5,
                },
                "{\"event\":\"StrategySwapped\",\"iter\":49,\"generation\":1,\"predicted_energy_wus\":1234.5}",
            ),
        ]);
    }

    #[test]
    fn json_encodes_fleet_events() {
        assert_encodes(&[
            (
                Event::TransferHit {
                    device: 7,
                    donor: 3,
                    seeds: 1,
                },
                "{\"event\":\"TransferHit\",\"device\":7,\"donor\":3,\"seeds\":1}",
            ),
            (
                Event::TransferMiss {
                    device: 2,
                    cluster: 1,
                },
                "{\"event\":\"TransferMiss\",\"device\":2,\"cluster\":1}",
            ),
            (
                Event::FleetEpoch {
                    epoch: 1,
                    devices: 64,
                    swaps: 9,
                    transfers: 6,
                },
                "{\"event\":\"FleetEpoch\",\"epoch\":1,\"devices\":64,\"swaps\":9,\"transfers\":6}",
            ),
        ]);
    }

    #[test]
    fn json_encodes_health_events() {
        assert_encodes(&[
            (
                Event::DeviceQuarantined {
                    device: 5,
                    epoch: 2,
                    reason: "strikes".to_owned(),
                    strikes: 3,
                },
                "{\"event\":\"DeviceQuarantined\",\"device\":5,\"epoch\":2,\
                 \"reason\":\"strikes\",\"strikes\":3}",
            ),
            (
                Event::DeviceProbation {
                    device: 5,
                    epoch: 3,
                    iterations: 4,
                },
                "{\"event\":\"DeviceProbation\",\"device\":5,\"epoch\":3,\"iterations\":4}",
            ),
            (
                Event::DeviceRecovered {
                    device: 5,
                    epoch: 3,
                    probations: 1,
                },
                "{\"event\":\"DeviceRecovered\",\"device\":5,\"epoch\":3,\"probations\":1}",
            ),
            (
                Event::DeviceEvicted {
                    device: 6,
                    epoch: 4,
                    probations: 2,
                },
                "{\"event\":\"DeviceEvicted\",\"device\":6,\"epoch\":4,\"probations\":2}",
            ),
            (
                Event::TransferRejected {
                    device: 1,
                    donor: 7,
                    reason: "unsound-strategy".to_owned(),
                },
                "{\"event\":\"TransferRejected\",\"device\":1,\"donor\":7,\
                 \"reason\":\"unsound-strategy\"}",
            ),
            (
                Event::EpochDegraded {
                    epoch: 2,
                    healthy: 13,
                    devices: 16,
                },
                "{\"event\":\"EpochDegraded\",\"epoch\":2,\"healthy\":13,\"devices\":16}",
            ),
            (
                Event::CacheDegraded {
                    kind: "search".to_owned(),
                    error: "not a directory".to_owned(),
                },
                "{\"event\":\"CacheDegraded\",\"kind\":\"search\",\
                 \"error\":\"not a directory\"}",
            ),
        ]);
    }

    #[test]
    fn json_encodes_request_events() {
        assert_encodes(&[
            (
                Event::RequestAdmitted {
                    request: 42,
                    queue_depth: 3,
                },
                "{\"event\":\"RequestAdmitted\",\"request\":42,\"queue_depth\":3}",
            ),
            (
                Event::RequestRejected {
                    request: 43,
                    reason: "queue-full".to_owned(),
                    waited_us: 0.0,
                },
                "{\"event\":\"RequestRejected\",\"request\":43,\
                 \"reason\":\"queue-full\",\"waited_us\":0}",
            ),
            (
                Event::RequestCoalesced {
                    request: 44,
                    leader: 40,
                },
                "{\"event\":\"RequestCoalesced\",\"request\":44,\"leader\":40}",
            ),
            (
                Event::RequestCompleted {
                    request: 44,
                    provenance: "coalesced".to_owned(),
                    latency_us: 125.5,
                },
                "{\"event\":\"RequestCompleted\",\"request\":44,\
                 \"provenance\":\"coalesced\",\"latency_us\":125.5}",
            ),
        ]);
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
