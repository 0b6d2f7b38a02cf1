//! Profiler records — the CANN-profiler equivalent.
//!
//! For every executed operator the device emits one [`OpRecord`] carrying
//! timing, the frequency it started at, per-pipeline utilization ratios,
//! and the (noisy) power/temperature measurements averaged over the
//! operator window. This is the exact input surface the paper's
//! classification (Sect. 6.1), preprocessing (Sect. 6.2) and model
//! construction (Sect. 4.3, 5.5) consume.

use crate::freq::FreqMhz;
use crate::operator::{OpClass, Scenario};
use crate::timeline::PipelineRatios;
use std::sync::Arc;

/// One profiled operator execution.
///
/// This is a passive data record; all fields are public by design.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Position in the executed schedule.
    pub index: usize,
    /// Operator name (e.g. `"MatMul"`), shared with the operator's
    /// descriptor and every other record of it rather than copied.
    pub name: Arc<str>,
    /// Operator class.
    pub class: OpClass,
    /// Execution scenario (PingPong × Ld/St dependence).
    pub scenario: Scenario,
    /// Start time within the run, µs.
    pub start_us: f64,
    /// Measured duration, µs (includes execution noise).
    pub dur_us: f64,
    /// Core frequency when the operator started.
    pub freq_mhz: FreqMhz,
    /// Pipeline utilization ratios over the operator window.
    pub ratios: PipelineRatios,
    /// Measured average AICore power over the window, W.
    pub aicore_w: f64,
    /// Measured average SoC power over the window, W.
    pub soc_w: f64,
    /// Measured chip temperature at the end of the window, °C.
    pub temp_c: f64,
    /// Bytes moved between core and uncore during the operator.
    pub traffic_bytes: f64,
}

impl OpRecord {
    /// End time within the run, µs.
    #[must_use]
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_is_start_plus_duration() {
        let r = OpRecord {
            index: 0,
            name: "Add".into(),
            class: OpClass::Compute,
            scenario: Scenario::PingPongFreeIndependent,
            start_us: 10.0,
            dur_us: 5.0,
            freq_mhz: FreqMhz::new(1800),
            ratios: PipelineRatios::default(),
            aicore_w: 30.0,
            soc_w: 200.0,
            temp_c: 55.0,
            traffic_bytes: 1024.0,
        };
        assert_eq!(r.end_us(), 15.0);
    }
}
