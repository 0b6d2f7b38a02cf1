//! Optimization reports: measured baseline vs. DVFS-optimized iteration.

use npu_dvfs::Evaluation;
use npu_sim::RunResult;
use std::fmt;

/// Measured quantities of one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredIteration {
    /// Iteration time, µs.
    pub time_us: f64,
    /// Average AICore power, W.
    pub aicore_w: f64,
    /// Average SoC power, W.
    pub soc_w: f64,
    /// End-of-iteration chip temperature, °C.
    pub temp_c: f64,
}

impl MeasuredIteration {
    /// Extracts the measured quantities from a device run.
    #[must_use]
    pub fn from_run(run: &RunResult) -> Self {
        Self {
            time_us: run.duration_us,
            aicore_w: run.avg_aicore_w(),
            soc_w: run.avg_soc_w(),
            temp_c: run.end_temp_c,
        }
    }

    /// Iteration time in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.time_us * 1e-6
    }
}

/// The end-to-end optimization outcome for one workload (one row of the
/// paper's Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationReport {
    /// Workload name.
    pub workload: String,
    /// Performance-loss target the strategy was generated for.
    pub perf_loss_target: f64,
    /// Measured baseline iteration (all ops at max frequency).
    pub baseline: MeasuredIteration,
    /// Measured iteration under the generated DVFS strategy.
    pub optimized: MeasuredIteration,
    /// The model-predicted evaluation of the chosen strategy.
    pub predicted: Evaluation,
    /// Number of frequency-candidate stages after preprocessing.
    pub stage_count: usize,
    /// `SetFreq` commands dispatched per iteration.
    pub setfreq_count: usize,
    /// Best-score trace of the search: `[best_score]` from a session's
    /// exact search (a GA's per-generation trace is paper Fig. 17).
    pub ga_trace: Vec<f64>,
}

impl OptimizationReport {
    /// Measured relative performance loss (positive = slower than
    /// baseline).
    #[must_use]
    pub fn perf_loss(&self) -> f64 {
        self.optimized.time_us / self.baseline.time_us - 1.0
    }

    /// Measured AICore power reduction (positive = saved power).
    #[must_use]
    pub fn aicore_reduction(&self) -> f64 {
        1.0 - self.optimized.aicore_w / self.baseline.aicore_w
    }

    /// Measured SoC power reduction.
    #[must_use]
    pub fn soc_reduction(&self) -> f64 {
        1.0 - self.optimized.soc_w / self.baseline.soc_w
    }
}

impl fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} @ {:.0}% loss target: iter {:.4}s -> {:.4}s (loss {:+.2}%)",
            self.workload,
            100.0 * self.perf_loss_target,
            self.baseline.time_s(),
            self.optimized.time_s(),
            100.0 * self.perf_loss()
        )?;
        writeln!(
            f,
            "  SoC    {:.2} W -> {:.2} W ({:+.2}% reduction)",
            self.baseline.soc_w,
            self.optimized.soc_w,
            100.0 * self.soc_reduction()
        )?;
        write!(
            f,
            "  AICore {:.2} W -> {:.2} W ({:+.2}% reduction), {} stages, {} SetFreq",
            self.baseline.aicore_w,
            self.optimized.aicore_w,
            100.0 * self.aicore_reduction(),
            self.stage_count,
            self.setfreq_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> OptimizationReport {
        OptimizationReport {
            workload: "GPT3".into(),
            perf_loss_target: 0.02,
            baseline: MeasuredIteration {
                time_us: 11_290_000.0,
                aicore_w: 45.92,
                soc_w: 250.04,
                temp_c: 67.0,
            },
            optimized: MeasuredIteration {
                time_us: 11_470_000.0,
                aicore_w: 38.91,
                soc_w: 236.14,
                temp_c: 65.0,
            },
            predicted: Evaluation {
                time_us: 11_450_000.0,
                aicore_energy_wus: 4.45e8,
                soc_energy_wus: 2.7e9,
            },
            stage_count: 900,
            setfreq_count: 821,
            ga_trace: vec![1.0, 2.0],
        }
    }

    #[test]
    fn derived_metrics_match_paper_row() {
        let r = report();
        assert!((r.perf_loss() - 0.0159).abs() < 1e-3);
        assert!((r.aicore_reduction() - 0.1527).abs() < 1e-3);
        assert!((r.soc_reduction() - 0.0556).abs() < 1e-3);
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = report().to_string();
        assert!(s.contains("GPT3"));
        assert!(s.contains("821 SetFreq"));
    }
}
