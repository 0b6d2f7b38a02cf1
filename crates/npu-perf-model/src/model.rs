//! Per-operator performance models built from profiled runs.
//!
//! The paper's flow (Sect. 4.3, 7.2): run the workload once per build
//! frequency, collect per-operator execution times from the profiler, fit
//! the chosen function per operator, then predict execution time at any
//! supported frequency.

use crate::fitting::{fit, FitError, FitFunction, FitParams};
use npu_obs::{Event, ObserverHandle};
use npu_sim::{FreqMhz, OpClass, OpRecord};
use std::fmt;
use std::sync::Arc;

/// One profiled run of a schedule at a fixed frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqProfile {
    /// The frequency the run executed at.
    pub freq: FreqMhz,
    /// Per-operator records, in schedule order.
    pub records: Vec<OpRecord>,
}

/// A fitted performance model for one operator.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// Shared with the profile record it was fitted from.
    name: Arc<str>,
    class: OpClass,
    params: Option<FitParams>,
    /// Mean observed duration (used for frequency-insensitive operators).
    fallback_us: f64,
}

impl PerfModel {
    /// Operator name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operator class.
    #[must_use]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// Fitted parameters; `None` for host-side (frequency-insensitive)
    /// operators, which use the observed mean duration instead.
    #[must_use]
    pub fn params(&self) -> Option<&FitParams> {
        self.params.as_ref()
    }

    /// Predicted execution time at `f`, µs.
    #[must_use]
    pub fn predict_time_us(&self, f: FreqMhz) -> f64 {
        match &self.params {
            Some(p) => p.predict_time_us(f.as_f64()),
            None => self.fallback_us,
        }
    }
}

/// Errors building a [`PerfModelStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Fewer than one profile supplied.
    NoProfiles,
    /// Profiles disagree on operator count (different schedules?).
    MismatchedProfiles {
        /// Expected record count (from the first profile).
        expected: usize,
        /// Offending profile's record count.
        got: usize,
    },
    /// Fitting one operator failed.
    Fit {
        /// Index of the operator in the schedule.
        op_index: usize,
        /// Underlying error.
        source: FitError,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoProfiles => write!(f, "at least one frequency profile is required"),
            Self::MismatchedProfiles { expected, got } => {
                write!(
                    f,
                    "profiles have different op counts: expected {expected}, got {got}"
                )
            }
            Self::Fit { op_index, source } => {
                write!(f, "fitting operator {op_index} failed: {source}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Fit { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Performance models for every operator of a schedule.
///
/// # Examples
///
/// ```
/// use npu_sim::{Device, FreqMhz, NpuConfig, RunOptions};
/// use npu_workloads::models;
/// use npu_perf_model::{FitFunction, FreqProfile, PerfModelStore};
///
/// let cfg = NpuConfig::ascend_like();
/// let workload = models::tiny(&cfg);
/// let mut dev = Device::new(cfg);
/// let mut profiles = Vec::new();
/// for mhz in [1000, 1800] {
///     let freq = FreqMhz::new(mhz);
///     let run = dev.run(workload.schedule(), &RunOptions::at(freq))?;
///     profiles.push(FreqProfile { freq, records: run.records });
/// }
/// let store = PerfModelStore::build(&profiles, FitFunction::Quadratic)?;
/// assert_eq!(store.len(), workload.op_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModelStore {
    kind: FitFunction,
    models: Vec<PerfModel>,
}

impl PerfModelStore {
    /// Fits one model per operator from profiles at two or more
    /// frequencies. AICPU and idle operators are modeled by their mean
    /// observed duration (AICore-frequency insensitive, paper Table 1);
    /// compute *and* communication operators get fitted curves — the
    /// on-core reduce portion of collectives does respond to frequency.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on empty/mismatched profiles or a fit
    /// failure.
    pub fn build(profiles: &[FreqProfile], kind: FitFunction) -> Result<Self, BuildError> {
        let first = profiles.first().ok_or(BuildError::NoProfiles)?;
        let n = first.records.len();
        for p in profiles {
            if p.records.len() != n {
                return Err(BuildError::MismatchedProfiles {
                    expected: n,
                    got: p.records.len(),
                });
            }
        }
        let mut models = Vec::with_capacity(n);
        for i in 0..n {
            let rec = &first.records[i];
            let mean: f64 =
                profiles.iter().map(|p| p.records[i].dur_us).sum::<f64>() / profiles.len() as f64;
            // Compute operators use the chosen convex fitting function;
            // communication operators are a link-time + on-core-kernel
            // split, which the stall-constant form `T = b + c/f`
            // represents exactly; AICPU/idle segments use their mean.
            let op_kind = match rec.class {
                OpClass::Compute => Some(kind),
                OpClass::Communication => Some(FitFunction::StallConstant),
                OpClass::AiCpu | OpClass::Idle => None,
            };
            let params = match op_kind {
                Some(k) => {
                    let samples: Vec<(f64, f64)> = profiles
                        .iter()
                        .map(|p| (p.freq.as_f64(), p.records[i].dur_us.max(1e-9)))
                        .collect();
                    Some(fit(k, &samples).map_err(|source| BuildError::Fit {
                        op_index: i,
                        source,
                    })?)
                }
                None => None,
            };
            models.push(PerfModel {
                name: rec.name.clone(),
                class: rec.class,
                params,
                fallback_us: mean,
            });
        }
        Ok(Self { kind, models })
    }

    /// Like [`PerfModelStore::build`], additionally emitting one
    /// [`Event::ModelFitted`] (function family, op count, worst relative
    /// fit error against the build profiles) through `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on empty/mismatched profiles or a fit
    /// failure.
    pub fn build_observed(
        profiles: &[FreqProfile],
        kind: FitFunction,
        obs: &ObserverHandle,
    ) -> Result<Self, BuildError> {
        let store = Self::build(profiles, kind)?;
        if obs.enabled() {
            obs.emit(Event::ModelFitted {
                func: kind.to_string(),
                ops: store.len(),
                max_err: store.max_fit_error(profiles),
            });
        }
        Ok(store)
    }

    /// Worst relative error of the fitted models against observed
    /// durations, across every operator and profile. Sub-microsecond
    /// observations are skipped (relative error is meaningless there);
    /// returns 0.0 when nothing qualifies.
    #[must_use]
    pub fn max_fit_error(&self, profiles: &[FreqProfile]) -> f64 {
        let mut max_err: f64 = 0.0;
        for p in profiles {
            for (i, rec) in p.records.iter().enumerate().take(self.models.len()) {
                if rec.dur_us < 1.0 {
                    continue;
                }
                let pred = self.models[i].predict_time_us(p.freq);
                max_err = max_err.max((pred - rec.dur_us).abs() / rec.dur_us);
            }
        }
        max_err
    }

    /// The function family used for fitting.
    #[must_use]
    pub fn kind(&self) -> FitFunction {
        self.kind
    }

    /// Number of operator models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The model for operator `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&PerfModel> {
        self.models.get(index)
    }

    /// Iterates over all per-operator models, in schedule order.
    pub fn iter(&self) -> impl Iterator<Item = &PerfModel> {
        self.models.iter()
    }

    /// Predicted time of operator `index` at `f`, µs.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn predict_time_us(&self, index: usize, f: FreqMhz) -> f64 {
        self.models[index].predict_time_us(f)
    }

    /// Predicted total time of a contiguous operator range `[start, end)`
    /// with every operator at `f`, µs.
    #[must_use]
    pub fn predict_range_us(&self, start: usize, end: usize, f: FreqMhz) -> f64 {
        self.models[start..end]
            .iter()
            .map(|m| m.predict_time_us(f))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_sim::{Device, NpuConfig, RunOptions};
    use npu_workloads::models;

    fn profiles_for(
        workload: &npu_workloads::Workload,
        freqs: &[u32],
        cfg: &NpuConfig,
    ) -> Vec<FreqProfile> {
        let mut dev = Device::new(cfg.clone());
        freqs
            .iter()
            .map(|&mhz| {
                let freq = FreqMhz::new(mhz);
                let run = dev.run(workload.schedule(), &RunOptions::at(freq)).unwrap();
                FreqProfile {
                    freq,
                    records: run.records,
                }
            })
            .collect()
    }

    #[test]
    fn build_from_two_frequencies() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let profiles = profiles_for(&w, &[1000, 1800], &cfg);
        let store = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
        assert_eq!(store.len(), w.op_count());
        assert_eq!(store.kind(), FitFunction::Quadratic);
    }

    #[test]
    fn predicts_unseen_frequencies_well() {
        let cfg = NpuConfig::builder().noise(0.0, 0.0, 0.0).build().unwrap();
        let w = models::tiny(&cfg);
        let profiles = profiles_for(&w, &[1000, 1800], &cfg);
        let store = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
        // Compare against a noise-free measurement at 1400 MHz.
        let truth = profiles_for(&w, &[1400], &cfg).remove(0);
        for (i, rec) in truth.records.iter().enumerate() {
            if rec.dur_us < 20.0 {
                continue; // the paper excludes sub-20 µs operators
            }
            let pred = store.predict_time_us(i, FreqMhz::new(1400));
            let err = (pred - rec.dur_us).abs() / rec.dur_us;
            assert!(err < 0.10, "op {i} ({}) err {err}", rec.name);
        }
    }

    #[test]
    fn host_ops_use_mean_duration() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let profiles = profiles_for(&w, &[1000, 1800], &cfg);
        let store = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
        let idle_idx = w
            .schedule()
            .ops()
            .iter()
            .position(|o| o.class() == OpClass::Idle)
            .unwrap();
        let m = store.get(idle_idx).unwrap();
        assert!(m.params().is_none());
        assert_eq!(
            m.predict_time_us(FreqMhz::new(1000)),
            m.predict_time_us(FreqMhz::new(1800)),
            "host ops are frequency insensitive"
        );
    }

    #[test]
    fn build_observed_emits_model_fitted() {
        use npu_obs::{MetricsRegistry, ObserverHandle};
        use std::sync::Arc;

        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let profiles = profiles_for(&w, &[1000, 1800], &cfg);
        let metrics = Arc::new(MetricsRegistry::new());
        let obs = ObserverHandle::from_arc(metrics.clone());
        let store =
            PerfModelStore::build_observed(&profiles, FitFunction::Quadratic, &obs).unwrap();
        assert_eq!(metrics.counter("event.ModelFitted"), 1);
        // The fit interpolates the build points, so the reported worst
        // error is bounded by measurement noise.
        assert!(store.max_fit_error(&profiles) < 0.25);
        // A disabled handle adds no events and changes no results.
        let silent =
            PerfModelStore::build_observed(&profiles, FitFunction::Quadratic, &Default::default())
                .unwrap();
        assert_eq!(silent, store);
        assert_eq!(metrics.counter("event.ModelFitted"), 1);
    }

    #[test]
    fn rejects_empty_profiles() {
        assert_eq!(
            PerfModelStore::build(&[], FitFunction::Quadratic).unwrap_err(),
            BuildError::NoProfiles
        );
    }

    #[test]
    fn rejects_mismatched_profiles() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let mut profiles = profiles_for(&w, &[1000, 1800], &cfg);
        profiles[1].records.pop();
        let err = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap_err();
        assert!(matches!(err, BuildError::MismatchedProfiles { .. }));
    }

    #[test]
    fn range_prediction_sums_ops() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let profiles = profiles_for(&w, &[1000, 1800], &cfg);
        let store = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
        let f = FreqMhz::new(1500);
        let total = store.predict_range_us(0, store.len(), f);
        let manual: f64 = (0..store.len()).map(|i| store.predict_time_us(i, f)).sum();
        assert!((total - manual).abs() < 1e-9);
    }
}
