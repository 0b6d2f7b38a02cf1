//! Staged optimization sessions: the Fig. 1 closed loop, one phase at a
//! time.
//!
//! [`OptimizationSession`] decomposes [`EnergyOptimizer::optimize`] into
//! `profile → build_models → search → execute → report`. Each stage runs
//! at most once, automatically running any predecessors it needs, and
//! leaves its artifact inspectable on the session — the frequency
//! profiles, fitted models, preprocessed stages, search outcome and
//! executed run. The one-call `optimize()` wrapper drives this exact
//! path, so the staged and monolithic APIs are byte-identical in their
//! results.
//!
//! Every stage brackets itself with [`Event::PhaseStarted`] /
//! [`Event::PhaseFinished`] on the optimizer's observer, which is how
//! the whole pipeline becomes a single JSON-lines stream (see the
//! `observe_pipeline` example).

use crate::cache::{
    model_key, profile_key, search_key, Artifact, ArtifactCache, FlightRole, ModelArtifact,
    ProfileArtifact, SearchArtifact, SingleFlightError,
};
use crate::optimizer::{EnergyOptimizer, OptimizeError, OptimizerConfig};
use crate::report::{MeasuredIteration, OptimizationReport};
use crate::sweep::{profile_point, sweep_profiles};
use npu_dvfs::{preprocess::preprocess, serving_search, GaOutcome, Preprocessed, StageTable};
use npu_exec::{execute_strategy, ExecutionOutcome, ExecutorOptions};
use npu_obs::{Event, ObserverHandle, Phase};
use npu_perf_model::{FreqProfile, PerfModelStore};
use npu_power_model::PowerModel;
use npu_sim::FreqMhz;
use std::sync::Arc;
use std::time::Instant;

/// A staged run of the optimization pipeline over one workload.
///
/// Obtain one via [`EnergyOptimizer::session`]. Stages chain lazily:
/// calling [`Self::report`] on a fresh session runs everything, while
/// calling [`Self::search`] first lets the caller inspect the search
/// outcome (or the stage table) before deciding to execute.
///
/// # Examples
///
/// ```no_run
/// use npu_core::{EnergyOptimizer, OptimizerConfig};
/// use npu_sim::NpuConfig;
/// use npu_workloads::models;
///
/// let cfg = NpuConfig::ascend_like();
/// let workload = models::tiny(&cfg);
/// let mut optimizer = EnergyOptimizer::calibrated(cfg)?;
/// let opts = OptimizerConfig::default();
/// let mut session = optimizer.session(&workload, &opts);
/// let outcome = session.search()?; // profile + models run implicitly
/// println!("predicted {:?}", outcome.best_eval);
/// let report = session.report()?; // executes, then reports
/// println!("{report}");
/// # Ok::<(), npu_core::OptimizeError>(())
/// ```
#[derive(Debug)]
pub struct OptimizationSession<'a> {
    opt: &'a mut EnergyOptimizer,
    workload: &'a npu_workloads::Workload,
    opts: OptimizerConfig,
    obs: ObserverHandle,
    cache: Option<ArtifactCache>,
    profile_cache_key: Option<u64>,
    model_cache_key: Option<u64>,
    /// Shared with the cache when the stage went through it.
    profile: Option<Arc<ProfileArtifact>>,
    /// Shared with the cache when the stage went through it.
    models: Option<Arc<ModelArtifact>>,
    preprocessed: Option<Preprocessed>,
    table: Option<StageTable>,
    outcome: Option<GaOutcome>,
    execution: Option<ExecutionOutcome>,
}

impl<'a> OptimizationSession<'a> {
    pub(crate) fn new(
        opt: &'a mut EnergyOptimizer,
        workload: &'a npu_workloads::Workload,
        opts: OptimizerConfig,
    ) -> Self {
        let obs = opt.observer().clone();
        Self {
            opt,
            workload,
            opts,
            obs,
            cache: None,
            profile_cache_key: None,
            model_cache_key: None,
            profile: None,
            models: None,
            preprocessed: None,
            table: None,
            outcome: None,
            execution: None,
        }
    }

    /// The configuration this session runs under.
    #[must_use]
    pub fn config(&self) -> &OptimizerConfig {
        &self.opts
    }

    /// The observer the session (and every layer below it) reports to.
    #[must_use]
    pub fn observer(&self) -> &ObserverHandle {
        &self.obs
    }

    /// Attaches a content-addressed artifact cache: the profile, model
    /// and search stages first look their keyed artifact up (emitting
    /// [`Event::CacheHit`] / [`Event::CacheMiss`]) and store what they
    /// compute. A warm session skips straight to the execute stage with
    /// results bit-identical to a cold one. Devices with a fault hook
    /// never consult the cache — hook state is not part of the key.
    pub fn set_cache(&mut self, cache: ArtifactCache) {
        self.cache = Some(cache);
    }

    /// Chainable form of [`Self::set_cache`].
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.set_cache(cache);
        self
    }

    fn emit_cache_event(&self, hit: bool, kind: &str) {
        if self.obs.enabled() {
            let kind = kind.to_owned();
            self.obs.emit(if hit {
                Event::CacheHit { kind }
            } else {
                Event::CacheMiss { kind }
            });
        }
    }

    /// Runs one cacheable stage — profile, model or search — through the
    /// session's cache, emitting [`Event::CacheHit`] / [`Event::CacheMiss`].
    /// Single-flight: of N concurrent sessions with this key, exactly one
    /// leads — running the authoritative lookup and, on a miss, `compute`
    /// and the insert — while the rest block on its published artifact.
    /// The returned `Arc` is the cache's own: the session shares the
    /// artifact instead of copying it. Without a key or an attached
    /// cache, `compute` simply runs, and so it does on a device with a
    /// fault hook: hook state is not part of the key, so cached artifacts
    /// would be wrong for a faulty device.
    fn cached<A: Artifact>(
        &self,
        key: Option<u64>,
        mut compute: impl FnMut() -> Result<A, OptimizeError>,
    ) -> Result<Arc<A>, OptimizeError> {
        let cache = self
            .cache
            .as_ref()
            .filter(|_| self.opt.dev.hook().is_none());
        let (Some(key), Some(cache)) = (key, cache) else {
            return compute().map(Arc::new);
        };
        let flight = cache.single_flight(key, || {
            self.emit_cache_event(false, A::NAME);
            compute()
        });
        match flight {
            Ok((artifact, role)) => {
                if role != FlightRole::Led {
                    self.emit_cache_event(true, A::NAME);
                }
                Ok(artifact)
            }
            Err(SingleFlightError::Compute(e)) => Err(e),
            Err(SingleFlightError::Poisoned(_)) => {
                // The flight's leader failed; recompute locally rather
                // than fail this session too. No insert — the next flight
                // elects a fresh leader that publishes the authoritative
                // artifact.
                self.emit_cache_event(false, A::NAME);
                compute().map(Arc::new)
            }
        }
    }

    fn phase<T>(
        &mut self,
        phase: Phase,
        body: impl FnOnce(&mut Self) -> Result<T, OptimizeError>,
    ) -> Result<T, OptimizeError> {
        self.obs.emit(Event::PhaseStarted { phase });
        let start = Instant::now();
        let out = body(self)?;
        self.obs.emit(Event::PhaseFinished {
            phase,
            wall_us: start.elapsed().as_secs_f64() * 1e6,
        });
        Ok(out)
    }

    /// Stage 1 — profiles the workload at the build frequencies (the
    /// device's maximum frequency first; it doubles as the measured
    /// baseline). Idempotent: repeated calls return the cached profiles.
    ///
    /// Hook-free devices sweep the frequency points in parallel on cold
    /// [`npu_sim::Device::fork`]s (worker count from
    /// [`OptimizerConfig::threads`]) — bit-identical at every thread
    /// count and never mutating the session device. Devices with a
    /// fault hook profile in place, serially, so injected faults reach
    /// the profiling runs.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Device`] if a profiling run fails.
    pub fn profile(&mut self) -> Result<&[FreqProfile], OptimizeError> {
        if self.profile.is_none() {
            self.phase(Phase::Profile, |s| {
                let fmax = s.opt.dev.config().freq_table.max();
                let mut build_freqs = s.opts.build_freqs.clone();
                if !build_freqs.contains(&fmax) {
                    build_freqs.push(fmax);
                }
                build_freqs.sort();
                build_freqs.reverse(); // profile at fmax first

                let artifact = if s.opt.dev.hook().is_some() {
                    // The hook's faults must reach the profiling runs,
                    // and hook state cannot be shared across worker forks
                    // (or fingerprinted).
                    let profiles = s.profile_in_place(&build_freqs)?;
                    Arc::new(s.fold_profile(profiles, fmax))
                } else {
                    let key = profile_key(
                        s.opt.dev.config(),
                        s.opt.dev.seed(),
                        s.workload.schedule(),
                        &build_freqs,
                    );
                    s.profile_cache_key = Some(key);
                    s.cached(Some(key), || {
                        let profiles = sweep_profiles(
                            &s.opt.dev,
                            s.workload.schedule(),
                            &build_freqs,
                            s.opts.threads,
                            &s.obs,
                        )?;
                        Ok(s.fold_profile(profiles, fmax))
                    })?
                };
                s.profile = Some(artifact);
                Ok(())
            })?;
        }
        Ok(self.profiles().expect("profile stage ran"))
    }

    /// Profiles the workload at `freqs` in place, serially, through the
    /// sweep's per-point function; each [`Event::ProfileRun`] reports the
    /// run's own duration.
    fn profile_in_place(&mut self, freqs: &[FreqMhz]) -> Result<Vec<FreqProfile>, OptimizeError> {
        let mut profiles = Vec::with_capacity(freqs.len());
        for &freq in freqs {
            let run = profile_point(&mut self.opt.dev, self.workload.schedule(), freq)?;
            self.obs.emit(Event::ProfileRun {
                freq_mhz: freq.mhz(),
                ops: run.records.len(),
                duration_us: run.duration_us,
            });
            profiles.push(FreqProfile {
                freq,
                records: run.records,
            });
        }
        Ok(profiles)
    }

    /// Pairs the profiles with their measured baseline.
    fn fold_profile(&self, profiles: Vec<FreqProfile>, fmax: FreqMhz) -> ProfileArtifact {
        let baseline = self.measure_baseline(&profiles, fmax);
        ProfileArtifact { profiles, baseline }
    }

    /// Folds the fmax profile into the measured baseline and emits the
    /// baseline [`Event::IterationMeasured`].
    fn measure_baseline(&self, profiles: &[FreqProfile], fmax: FreqMhz) -> MeasuredIteration {
        let baseline_profile = &profiles[0];
        debug_assert_eq!(baseline_profile.freq, fmax);
        let baseline_time: f64 = baseline_profile.records.iter().map(|r| r.dur_us).sum();
        let baseline_aicore: f64 = baseline_profile
            .records
            .iter()
            .map(|r| r.aicore_w * r.dur_us)
            .sum::<f64>()
            / baseline_time;
        let baseline_soc: f64 = baseline_profile
            .records
            .iter()
            .map(|r| r.soc_w * r.dur_us)
            .sum::<f64>()
            / baseline_time;
        let baseline = MeasuredIteration {
            time_us: baseline_time,
            aicore_w: baseline_aicore,
            soc_w: baseline_soc,
            temp_c: baseline_profile
                .records
                .last()
                .map_or(self.opt.dev.temp_c(), |r| r.temp_c),
        };
        if self.obs.enabled() {
            self.obs.emit(Event::IterationMeasured {
                label: "baseline".to_owned(),
                time_us: baseline.time_us,
                aicore_w: baseline.aicore_w,
                soc_w: baseline.soc_w,
                temp_c: baseline.temp_c,
            });
        }
        baseline
    }

    /// Stage 2 — fits the performance and power models from the
    /// profiles (running [`Self::profile`] first if needed).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if profiling or a model build fails.
    pub fn build_models(&mut self) -> Result<(&PerfModelStore, &PowerModel), OptimizeError> {
        if self.models.is_none() {
            self.profile()?;
            self.phase(Phase::BuildModels, |s| {
                let key = s
                    .profile_cache_key
                    .map(|pk| model_key(pk, s.opts.fit, &s.opt.calib));
                s.model_cache_key = key;
                s.models = Some(s.cached(key, || s.fit_models())?);
                Ok(())
            })?;
        }
        let models = self.models.as_deref().expect("model stage ran");
        Ok((&models.perf, &models.power))
    }

    /// The cold model computation: fits the performance models and the
    /// power model from the session's profiles.
    fn fit_models(&self) -> Result<ModelArtifact, OptimizeError> {
        let profiles = self.profiles().expect("profile stage ran");
        let perf = PerfModelStore::build_observed(profiles, self.opts.fit, &self.obs)?;
        let voltage = self.opt.dev.config().voltage_curve;
        let power = PowerModel::build(self.opt.calib, voltage, profiles)?;
        Ok(ModelArtifact { perf, power })
    }

    /// Stage 3 — preprocesses the baseline profile into stages and runs
    /// [`serving_search`] over the stage table (running earlier stages
    /// first if needed): the exact solver's answer or a higher-scoring
    /// warm seed from [`OptimizerConfig::warm_seeds`], polished by
    /// coordinate ascent unless the solver certified its answer.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if an earlier stage or the table build
    /// fails.
    pub fn search(&mut self) -> Result<&GaOutcome, OptimizeError> {
        if self.outcome.is_none() {
            self.build_models()?;
            self.phase(Phase::Search, |s| {
                // The FAI can never be finer than the SetFreq apply
                // latency — switches requested closer together than the
                // latency cannot land where planned.
                let fai = s.opts.fai_us.max(s.opt.dev.config().setfreq_latency_us);
                let key = s.model_cache_key.map(|mk| search_key(mk, fai, &s.opts));
                let baseline_records =
                    &s.profile.as_deref().expect("profile stage ran").profiles[0].records;
                // A session that runs the search keeps its preprocessed
                // stages and stage table; one served from the cache
                // recomputes only the cheap preprocessing, so the stage
                // count and stage artifact stay available. The stage
                // table is not rebuilt on a hit.
                let mut built = None;
                let artifact = s.cached(key, || {
                    let pre = preprocess(baseline_records, fai);
                    let models = s.models.as_deref().expect("model stage ran");
                    let table = StageTable::build(
                        &pre,
                        &models.perf,
                        &models.power,
                        &s.opt.dev.config().freq_table,
                    )?;
                    let outcome = serving_search(
                        &table,
                        s.opts.ga.perf_loss_target,
                        &s.opts.warm_seeds,
                        &s.obs,
                    );
                    built = Some((pre, table));
                    Ok(SearchArtifact { outcome })
                })?;
                let (pre, table) = match built {
                    Some((pre, table)) => (pre, Some(table)),
                    None => (preprocess(baseline_records, fai), None),
                };
                s.preprocessed = Some(pre);
                s.table = table;
                s.outcome = Some(Arc::unwrap_or_clone(artifact).outcome);
                Ok(())
            })?;
        }
        Ok(self.outcome.as_ref().expect("search stage ran"))
    }

    /// Stage 4 — executes the winning strategy on the device and
    /// measures it (running earlier stages first if needed).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if an earlier stage or the execution
    /// fails.
    pub fn execute(&mut self) -> Result<&ExecutionOutcome, OptimizeError> {
        if self.execution.is_none() {
            self.search()?;
            self.phase(Phase::Execute, |s| {
                let strategy = &s.outcome.as_ref().expect("search stage ran").strategy;
                let baseline_records =
                    &s.profile.as_deref().expect("profile stage ran").profiles[0].records;
                let exec = execute_strategy(
                    &mut s.opt.dev,
                    s.workload.schedule(),
                    strategy,
                    baseline_records,
                    &ExecutorOptions {
                        planned_latency_us: s.opts.planned_latency_us,
                        ..ExecutorOptions::default()
                    },
                )?;
                s.execution = Some(exec);
                Ok(())
            })?;
        }
        Ok(self.execution.as_ref().expect("execute stage ran"))
    }

    /// Stage 5 — assembles the baseline-vs-optimized report (running
    /// every earlier stage first if needed). Idempotent; the returned
    /// report is owned, so the session stays inspectable afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if any stage fails.
    pub fn report(&mut self) -> Result<OptimizationReport, OptimizeError> {
        self.execute()?;
        self.phase(Phase::Report, |s| {
            let outcome = s.outcome.as_ref().expect("search stage ran");
            let exec = s.execution.as_ref().expect("execute stage ran");
            Ok(OptimizationReport {
                workload: s.workload.name().to_owned(),
                perf_loss_target: s.opts.ga.perf_loss_target,
                baseline: *s.baseline().expect("profile stage ran"),
                optimized: MeasuredIteration::from_run(&exec.result),
                predicted: outcome.best_eval,
                stage_count: s.preprocessed.as_ref().expect("search stage ran").len(),
                setfreq_count: exec.setfreq_count,
                ga_trace: outcome.score_trace.clone(),
            })
        })
    }

    /// Partial re-profile — re-measures the workload at `freqs` only and
    /// splices the fresh profiles over the stale ones (running
    /// [`Self::profile`] first if the session is cold). Everything
    /// downstream of the profiles (models, search, execution) is
    /// invalidated and recomputes lazily from the refreshed data.
    ///
    /// This is the first rung of a serving runtime's drift-response
    /// ladder: when reality has moved away from the models, re-measuring
    /// a minimal frequency subset is far cheaper than a full sweep.
    /// Because a spliced profile set mixes measurement epochs it is no
    /// longer content-addressable, so the session stops consulting the
    /// artifact cache for this workload's profile/model/search stages
    /// (a re-optimization that *should* be cached runs a fresh session
    /// on a drift-frozen snapshot device instead — its keys differ
    /// through the snapshot configuration).
    ///
    /// Frequencies not on the device grid are profiled anyway if the
    /// sweep accepts them. Each distinct frequency is profiled once, in
    /// first-occurrence order; one never profiled before is appended
    /// rather than spliced. Re-profiling the maximum frequency refreshes
    /// the measured baseline too.
    ///
    /// The splice is copy on write: a profile artifact shared with the
    /// cache is copied first, so the cached one never changes.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::Device`] if a profiling run fails.
    pub fn refresh_profile(&mut self, freqs: &[FreqMhz]) -> Result<(), OptimizeError> {
        self.profile()?;
        if freqs.is_empty() {
            return Ok(());
        }
        let mut distinct = Vec::with_capacity(freqs.len());
        for &f in freqs {
            if !distinct.contains(&f) {
                distinct.push(f);
            }
        }
        self.phase(Phase::Profile, |s| {
            let fresh = if s.opt.dev.hook().is_some() {
                s.profile_in_place(&distinct)?
            } else {
                sweep_profiles(
                    &s.opt.dev,
                    s.workload.schedule(),
                    &distinct,
                    s.opts.threads,
                    &s.obs,
                )?
            };
            let shared = s.profile.take().expect("profile stage ran");
            let mut artifact = Arc::unwrap_or_clone(shared);
            for new in fresh {
                match artifact.profiles.iter_mut().find(|p| p.freq == new.freq) {
                    Some(slot) => *slot = new,
                    None => artifact.profiles.push(new),
                }
            }
            let fmax = s.opt.dev.config().freq_table.max();
            artifact.baseline = s.measure_baseline(&artifact.profiles, fmax);
            s.profile = Some(Arc::new(artifact));
            s.profile_cache_key = None;
            s.invalidate_models();
            Ok(())
        })
    }

    /// Drops every artifact derived from the profiles so the model,
    /// search and execute stages recompute on next use.
    fn invalidate_models(&mut self) {
        self.model_cache_key = None;
        self.models = None;
        self.preprocessed = None;
        self.table = None;
        self.outcome = None;
        self.execution = None;
    }

    /// The frequency profiles, if [`Self::profile`] has run.
    #[must_use]
    pub fn profiles(&self) -> Option<&[FreqProfile]> {
        self.profile.as_deref().map(|a| a.profiles.as_slice())
    }

    /// The profile artifact itself, shared with the cache it came from.
    pub(crate) fn profile_artifact(&self) -> Option<&Arc<ProfileArtifact>> {
        self.profile.as_ref()
    }

    /// The measured baseline iteration, if [`Self::profile`] has run.
    #[must_use]
    pub fn baseline(&self) -> Option<&MeasuredIteration> {
        self.profile.as_deref().map(|a| &a.baseline)
    }

    /// The fitted performance models, if [`Self::build_models`] has run.
    #[must_use]
    pub fn perf_model(&self) -> Option<&PerfModelStore> {
        self.models.as_deref().map(|m| &m.perf)
    }

    /// The fitted power model, if [`Self::build_models`] has run.
    #[must_use]
    pub fn power_model(&self) -> Option<&PowerModel> {
        self.models.as_deref().map(|m| &m.power)
    }

    /// The preprocessed LFC/HFC stages, if [`Self::search`] has run.
    #[must_use]
    pub fn preprocessed(&self) -> Option<&Preprocessed> {
        self.preprocessed.as_ref()
    }

    /// The per-stage/per-frequency prediction table, if [`Self::search`]
    /// has run.
    #[must_use]
    pub fn stage_table(&self) -> Option<&StageTable> {
        self.table.as_ref()
    }

    /// The search outcome, if [`Self::search`] has run.
    #[must_use]
    pub fn ga_outcome(&self) -> Option<&GaOutcome> {
        self.outcome.as_ref()
    }

    /// The executed run, if [`Self::execute`] has run.
    #[must_use]
    pub fn execution(&self) -> Option<&ExecutionOutcome> {
        self.execution.as_ref()
    }

    /// Consumes the session, returning the search outcome if the search
    /// stage ran.
    #[must_use]
    pub fn into_ga_outcome(self) -> Option<GaOutcome> {
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use crate::cache::{ArtifactCache, ModelArtifact, ProfileArtifact};
    use crate::{EnergyOptimizer, OptimizerConfig};
    use npu_power_model::HardwareCalibration;
    use npu_sim::{Device, FreqMhz, NpuConfig};
    use npu_workloads::models;
    use std::sync::Arc;

    fn optimizer(cfg: &NpuConfig) -> EnergyOptimizer {
        let calib = HardwareCalibration::ground_truth(cfg);
        EnergyOptimizer::new(Device::new(cfg.clone()), calib)
    }

    #[test]
    fn cached_sessions_share_the_cache_artifacts() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let opts = OptimizerConfig::default().with_fai_us(100.0);
        let cache = ArtifactCache::new();
        let mut cold_opt = optimizer(&cfg);
        let mut warm_opt = optimizer(&cfg);
        let mut cold = cold_opt.session(&w, &opts).with_cache(cache.clone());
        let mut warm = warm_opt.session(&w, &opts).with_cache(cache.clone());
        for session in [&mut cold, &mut warm] {
            session.profile().unwrap();
            session.build_models().unwrap();
            let profile = cache
                .lookup::<ProfileArtifact>(session.profile_cache_key.unwrap())
                .unwrap();
            let models = cache
                .lookup::<ModelArtifact>(session.model_cache_key.unwrap())
                .unwrap();
            assert!(Arc::ptr_eq(session.profile.as_ref().unwrap(), &profile));
            assert!(Arc::ptr_eq(session.models.as_ref().unwrap(), &models));
        }
    }

    #[test]
    fn refresh_profile_copies_instead_of_writing_the_cached_profile() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let opts = OptimizerConfig::default().with_fai_us(100.0);
        let cache = ArtifactCache::new();
        let mut opt = optimizer(&cfg);
        let mut session = opt.session(&w, &opts).with_cache(cache.clone());
        session.search().unwrap();
        let key = session.profile_cache_key.unwrap();
        let before = cache.lookup::<ProfileArtifact>(key).unwrap().to_text();

        session
            .refresh_profile(&[FreqMhz::new(1000), FreqMhz::new(1800)])
            .unwrap();
        let cached = cache.lookup::<ProfileArtifact>(key).unwrap();
        assert_eq!(cached.to_text(), before, "the cached profile changed");
        assert!(!Arc::ptr_eq(session.profile.as_ref().unwrap(), &cached));
        assert_ne!(session.profile.as_ref().unwrap().to_text(), before);
        // Everything downstream recomputes from the session's own copy.
        assert!(session.models.is_none() && session.ga_outcome().is_none());
        session.search().unwrap();
    }

    #[test]
    fn refresh_profile_profiles_a_duplicated_frequency_once() {
        use npu_obs::{MetricsRegistry, ObserverHandle};

        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let opts = OptimizerConfig::default().with_fai_us(100.0);
        let metrics = Arc::new(MetricsRegistry::new());
        let mut opt = optimizer(&cfg).with_observer(ObserverHandle::from_arc(metrics.clone()));
        let mut session = opt.session(&w, &opts);
        session.profile().unwrap();
        let fresh = FreqMhz::new(1300);
        assert!(session.profiles().unwrap().iter().all(|p| p.freq != fresh));
        let runs = metrics.counter("event.ProfileRun");

        session.refresh_profile(&[fresh, fresh]).unwrap();
        assert_eq!(metrics.counter("event.ProfileRun"), runs + 1);
        let profiles = session.profiles().unwrap();
        assert_eq!(profiles.iter().filter(|p| p.freq == fresh).count(), 1);
        assert_eq!(profiles.last().map(|p| p.freq), Some(fresh));
    }
}
