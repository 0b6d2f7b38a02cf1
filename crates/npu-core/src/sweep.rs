//! Parallel frequency sweeps: fan the per-frequency profiling runs out
//! over worker threads.
//!
//! Every frequency point of a profiling sweep is an independent device
//! simulation — the paper's procedure warms the chip to *that
//! frequency's* thermal steady state before recording, so no state is
//! meant to carry over between points. [`sweep_profiles`] makes that
//! independence literal: each frequency runs on a cold, silent
//! [`Device::fork`] of the session device whose noise stream is derived
//! from `(device seed, frequency index)`. Which worker simulates which
//! frequency is scheduling-dependent, but the *results* are a pure
//! function of the fork seed, so profiles are **bit-identical at every
//! thread count** — and independent of anything the parent device ran
//! before, which is what makes them content-addressable (see
//! [`crate::cache`]).
//!
//! The coordinator emits the [`Event::ProfileRun`] stream *after* the
//! join, in frequency order, so observers see exactly the sequence the
//! serial path would have reported.

use npu_obs::{Event, ObserverHandle};
use npu_perf_model::FreqProfile;
use npu_sim::par::par_map_ordered;
use npu_sim::{Device, DeviceError, FreqMhz, RunOptions, RunResult, Schedule};

/// Profiles `schedule` at each of `freqs`, one recorded run per
/// frequency, fanning the frequency points out over `threads` workers
/// (`0` = auto-detect via [`npu_sim::par::resolve_threads`], which honours
/// the `NPU_THREADS` override). Returns one [`FreqProfile`] per
/// frequency, in the order of `freqs`.
///
/// The parent device is never mutated; each frequency point runs on a
/// cold [`Device::fork`] seeded by its index in `freqs`. One
/// [`Event::ProfileRun`] per frequency is emitted on `obs` after all
/// workers join, in frequency order.
///
/// # Errors
///
/// Returns [`DeviceError`] if any profiling run fails (the
/// lowest-indexed failure wins, deterministically).
pub fn sweep_profiles(
    dev: &Device,
    schedule: &Schedule,
    freqs: &[FreqMhz],
    threads: usize,
    obs: &ObserverHandle,
) -> Result<Vec<FreqProfile>, DeviceError> {
    // Each frequency's fork seed depends only on its index, so the
    // assembled sweep cannot observe which worker ran what.
    let runs = par_map_ordered(threads, freqs.len(), |i| {
        profile_point(&mut dev.fork(i as u64), schedule, freqs[i])
    })
    .into_iter()
    .collect::<Result<Vec<_>, DeviceError>>()?;
    Ok(runs
        .into_iter()
        .zip(freqs)
        .map(|(run, &freq)| {
            obs.emit(Event::ProfileRun {
                freq_mhz: freq.mhz(),
                ops: run.records.len(),
                duration_us: run.duration_us,
            });
            FreqProfile {
                freq,
                records: run.records,
            }
        })
        .collect())
}

/// Profiles one frequency point on `dev`: warm the chip to the thermal
/// steady state at `freq` (the paper collects data "once stable
/// training is achieved"), then record one run.
pub(crate) fn profile_point(
    dev: &mut Device,
    schedule: &Schedule,
    freq: FreqMhz,
) -> Result<RunResult, DeviceError> {
    let _ = dev.warm_until_steady(schedule, freq)?;
    dev.run(schedule, &RunOptions::at(freq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_sim::NpuConfig;
    use npu_workloads::models;

    #[test]
    fn sweep_is_thread_count_invariant_and_leaves_parent_cold() {
        let cfg = NpuConfig::ascend_like(); // default noise levels on
        let dev = Device::new(cfg.clone());
        let w = models::tiny(&cfg);
        let freqs = [FreqMhz::new(1800), FreqMhz::new(1400), FreqMhz::new(1000)];
        let obs = ObserverHandle::null();
        let run =
            |threads: usize| sweep_profiles(&dev, w.schedule(), &freqs, threads, &obs).unwrap();
        let one = run(1);
        assert_eq!(one.len(), 3);
        for (i, profile) in one.iter().enumerate() {
            assert_eq!(profile.freq, freqs[i]);
            assert_eq!(profile.records.len(), w.op_count());
        }
        for threads in [2, 8] {
            assert_eq!(one, run(threads), "threads={threads} diverged");
        }
        // The parent device never ran anything.
        assert_eq!(dev.clock_us(), 0.0);
    }

    #[test]
    fn sweep_emits_one_profile_run_per_pass_in_frequency_order() {
        use npu_obs::MetricsRegistry;
        use std::sync::Arc;

        let cfg = NpuConfig::ascend_like();
        let dev = Device::new(cfg.clone());
        let w = models::tiny(&cfg);
        let metrics = Arc::new(MetricsRegistry::new());
        let obs = ObserverHandle::from_arc(metrics.clone());
        let freqs = [FreqMhz::new(1800), FreqMhz::new(1000)];
        sweep_profiles(&dev, w.schedule(), &freqs, 4, &obs).unwrap();
        assert_eq!(metrics.counter("event.ProfileRun"), 2);
        // Worker forks are silent: no DeviceRun chatter reaches the
        // coordinator's observer.
        assert_eq!(metrics.counter("event.DeviceRun"), 0);
    }

    #[test]
    fn profile_run_reports_the_run_duration() {
        use npu_obs::Observer;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Durations(Mutex<Vec<f64>>);
        impl Observer for Durations {
            fn on_event(&self, event: &Event) {
                if let Event::ProfileRun { duration_us, .. } = event {
                    self.0.lock().unwrap().push(*duration_us);
                }
            }
        }

        let cfg = NpuConfig::ascend_like();
        let dev = Device::new(cfg.clone());
        let w = models::tiny(&cfg);
        let log = Arc::new(Durations::default());
        let freqs = [FreqMhz::new(1800), FreqMhz::new(1000)];
        let obs = ObserverHandle::from_arc(log.clone());
        sweep_profiles(&dev, w.schedule(), &freqs, 2, &obs).unwrap();
        let runs: Vec<f64> = (0..freqs.len())
            .map(|i| {
                let mut fork = dev.fork(i as u64);
                profile_point(&mut fork, w.schedule(), freqs[i])
                    .unwrap()
                    .duration_us
            })
            .collect();
        assert_eq!(*log.0.lock().unwrap(), runs);
    }
}
