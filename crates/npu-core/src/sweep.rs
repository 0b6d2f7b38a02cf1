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
//! join, in frequency-then-pass order, so observers see exactly the
//! sequence the serial path would have reported.

use npu_obs::{Event, ObserverHandle};
use npu_perf_model::FreqProfile;
use npu_sim::par::par_map_ordered;
use npu_sim::{Device, DeviceError, FreqMhz, RunOptions, Schedule};

/// Profiles `schedule` at each of `freqs`, `passes` recorded runs per
/// frequency, fanning the frequency points out over `threads` workers
/// (`0` = auto-detect via [`npu_sim::par::resolve_threads`], which honours
/// the `NPU_THREADS` override). Returns one inner vector per frequency,
/// in the order of `freqs`, one [`FreqProfile`] per pass.
///
/// The parent device is never mutated; each frequency point runs on a
/// cold [`Device::fork`] seeded by its index in `freqs`. One
/// [`Event::ProfileRun`] per recorded pass is emitted on `obs` after all
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
    passes: usize,
    threads: usize,
    obs: &ObserverHandle,
) -> Result<Vec<Vec<FreqProfile>>, DeviceError> {
    let passes = passes.max(1);
    let tau = dev.config().thermal_tau_us;
    // Each frequency's fork seed depends only on its index, so the
    // assembled sweep cannot observe which worker ran what.
    let out = par_map_ordered(threads, freqs.len(), |i| {
        profile_point(dev, i as u64, schedule, freqs[i], passes, tau)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    if obs.enabled() {
        for per_freq in &out {
            for profile in per_freq {
                obs.emit(Event::ProfileRun {
                    freq_mhz: profile.freq.mhz(),
                    ops: profile.records.len(),
                    duration_us: profile.records.iter().map(|r| r.dur_us).sum(),
                });
            }
        }
    }
    Ok(out)
}

/// Runs one frequency point on a cold fork: warm to the thermal steady
/// state at `freq`, then record `passes` runs.
fn profile_point(
    dev: &Device,
    stream: u64,
    schedule: &Schedule,
    freq: FreqMhz,
    passes: usize,
    tau: f64,
) -> Result<Vec<FreqProfile>, DeviceError> {
    let mut d = dev.fork(stream);
    let _ = d.warm_until_steady(schedule, freq, 0.2, 12.0 * tau)?;
    let mut per_freq = Vec::with_capacity(passes);
    for _ in 0..passes {
        let run = d.run(schedule, &RunOptions::at(freq))?;
        per_freq.push(FreqProfile {
            freq,
            records: run.records,
        });
    }
    Ok(per_freq)
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
            |threads: usize| sweep_profiles(&dev, w.schedule(), &freqs, 2, threads, &obs).unwrap();
        let one = run(1);
        assert_eq!(one.len(), 3);
        assert!(one.iter().all(|p| p.len() == 2));
        for (i, per_freq) in one.iter().enumerate() {
            assert_eq!(per_freq[0].freq, freqs[i]);
            assert_eq!(per_freq[0].records.len(), w.op_count());
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
        sweep_profiles(&dev, w.schedule(), &freqs, 3, 4, &obs).unwrap();
        assert_eq!(metrics.counter("event.ProfileRun"), 6);
        // Worker forks are silent: no DeviceRun chatter reaches the
        // coordinator's observer.
        assert_eq!(metrics.counter("event.DeviceRun"), 0);
    }
}
