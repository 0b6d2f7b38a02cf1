//! Online serving under slow hardware drift: detect, re-optimize, swap.
//!
//! ```sh
//! cargo run --release --example serve_drift
//! ```
//!
//! Serves a stream of workload iterations under a GA-searched DVFS
//! strategy while the hardware drifts away from the conditions the
//! models were fitted under: the machine room cools down overnight and
//! the leakage coefficients relax with it. The windowed drift detector
//! watches the residual between each measured iteration and the model's
//! prediction; once it trips, the staged ladder re-profiles a minimal
//! frequency subset on a drift-frozen shadow device, robustly re-fits,
//! re-searches through the artifact cache, and swaps the refreshed
//! strategy into the live loop.
//!
//! The same scenario is replayed with re-optimization disabled
//! (detect-only) to price the drift. The stale strategy keeps racing to
//! dodge leakage that is no longer there, burning dynamic energy at
//! high voltage; the refreshed strategy relaxes to a lower frequency
//! and beats it on *both* raw AICore energy and the energy-delay
//! product the search objective (Eq. 17's `rel²/power` score)
//! minimizes. The run prints both scoreboards over the post-swap
//! window and exits non-zero unless exactly one swap fired and the
//! refreshed strategy won on each. Finally the whole serve loop is
//! re-run at 1, 2 and 8 worker threads and must produce bit-identical
//! outcomes (the digest below hashes every measured f64 of every
//! iteration).

use dvfs_repro::power_model::HardwareCalibration;
use dvfs_repro::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SEED: u64 = 42;
const ITERATIONS: usize = 48;
/// Fast thermal time constant so the chip tracks the drifting ambient
/// within the serve horizon (the default 2 s would need minutes of
/// virtual serving to show the energy cost of drift).
const THERMAL_TAU_US: f64 = 2_000.0;
/// Generous performance budget: the serve SLO tolerates up to 50 %
/// slowdown, so the search trades speed for energy across most of the
/// frequency ladder instead of being pinned to the fastest strategies.
const LOSS_TARGET: f64 = 0.50;

/// A compute-bound request: the optimum frequency balances dynamic
/// energy (falls with f below the voltage knee) against static/leakage
/// energy (grows with runtime, i.e. falls with f) — the balance point
/// moves as leakage coefficients drift, which is what makes
/// re-optimization worth its cost here. A memory-bound model would pin
/// the search to the performance budget and drift could never move it.
fn serve_workload(n: usize) -> Workload {
    Workload::new(
        "ServeCompute",
        Schedule::new(
            (0..n)
                .map(|i| {
                    OpDescriptor::compute(format!("Op{i}"), Scenario::PingPongIndependent)
                        .blocks(4)
                        .ld_bytes_per_block(64.0 * 1024.0)
                        .core_cycles_per_block(30_000.0)
                        .activity(6.0)
                })
                .collect(),
        ),
    )
}

/// Counts strategy swaps and (optionally) narrates serve events.
struct ServeLog {
    verbose: bool,
    swapped: AtomicUsize,
}

impl Observer for ServeLog {
    fn on_event(&self, event: &Event) {
        match *event {
            Event::DriftScore {
                iter,
                score,
                threshold,
            } if self.verbose => {
                println!("  iter {iter:>2}: drift window score {score:.4} (threshold {threshold})");
            }
            Event::DriftDetected {
                iter,
                score,
                windows,
            } if self.verbose => {
                println!("  iter {iter:>2}: DRIFT DETECTED — score {score:.4} over {windows} consecutive windows");
            }
            Event::ReoptimizationStarted { iter, freqs } if self.verbose => {
                println!("  iter {iter:>2}: re-optimizing on a {freqs}-frequency ladder (live loop keeps serving)");
            }
            Event::StrategySwapped {
                iter,
                generation,
                predicted_energy_wus,
            } => {
                self.swapped.fetch_add(1, Ordering::Relaxed);
                if self.verbose {
                    println!(
                        "  iter {iter:>2}: strategy swapped in (generation {generation}, predicted {:.0} W·µs/iter)",
                        predicted_energy_wus
                    );
                }
            }
            _ => {}
        }
    }
}

/// The drifting hardware of the scenario: the machine-room ambient
/// falls toward −15 °C of shift while the γ/θ leakage coefficients
/// relax toward −45 %. The per-second rates are scaled so the ~60 ms
/// of virtual time this demo serves replays what an overnight
/// cool-down would do to a deployment.
fn drift() -> DriftModel {
    DriftModel::ambient_ramp(-300.0, 15.0)
        .with_gamma_aging(-9.0, 0.45)
        .with_theta_aging(-9.0, 0.45)
}

fn serve_once(
    threads: usize,
    max_swaps: usize,
    verbose: bool,
) -> Result<(ServeOutcome, usize), Box<dyn std::error::Error>> {
    let cfg = NpuConfig::builder()
        .thermal_tau_us(THERMAL_TAU_US)
        .noise(0.0, 0.0, 0.0)
        .build()?;
    let workload = serve_workload(12);
    // Ground-truth calibration against the *pristine* configuration —
    // drift is installed afterwards, exactly the mismatch the detector
    // exists to catch.
    let calib = HardwareCalibration::ground_truth(&cfg);
    let mut optimizer = EnergyOptimizer::new(Device::with_seed(cfg, SEED), calib);
    optimizer.device_mut().set_drift(drift());
    let log = Arc::new(ServeLog {
        verbose,
        swapped: AtomicUsize::new(0),
    });
    optimizer.set_observer(ObserverHandle::from_arc(log.clone()));

    let opts = OptimizerConfig::default()
        .with_threads(threads)
        .with_loss_target(LOSS_TARGET);
    let serve = ServeOptions {
        iterations: ITERATIONS,
        detector: DriftDetectorConfig {
            window: 4,
            threshold: 0.08,
            hysteresis: 2,
            cooldown_windows: 2,
            temp_scale_c: 10.0,
        },
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        max_swaps,
        ..ServeOptions::default()
    };
    let outcome = ServeRuntime::builder(&mut optimizer, &workload)
        .with_config(opts)
        .with_serve_options(serve)
        .try_build()?
        .run()?;
    Ok((outcome, log.swapped.load(Ordering::Relaxed)))
}

/// FNV-1a over every measured bit of the outcome — two runs are "the
/// same" only if every f64 matches exactly.
fn digest(out: &ServeOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |v: u64, h: &mut u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for it in &out.iterations {
        mix(it.time_us.to_bits(), &mut h);
        mix(it.aicore_energy_wus.to_bits(), &mut h);
        mix(it.soc_energy_wus.to_bits(), &mut h);
        mix(it.temp_c.to_bits(), &mut h);
    }
    mix(out.swaps as u64, &mut h);
    mix(out.detections as u64, &mut h);
    h
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("serving {ITERATIONS} iterations under drift (adaptive, max 1 swap):");
    let (adaptive, swap_events) = serve_once(0, 1, true)?;
    println!("detect-only replay (stale strategy pinned):");
    let (pinned, _) = serve_once(0, 0, false)?;

    let mut ok = true;
    if adaptive.swaps != 1 || swap_events != 1 {
        eprintln!(
            "FAIL: expected exactly one strategy swap, got {} ({} StrategySwapped events)",
            adaptive.swaps, swap_events
        );
        ok = false;
    }
    let Some(swap_at) = adaptive.first_swapped_index() else {
        eprintln!("FAIL: no iteration ran under the refreshed strategy");
        std::process::exit(1);
    };

    // Physics before the swap is shared, so the two runs must agree
    // bit-for-bit up to the swap boundary.
    if adaptive.iterations[..swap_at] != pinned.iterations[..swap_at] {
        eprintln!("FAIL: pre-swap iterations diverged between adaptive and pinned runs");
        ok = false;
    }

    // Two scoreboards over the post-swap window: raw AICore energy
    // (the meter) and per-iteration energy-delay product E·t (what
    // Eq. 17's score maximization minimizes). Under a cool-down both
    // must favor the refreshed, slower strategy — the stale one keeps
    // paying high-voltage dynamic energy to dodge leakage that is gone.
    let edp = |out: &ServeOutcome| -> f64 {
        out.iterations[swap_at..]
            .iter()
            .map(|it| it.aicore_energy_wus * it.time_us)
            .sum()
    };
    let n = adaptive.iterations.len();
    let (fresh, stale) = (
        adaptive.aicore_energy_wus(swap_at..n),
        pinned.aicore_energy_wus(swap_at..n),
    );
    let (fresh_edp, stale_edp) = (edp(&adaptive), edp(&pinned));
    println!("post-swap window (iterations {swap_at}..{n}):",);
    println!(
        "  refreshed: {fresh:.0} W·µs AICore over {:.0} µs  (EDP {fresh_edp:.4e} W·µs²)",
        adaptive.time_us(swap_at..n),
    );
    println!(
        "  stale:     {stale:.0} W·µs AICore over {:.0} µs  (EDP {stale_edp:.4e} W·µs²)",
        pinned.time_us(swap_at..n),
    );
    if fresh < stale {
        println!(
            "ok: re-optimization recovered {:.2} % of the AICore energy drift was costing",
            100.0 * (stale - fresh) / stale
        );
    } else {
        eprintln!("FAIL: refreshed strategy did not beat the stale one on AICore energy");
        ok = false;
    }
    if fresh_edp < stale_edp {
        println!(
            "ok: …and {:.2} % of the energy-delay product",
            100.0 * (stale_edp - fresh_edp) / stale_edp
        );
    } else {
        eprintln!("FAIL: refreshed strategy did not beat the stale one on energy-delay product");
        ok = false;
    }

    // Determinism: the full adaptive serve loop — profile sweep, GA
    // search, drift detection, ladder, swap — is bit-identical at any
    // worker thread count and across consecutive runs.
    let reference = digest(&adaptive);
    for threads in [1usize, 2, 8] {
        let (again, _) = serve_once(threads, 1, false)?;
        let d = digest(&again);
        println!("digest at {threads} thread(s): {d:016x}");
        if d != reference {
            eprintln!(
                "FAIL: outcome at {threads} thread(s) diverged from reference {reference:016x}"
            );
            ok = false;
        }
    }

    if !ok {
        std::process::exit(1);
    }
    println!("serve digest {reference:016x} — bit-identical at 1/2/8 threads");
    Ok(())
}
