//! End-to-end and per-layer benchmark of the DVFS pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `gpt3_optimize`, `service_stream`, `fleet_drift` (see
//! `workloads.rs` and `catalogue.json`). `--seed` is the workload's
//! input seed: the GPT-3 device noise seed, the request-stream
//! `LoadSpec` seed, or the fleet seed.
//!
//! `--trace 0` sets the workload up three times (reporting the median
//! set-up time), then repeats untraced calls for `--seconds` and prints
//! the end-to-end metrics. `--trace 1` sets up once under spans, then
//! alternates untraced and traced calls for `--seconds` and prints the
//! per-layer metrics, writing the median traced call as Chrome-trace
//! JSON under `perfbench/out/`.
//!
//! Every output is checked after the clock stops. The last stdout line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`;
//! the line before it records the context (nproc, workers, commit).
//! A failed check prints `"correct": false` and exits with code 1.

mod alloc;
mod report;
mod stats;
mod trace;
mod workloads;

use npu_obs::ObserverHandle;
use report::{Metric, Outcome};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Bench, CallRecord};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Worker threads of the pooled workloads (capped by the core count).
const MAX_WORKERS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.clamp(1, MAX_WORKERS);
    let run = if args.trace {
        run_traced(&args, workers)
    } else {
        run_timed(&args, workers, t0)
    };
    match run {
        Ok(mut out) => {
            out.context.extend([
                ("workload", format!("\"{}\"", args.workload)),
                ("seed", args.seed.to_string()),
                ("nproc", nproc.to_string()),
                ("workers", workers.to_string()),
                ("commit", format!("\"{}\"", report::commit())),
            ]);
            out.print();
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Repeats untraced calls until `seconds` have passed (at least one).
fn call_until(bench: &dyn Bench, seconds: f64) -> Vec<CallRecord> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut calls = Vec::new();
    while calls.is_empty() || Instant::now() < deadline {
        calls.push(bench.call(ObserverHandle::null(), None));
    }
    calls
}

/// Checks that every call reproduced the first one bit-exactly and, for
/// pooled workloads, that a single worker produces the same digest.
/// Returns the failures; marks every call failed on a mismatch.
fn check_digests(bench: &dyn Bench, calls: &mut [CallRecord], errors: &mut Vec<String>) {
    let Some(first) = calls.first().map(|c| c.digest) else {
        return;
    };
    let mut mismatch = calls.iter().any(|c| c.digest != first);
    if mismatch {
        errors.push("calls disagree on their output digest".to_owned());
    }
    match bench.reference_digest() {
        Some(Ok(d)) if d != first => {
            errors.push(format!(
                "digest {first:016x} differs from the 1-worker reference {d:016x}"
            ));
            mismatch = true;
        }
        Some(Err(e)) => {
            errors.push(e);
            mismatch = true;
        }
        _ => {}
    }
    if mismatch {
        for c in calls.iter_mut() {
            c.ok = 0;
        }
    }
}

fn run_timed(args: &Args, workers: usize, t0: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut errors = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { t0 } else { Instant::now() };
        // Drop the previous set-up first so set-ups do not stack in memory.
        drop(bench.take());
        let b = workloads::setup(&args.workload, args.seed, workers, None)?;
        let warm = b.call(ObserverHandle::null(), None);
        setup_s.push(start.elapsed().as_secs_f64());
        errors.extend(warm.errors);
        bench = Some(b);
    }
    let bench = bench.ok_or("no set-up ran")?;
    let mut calls = call_until(bench.as_ref(), args.seconds);
    check_digests(bench.as_ref(), &mut calls, &mut errors);
    errors.extend(calls.iter().flat_map(|c| c.errors.iter().cloned()));

    let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    let attempted: u64 = calls.iter().map(|c| c.attempted).sum();
    let ok: u64 = calls.iter().map(|c| c.ok).sum();
    let first = &calls[0];
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new("call_ms_p50", stats::median(&walls) * 1e3, "ms"),
        Metric::new("ops_per_s", ok as f64 / walls.iter().sum::<f64>(), "1/s"),
        Metric::new("ok_frac", ok as f64 / attempted.max(1) as f64, "1"),
        Metric::new(
            "peak_heap_mb",
            alloc::HEAP.peak() as f64 / (1u64 << 20) as f64,
            "MB",
        ),
        Metric::new("sim_aicore_mj_per_iter", first.sim_aicore_mj, "mJ"),
        Metric::new("sim_iter_ms", first.sim_iter_ms, "ms"),
    ];
    Ok(Outcome {
        attempted,
        failed: attempted - ok,
        metrics,
        errors,
        context: vec![
            ("calls", calls.len().to_string()),
            ("call_ms", report::json_list(walls.iter().map(|w| w * 1e3))),
            ("peak_rss_mb", report::peak_rss_mb().to_string()),
            ("setup_s", report::json_list(setup_s.iter().copied())),
        ],
    })
}

fn run_traced(args: &Args, workers: usize) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new());
    let bench = workloads::setup(&args.workload, args.seed, workers, Some(&tracer))?;
    let mut errors = bench.call(ObserverHandle::null(), None).errors;
    let obs = ObserverHandle::from_arc(tracer.clone());

    // Alternate untraced and traced calls so host drift hits both alike.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || traced.is_empty() || Instant::now() < deadline {
        if plain.len() <= traced.len() {
            plain.push(bench.call(ObserverHandle::null(), None));
        } else {
            traced.push(bench.call(obs.clone(), Some(&tracer)));
        }
    }
    let mut all: Vec<CallRecord> = plain.iter().chain(&traced).cloned().collect();
    check_digests(bench.as_ref(), &mut all, &mut errors);
    errors.extend(all.iter().flat_map(|c| c.errors.iter().cloned()));
    let attempted: u64 = all.iter().map(|c| c.attempted).sum();
    let ok: u64 = all.iter().map(|c| c.ok).sum();

    let sim_ops_per_s = report::sim_ops_per_s(bench.as_ref(), args.seed)?;
    let layers = report::Layers {
        spans: tracer.spans(),
        roots: tracer.roots(),
        plain: &plain,
        traced: &traced,
        workers,
        population: bench.ga_population(),
    };
    let metrics = layers.metrics(sim_ops_per_s);
    let trace_file = layers.write_median_trace(&args.workload, args.seed)?;
    Ok(Outcome {
        attempted,
        failed: attempted - ok,
        metrics,
        errors,
        context: vec![
            ("calls", format!("{}", plain.len() + traced.len())),
            (
                "plain_call_ms",
                report::json_list(plain.iter().map(|c| c.wall_s * 1e3)),
            ),
            (
                "traced_call_ms",
                report::json_list(traced.iter().map(|c| c.wall_s * 1e3)),
            ),
            ("trace_file", format!("\"{trace_file}\"")),
        ],
    })
}
