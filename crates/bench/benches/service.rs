//! Service front-end throughput: bounded admission + request
//! coalescing + single-flight cache under a 10k+-request open-loop
//! load.
//!
//! Drives the `npu-core::service` façade at three load levels over a
//! seeded Zipf request stream (`SERVICE_SEED` overrides the generator
//! seed):
//!
//! * **light** — low arrival rate, few duplicates, tight budgets: the
//!   queue stays shallow and shedding dominates rejections;
//! * **steady** — moderate rate, half the stream duplicated;
//! * **dup_heavy** — high rate, 80% duplicates: the coalescing +
//!   warm-cache path carries nearly the whole stream.
//!
//! Per level it reports virtual-time p50/p99 latency, coalesce/shed
//! rates, real sessions executed, and served requests per wall second.
//! The duplicate-heavy level is re-run with coalescing disabled and
//! sessions isolated (the pre-service status quo) over a truncated
//! stream — `coalesce_speedup` is the served-per-second ratio and the
//! headline claim: it must be ≥ 5x. The dup-heavy level also re-runs at
//! 1/2/8 workers asserting the full response digest is bit-identical.
//! Results go to `BENCH_service.json` at the workspace root
//! (`CRITERION_SMOKE=1` → smaller streams and
//! `BENCH_service.smoke.json`; `bench_gate service` checks both).

use npu_bench::report::{self, Report};
use npu_core::service::{generate_load, LoadSpec, OptService, ServiceOutcome};
use npu_core::OptimizerConfig;
use npu_sim::NpuConfig;
use npu_workloads::{models, Workload};

struct Level {
    name: &'static str,
    spec: LoadSpec,
}

fn opts() -> OptimizerConfig {
    OptimizerConfig::default().with_fai_us(100.0)
}

fn catalog(cfg: &NpuConfig) -> Vec<Workload> {
    vec![
        models::tiny(cfg),
        models::tanh_loop(cfg, 12),
        models::tanh_loop(cfg, 4),
    ]
}

fn service(cfg: &NpuConfig, workers: usize) -> OptService {
    OptService::builder(cfg.clone())
        .with_config(opts())
        .with_workers(workers)
        .with_queue_capacity(256)
        .with_virtual_servers(16)
        .try_build()
        .expect("service config")
}

fn rates(outcome: &ServiceOutcome) -> (f64, f64) {
    let m = &outcome.metrics;
    let completed = m.completed.max(1) as f64;
    (
        m.coalesced as f64 / completed,
        (m.shed + m.queue_full) as f64 / m.submitted.max(1) as f64,
    )
}

fn main() {
    let smoke = report::smoke();
    let seed = std::env::var("SERVICE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9u64);
    let cfg = NpuConfig::ascend_like();
    let catalog = catalog(&cfg);
    let scale = |full: usize, small: usize| if smoke { small } else { full };

    let levels = [
        Level {
            name: "light",
            spec: LoadSpec {
                requests: scale(10_500, 300),
                seed,
                mean_interarrival_us: 400.0,
                duplicate_fraction: 0.2,
                zipf_s: 1.1,
                unique_pool: 24,
                budget_us: 60_000.0,
                priority_levels: 3,
            },
        },
        Level {
            name: "steady",
            spec: LoadSpec {
                requests: scale(11_000, 400),
                seed,
                mean_interarrival_us: 200.0,
                duplicate_fraction: 0.5,
                zipf_s: 1.1,
                unique_pool: 24,
                budget_us: 120_000.0,
                priority_levels: 3,
            },
        },
        Level {
            name: "dup_heavy",
            spec: LoadSpec {
                requests: scale(12_000, 600),
                seed,
                mean_interarrival_us: 120.0,
                duplicate_fraction: 0.8,
                zipf_s: 1.1,
                unique_pool: 12,
                budget_us: 300_000.0,
                priority_levels: 3,
            },
        },
    ];

    // Untimed warmup: allocator, page cache and lazy statics land here.
    let _ = service(&cfg, 0)
        .run(&generate_load(
            &catalog,
            &LoadSpec {
                requests: 50,
                seed,
                ..levels[2].spec
            },
        ))
        .expect("warmup");

    let mut report = Report::new("service");
    report
        .field("smoke", smoke)
        .field("seed", seed)
        .field("workers", npu_sim::par::resolve_threads(0));
    let mut dup_heavy = None;
    for level in &levels {
        let load = generate_load(&catalog, &level.spec);
        let outcome = service(&cfg, 0).run(&load).expect("level run");
        let m = outcome.metrics;
        let (coalesce_rate, shed_rate) = rates(&outcome);
        let served_per_sec = m.completed as f64 / m.wall_s.max(1e-9);
        assert!(
            m.p99_latency_us.is_finite(),
            "{}: p99 not finite",
            level.name
        );
        assert!(m.completed > 0, "{}: nothing completed", level.name);
        let n = level.name;
        report
            .field(format!("submitted_{n}"), m.submitted)
            .field(format!("completed_{n}"), m.completed)
            .fixed(format!("coalesce_rate_{n}"), coalesce_rate, 4)
            .fixed(format!("shed_rate_{n}"), shed_rate, 4)
            .fixed(format!("p50_us_{n}"), m.p50_latency_us, 1)
            .fixed(format!("p99_us_{n}"), m.p99_latency_us, 1)
            .field(format!("sessions_{n}"), m.sessions)
            .fixed(format!("sessions_per_sec_{n}"), served_per_sec, 1);
        if level.name == "dup_heavy" {
            if !smoke {
                assert!(
                    m.completed >= 10_000,
                    "dup_heavy must complete >= 10000, got {}",
                    m.completed
                );
            }
            assert!(coalesce_rate > 0.0, "dup_heavy stream must coalesce");
            dup_heavy = Some((load, served_per_sec));
        }
    }
    let (dup_load, dup_served_per_sec) = dup_heavy.expect("dup_heavy level ran");

    // Baseline: the pre-service status quo — no coalescing, no shared
    // cache, every admitted request pays a full session. Truncated
    // stream (it is slow by construction; per-request wall cost is what
    // we are measuring) with relaxed admission so nothing is rejected.
    let baseline_requests = scale(96, 24);
    let mut baseline_load = dup_load[..baseline_requests].to_vec();
    for r in &mut baseline_load {
        r.budget_us = f64::INFINITY;
    }
    let baseline = OptService::builder(cfg.clone())
        .with_config(opts())
        .with_queue_capacity(usize::MAX)
        .with_virtual_servers(16)
        .with_coalescing(false)
        .with_isolated_sessions(true)
        .try_build()
        .expect("baseline config")
        .run(&baseline_load)
        .expect("baseline run");
    assert_eq!(
        baseline.metrics.completed as usize, baseline_requests,
        "baseline must serve its whole stream"
    );
    assert_eq!(baseline.metrics.sessions, baseline.metrics.completed);
    let baseline_served_per_sec =
        baseline.metrics.completed as f64 / baseline.metrics.wall_s.max(1e-9);
    let coalesce_speedup = dup_served_per_sec / baseline_served_per_sec.max(1e-9);
    if !smoke {
        assert!(
            coalesce_speedup >= 5.0,
            "coalescing must yield >= 5x served/sec over the isolated baseline, got {coalesce_speedup:.2}x"
        );
    }

    // Determinism: the full response digest of the duplicate-heavy run
    // is a pure function of the load — worker count never leaks in.
    let reference = service(&cfg, 1).run(&dup_load).expect("digest run");
    let mut bit_identical = true;
    for workers in [2usize, 8] {
        let again = service(&cfg, workers).run(&dup_load).expect("digest run");
        if again.digest() != reference.digest() {
            eprintln!(
                "service digest diverged at {workers} workers: {:016x} != {:016x}",
                again.digest(),
                reference.digest()
            );
            bit_identical = false;
        }
    }
    assert!(
        bit_identical,
        "service must be bit-identical at 1/2/8 workers"
    );

    report
        .field("baseline_requests", baseline_requests)
        .fixed("baseline_sessions_per_sec", baseline_served_per_sec, 1)
        .fixed("coalesce_speedup", coalesce_speedup, 2)
        .field("digest", format!("{:016x}", reference.digest()))
        .field("bit_identical", bit_identical)
        .write(smoke);
}
