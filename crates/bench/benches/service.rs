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
//! `BENCH_service.smoke.json`; scripts/check.sh gates on both).

use npu_core::service::{generate_load, LoadSpec, OptService, ServiceOutcome};
use npu_core::OptimizerConfig;
use npu_sim::NpuConfig;
use npu_workloads::{models, Workload};

struct Level {
    name: &'static str,
    spec: LoadSpec,
}

fn opts() -> OptimizerConfig {
    let mut o = OptimizerConfig::default().with_fai_us(100.0);
    o.ga = o.ga.with_population(40).with_iterations(60);
    o
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
    let smoke = std::env::var("CRITERION_SMOKE").is_ok_and(|v| v == "1");
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

    let mut fields = String::new();
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
        fields.push_str(&format!(
            concat!(
                "  \"submitted_{n}\": {},\n",
                "  \"completed_{n}\": {},\n",
                "  \"coalesce_rate_{n}\": {:.4},\n",
                "  \"shed_rate_{n}\": {:.4},\n",
                "  \"p50_us_{n}\": {:.1},\n",
                "  \"p99_us_{n}\": {:.1},\n",
                "  \"sessions_{n}\": {},\n",
                "  \"sessions_per_sec_{n}\": {:.1},\n",
            ),
            m.submitted,
            m.completed,
            coalesce_rate,
            shed_rate,
            m.p50_latency_us,
            m.p99_latency_us,
            m.sessions,
            served_per_sec,
            n = level.name,
        ));
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

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service\",\n",
            "  \"smoke\": {},\n",
            "  \"seed\": {},\n",
            "  \"workers\": {},\n",
            "{}",
            "  \"baseline_requests\": {},\n",
            "  \"baseline_sessions_per_sec\": {:.1},\n",
            "  \"coalesce_speedup\": {:.2},\n",
            "  \"digest\": \"{:016x}\",\n",
            "  \"bit_identical\": {}\n",
            "}}\n"
        ),
        smoke,
        seed,
        npu_sim::par::resolve_threads(0),
        fields,
        baseline_requests,
        baseline_served_per_sec,
        coalesce_speedup,
        reference.digest(),
        bit_identical,
    );
    let file = if smoke {
        "BENCH_service.smoke.json"
    } else {
        "BENCH_service.json"
    };
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    }
    print!("{json}");
}
