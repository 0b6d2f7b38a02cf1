//! Serving optimization requests through the service front end.
//!
//! Generates a seeded open-loop request stream (Zipf workload
//! popularity, 70% duplicates), drives it through the
//! `npu-core::service` façade — bounded admission, deadline shedding,
//! request coalescing over the single-flight artifact cache, a
//! deterministic worker pool — and prints the throughput picture:
//! virtual-time latency percentiles, coalesce/shed rates, and how few
//! real sessions actually ran. Re-runs the stream at another worker
//! count and asserts the full response digest is bit-identical.
//!
//! ```sh
//! SERVICE_SEED=7 cargo run --release --example service_front_end
//! ```

use dvfs_repro::core::service::{generate_load, LoadSpec, OptService};
use dvfs_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::var("SERVICE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9);
    let cfg = NpuConfig::ascend_like();
    let catalog = [
        models::tiny(&cfg),
        models::tanh_loop(&cfg, 12),
        models::softmax_loop(&cfg, 8),
    ];

    let opts = OptimizerConfig::default().with_fai_us(100.0);

    let load = generate_load(
        &catalog,
        &LoadSpec {
            requests: 2_000,
            seed,
            mean_interarrival_us: 150.0,
            duplicate_fraction: 0.7,
            unique_pool: 12,
            budget_us: 150_000.0,
            ..LoadSpec::default()
        },
    );

    let build = |workers: usize| {
        OptService::builder(cfg.clone())
            .with_config(opts.clone())
            .with_workers(workers)
            .with_queue_capacity(128)
            .with_virtual_servers(8)
            .try_build()
    };
    let service = build(0)?;
    let outcome = service.run(&load)?;
    let m = outcome.metrics;

    println!("requests      {:>8}", m.submitted);
    println!("admitted      {:>8}", m.admitted);
    println!(
        "completed     {:>8}  ({} coalesced, {} warm)",
        m.completed, m.coalesced, m.warm
    );
    println!(
        "rejected      {:>8}  ({} queue-full, {} shed)",
        m.queue_full + m.shed,
        m.queue_full,
        m.shed
    );
    println!("real sessions {:>8}", m.sessions);
    println!("p50 latency   {:>10.1} us (virtual)", m.p50_latency_us);
    println!("p99 latency   {:>10.1} us (virtual)", m.p99_latency_us);
    println!(
        "throughput    {:>10.1} served/sec ({:.2}s wall)",
        m.completed as f64 / m.wall_s.max(1e-9),
        m.wall_s
    );
    let flights = service.cache().flight_stats();
    println!(
        "cache flights    profile {}+{}  search {}+{}  (led+coalesced)",
        flights.profile.led,
        flights.profile.coalesced,
        flights.search.led,
        flights.search.coalesced
    );

    // The whole point of the front end: thousands of requests, a
    // handful of real optimization sessions.
    assert!(m.completed > 1_500, "healthy load should mostly complete");
    assert!(m.coalesced + m.warm > 0, "duplicates must share work");
    assert!(
        m.sessions < m.completed / 10,
        "sharing should collapse sessions 10x under a 70%-duplicate load"
    );

    // Worker count is an execution detail: responses are bit-identical.
    let again = build(2)?.run(&load)?;
    assert_eq!(
        outcome.digest(),
        again.digest(),
        "digest must not depend on worker count"
    );
    println!(
        "digest        {:016x} (bit-identical at 2 workers)",
        outcome.digest()
    );
    Ok(())
}
