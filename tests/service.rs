//! Integration: the optimization service front end.
//!
//! Pins the determinism contract (the full response digest is
//! bit-identical at 1/2/8 workers), the admission semantics (bounded
//! queue → `QueueFull`, budget overrun → `Shedding`), the coalescing
//! accounting, and the typed request events the front end emits.

use dvfs_repro::core::service::{generate_load, LoadSpec, OptService};
use dvfs_repro::core::{Disposition, Provenance, RejectReason};
use dvfs_repro::prelude::*;
use std::sync::{Arc, Mutex};

fn quick_opts() -> OptimizerConfig {
    OptimizerConfig::default().with_fai_us(100.0)
}

fn catalog(cfg: &NpuConfig) -> Vec<Workload> {
    vec![models::tiny(cfg), models::tanh_loop(cfg, 12)]
}

/// Collects event names plus the request-event payloads.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Observer for Recorder {
    fn on_event(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

#[test]
fn response_digest_is_bit_identical_across_worker_counts() {
    let cfg = NpuConfig::ascend_like();
    let load = generate_load(
        &catalog(&cfg),
        &LoadSpec {
            requests: 600,
            mean_interarrival_us: 60.0,
            duplicate_fraction: 0.7,
            unique_pool: 6,
            ..LoadSpec::default()
        },
    );
    let outcomes: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            OptService::builder(cfg.clone())
                .with_config(quick_opts())
                .with_workers(workers)
                .try_build()
                .unwrap()
                .run(&load)
                .unwrap()
        })
        .collect();
    let digest = outcomes[0].digest();
    for (o, workers) in outcomes.iter().zip([1, 2, 8]) {
        assert_eq!(o.digest(), digest, "digest diverged at {workers} workers");
        assert_eq!(o.dispositions, outcomes[0].dispositions);
        assert_eq!(o.metrics.completed, outcomes[0].metrics.completed);
        assert_eq!(o.metrics.sessions, outcomes[0].metrics.sessions);
    }
    // The duplicate-heavy stream must actually exercise sharing.
    assert!(outcomes[0].metrics.coalesced + outcomes[0].metrics.warm > 0);
    assert!(outcomes[0].metrics.sessions < outcomes[0].metrics.completed);
}

#[test]
fn overload_rejects_with_typed_reasons() {
    let cfg = NpuConfig::ascend_like();
    // A single slow virtual server, a 4-deep queue and tight budgets:
    // both rejection kinds must fire.
    let load = generate_load(
        &catalog(&cfg),
        &LoadSpec {
            requests: 300,
            mean_interarrival_us: 30.0,
            duplicate_fraction: 0.2,
            unique_pool: 12,
            budget_us: 50_000.0,
            ..LoadSpec::default()
        },
    );
    let outcome = OptService::builder(cfg)
        .with_config(quick_opts())
        .with_queue_capacity(4)
        .with_virtual_servers(1)
        .try_build()
        .unwrap()
        .run(&load)
        .unwrap();
    let mut saw_queue_full = false;
    let mut saw_shed = false;
    for d in &outcome.dispositions {
        match d {
            Disposition::Rejected {
                reason: RejectReason::QueueFull { depth },
                waited_us,
                ..
            } => {
                assert_eq!(*depth, 4);
                assert_eq!(*waited_us, 0.0);
                saw_queue_full = true;
            }
            Disposition::Rejected {
                reason: RejectReason::Shedding { budget_us },
                waited_us,
                ..
            } => {
                assert!(waited_us > budget_us);
                saw_shed = true;
            }
            Disposition::Completed(r) => {
                assert!(r.latency_us.is_finite() && r.latency_us >= 0.0);
                assert!(r.predicted_edp > 0.0);
            }
        }
    }
    assert!(saw_queue_full, "queue never filled");
    assert!(saw_shed, "no request was shed");
    assert_eq!(
        outcome.metrics.queue_full + outcome.metrics.shed + outcome.metrics.completed,
        outcome.metrics.submitted
    );
}

#[test]
fn request_events_mirror_the_dispositions() {
    let cfg = NpuConfig::ascend_like();
    let load = generate_load(
        &catalog(&cfg),
        &LoadSpec {
            requests: 200,
            mean_interarrival_us: 50.0,
            duplicate_fraction: 0.8,
            unique_pool: 4,
            budget_us: 60_000.0,
            ..LoadSpec::default()
        },
    );
    let recorder = Arc::new(Recorder::default());
    let outcome = OptService::builder(cfg)
        .with_config(quick_opts())
        .with_queue_capacity(8)
        .with_virtual_servers(2)
        .with_observer(ObserverHandle::from_arc(recorder.clone()))
        .try_build()
        .unwrap()
        .run(&load)
        .unwrap();

    let events = recorder.events.lock().unwrap();
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count() as u64;
    assert_eq!(count("RequestAdmitted"), outcome.metrics.admitted);
    assert_eq!(
        count("RequestRejected"),
        outcome.metrics.queue_full + outcome.metrics.shed
    );
    assert_eq!(count("RequestCoalesced"), outcome.metrics.coalesced);
    assert_eq!(count("RequestCompleted"), outcome.metrics.completed);

    // Per-request cross-check: completion events carry the same
    // provenance the disposition reports.
    for event in events.iter() {
        if let Event::RequestCompleted {
            request,
            provenance,
            latency_us,
        } = event
        {
            match &outcome.dispositions[*request as usize] {
                Disposition::Completed(r) => {
                    assert_eq!(provenance, r.provenance.as_str());
                    assert_eq!(latency_us.to_bits(), r.latency_us.to_bits());
                }
                other => panic!("completion event for rejected request: {other:?}"),
            }
        }
    }
    // Coalescing implies at least one response says so.
    if outcome.metrics.coalesced > 0 {
        assert!(outcome.dispositions.iter().any(|d| matches!(
            d,
            Disposition::Completed(r) if r.provenance == Provenance::Coalesced
        )));
    }
}

#[test]
fn coalescing_disabled_runs_every_admitted_request_cold() {
    let cfg = NpuConfig::ascend_like();
    let load = generate_load(
        &catalog(&cfg),
        &LoadSpec {
            requests: 40,
            mean_interarrival_us: 2_000_000.0, // no overlap: nothing rejected
            duplicate_fraction: 0.9,
            unique_pool: 2,
            ..LoadSpec::default()
        },
    );
    let baseline = OptService::builder(cfg.clone())
        .with_config(quick_opts())
        .with_coalescing(false)
        .with_isolated_sessions(true)
        .try_build()
        .unwrap()
        .run(&load)
        .unwrap();
    assert_eq!(baseline.metrics.completed, 40);
    assert_eq!(baseline.metrics.coalesced, 0);
    assert_eq!(baseline.metrics.warm, 0);
    assert_eq!(baseline.metrics.sessions, 40, "isolated mode never shares");

    let service = OptService::builder(cfg)
        .with_config(quick_opts())
        .try_build()
        .unwrap()
        .run(&load)
        .unwrap();
    assert_eq!(service.metrics.completed, 40);
    assert!(
        service.metrics.sessions < baseline.metrics.sessions / 4,
        "sharing should collapse {} sessions, got {}",
        baseline.metrics.sessions,
        service.metrics.sessions
    );
    // Identical strategies for identical identities regardless of mode.
    for (a, b) in baseline.dispositions.iter().zip(&service.dispositions) {
        if let (Disposition::Completed(x), Disposition::Completed(y)) = (a, b) {
            assert_eq!(x.strategy, y.strategy);
            assert_eq!(x.predicted, y.predicted);
        }
    }
}

/// Mixes every [`ServiceMetrics`] field but the host wall time into one
/// fingerprint.
fn metrics_digest(m: &dvfs_repro::core::service::ServiceMetrics) -> u64 {
    let mut fp = dvfs_repro::core::cache::Fingerprint::new("metrics");
    for v in [
        m.submitted,
        m.admitted,
        m.completed,
        m.coalesced,
        m.warm,
        m.shed,
        m.queue_full,
        m.sessions,
    ] {
        fp.push_u64(v);
    }
    for v in [m.p50_latency_us, m.p99_latency_us, m.makespan_us] {
        fp.push_f64(v);
    }
    fp.finish()
}

/// A seeded load that completes, coalesces, serves warm, sheds and
/// fills the queue, served shared and isolated at 1 and 2 workers: the
/// response digest and the metrics are pinned to values recorded before
/// the dispositions were assembled in the admission pass.
#[test]
fn seeded_load_outcome_and_metrics_are_pinned() {
    let cfg = NpuConfig::ascend_like();
    let load = generate_load(
        &catalog(&cfg),
        &LoadSpec {
            requests: 400,
            seed: 17,
            mean_interarrival_us: 2_000.0,
            duplicate_fraction: 0.6,
            unique_pool: 8,
            budget_us: 40_000.0,
            ..LoadSpec::default()
        },
    );
    let mut got = Vec::new();
    for isolated in [false, true] {
        for workers in [1, 2] {
            let outcome = OptService::builder(cfg.clone())
                .with_config(quick_opts())
                .with_queue_capacity(8)
                .with_virtual_servers(2)
                .with_coalescing(!isolated)
                .with_isolated_sessions(isolated)
                .with_workers(workers)
                .try_build()
                .unwrap()
                .run(&load)
                .unwrap();
            let m = &outcome.metrics;
            assert!(m.queue_full > 0 && m.shed > 0 && m.completed > 0);
            if !isolated {
                assert!(m.coalesced > 0 && m.warm > 0);
            }
            got.push((outcome.digest(), metrics_digest(m)));
        }
    }
    let shared = (0x2f0b_50d0_db33_a27d, 0x859c_278c_ed39_ac1f);
    let isolated = (0x9e3c_622b_04fe_0383, 0xc93b_e174_a00e_304e);
    let want = [shared, shared, isolated, isolated];
    assert_eq!(got, want, "got {got:#018x?}");
}
