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
