//! Integration: fleet chaos — the ISSUE 8 acceptance scenario. A fleet
//! fault plan injects a crash, poisoned publications and delayed-SetFreq
//! guardrail faults into 3 of 16 devices; the run must complete, the
//! faulty devices must be quarantined, at least one must recover through
//! probation, no poisoned strategy may ever be transferred, and every
//! healthy device's digest must be bit-identical to the fault-free run
//! at 1, 2 and 8 workers.

use dvfs_repro::prelude::*;
use std::sync::Arc;

const CHAOS_SEED: u64 = 0xC4A05;
/// Crashes at epoch 1, recovers through probation at epoch 3.
const CRASH_DEV: usize = 4;
/// Publishes poisoned strategies at epochs 0 and 1, quarantined on
/// strikes, recovers (its hardware is fine — the poison was upstream).
const POISON_DEV: usize = 7;
/// Delayed SetFreq applies plus a hung re-optimization ladder: falls
/// back, degrades, quarantined, fails probation (the fault rides along
/// on the shadow device), evicted.
const DELAY_DEV: usize = 11;

/// Alternating compute-bound (HFC) and load-bound (LFC) operators, so
/// the optimized strategy has real stage structure and re-dispatches
/// `SetFreq` every iteration — the surface the chaos plan attacks.
fn serve_workload(n: usize) -> Workload {
    Workload::new(
        "FleetChaos",
        Schedule::new(
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        OpDescriptor::compute(format!("Mm{i}"), Scenario::PingPongIndependent)
                            .blocks(4)
                            .ld_bytes_per_block(64.0 * 1024.0)
                            .core_cycles_per_block(60_000.0)
                            .activity(6.0)
                    } else {
                        OpDescriptor::compute(format!("Ld{i}"), Scenario::PingPongIndependent)
                            .blocks(4)
                            .ld_bytes_per_block(6.4e7)
                            .core_cycles_per_block(100.0)
                            .activity(2.0)
                    }
                })
                .collect(),
        ),
    )
}

fn base_cfg() -> NpuConfig {
    // A fast-switching part: the effective FAI is clamped to the apply
    // latency, and the chaos scenario wants real multi-stage strategies.
    NpuConfig::builder()
        .thermal_tau_us(2_000.0)
        .setfreq_latency_us(50.0)
        .noise(0.0, 0.0, 0.0)
        .build()
        .unwrap()
}

fn chaos_plan() -> FleetFaultPlan {
    FleetFaultPlan::seeded(CHAOS_SEED)
        .crash_at(CRASH_DEV, 1)
        .poison_strategy_at(POISON_DEV, 0)
        .poison_strategy_at(POISON_DEV, 1)
        .with_device_plan(
            DELAY_DEV,
            FaultPlan::seeded(CHAOS_SEED).delay_setfreq(4_000.0),
        )
        .hang_reopt_at(DELAY_DEV, 0)
        .hang_reopt_at(DELAY_DEV, 1)
}

/// The acceptance fleet: 16 devices from a tight silicon spread (one
/// calibration cluster), no ambient drift — healthy devices serve
/// quietly, so every detection in the run is fault-induced.
fn fleet(workers: usize, plan: Option<FleetFaultPlan>) -> FleetController {
    let spread = ConfigSpread {
        beta_frac: 0.01,
        theta_frac: 0.01,
        gamma_frac: 0.01,
        k_frac: 0.01,
        ambient_range_c: 1.0,
        drift_frac: 0.0,
    };
    let opts = OptimizerConfig::default()
        .with_threads(1)
        .with_loss_target(0.50)
        .with_fai_us(100.0);
    let serve = ServeOptions {
        detector: DriftDetectorConfig {
            window: 4,
            threshold: 0.08,
            hysteresis: 2,
            cooldown_windows: 2,
            temp_scale_c: 10.0,
        },
        ladder_freqs: vec![FreqMhz::new(1000), FreqMhz::new(1400)],
        max_swaps: 1,
        ..ServeOptions::default()
    };
    let mut c = FleetController::new(base_cfg(), serve_workload(12))
        .with_devices(16)
        .with_epochs(4)
        .with_epoch_iterations(16)
        .with_workers(workers)
        .with_spread(spread)
        .with_fleet_seed(CHAOS_SEED)
        .with_config(opts)
        .with_serve_options(serve)
        .with_health_policy(HealthPolicy {
            quarantine_after: 2,
            quarantine_epochs: 1,
            max_probations: 1,
            probation_iterations: 2,
        });
    if let Some(plan) = plan {
        c = c.with_fault_plan(plan);
    }
    c
}

fn faulted() -> [usize; 3] {
    [CRASH_DEV, POISON_DEV, DELAY_DEV]
}

#[test]
fn chaos_fleet_survives_quarantines_and_heals() {
    let sink = Arc::new(JsonLinesSink::new(Vec::new()));
    let clean = fleet(1, None).run().unwrap();
    assert_eq!(clean.quarantines, 0, "fault-free run must stay healthy");
    assert_eq!(clean.healthy_devices(), 16);

    let out = fleet(1, Some(chaos_plan()))
        .with_observer(ObserverHandle::from_arc(sink.clone()))
        .run()
        .expect("the fleet must survive 3 faulted devices out of 16");

    // Every faulted device was quarantined; nobody else was.
    assert_eq!(out.quarantines, 3, "exactly the 3 faulted devices");
    for d in faulted() {
        assert!(
            out.health[d].quarantines > 0,
            "device {d} should have been quarantined: {:?}",
            out.health[d]
        );
    }
    for h in &out.health {
        if !faulted().contains(&h.device) {
            assert_eq!(h.quarantines, 0, "healthy device {} quarantined", h.device);
            assert_eq!(h.health, DeviceHealth::Healthy);
        }
    }

    // The crash and poison victims recover through probation (their
    // hardware is sound); the delay device's fault rides along onto the
    // probation shadow, so it fails and is evicted.
    assert!(out.recoveries >= 1, "at least one device must recover");
    assert!(out.health[CRASH_DEV].recovered, "crash victim must recover");
    assert_eq!(out.health[CRASH_DEV].health, DeviceHealth::Healthy);
    assert!(out.health[POISON_DEV].recovered);
    assert_eq!(out.health[DELAY_DEV].health, DeviceHealth::Evicted);
    assert_eq!(out.evictions, 1);

    // The delay device degraded through the guardrail ladder before
    // quarantine — its merged outcome records the worst rung.
    assert!(
        degradation_rank(&out.per_device[DELAY_DEV].degradation) > 0,
        "delay faults must surface as a degradation rung, got {:?}",
        out.per_device[DELAY_DEV].degradation
    );
    assert!(out.per_device[DELAY_DEV].fell_back);

    // Transfer hygiene: the poisoned publications were blocked at the
    // source, and the poisoned device never appears as a donor.
    assert!(
        out.transfer_rejections >= 2,
        "two poisoned publications must be rejected, saw {}",
        out.transfer_rejections
    );
    let log = String::from_utf8(
        Arc::try_unwrap(sink)
            .expect("sink has one owner once the run is done")
            .into_inner(),
    )
    .unwrap();
    assert!(
        log.lines()
            .filter(|l| l.contains("\"event\":\"TransferRejected\""))
            .filter(|l| l.contains("\"reason\":\"unsound-publication\""))
            .count()
            >= 2,
        "publish-gate rejections missing from the event log"
    );
    assert!(
        !log.lines().any(|l| l.contains("\"event\":\"TransferHit\"")
            && l.contains(&format!("\"donor\":{POISON_DEV}"))),
        "a poisoned strategy was transferred"
    );
    for (event, min) in [
        ("DeviceQuarantined", 3),
        ("DeviceProbation", 3),
        ("DeviceRecovered", 2),
        ("DeviceEvicted", 1),
        ("EpochDegraded", 1),
    ] {
        let n = log
            .lines()
            .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
            .count();
        assert!(n >= min, "expected >= {min} {event} events, saw {n}");
    }

    // The key invariant: every healthy device's digest is bit-identical
    // to the fault-free run — fault isolation is total.
    for h in &out.health {
        if !faulted().contains(&h.device) {
            assert_eq!(
                out.device_digest(h.device),
                clean.device_digest(h.device),
                "healthy device {} diverged from the fault-free run",
                h.device
            );
        }
    }
    // Faulted devices' trajectories genuinely differ (the faults bit).
    assert_ne!(out.digest, clean.digest);

    // And the faulted run itself is bit-identical at any worker count.
    for workers in [2usize, 8] {
        let again = fleet(workers, Some(chaos_plan())).run().unwrap();
        assert_eq!(
            again.digest, out.digest,
            "faulted fleet digest diverged at {workers} workers"
        );
        assert_eq!(again.device_digests, out.device_digests);
        assert_eq!(again.quarantines, out.quarantines);
        assert_eq!(again.recoveries, out.recoveries);
        assert_eq!(again.evictions, out.evictions);
    }
}

#[test]
fn corrupted_cache_entry_is_rejected_at_transfer_time() {
    let dir = std::env::temp_dir().join(format!("npu-fleet-chaos-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::persistent(&dir).unwrap();
    let sink = Arc::new(JsonLinesSink::new(Vec::new()));

    // Two devices, one cluster: device 1 arms from device 0's published
    // strategy at epoch 1 — except the entry was corrupted on disk right
    // after publication.
    let plan = FleetFaultPlan::seeded(CHAOS_SEED).corrupt_cache_entry_at(0, 0);
    let out = fleet(1, Some(plan))
        .with_devices(2)
        .with_epochs(2)
        .with_cache(cache)
        .with_observer(ObserverHandle::from_arc(sink.clone()))
        .run()
        .unwrap();

    assert!(
        out.transfer_rejections >= 1,
        "the corrupt entry must be rejected during arming"
    );
    // A cache fault is not a device fault: nobody gets quarantined.
    assert_eq!(out.quarantines, 0);
    assert_eq!(out.healthy_devices(), 2);
    let log = String::from_utf8(Arc::try_unwrap(sink).expect("single owner").into_inner()).unwrap();
    assert!(
        log.lines()
            .any(|l| l.contains("\"event\":\"TransferRejected\"")
                && l.contains("\"reason\":\"cache-corrupt\"")),
        "expected a cache-corrupt TransferRejected event:\n{log}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
