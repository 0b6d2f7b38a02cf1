//! Integration: the `ArtifactCache` under concurrent load.
//!
//! PR 4 gave the cache its content-addressed keys; this suite pins the
//! single-flight guarantee layered on top: N threads racing identical
//! keys run exactly one compute, followers share the leader's `Arc` (no
//! double insert), a poisoned leader surfaces as a typed
//! [`CacheError::FlightPoisoned`] and the next caller elects a fresh
//! leader, and the per-domain lock split is observationally identical
//! to serializing every operation.

use dvfs_repro::core::cache::{ProfileArtifact, SearchArtifact};
use dvfs_repro::core::{CacheError, FlightRole, SingleFlightError};
use dvfs_repro::dvfs::{Evaluation, Stage, StageKind};
use dvfs_repro::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

/// A search artifact whose every field is a pure function of `key`, so
/// concurrent inserts of the same key are idempotent and the expected
/// cache contents are order-independent.
fn search_artifact(key: u64) -> SearchArtifact {
    let x = key as f64;
    SearchArtifact {
        outcome: GaOutcome {
            strategy: DvfsStrategy::new(
                vec![Stage {
                    start_us: 0.0,
                    dur_us: 10.0 + x,
                    op_range: 0..3,
                    kind: if key.is_multiple_of(2) {
                        StageKind::Lfc
                    } else {
                        StageKind::Hfc
                    },
                }],
                vec![FreqMhz::new(800 + (key % 1000) as u32)],
            ),
            best_eval: Evaluation {
                time_us: 100.0 + x,
                aicore_energy_wus: 2.0 * x + 1.0,
                soc_energy_wus: 3.0 * x + 1.0,
            },
            best_score: x,
            score_trace: vec![x, x + 1.0],
            evaluations: key as usize % 997,
        },
    }
}

/// A profile artifact derived from `key`, for the profile domain.
fn profile_artifact(key: u64) -> ProfileArtifact {
    let x = key as f64;
    ProfileArtifact {
        profiles: vec![FreqProfile {
            freq: FreqMhz::new(1000 + (key % 800) as u32),
            records: vec![],
        }],
        baseline: dvfs_repro::core::MeasuredIteration {
            time_us: 50.0 + x,
            aicore_w: 20.0 + x,
            soc_w: 30.0 + x,
            temp_c: 40.0,
        },
    }
}

#[test]
fn racing_identical_keys_runs_exactly_one_compute_per_key() {
    const KEYS: u64 = 4;
    const RACERS_PER_KEY: usize = 8;
    let cache = ArtifactCache::new();
    let computes: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
    let barrier = Barrier::new(KEYS as usize * RACERS_PER_KEY);

    let results: Vec<(u64, Arc<SearchArtifact>, FlightRole)> = thread::scope(|s| {
        let handles: Vec<_> = (0..KEYS)
            .flat_map(|key| (0..RACERS_PER_KEY).map(move |_| key))
            .map(|key| {
                let cache = &cache;
                let computes = &computes;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let (artifact, role) = cache
                        .single_flight(key, || {
                            computes[key as usize].fetch_add(1, Ordering::SeqCst);
                            // Widen the window so followers actually
                            // pile onto the in-flight computation.
                            thread::sleep(Duration::from_millis(20));
                            Ok::<_, CacheError>(search_artifact(key))
                        })
                        .expect("compute never fails here");
                    (key, artifact, role)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one compute per key, no matter how many racers.
    for (key, count) in computes.iter().enumerate() {
        assert_eq!(count.load(Ordering::SeqCst), 1, "key {key} recomputed");
    }
    // No double insert: every racer holds the same allocation as the
    // one the cache stores, and the contents are the derived artifact.
    for (key, artifact, _) in &results {
        let stored = cache
            .try_lookup::<SearchArtifact>(*key)
            .unwrap()
            .expect("artifact stored");
        assert!(
            Arc::ptr_eq(artifact, &stored),
            "key {key} returned a divergent allocation"
        );
        assert_eq!(**artifact, search_artifact(*key));
    }
    // Flight accounting: one leader per key; everyone else either
    // coalesced onto the leader or arrived after publication.
    let flights = cache.flight_stats().search;
    assert_eq!(flights.led, KEYS, "one flight per key");
    assert_eq!(flights.poisoned, 0);
    let led = results
        .iter()
        .filter(|(_, _, r)| *r == FlightRole::Led)
        .count() as u64;
    let coalesced = results
        .iter()
        .filter(|(_, _, r)| *r == FlightRole::Coalesced)
        .count() as u64;
    assert_eq!(led, KEYS);
    assert_eq!(coalesced, flights.coalesced);
    assert_eq!(
        led + coalesced
            + results
                .iter()
                .filter(|(_, _, r)| *r == FlightRole::Cached)
                .count() as u64,
        KEYS * RACERS_PER_KEY as u64
    );
}

#[test]
fn near_identical_keys_do_not_share_flights() {
    let cache = ArtifactCache::new();
    // Keys differing in one bit must compute independently.
    let keys = [0x1000u64, 0x1001, 0x1002, 0x1003];
    thread::scope(|s| {
        for &key in &keys {
            let cache = &cache;
            s.spawn(move || {
                let (artifact, role) = cache
                    .single_flight(key, || Ok::<_, CacheError>(search_artifact(key)))
                    .unwrap();
                assert_eq!(role, FlightRole::Led);
                assert_eq!(
                    artifact.outcome.strategy.freqs(),
                    search_artifact(key).outcome.strategy.freqs()
                );
            });
        }
    });
    assert_eq!(cache.flight_stats().search.led, keys.len() as u64);
    for &key in &keys {
        assert_eq!(
            *cache.try_lookup::<SearchArtifact>(key).unwrap().unwrap(),
            search_artifact(key)
        );
    }
}

#[test]
fn poisoned_leader_yields_typed_error_and_a_fresh_leader_recovers() {
    const FOLLOWERS: usize = 4;
    let cache = ArtifactCache::new();
    let key = 0xDEAD_BEEF;
    // Leader enters its compute, holds until every follower is at the
    // join point, lingers so they actually block on the flight, then
    // fails without publishing.
    let barrier = Barrier::new(FOLLOWERS + 1);

    let outcomes: Vec<Result<FlightRole, SingleFlightError<&str>>> = thread::scope(|s| {
        let leader = {
            let cache = &cache;
            let barrier = &barrier;
            s.spawn(move || {
                cache
                    .single_flight::<SearchArtifact, _>(key, || {
                        barrier.wait();
                        thread::sleep(Duration::from_millis(200));
                        Err("injected compute failure")
                    })
                    .map(|(_, role)| role)
            })
        };
        let followers: Vec<_> = (0..FOLLOWERS)
            .map(|_| {
                let cache = &cache;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    cache
                        .single_flight::<SearchArtifact, _>(key, || Err("injected compute failure"))
                        .map(|(_, role)| role)
                })
            })
            .collect();
        std::iter::once(leader)
            .chain(followers)
            .map(|h| h.join().unwrap())
            .collect()
    });

    // The leader fails with its own compute error; every follower that
    // joined the flight observes the typed poisoned-flight error.
    assert!(matches!(
        outcomes[0],
        Err(SingleFlightError::Compute("injected compute failure"))
    ));
    let poisoned = outcomes[1..]
        .iter()
        .filter(|o| {
            matches!(
                o,
                Err(SingleFlightError::Poisoned(CacheError::FlightPoisoned {
                    kind: "search",
                    key: k,
                })) if *k == key
            )
        })
        .count() as u64;
    assert!(poisoned >= 1, "no follower observed the poisoned flight");
    assert_eq!(cache.flight_stats().search.poisoned, poisoned);
    // Nothing was published...
    assert!(cache.try_lookup::<SearchArtifact>(key).unwrap().is_none());
    // ...and the table is clean: the next caller leads a fresh flight
    // and succeeds.
    let (artifact, role) = cache
        .single_flight(key, || Ok::<_, CacheError>(search_artifact(key)))
        .unwrap();
    assert_eq!(role, FlightRole::Led);
    assert_eq!(*artifact, search_artifact(key));
}

#[test]
fn profile_domain_coalesces_independently_of_search_domain() {
    let cache = ArtifactCache::new();
    let computes = AtomicUsize::new(0);
    let barrier = Barrier::new(6);
    thread::scope(|s| {
        for _ in 0..6 {
            let cache = &cache;
            let computes = &computes;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let (artifact, _) = cache
                    .single_flight(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(Duration::from_millis(10));
                        Ok::<_, CacheError>(profile_artifact(7))
                    })
                    .unwrap();
                assert_eq!(*artifact, profile_artifact(7));
            });
        }
    });
    assert_eq!(computes.load(Ordering::SeqCst), 1);
    let flights = cache.flight_stats();
    assert_eq!(flights.profile.led, 1);
    // The profile flight never touched the search domain.
    assert_eq!(flights.search, dvfs_repro::core::FlightStats::default());
}

#[test]
fn concurrent_sessions_sharing_a_model_key_fit_the_models_once() {
    const SESSIONS: usize = 8;
    let cfg = NpuConfig::ascend_like();
    let workload = models::tiny(&cfg);
    let calib = dvfs_repro::power_model::HardwareCalibration::ground_truth(&cfg);
    let opts = OptimizerConfig::for_device(&cfg);
    let build_models = |cache: &ArtifactCache| {
        let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
        let mut session = opt.session(&workload, &opts).with_cache(cache.clone());
        session.build_models().unwrap();
    };

    // A lone session counts one miss per stage it runs.
    let lone = ArtifactCache::new();
    build_models(&lone);
    let stats = lone.stats();
    assert_eq!((stats.profile.hits, stats.profile.misses), (0, 1));
    assert_eq!((stats.model.hits, stats.model.misses), (0, 1));
    assert_eq!(lone.flight_stats().model.led, 1);

    // Concurrent sessions over one workload, config and cache: one
    // leader fits the models, every other session waits for its result
    // or finds it stored.
    let shared = ArtifactCache::new();
    let barrier = Barrier::new(SESSIONS);
    thread::scope(|s| {
        for _ in 0..SESSIONS {
            s.spawn(|| {
                barrier.wait();
                build_models(&shared);
            });
        }
    });
    assert_eq!(shared.flight_stats().model.led, 1);
    assert_eq!(shared.stats().model.misses, 1);
    assert_eq!(shared.flight_stats().profile.led, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The per-domain lock split is observationally identical to the
    /// old single-lock behavior: a concurrent mixed workload of
    /// idempotent inserts and lookups over both domains converges to
    /// exactly the state serial application produces, bit for bit.
    #[test]
    fn concurrent_mixed_ops_match_serial_application(
        keys in prop::collection::vec(0u64..16, 8..48),
        threads in 2usize..6,
    ) {
        let serial = ArtifactCache::new();
        for &k in &keys {
            serial.insert(k, search_artifact(k));
            serial.insert(k, profile_artifact(k));
            prop_assert!(serial.try_lookup::<SearchArtifact>(k).unwrap().is_some());
        }

        let concurrent = ArtifactCache::new();
        thread::scope(|s| {
            for t in 0..threads {
                let keys = &keys;
                let concurrent = &concurrent;
                s.spawn(move || {
                    for (i, &k) in keys.iter().enumerate() {
                        if i % threads == t {
                            concurrent.insert(k, search_artifact(k));
                            concurrent.insert(k, profile_artifact(k));
                        } else {
                            // Interleave lookups on keys other threads own.
                            let _ = concurrent.try_lookup::<SearchArtifact>(k).unwrap();
                            let _ = concurrent.try_lookup::<ProfileArtifact>(k).unwrap();
                        }
                    }
                });
            }
        });

        for &k in &keys {
            let a = serial.try_lookup::<SearchArtifact>(k).unwrap().unwrap();
            let b = concurrent.try_lookup::<SearchArtifact>(k).unwrap().unwrap();
            prop_assert_eq!(&*a, &*b);
            let a = serial.try_lookup::<ProfileArtifact>(k).unwrap().unwrap();
            let b = concurrent.try_lookup::<ProfileArtifact>(k).unwrap().unwrap();
            prop_assert_eq!(&*a, &*b);
        }
    }
}
