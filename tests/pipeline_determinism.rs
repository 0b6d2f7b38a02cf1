//! Integration: the parallel pipeline is bit-deterministic.
//!
//! The tentpole claim of the sweep/cache layer is that worker counts
//! change wall time only: profiles, fitted models, GA outcomes and
//! executed reports are bit-identical whether a sweep runs on 1, 2 or 8
//! threads, and a warm-cache session reproduces a cold one exactly.
//! These tests pin that, plus the bit-exact round trip of the persisted
//! cache artifacts and the stability of the content fingerprints.

use dvfs_repro::core::cache::{fleet_strategy_key, profile_key, ProfileArtifact, SearchArtifact};
use dvfs_repro::core::{sweep_profiles, EnergyOptimizer, OptimizerConfig};
use dvfs_repro::power_model::HardwareCalibration;
use dvfs_repro::prelude::*;
use dvfs_repro::sim::OpClass;
use proptest::prelude::*;

fn quick_opts(cfg: &NpuConfig) -> OptimizerConfig {
    // `for_device` derives the build frequencies from the profile's own
    // ladder (identical to the historical defaults on Ascend).
    OptimizerConfig::for_device(cfg).with_fai_us(100.0)
}

#[test]
fn profile_sweep_is_bit_identical_across_thread_counts_on_every_profile() {
    for p in dvfs_repro::sim::profile::builtins() {
        let cfg = p.config().clone(); // default noise levels on
        let dev = Device::new(cfg.clone());
        let w = models::tiny(&cfg);
        let ladder = &cfg.freq_table;
        let freqs = [
            ladder.max(),
            ladder.points()[ladder.len() / 2],
            ladder.min(),
        ];
        let obs = ObserverHandle::null();
        let reference = sweep_profiles(&dev, w.schedule(), &freqs, 1, &obs).unwrap();
        for threads in [2, 8] {
            let got = sweep_profiles(&dev, w.schedule(), &freqs, threads, &obs).unwrap();
            // PartialEq on f64 fields; NaN never appears in profiles, so
            // equality here is bit-equality.
            assert_eq!(
                got,
                reference,
                "sweep diverged at {threads} threads on {}",
                p.name()
            );
        }
    }
}

#[test]
fn full_session_report_is_bit_identical_across_thread_counts_on_every_profile() {
    for p in dvfs_repro::sim::profile::builtins() {
        let cfg = p.config().clone();
        let w = models::tiny(&cfg);
        let calib = HardwareCalibration::ground_truth(&cfg);
        let run = |threads: usize| {
            let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
            opt.optimize(&w, &quick_opts(&cfg).with_threads(threads))
                .unwrap()
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(
                run(threads),
                reference,
                "report diverged at {threads} threads on {}",
                p.name()
            );
        }
    }
}

#[test]
fn warm_cache_session_reproduces_cold_session_exactly() {
    let cfg = NpuConfig::ascend_like();
    let w = models::tanh_loop(&cfg, 12);
    let calib = HardwareCalibration::ground_truth(&cfg);
    let cache = ArtifactCache::new();

    let mut cold_opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
    let mut cold = cold_opt.session(&w, &quick_opts(&cfg));
    cold.set_cache(cache.clone());
    let cold_report = cold.report().unwrap();
    drop(cold);

    cache.reset_stats();
    let mut warm_opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
    let mut warm = warm_opt.session(&w, &quick_opts(&cfg));
    warm.set_cache(cache.clone());
    let warm_report = warm.report().unwrap();

    let stats = cache.stats();
    assert_eq!(stats.misses(), 0, "warm session re-ran a cached stage");
    assert_eq!(stats.profile.hits, 1);
    assert_eq!(stats.model.hits, 1);
    assert_eq!(stats.search.hits, 1);
    assert_eq!(warm_report, cold_report);
}

#[test]
fn fingerprints_are_stable_and_input_sensitive() {
    let cfg = NpuConfig::ascend_like();
    let w = models::tiny(&cfg);
    let freqs = [FreqMhz::new(1800), FreqMhz::new(1000)];
    let key = profile_key(&cfg, 7, w.schedule(), &freqs);
    // Stable: the same inputs always fingerprint the same (this is what
    // makes keys valid across processes for the persistent store).
    assert_eq!(key, profile_key(&cfg, 7, w.schedule(), &freqs));
    // Sensitive to every keyed input.
    assert_ne!(key, profile_key(&cfg, 8, w.schedule(), &freqs));
    assert_ne!(key, profile_key(&cfg, 7, w.schedule(), &freqs[..1]));
    let other = models::tanh_loop(&cfg, 2);
    assert_ne!(key, profile_key(&cfg, 7, other.schedule(), &freqs));
    let mut cfg2 = cfg.clone();
    cfg2.ambient_c += 1.0;
    assert_ne!(key, profile_key(&cfg2, 7, w.schedule(), &freqs));
    // Every device field is keyed: each float moved by one ULP, the core
    // count, one ladder point, and each voltage-curve parameter. The
    // fleet strategy key hashes the same device fields.
    let strategy_key = fleet_strategy_key(&cfg, 7, 0);
    let floats: [fn(&mut NpuConfig) -> &mut f64; 21] = [
        |c| &mut c.ld_bytes_per_cycle_per_core,
        |c| &mut c.st_bytes_per_cycle_per_core,
        |c| &mut c.l2_bw_bytes_per_us,
        |c| &mut c.hbm_bw_bytes_per_us,
        |c| &mut c.mem_overhead_us,
        |c| &mut c.hbm_pj_per_byte,
        |c| &mut c.setfreq_latency_us,
        |c| &mut c.beta_w_per_ghz_v2,
        |c| &mut c.theta_w_per_v,
        |c| &mut c.gamma_aicore_w_per_k_v,
        |c| &mut c.gamma_soc_w_per_k_v,
        |c| &mut c.uncore_idle_w,
        |c| &mut c.uncore_theta_w_per_v,
        |c| &mut c.uncore_dynamic_fraction,
        |c| &mut c.uncore_min_scale,
        |c| &mut c.ambient_c,
        |c| &mut c.k_c_per_w,
        |c| &mut c.thermal_tau_us,
        |c| &mut c.exec_noise_sd,
        |c| &mut c.power_noise_sd,
        |c| &mut c.temp_noise_sd_c,
    ];
    let mut moved: Vec<NpuConfig> = floats
        .iter()
        .map(|field| {
            let mut c = cfg.clone();
            let v = field(&mut c);
            *v = f64::from_bits(v.to_bits() + 1);
            c
        })
        .collect();
    let curve = &cfg.voltage_curve;
    let (base, knee, slope) = (curve.base_volts(), curve.knee(), curve.slope_v_per_mhz());
    for change in [
        |c: &mut NpuConfig| c.core_num += 1,
        |c: &mut NpuConfig| {
            let mut points = c.freq_table.points().to_vec();
            *points.last_mut().unwrap() = FreqMhz::new(1900);
            c.freq_table = FrequencyTable::new(points).unwrap();
        },
    ] {
        let mut c = cfg.clone();
        change(&mut c);
        moved.push(c);
    }
    for curve in [
        VoltageCurve::new(base + 0.01, knee, slope),
        VoltageCurve::new(base, FreqMhz::new(knee.mhz() + 100), slope),
        VoltageCurve::new(base, knee, slope * 2.0),
    ] {
        let mut c = cfg.clone();
        c.voltage_curve = curve;
        moved.push(c);
    }
    for (i, c) in moved.iter().enumerate() {
        assert_ne!(key, profile_key(c, 7, w.schedule(), &freqs), "change {i}");
        assert_ne!(strategy_key, fleet_strategy_key(c, 7, 0), "change {i}");
    }
    // The device-profile fingerprint is keyed too: a hand-built config
    // with identical physics (builder output, profile_fp == 0) must not
    // alias artifacts of the profile-loaded config.
    let hand_built = NpuConfig::builder().build().unwrap();
    assert_eq!(hand_built.profile_fp, 0);
    assert_ne!(cfg.profile_fp, 0);
    assert_ne!(key, profile_key(&hand_built, 7, w.schedule(), &freqs));
    // And distinct profiles never share keys, even for the same inputs.
    let v100 = dvfs_repro::sim::profile::v100_class().config();
    assert_ne!(key, profile_key(v100, 7, w.schedule(), &freqs));
}

/// The three keys a `tiny` session stores its artifacts under, recorded
/// once: a change to how an op's class or scenario is spelled into the
/// key, or to any other hashed byte, moves them.
#[test]
fn tiny_session_cache_keys_are_pinned() {
    use dvfs_repro::core::cache::{model_key, search_key, ModelArtifact};
    const PROFILE: u64 = 0xe9f9_319c_8022_d047;
    const MODEL: u64 = 0xacd9_c186_37ef_4515;
    const SEARCH: u64 = 0x7bae_ef54_c2cf_509a;
    let cfg = NpuConfig::ascend_like();
    let w = models::tiny(&cfg);
    let calib = HardwareCalibration::ground_truth(&cfg);
    let opts = quick_opts(&cfg);
    let cache = ArtifactCache::new();
    let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
    let seed = opt.device().seed();
    let mut session = opt.session(&w, &opts);
    session.set_cache(cache.clone());
    session.search().unwrap();
    drop(session);

    let mut freqs = opts.build_freqs.clone();
    freqs.sort();
    freqs.reverse();
    let pk = profile_key(&cfg, seed, w.schedule(), &freqs);
    let mk = model_key(pk, opts.fit, &calib);
    let fai = opts.fai_us.max(cfg.setfreq_latency_us);
    let sk = search_key(mk, fai, &opts);
    assert_eq!(
        (pk, mk, sk),
        (PROFILE, MODEL, SEARCH),
        "got ({pk:#018x}, {mk:#018x}, {sk:#018x})"
    );
    assert!(cache.lookup::<ProfileArtifact>(pk).is_some());
    assert!(cache.lookup::<ModelArtifact>(mk).is_some());
    assert!(cache.lookup::<SearchArtifact>(sk).is_some());
}

// ---------------------------------------------------------------------------
// Property tests: persisted artifacts round-trip bit-exactly.
// ---------------------------------------------------------------------------

const NAMES: [&str; 3] = ["MatMul", "Flash Attention FWD", "all-reduce (ring)"];
const CLASSES: [OpClass; 4] = [
    OpClass::Compute,
    OpClass::AiCpu,
    OpClass::Communication,
    OpClass::Idle,
];
const SCENARIOS: [Scenario; 4] = [
    Scenario::PingPongFreeIndependent,
    Scenario::PingPongFreeDependent,
    Scenario::PingPongIndependent,
    Scenario::PingPongDependent,
];

prop_compose! {
    fn arb_record()(
        vals in prop::collection::vec(-1.0e9f64..1.0e9, 11),
        index in 0usize..10_000,
        class in 0usize..4,
        scenario in 0usize..4,
        name in 0usize..3,
        mhz in 200u32..2000,
    ) -> OpRecord {
        OpRecord {
            index,
            name: NAMES[name].into(),
            class: CLASSES[class],
            scenario: SCENARIOS[scenario],
            start_us: vals[0],
            dur_us: vals[1],
            freq_mhz: FreqMhz::new(mhz),
            ratios: dvfs_repro::sim::PipelineRatios {
                cube: vals[2],
                vector: vals[3],
                scalar: vals[4],
                mte1: vals[5],
                mte2: vals[6],
                mte3: vals[7],
            },
            aicore_w: vals[8],
            soc_w: vals[9],
            temp_c: vals[10],
            traffic_bytes: vals[0] * 0.5,
        }
    }
}

prop_compose! {
    fn arb_freq_profile()(
        records in prop::collection::vec(arb_record(), 0..6),
        mhz in 200u32..2000,
    ) -> FreqProfile {
        FreqProfile { freq: FreqMhz::new(mhz), records }
    }
}

prop_compose! {
    fn arb_profile_artifact()(
        profiles in prop::collection::vec(arb_freq_profile(), 1..4),
        base in prop::collection::vec(-1.0e6f64..1.0e6, 4),
    ) -> ProfileArtifact {
        ProfileArtifact {
            profiles,
            baseline: dvfs_repro::core::MeasuredIteration {
                time_us: base[0],
                aicore_w: base[1],
                soc_w: base[2],
                temp_c: base[3],
            },
        }
    }
}

prop_compose! {
    fn arb_search_artifact()(
        stage_vals in prop::collection::vec((0.0f64..1.0e7, 1.0f64..1.0e6, 0usize..50, 1usize..20, any::<bool>(), 200u32..2000), 1..12),
        eval in prop::collection::vec(1.0e-3f64..1.0e9, 4),
        trace in prop::collection::vec(0.0f64..1.0e3, 0..20),
        evals in 0usize..100_000,
    ) -> SearchArtifact {
        use dvfs_repro::dvfs::{Stage, StageKind};
        let mut stages = Vec::new();
        let mut freqs = Vec::new();
        // Stage ranges tile the operators from the first stage's start,
        // as the decoder requires.
        let mut op_start = stage_vals[0].2;
        for &(start, dur, _, op_len, lfc, mhz) in &stage_vals {
            stages.push(Stage {
                start_us: start,
                dur_us: dur,
                op_range: op_start..op_start + op_len,
                kind: if lfc { StageKind::Lfc } else { StageKind::Hfc },
            });
            freqs.push(FreqMhz::new(mhz));
            op_start += op_len;
        }
        SearchArtifact {
            outcome: GaOutcome {
                strategy: DvfsStrategy::new(stages, freqs),
                best_eval: dvfs_repro::dvfs::Evaluation {
                    time_us: eval[0],
                    aicore_energy_wus: eval[1],
                    soc_energy_wus: eval[2],
                },
                best_score: eval[3],
                score_trace: trace,
                evaluations: evals,
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn profile_artifact_round_trips_bit_exactly(artifact in arb_profile_artifact()) {
        let decoded = ProfileArtifact::from_text(&artifact.to_text()).unwrap();
        prop_assert_eq!(decoded, artifact);
    }

    #[test]
    fn search_artifact_round_trips_bit_exactly(artifact in arb_search_artifact()) {
        let decoded = SearchArtifact::from_text(&artifact.to_text()).unwrap();
        prop_assert_eq!(decoded, artifact);
    }

    #[test]
    fn reencoding_a_decoded_artifact_is_a_fixed_point(artifact in arb_profile_artifact()) {
        let text = artifact.to_text();
        let decoded = ProfileArtifact::from_text(&text).unwrap();
        prop_assert_eq!(decoded.to_text(), text);
    }
}

// ---------------------------------------------------------------------------
// Property tests: exotic floats survive the text store bit-exactly.
// ---------------------------------------------------------------------------

/// Bit patterns a naive Display/parse round trip mangles: signed zero,
/// subnormals, infinities, and NaNs with arbitrary sign/payload bits —
/// plus fully arbitrary patterns for good measure.
fn arb_exotic_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        // Subnormals: zero exponent, nonzero mantissa, either sign.
        (1u64..1u64 << 52, any::<bool>())
            .prop_map(|(m, neg)| f64::from_bits(m | if neg { 1u64 << 63 } else { 0 })),
        // NaNs with arbitrary payloads and signs.
        (1u64..1u64 << 52, any::<bool>()).prop_map(|(m, neg)| f64::from_bits(
            0x7FF0_0000_0000_0000 | m | if neg { 1u64 << 63 } else { 0 }
        )),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// Every float of a profile artifact as raw bits, in a fixed order.
/// NaN != NaN under `PartialEq`, so bit-exactness claims must compare
/// bit patterns, never values.
fn profile_float_bits(a: &ProfileArtifact) -> Vec<u64> {
    let mut bits = vec![
        a.baseline.time_us.to_bits(),
        a.baseline.aicore_w.to_bits(),
        a.baseline.soc_w.to_bits(),
        a.baseline.temp_c.to_bits(),
    ];
    for p in &a.profiles {
        for r in &p.records {
            bits.extend(
                [
                    r.start_us,
                    r.dur_us,
                    r.ratios.cube,
                    r.ratios.vector,
                    r.ratios.scalar,
                    r.ratios.mte1,
                    r.ratios.mte2,
                    r.ratios.mte3,
                    r.aicore_w,
                    r.soc_w,
                    r.temp_c,
                    r.traffic_bytes,
                ]
                .map(f64::to_bits),
            );
        }
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exotic_floats_survive_the_profile_text_store_bit_exactly(
        vals in prop::collection::vec(arb_exotic_f64(), 16),
    ) {
        let record = OpRecord {
            index: 3,
            name: "MatMul".into(),
            class: OpClass::Compute,
            scenario: Scenario::PingPongIndependent,
            start_us: vals[0],
            dur_us: vals[1],
            freq_mhz: FreqMhz::new(1500),
            ratios: dvfs_repro::sim::PipelineRatios {
                cube: vals[2],
                vector: vals[3],
                scalar: vals[4],
                mte1: vals[5],
                mte2: vals[6],
                mte3: vals[7],
            },
            aicore_w: vals[8],
            soc_w: vals[9],
            temp_c: vals[10],
            traffic_bytes: vals[11],
        };
        let artifact = ProfileArtifact {
            profiles: vec![FreqProfile { freq: FreqMhz::new(1500), records: vec![record] }],
            baseline: dvfs_repro::core::MeasuredIteration {
                time_us: vals[12],
                aicore_w: vals[13],
                soc_w: vals[14],
                temp_c: vals[15],
            },
        };
        let decoded = ProfileArtifact::from_text(&artifact.to_text()).unwrap();
        prop_assert_eq!(profile_float_bits(&decoded), profile_float_bits(&artifact));
    }

    #[test]
    fn exotic_floats_survive_the_search_text_store_bit_exactly(
        vals in prop::collection::vec(arb_exotic_f64(), 4),
        trace in prop::collection::vec(arb_exotic_f64(), 0..8),
    ) {
        use dvfs_repro::dvfs::{Evaluation, Stage, StageKind};
        let artifact = SearchArtifact {
            outcome: GaOutcome {
                strategy: DvfsStrategy::new(
                    vec![Stage {
                        start_us: 0.0,
                        dur_us: 10.0,
                        op_range: 0..2,
                        kind: StageKind::Hfc,
                    }],
                    vec![FreqMhz::new(1700)],
                ),
                best_eval: Evaluation {
                    time_us: vals[0],
                    aicore_energy_wus: vals[1],
                    soc_energy_wus: vals[2],
                },
                best_score: vals[3],
                score_trace: trace,
                evaluations: 10,
            },
        };
        let decoded = SearchArtifact::from_text(&artifact.to_text()).unwrap();
        let bits = |a: &SearchArtifact| {
            let o = &a.outcome;
            let mut v = vec![
                o.best_eval.time_us.to_bits(),
                o.best_eval.aicore_energy_wus.to_bits(),
                o.best_eval.soc_energy_wus.to_bits(),
                o.best_score.to_bits(),
            ];
            v.extend(o.score_trace.iter().map(|s| s.to_bits()));
            v
        };
        prop_assert_eq!(bits(&decoded), bits(&artifact));
    }
}

// ---------------------------------------------------------------------------
// Persistent-store damage: typed errors, clean misses.
// ---------------------------------------------------------------------------

fn scratch_cache_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("npu-cache-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_profile_artifact() -> ProfileArtifact {
    ProfileArtifact {
        profiles: vec![FreqProfile {
            freq: FreqMhz::new(1800),
            records: Vec::new(),
        }],
        baseline: dvfs_repro::core::MeasuredIteration {
            time_us: 1.0,
            aicore_w: 2.0,
            soc_w: 3.0,
            temp_c: 4.0,
        },
    }
}

#[test]
fn truncated_persisted_profile_is_a_typed_error_and_counts_a_miss() {
    let dir = scratch_cache_dir("profile-truncated");
    let warm = ArtifactCache::persistent(&dir).unwrap();
    warm.insert(0xBAD, tiny_profile_artifact());

    // A fresh store over an intact file starts warm.
    let cold = ArtifactCache::persistent(&dir).unwrap();
    assert!(cold.try_lookup::<ProfileArtifact>(0xBAD).unwrap().is_some());

    // Truncate the file mid-stream (the text is pure ASCII) and look it
    // up through another fresh store, so memory cannot mask the damage.
    let path = dir.join(format!("profile-{:016x}.txt", 0xBADu64));
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    let cold = ArtifactCache::persistent(&dir).unwrap();
    match cold.try_lookup::<ProfileArtifact>(0xBAD) {
        Err(CacheError::Corrupt {
            kind,
            key,
            path: reported,
            ..
        }) => {
            assert_eq!(kind, "profile");
            assert_eq!(key, 0xBAD);
            assert_eq!(reported, path);
        }
        other => panic!("expected CacheError::Corrupt, got {other:?}"),
    }
    let stats = cold.stats();
    assert_eq!((stats.profile.hits, stats.profile.misses), (0, 1));

    // The unchecked lookup folds the same damage into a plain miss.
    assert!(cold.lookup::<ProfileArtifact>(0xBAD).is_none());
    assert_eq!(cold.stats().profile.misses, 2);

    // A count no file can back fails at end of file as well, instead of
    // sizing an allocation from it. The failing line is past the header,
    // so the count parser was reached.
    let head = "npu-core-cache profile v2\nbaseline 1 2 3 4\n";
    for text in [
        format!("{head}profiles 18446744073709551615\n"),
        format!("{head}profiles 1\nfreq 1800 18446744073709551615\n"),
    ] {
        std::fs::write(&path, &text).unwrap();
        let cold = ArtifactCache::persistent(&dir).unwrap();
        let found = cold.try_lookup::<ProfileArtifact>(0xBAD);
        assert!(
            matches!(&found, Err(CacheError::Corrupt { source, .. }) if source.line > 1),
            "{text}: {found:?}"
        );
        let stats = cold.stats();
        assert_eq!((stats.profile.hits, stats.profile.misses), (0, 1));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_write_failure_degrades_to_memory_only_and_emits_event() {
    use std::sync::Arc;

    let dir = scratch_cache_dir("write-degrade");
    let cache = ArtifactCache::persistent(&dir).unwrap();
    let sink = Arc::new(JsonLinesSink::new(Vec::new()));
    cache.set_observer(ObserverHandle::from_arc(sink.clone()));
    assert!(!cache.disk_degraded());

    // Replace the store directory with a plain file so every disk write
    // fails (tests run as root, where a read-only directory would not
    // actually block writes).
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::write(&dir, "not a directory").unwrap();

    // The failing insert degrades the cache instead of erroring; the
    // memory store stays authoritative.
    cache.insert(0xD06, tiny_profile_artifact());
    assert!(cache.disk_degraded());
    assert!(cache
        .try_lookup::<ProfileArtifact>(0xD06)
        .unwrap()
        .is_some());

    // Later traffic skips the dead disk entirely — inserts land in
    // memory and lookups of unknown keys are plain misses, not errors.
    cache.insert(0xD07, tiny_profile_artifact());
    assert!(cache.lookup::<ProfileArtifact>(0xD07).is_some());
    assert!(cache.try_lookup::<SearchArtifact>(0xD08).unwrap().is_none());

    drop(cache);
    let text = String::from_utf8(
        Arc::try_unwrap(sink)
            .expect("all cache handles dropped")
            .into_inner(),
    )
    .unwrap();
    let degraded: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"event\":\"CacheDegraded\""))
        .collect();
    assert_eq!(degraded.len(), 1, "exactly one degradation incident");
    assert!(degraded[0].contains("\"kind\":\"profile\""));
    let _ = std::fs::remove_file(&dir);
}

#[test]
fn garbage_persisted_search_is_corrupt_while_absence_stays_a_plain_miss() {
    let dir = scratch_cache_dir("search-garbage");
    let cache = ArtifactCache::persistent(&dir).unwrap();
    // Nothing stored: a genuine absence, not an error.
    assert!(cache.try_lookup::<SearchArtifact>(1).unwrap().is_none());

    let path = dir.join(format!("search-{:016x}.txt", 2u64));
    std::fs::write(&path, "not an artifact\n").unwrap();
    match cache.try_lookup::<SearchArtifact>(2) {
        Err(CacheError::Corrupt { kind, key, .. }) => {
            assert_eq!(kind, "search");
            assert_eq!(key, 2);
        }
        other => panic!("expected CacheError::Corrupt, got {other:?}"),
    }
    assert!(cache.lookup::<SearchArtifact>(2).is_none());
    let stats = cache.stats();
    assert_eq!(stats.search.hits, 0);
    assert_eq!(stats.search.misses, 3);

    // A stage count no file can back fails at end of file as well,
    // instead of sizing (or aborting on) an allocation.
    let head = "npu-core-cache search v2\neval 1 2 3\nscore 0\ntrace 0\nevals 1\n";
    for count in ["18446744073709551615", "1000000000000000"] {
        std::fs::write(&path, format!("{head}stages {count}\n")).unwrap();
        let cache = ArtifactCache::persistent(&dir).unwrap();
        let found = cache.try_lookup::<SearchArtifact>(2);
        assert!(matches!(found, Err(CacheError::Corrupt { .. })), "{count}");
        let stats = cache.stats();
        assert_eq!((stats.search.hits, stats.search.misses), (0, 1));
    }

    // Stage lines a strategy file would reject are corrupt too, at their
    // own line: a zero frequency, and ranges that are inverted, empty,
    // or leave a gap. Executing any of them would index past the
    // profile or divide by a zero clock.
    let ok = "stage 0 1 0 2 LFC 1300\n";
    for stages in [
        "stage 0 1 0 2 LFC 0\n".to_owned(),
        format!("{ok}stage 1 1 91 41 HFC 1800\n"),
        format!("{ok}stage 1 1 2 2 HFC 1800\n"),
        format!("{ok}stage 1 1 3 5 HFC 1800\n"),
    ] {
        let n = stages.lines().count();
        std::fs::write(&path, format!("{head}stages {n}\n{stages}")).unwrap();
        let cache = ArtifactCache::persistent(&dir).unwrap();
        assert!(cache.lookup::<SearchArtifact>(2).is_none(), "{stages}");
        match cache.try_lookup::<SearchArtifact>(2) {
            Err(CacheError::Corrupt { source, .. }) => assert_eq!(source.line, 6 + n, "{stages}"),
            other => panic!("{stages}: expected CacheError::Corrupt, got {other:?}"),
        }
    }

    // A stage line past the declared count is corrupt at that line: a
    // damaged count must not decode into a shorter strategy. Trailing
    // empty lines are not content.
    let two = format!("{ok}stage 1 1 2 4 HFC 1800\n");
    for (text, line) in [
        (format!("{head}stages 1\n{two}"), 8),
        (format!("{head}stages 0\n{ok}"), 7),
    ] {
        std::fs::write(&path, &text).unwrap();
        let cache = ArtifactCache::persistent(&dir).unwrap();
        match cache.try_lookup::<SearchArtifact>(2) {
            Err(CacheError::Corrupt { source, .. }) => assert_eq!(source.line, line, "{text}"),
            other => panic!("{text}: expected CacheError::Corrupt, got {other:?}"),
        }
    }
    std::fs::write(&path, format!("{head}stages 2\n{two}\n\n")).unwrap();
    let cache = ArtifactCache::persistent(&dir).unwrap();
    assert!(cache.try_lookup::<SearchArtifact>(2).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_persisted_profile_is_corrupt_while_absence_stays_a_plain_miss() {
    let dir = scratch_cache_dir("profile-garbage");
    let cache = ArtifactCache::persistent(&dir).unwrap();
    assert!(cache.try_lookup::<ProfileArtifact>(1).unwrap().is_none());

    // A zero frequency, in a block header or in a record, is corrupt at
    // its own line instead of aborting the process.
    let path = dir.join(format!("profile-{:016x}.txt", 2u64));
    let head = "npu-core-cache profile v2\nbaseline 1 2 3 4\nprofiles 1\n";
    let rec = |mhz: u32| {
        format!("rec 0 Compute PingPongIndependent 0 1 {mhz} 0 0 0 0 0 0 1 2 40 8 MatMul\n")
    };
    for (text, line) in [
        (format!("{head}freq 0 0\n"), 4),
        (format!("{head}freq 1800 1\n{}", rec(0)), 5),
    ] {
        std::fs::write(&path, &text).unwrap();
        let cache = ArtifactCache::persistent(&dir).unwrap();
        assert!(cache.lookup::<ProfileArtifact>(2).is_none(), "{text}");
        match cache.try_lookup::<ProfileArtifact>(2) {
            Err(CacheError::Corrupt {
                kind, key, source, ..
            }) => {
                assert_eq!((kind, key, source.line), ("profile", 2, line), "{text}");
            }
            other => panic!("{text}: expected CacheError::Corrupt, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.profile.hits, stats.profile.misses), (0, 2));
    }
    // The same record at a real frequency decodes.
    std::fs::write(&path, format!("{head}freq 1800 1\n{}", rec(1800))).unwrap();
    let cache = ArtifactCache::persistent(&dir).unwrap();
    assert!(cache.try_lookup::<ProfileArtifact>(2).unwrap().is_some());

    // Content past the declared blocks is corrupt at its first line: a
    // second `freq` block after `profiles 1`, and one stray line after
    // the last record.
    let block = |mhz: u32| format!("freq {mhz} 1\n{}", rec(mhz));
    for (text, line) in [
        (format!("{head}{}{}", block(1800), block(1000)), 6),
        (format!("{head}{}garbage\n", block(1800)), 6),
    ] {
        std::fs::write(&path, &text).unwrap();
        let cache = ArtifactCache::persistent(&dir).unwrap();
        match cache.try_lookup::<ProfileArtifact>(2) {
            Err(CacheError::Corrupt { source, .. }) => assert_eq!(source.line, line, "{text}"),
            other => panic!("{text}: expected CacheError::Corrupt, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
