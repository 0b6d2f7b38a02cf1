//! Integration: classification → preprocessing → GA search → execution on
//! profiled workloads (paper Sects. 6–7).

use dvfs_repro::prelude::*;
use npu_dvfs::{
    classify::{classify, Bottleneck},
    preprocess::preprocess,
    search, StageKind,
};
use npu_exec::{execute_strategy, ExecutorOptions};
use npu_sim::OpClass;

fn baseline_profile(workload: &Workload, cfg: &NpuConfig) -> (Device, Vec<npu_sim::OpRecord>) {
    // Profile at the device's own ladder ceiling (1800 MHz on the Ascend
    // profile, whatever the loaded description declares elsewhere) so the
    // same pipeline runs on every builtin profile.
    let top = cfg.freq_table.max();
    let mut dev = Device::new(cfg.clone());
    dev.warm_until_steady(workload.schedule(), top).unwrap();
    let run = dev.run(workload.schedule(), &RunOptions::at(top)).unwrap();
    (dev, run.records)
}

#[test]
fn classification_matches_operator_nature() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::bert(&cfg);
    let (_, records) = baseline_profile(&workload, &cfg);
    let mut matmul_core = 0;
    let mut matmul_total = 0;
    let mut adam_uncore = 0;
    let mut adam_total = 0;
    for rec in &records {
        match (&*rec.name, classify(rec)) {
            ("MatMul", b) => {
                matmul_total += 1;
                if matches!(b, Bottleneck::CoreBound(_)) {
                    matmul_core += 1;
                }
            }
            ("ApplyAdamW", b) => {
                adam_total += 1;
                if matches!(b, Bottleneck::UncoreBound(_)) {
                    adam_uncore += 1;
                }
            }
            _ => {}
        }
    }
    assert!(matmul_total > 0 && adam_total > 0);
    assert!(
        matmul_core as f64 / matmul_total as f64 > 0.8,
        "{matmul_core}/{matmul_total} MatMuls core-bound"
    );
    assert!(
        adam_uncore as f64 / adam_total as f64 > 0.8,
        "{adam_uncore}/{adam_total} Adam updates uncore-bound"
    );
    // Host-side ops classify as host.
    assert!(records
        .iter()
        .filter(|r| r.class != OpClass::Compute)
        .all(|r| matches!(classify(r), Bottleneck::Host(_))));
}

#[test]
fn preprocessing_respects_fai_and_partitions_ops() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::bert(&cfg);
    let (_, records) = baseline_profile(&workload, &cfg);
    let fine = preprocess(&records, 1_000.0);
    let coarse = preprocess(&records, 5_000.0);
    let very_coarse = preprocess(&records, 100_000.0);
    assert!(fine.len() >= coarse.len());
    assert!(coarse.len() >= very_coarse.len());
    // Stages partition the op index space.
    let mut next = 0;
    for s in coarse.stages() {
        assert_eq!(s.op_range.start, next);
        next = s.op_range.end;
    }
    assert_eq!(next, records.len());
    // All non-head/tail stages respect the FAI.
    for s in &coarse.stages()[..coarse.len().saturating_sub(1)] {
        assert!(
            s.dur_us >= 5_000.0 || coarse.len() == 1,
            "stage of {} µs below FAI",
            s.dur_us
        );
    }
    // Both kinds must be present for the GA to have anything to do.
    let kinds: Vec<StageKind> = coarse.stages().iter().map(|s| s.kind).collect();
    assert!(kinds.contains(&StageKind::Hfc));
    assert!(kinds.contains(&StageKind::Lfc));
}

#[test]
fn pipeline_stages_compose_on_every_builtin_profile() {
    // classify → preprocess → model build → GA search → execution, on
    // each checked-in device description. The point is structural: every
    // stage of the Sect. 6–7 pipeline must accept whatever ladder,
    // memory system and pipeline set the profile declares.
    for p in dvfs_repro::sim::profile::builtins() {
        let cfg = p.config().clone();
        let workload = models::tiny(&cfg);
        let (mut dev, records) = baseline_profile(&workload, &cfg);
        assert!(
            !records.is_empty(),
            "{}: profiling produced no records",
            p.name()
        );
        for rec in &records {
            // classify() must place every record somewhere; host-side ops
            // stay host-bound regardless of device physics.
            let b = classify(rec);
            if rec.class != OpClass::Compute {
                assert!(
                    matches!(b, Bottleneck::Host(_)),
                    "{}: host op misclassified",
                    p.name()
                );
            }
        }

        let pre = preprocess(&records, 100.0);
        let mut next = 0;
        for s in pre.stages() {
            assert_eq!(
                s.op_range.start,
                next,
                "{}: stages must partition ops",
                p.name()
            );
            next = s.op_range.end;
        }
        assert_eq!(
            next,
            records.len(),
            "{}: stages must cover all ops",
            p.name()
        );

        let (lo, hi) = (cfg.freq_table.min(), cfg.freq_table.max());
        let mut profiles = vec![FreqProfile {
            freq: hi,
            records: records.clone(),
        }];
        let run_lo = dev.run(workload.schedule(), &RunOptions::at(lo)).unwrap();
        profiles.push(FreqProfile {
            freq: lo,
            records: run_lo.records,
        });
        let perf = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
        let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
        let power = PowerModel::build(calib, cfg.voltage_curve, &profiles).unwrap();
        let table = StageTable::build(&pre, &perf, &power, &cfg.freq_table).unwrap();
        assert_eq!(
            table.n_freqs(),
            cfg.freq_table.len(),
            "{}: stage table must span the profile's whole ladder",
            p.name()
        );

        let ga = GaConfig::default().with_population(30).with_iterations(40);
        let outcome = search(&table, &ga);
        assert!(
            outcome.best_score.is_finite(),
            "{}: GA produced a non-finite score",
            p.name()
        );

        let exec = execute_strategy(
            &mut dev,
            workload.schedule(),
            &outcome.strategy,
            &records,
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert!(
            exec.result.duration_us > 0.0,
            "{}: execution made no progress",
            p.name()
        );
    }
}

#[test]
fn ga_strategy_beats_prior_and_executes_faithfully() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::vit_base(&cfg);
    let (mut dev, records) = baseline_profile(&workload, &cfg);

    // Build models from profiles at the two build frequencies.
    let mut profiles = vec![FreqProfile {
        freq: FreqMhz::new(1800),
        records: records.clone(),
    }];
    let run_lo = dev
        .run(workload.schedule(), &RunOptions::at(FreqMhz::new(1000)))
        .unwrap();
    profiles.push(FreqProfile {
        freq: FreqMhz::new(1000),
        records: run_lo.records,
    });
    let perf = PerfModelStore::build(&profiles, FitFunction::Quadratic).unwrap();
    let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
    let power = PowerModel::build(calib, cfg.voltage_curve, &profiles).unwrap();

    let pre = preprocess(&records, 5_000.0);
    let table = StageTable::build(&pre, &perf, &power, &cfg.freq_table).unwrap();
    let ga = GaConfig::default().with_population(60).with_iterations(150);
    let outcome = search(&table, &ga);

    // The search result must at least match the prior individual's score.
    let prior_genes: Vec<usize> = pre
        .stages()
        .iter()
        .map(|s| match s.kind {
            StageKind::Lfc => 6, // 1600 MHz
            StageKind::Hfc => 8, // 1800 MHz
        })
        .collect();
    let prior_score = npu_dvfs::score(
        &table.evaluate(&prior_genes),
        table.baseline().time_us,
        0.02,
    );
    assert!(
        outcome.best_score >= prior_score - 1e-12,
        "GA {} must not lose to the prior {}",
        outcome.best_score,
        prior_score
    );

    // Execute and verify the measured outcome tracks the prediction.
    let exec = execute_strategy(
        &mut dev,
        workload.schedule(),
        &outcome.strategy,
        &records,
        &ExecutorOptions::default(),
    )
    .unwrap();
    let measured_time = exec.result.duration_us;
    let predicted_time = outcome.best_eval.time_us;
    let gap = (measured_time - predicted_time).abs() / predicted_time;
    assert!(gap < 0.05, "prediction gap {gap:.4}");
    let measured_power = exec.result.avg_aicore_w();
    let predicted_power = outcome.best_eval.aicore_w();
    let pgap = (measured_power - predicted_power).abs() / predicted_power;
    assert!(pgap < 0.10, "power prediction gap {pgap:.4}");
}
