//! Integration: temperature-aware power-model accuracy (the paper's
//! Sect. 7.3 protocol at test scale).

use dvfs_repro::prelude::*;
use npu_power_model::{validation_errors, ErrorDistribution, HardwareCalibration, PowerDomain};

fn calibrated_device(cfg: &NpuConfig) -> (Device, HardwareCalibration) {
    let mut dev = Device::new(cfg.clone());
    let heat = models::operator_loop(ops::matmul(cfg, "Heat", 4096, 4096, 4096, 0.5), 24);
    let loads = vec![
        models::tanh_loop(cfg, 24).schedule().clone(),
        models::tiny(cfg).schedule().clone(),
        heat.schedule().clone(),
    ];
    let calib = npu_power_model::calibrate_device(
        &mut dev,
        heat.schedule(),
        &loads,
        &CalibrationOptions::default(),
    )
    .expect("calibration succeeds");
    (dev, calib)
}

fn profiles(dev: &mut Device, workload: &Workload, freqs: &[u32]) -> Vec<FreqProfile> {
    freqs
        .iter()
        .map(|&mhz| {
            let freq = FreqMhz::new(mhz);
            // Equilibrate at each frequency before recording (the paper's
            // "stable training" protocol).
            dev.warm_until_steady(workload.schedule(), freq).unwrap();
            let run = dev.run(workload.schedule(), &RunOptions::at(freq)).unwrap();
            FreqProfile {
                freq,
                records: run.records,
            }
        })
        .collect()
}

#[test]
fn power_model_predicts_holdout_frequencies() {
    let cfg = NpuConfig::ascend_like();
    let (mut dev, calib) = calibrated_device(&cfg);
    // Build from 1000 + 1800 (the paper's choice), validate elsewhere.
    for workload in [models::vit_base(&cfg), models::tanh_loop(&cfg, 40)] {
        let all = profiles(&mut dev, &workload, &[1000, 1800, 1200, 1500, 1700]);
        let model = PowerModel::build(calib, cfg.voltage_curve, &all[..2]).unwrap();
        let errors = validation_errors(&model, &all[2..], PowerDomain::AiCore, 20.0);
        let dist = ErrorDistribution::from_errors(&errors).expect("scored predictions");
        assert!(
            dist.mean < 0.10,
            "{}: mean AICore power error {:.4} (paper: 0.0462)",
            workload.name(),
            dist.mean
        );
        let within_10 = dist.within_1pct + dist.pct_1_to_5 + dist.pct_5_to_10;
        assert!(
            within_10 > 0.7,
            "{}: {:.2} of predictions within 10% (paper: >0.8)",
            workload.name(),
            within_10
        );
    }
}

#[test]
fn soc_predictions_also_hold() {
    let cfg = NpuConfig::ascend_like();
    let (mut dev, calib) = calibrated_device(&cfg);
    let workload = models::deit_small(&cfg);
    let all = profiles(&mut dev, &workload, &[1000, 1800, 1300, 1600]);
    let model = PowerModel::build(calib, cfg.voltage_curve, &all[..2]).unwrap();
    let errors = validation_errors(&model, &all[2..], PowerDomain::Soc, 20.0);
    let dist = ErrorDistribution::from_errors(&errors).unwrap();
    assert!(dist.mean < 0.08, "SoC mean error {:.4}", dist.mean);
}

#[test]
fn temperature_term_affects_holdout_error() {
    // The γ=0 ablation (paper: 4.62% -> 4.97%). At our noise level the
    // effect is small but the two models must genuinely differ, and the
    // temperature-aware model must not be significantly worse.
    let cfg = NpuConfig::ascend_like();
    let (mut dev, calib) = calibrated_device(&cfg);
    let workload = models::vit_base(&cfg);
    let all = profiles(&mut dev, &workload, &[1000, 1800, 1400]);
    let model = PowerModel::build(calib, cfg.voltage_curve, &all[..2]).unwrap();
    let blind = model.without_temperature();
    let e_full = validation_errors(&model, &all[2..], PowerDomain::AiCore, 20.0);
    let e_blind = validation_errors(&blind, &all[2..], PowerDomain::AiCore, 20.0);
    let m_full = ErrorDistribution::from_errors(&e_full).unwrap().mean;
    let m_blind = ErrorDistribution::from_errors(&e_blind).unwrap().mean;
    assert!(
        (m_full - m_blind).abs() > 1e-6,
        "ablation must change predictions"
    );
    assert!(
        m_full <= m_blind + 0.01,
        "temperature term should not hurt: {m_full:.4} vs {m_blind:.4}"
    );
}

#[test]
fn calibration_recovers_physical_constants() {
    let cfg = NpuConfig::ascend_like();
    let (_dev, calib) = calibrated_device(&cfg);
    assert!(
        (calib.gamma_aicore - cfg.gamma_aicore_w_per_k_v).abs() < 0.05,
        "gamma {} vs truth {}",
        calib.gamma_aicore,
        cfg.gamma_aicore_w_per_k_v
    );
    assert!(
        (calib.thermal.k_c_per_w - cfg.k_c_per_w).abs() < 0.005,
        "k {} vs truth {}",
        calib.thermal.k_c_per_w,
        cfg.k_c_per_w
    );

    // Without noise the procedure lands on the truth: γ is read off an
    // exact cool-down, and each `k` point sits at its load's steady state.
    // edge-npu's k and T0 keep a bias that does not come from the
    // warm-up: its heat load runs 0.16 s against τ = 0.5 s, so the
    // temperature a run ends at is not the mean its power implies. They
    // are held to the errors calibration had when it still simulated
    // 10 s of each load (1.402e-3 and 0.0349 °C).
    let mut misses = Vec::new();
    for p in dvfs_repro::sim::profile::builtins() {
        let (k_rel, t0_c) = match p.name() {
            "edge-npu" => (1.403e-3, 0.0349),
            _ => (1e-4, 0.01),
        };
        let mut cfg = p.config().clone();
        cfg.exec_noise_sd = 0.0;
        cfg.power_noise_sd = 0.0;
        cfg.temp_noise_sd_c = 0.0;
        let got = *EnergyOptimizer::calibrated(cfg.clone())
            .expect("calibration succeeds")
            .calibration();
        let truth = HardwareCalibration::ground_truth(&cfg);
        let rel = |got: f64, truth: f64| ((got - truth) / truth).abs();
        let rows = [
            (
                "k (relative)",
                rel(got.thermal.k_c_per_w, truth.thermal.k_c_per_w),
                k_rel,
            ),
            (
                "T0 (°C)",
                (got.thermal.ambient_c - truth.thermal.ambient_c).abs(),
                t0_c,
            ),
            (
                "gamma_aicore (relative)",
                rel(got.gamma_aicore, truth.gamma_aicore),
                1e-9,
            ),
            (
                "gamma_soc (relative)",
                rel(got.gamma_soc, truth.gamma_soc),
                1e-9,
            ),
        ];
        for (param, err, bound) in rows {
            if err.is_nan() || err > bound {
                misses.push(format!("{} {param}: {err:.4e} > {bound:e}", p.name()));
            }
        }
    }
    assert!(
        misses.is_empty(),
        "noise-free calibration misses: {misses:#?}"
    );
}

/// The activity factors of a `tiny` and a `tanh_loop` profile, with and
/// without the temperature term, fingerprinted by their bits and
/// compared with values recorded before the observations moved to one
/// flat op-major table.
#[test]
fn alpha_bits_are_pinned_with_and_without_temperature() {
    use dvfs_repro::core::cache::Fingerprint;
    let cfg = NpuConfig::ascend_like();
    let calib = npu_power_model::HardwareCalibration::ground_truth(&cfg);
    let mut got = Vec::new();
    for workload in [models::tiny(&cfg), models::tanh_loop(&cfg, 12)] {
        let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
        let opts = OptimizerConfig::for_device(&cfg).with_threads(1);
        let mut session = opt.session(&workload, &opts);
        let profiles = session.profile().unwrap();
        let model = PowerModel::build(calib, cfg.voltage_curve, profiles).unwrap();
        for m in [&model, &model.without_temperature()] {
            let mut fp = Fingerprint::new("alpha");
            fp.push_usize(m.len());
            for i in 0..m.len() {
                let op = m.op(i).unwrap();
                fp.push_f64(op.alpha_aicore);
                fp.push_f64(op.alpha_soc);
            }
            got.push(fp.finish());
        }
    }
    let want: [u64; 4] = [
        0x54c5_9229_e067_bf13,
        0xd314_ad84_c650_9f82,
        0xc0c7_e9d1_0388_64ed,
        0x2181_455e_4f36_da4a,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
