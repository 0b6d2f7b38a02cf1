//! Integration: performance-model accuracy on generated DNN workloads
//! (the paper's Sect. 7.2 protocol at test scale).

use dvfs_repro::prelude::*;
use npu_perf_model::{prediction_errors, ErrorStats, SHORT_OP_CUTOFF_US};

fn profiles_for(workload: &Workload, freqs: &[u32], cfg: &NpuConfig) -> Vec<FreqProfile> {
    let mut dev = Device::new(cfg.clone());
    // Warm-up to steady-state temperature, as the paper does.
    dev.warm_until_steady(workload.schedule(), FreqMhz::new(1800))
        .unwrap();
    freqs
        .iter()
        .map(|&mhz| {
            let freq = FreqMhz::new(mhz);
            let run = dev.run(workload.schedule(), &RunOptions::at(freq)).unwrap();
            FreqProfile {
                freq,
                records: run.records,
            }
        })
        .collect()
}

#[test]
fn func2_average_error_is_small_across_models() {
    // Paper: Func. 2 reaches 1.96% average error over >5000 ops; at test
    // scale (two models) we check the same order of magnitude.
    let cfg = NpuConfig::ascend_like();
    for workload in [models::deit_small(&cfg), models::alexnet(&cfg)] {
        let all = profiles_for(&workload, &[1000, 1800, 1200, 1400, 1600], &cfg);
        let store = PerfModelStore::build(&all[..2], FitFunction::Quadratic).unwrap();
        let errors = prediction_errors(&store, &all[2..], SHORT_OP_CUTOFF_US);
        let stats = ErrorStats::from_errors(&errors).expect("scored operators exist");
        assert!(
            stats.mean < 0.05,
            "{}: mean error {:.4} should be a few percent",
            workload.name(),
            stats.mean
        );
        assert!(
            ErrorStats::fraction_within(&errors, 0.10) > 0.9,
            "{}: >90% of predictions within 10%",
            workload.name()
        );
    }
}

#[test]
fn three_point_fits_work_for_all_functions() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::alexnet(&cfg);
    let all = profiles_for(&workload, &[1000, 1400, 1800, 1200, 1600], &cfg);
    for kind in [
        FitFunction::QuadraticFull,
        FitFunction::Quadratic,
        FitFunction::PowerLaw,
    ] {
        let store = PerfModelStore::build(&all[..3], kind).unwrap();
        let errors = prediction_errors(&store, &all[3..], SHORT_OP_CUTOFF_US);
        let stats = ErrorStats::from_errors(&errors).unwrap();
        assert!(
            stats.mean < 0.08,
            "{kind}: mean error {:.4} too large",
            stats.mean
        );
    }
}

#[test]
fn measured_cycles_are_convex_and_increasing_for_long_ops() {
    // The timeline conclusion (Sect. 4.2.5) survives measurement noise for
    // operators long enough to matter.
    let cfg = NpuConfig::builder().noise(0.0, 0.0, 0.0).build().unwrap();
    let workload = models::deit_small(&cfg);
    let freqs: Vec<u32> = (10..=18).map(|k| k * 100).collect();
    let profiles = profiles_for(&workload, &freqs, &cfg);
    let n_ops = profiles[0].records.len();
    for i in 0..n_ops {
        if profiles[0].records[i].dur_us < SHORT_OP_CUTOFF_US
            || !profiles[0].records[i].class.is_core_frequency_sensitive()
        {
            continue;
        }
        let cycles: Vec<f64> = profiles
            .iter()
            .map(|p| p.records[i].dur_us * p.freq.as_f64())
            .collect();
        assert!(
            npu_perf_model::pwl::is_convex(&cycles, 1e-6),
            "op {i} ({}) cycles not convex: {cycles:?}",
            profiles[0].records[i].name
        );
        assert!(
            npu_perf_model::pwl::is_non_decreasing(&cycles, 1e-6),
            "op {i} cycles not increasing"
        );
    }
}

#[test]
fn short_op_population_matches_paper_statistics() {
    // Paper: 58.3% of operators run under 20 µs yet contribute only 0.9%
    // of total execution time. Our suite reproduces the shape: a majority
    // of operators are short but their time share is tiny.
    let cfg = NpuConfig::ascend_like();
    let mut short = 0usize;
    let mut total = 0usize;
    let mut short_time = 0.0;
    let mut total_time = 0.0;
    let mut dev = Device::new(cfg.clone());
    for w in models::perf_model_suite(&cfg) {
        let run = dev
            .run(w.schedule(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        for r in &run.records {
            total += 1;
            total_time += r.dur_us;
            if r.dur_us < SHORT_OP_CUTOFF_US {
                short += 1;
                short_time += r.dur_us;
            }
        }
    }
    let frac_ops = short as f64 / total as f64;
    let frac_time = short_time / total_time;
    assert!(total > 5_000, "suite has {total} operators (paper: >5000)");
    assert!(
        (0.30..=0.75).contains(&frac_ops),
        "short-op fraction {frac_ops:.3} (paper: 0.583)"
    );
    assert!(
        frac_time < 0.05,
        "short-op time share {frac_time:.4} (paper: 0.009)"
    );
}
