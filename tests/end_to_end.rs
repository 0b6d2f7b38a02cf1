//! Integration: the full Fig. 1 loop — calibrate, profile, model, search,
//! execute — on real generated workloads.

use dvfs_repro::prelude::*;

#[test]
fn calibrated_optimizer_saves_power_on_bert() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::bert(&cfg);
    let mut optimizer = EnergyOptimizer::calibrated(cfg).expect("calibration succeeds");
    let opts = OptimizerConfig::default();
    let report = optimizer
        .optimize(&workload, &opts)
        .expect("optimization succeeds");

    // Shape of the paper's Table 3 BERT row: a few percent perf loss buys
    // a double-digit AICore power cut and a smaller SoC cut.
    assert!(
        report.perf_loss() < 0.04,
        "perf loss {:.3} should stay near the 2% target",
        report.perf_loss()
    );
    assert!(
        report.aicore_reduction() > 0.05,
        "AICore reduction {:.3} should be substantial",
        report.aicore_reduction()
    );
    assert!(
        report.soc_reduction() > 0.01,
        "SoC reduction {:.3} should be positive",
        report.soc_reduction()
    );
    assert!(
        report.soc_reduction() < report.aicore_reduction(),
        "uncore floor dilutes SoC savings (paper Sect. 8.2)"
    );
    assert!(report.setfreq_count > 0, "fine-grained DVFS must switch");
}

#[test]
fn looser_targets_trade_more_performance_for_more_savings() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::vit_base(&cfg);
    let mut optimizer = EnergyOptimizer::calibrated(cfg).expect("calibration succeeds");
    let tight = OptimizerConfig::default().with_loss_target(0.02);
    let loose = OptimizerConfig::default().with_loss_target(0.10);
    let r_tight = optimizer.optimize(&workload, &tight).unwrap();
    let r_loose = optimizer.optimize(&workload, &loose).unwrap();
    // Predicted (model-side) savings must be monotone in the target;
    // measured savings should follow within noise.
    assert!(
        r_loose.predicted.aicore_w() <= r_tight.predicted.aicore_w() + 1e-9,
        "10% target should allow at least the 2% target's savings"
    );
    assert!(
        r_loose.aicore_reduction() >= r_tight.aicore_reduction() - 0.02,
        "measured: loose {:.3} vs tight {:.3}",
        r_loose.aicore_reduction(),
        r_tight.aicore_reduction()
    );
}

#[test]
fn full_loop_runs_and_reproduces_on_every_builtin_profile() {
    // The same calibrate → profile → model → search → execute loop must
    // complete on every checked-in device description — the Ascend
    // regression pin, the coarse-ladder V100 class and the sparse edge
    // part — and stay deterministic on each.
    for p in dvfs_repro::sim::profile::builtins() {
        let cfg = p.config().clone();
        let workload = models::tiny(&cfg);
        let run = || {
            let mut optimizer =
                EnergyOptimizer::calibrated(cfg.clone()).expect("calibration succeeds");
            let opts = OptimizerConfig::for_device(&cfg).with_fai_us(100.0);
            optimizer
                .optimize(&workload, &opts)
                .expect("optimization succeeds")
        };
        let a = run();
        let b = run();
        assert!(
            a.baseline.time_us > 0.0,
            "{}: baseline run must make progress",
            p.name()
        );
        assert!(
            a.perf_loss() < 0.5,
            "{}: perf loss {:.3} out of any reasonable band",
            p.name(),
            a.perf_loss()
        );
        assert_eq!(
            a.baseline,
            b.baseline,
            "{}: baseline not reproducible",
            p.name()
        );
        assert_eq!(
            a.optimized,
            b.optimized,
            "{}: optimized not reproducible",
            p.name()
        );
        assert_eq!(
            a.ga_trace,
            b.ga_trace,
            "{}: GA trace not reproducible",
            p.name()
        );
    }
}

#[test]
fn reports_are_reproducible_for_identical_seeds() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::tiny(&cfg);
    let run = || {
        let mut optimizer = EnergyOptimizer::calibrated(cfg.clone()).unwrap();
        let opts = OptimizerConfig::default().with_fai_us(100.0);
        optimizer.optimize(&workload, &opts).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.baseline, b.baseline);
    assert_eq!(a.optimized, b.optimized);
    assert_eq!(a.ga_trace, b.ga_trace);
}
