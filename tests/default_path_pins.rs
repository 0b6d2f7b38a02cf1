//! Integration: the default path's outputs, pinned to recorded values.
//!
//! Other suites compare worker counts, or warm sessions with cold ones.
//! This one fingerprints every float five scenarios produce by its bits
//! and compares with values recorded once. After a deliberate change of
//! outputs, run with `--nocapture` and copy the printed table.

use dvfs_repro::core::cache::Fingerprint;
use dvfs_repro::fault::FaultInjector;
use dvfs_repro::power_model::HardwareCalibration;
use dvfs_repro::prelude::*;
use dvfs_repro::sim::{DeviceHook, HookHandle};
use std::sync::{Arc, Mutex};

/// A scenario's name, its run, and its recorded fingerprint.
type Pin = (&'static str, fn(&mut Fingerprint), u64);

const PINS: [Pin; 5] = [
    ("calibration", calibration, 0x479B38B43BD2BDE1),
    ("cold_warm_session", cold_warm_session, 0x501AED5D76E53566),
    ("hooked_session", hooked_session, 0x87809A4A75B425CC),
    ("serve_ladder", serve_ladder, 0x21EDF331553C516A),
    ("faulted_fleet", faulted_fleet, 0xA6F0C1388337947D),
];

/// Records every `ProfileRun` duration and counts the profile phases.
#[derive(Default)]
struct Log(Mutex<(Vec<f64>, usize)>);

impl Observer for Log {
    fn on_event(&self, event: &Event) {
        let mut log = self.0.lock().unwrap();
        match event {
            Event::ProfileRun { duration_us, .. } => log.0.push(*duration_us),
            Event::PhaseStarted { phase } if *phase == Phase::Profile => log.1 += 1,
            _ => {}
        }
    }
}

/// A fast-switching, noise-free part with a short thermal constant.
fn fast_cfg() -> NpuConfig {
    NpuConfig::builder()
        .thermal_tau_us(2_000.0)
        .setfreq_latency_us(50.0)
        .noise(0.0, 0.0, 0.0)
        .build()
        .unwrap()
}

fn quick_opts() -> OptimizerConfig {
    OptimizerConfig::default()
        .with_threads(1)
        .with_fai_us(100.0)
}

/// Mixes `floats` into `fp` by bit pattern.
fn push(fp: &mut Fingerprint, floats: &[f64]) {
    floats.iter().for_each(|&v| fp.push_f64(v));
}

fn push_report(fp: &mut Fingerprint, r: &OptimizationReport) {
    let (b, o, p) = (&r.baseline, &r.optimized, &r.predicted);
    push(fp, &[b.time_us, b.aicore_w, b.soc_w, b.temp_c]);
    push(fp, &[o.time_us, o.aicore_w, o.soc_w, o.temp_c]);
    push(fp, &[p.time_us, p.aicore_energy_wus, p.soc_energy_wus]);
    push(fp, &r.ga_trace);
    fp.push_str(&format!("{} {}", r.stage_count, r.setfreq_count));
}

fn calibration(fp: &mut Fingerprint) {
    let opt = EnergyOptimizer::calibrated(NpuConfig::ascend_like()).unwrap();
    let c = opt.calibration();
    let (ai, soc, th) = (&c.aicore_idle, &c.soc_idle, &c.thermal);
    push(fp, &[ai.beta, ai.theta, soc.beta, soc.theta, th.ambient_c]);
    push(fp, &[c.gamma_aicore, c.gamma_soc, th.k_c_per_w]);
}

fn cold_warm_session(fp: &mut Fingerprint) {
    let cfg = NpuConfig::ascend_like();
    let w = models::tiny(&cfg);
    let cache = ArtifactCache::new();
    for _ in 0..2 {
        let calib = HardwareCalibration::ground_truth(&cfg);
        let mut opt = EnergyOptimizer::new(Device::new(cfg.clone()), calib);
        let opts = quick_opts();
        let mut session = opt.session(&w, &opts).with_cache(cache.clone());
        push_report(fp, &session.report().unwrap());
        for r in session.profiles().unwrap().iter().flat_map(|p| &p.records) {
            let q = &r.ratios;
            push(fp, &[r.start_us, r.dur_us, r.aicore_w, r.soc_w, r.temp_c]);
            push(fp, &[q.cube, q.vector, q.scalar, q.mte1, q.mte2, q.mte3]);
            push(fp, &[r.traffic_bytes, f64::from(r.freq_mhz.mhz())]);
        }
        fp.push_str(&format!("{:?}", cache.stats()));
    }
}

fn hooked_session(fp: &mut Fingerprint) {
    let cfg = NpuConfig::ascend_like();
    let w = models::tiny(&cfg);
    let mut dev = Device::new(cfg.clone());
    let plan = FaultPlan::seeded(7)
        .perturb_records(0.3, 1.5)
        .drop_setfreq_first(1);
    let hook: Arc<Mutex<dyn DeviceHook>> = Arc::new(Mutex::new(FaultInjector::new(plan)));
    dev.set_hook(HookHandle::from_arc(hook));
    let log = Arc::new(Log::default());
    let mut opt = EnergyOptimizer::new(dev, HardwareCalibration::ground_truth(&cfg))
        .with_observer(ObserverHandle::from_arc(log.clone()));
    push_report(fp, &opt.session(&w, &quick_opts()).report().unwrap());
    let (durations, _) = &*log.0.lock().unwrap();
    assert_eq!(durations.len(), 2, "one ProfileRun per build frequency");
    push(fp, durations);
}

fn serve_ladder(fp: &mut Fingerprint) {
    let cfg = fast_cfg();
    let w = models::tiny(&cfg);
    let calib = HardwareCalibration::ground_truth(&cfg);
    let mut opt = EnergyOptimizer::new(Device::with_seed(cfg, 42), calib);
    let drift = DriftModel::ambient_ramp(-300.0, 15.0).with_gamma_aging(-9.0, 0.45);
    opt.device_mut().set_drift(drift);
    let log = Arc::new(Log::default());
    opt.set_observer(ObserverHandle::from_arc(log.clone()));
    let serve = ServeOptions {
        iterations: 32,
        ladder_freqs: vec![FreqMhz::new(1400)],
        // Any fit error escalates: re-profile, then re-fit again.
        fit_error_escalation: 0.0,
        ..ServeOptions::default()
    };
    let out = ServeRuntime::builder(&mut opt, &w)
        .with_config(quick_opts().with_loss_target(0.5))
        .with_serve_options(serve)
        .try_build()
        .unwrap()
        .run()
        .unwrap();
    for it in &out.iterations {
        push(fp, &[it.time_us, it.aicore_energy_wus, it.soc_energy_wus]);
        push(fp, &[it.temp_c, it.drift_score.unwrap_or(-1.0)]);
    }
    fp.push_str(&format!("{} {:?}", out.swaps, out.degradation));
    assert_eq!(out.swaps, 1, "the drift must trigger one swap");
    let (_, profile_phases) = *log.0.lock().unwrap();
    assert_eq!(profile_phases, 3, "initial profile, ladder, escalation");
}

fn faulted_fleet(fp: &mut Fingerprint) {
    let cfg = fast_cfg();
    let plan = FleetFaultPlan::seeded(5)
        .crash_at(1, 1)
        .with_device_plan(2, FaultPlan::seeded(5).delay_setfreq(4_000.0))
        .hang_reopt_at(2, 2);
    let out = FleetController::new(cfg.clone(), models::tiny(&cfg))
        .with_devices(4)
        .with_epochs(3)
        .with_epoch_iterations(12)
        .with_config(quick_opts().with_loss_target(0.5))
        .with_fault_plan(plan)
        .run()
        .unwrap();
    // The crash draws a quarantine; the hung ladder falls back.
    assert!(out.quarantines > 0 && out.per_device[2].fell_back);
    fp.push_u64(out.digest);
}

#[test]
fn default_path_outputs_match_the_recorded_pins() {
    let mut diverged = Vec::new();
    for (name, scenario, pin) in PINS {
        let mut fp = Fingerprint::new(name);
        scenario(&mut fp);
        println!("    (\"{name}\", {name}, 0x{:016X}),", fp.finish());
        diverged.extend((fp.finish() != pin).then_some(name));
    }
    assert!(diverged.is_empty(), "diverged from the pins: {diverged:?}");
}
