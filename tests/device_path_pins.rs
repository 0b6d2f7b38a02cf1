//! Integration: the device loop's outputs, pinned to recorded values.
//!
//! Each case records one run on every built-in device profile, twice:
//! on a device warmed to its thermal steady state with
//! `warm_until_steady`, and on a cold device with no warm-up. The
//! fingerprint takes the bits of every float the recorded run returns:
//! duration, energies, end temperature, records, telemetry and the
//! frequency trace; the warmed column also takes the warm-up's end
//! temperature and clock. The cold column pins the device loop alone, so
//! a change to the warm-up moves only the warmed column. After a
//! deliberate change of outputs, run with `--nocapture` and copy the
//! printed table.
//!
//! A record-free run ([`RecordMode::Discard`]) is compared with a
//! recorded one in five of the cases (plain, SetFreq mid-op, drift,
//! telemetry and a fault hook), and pinned on the drift case, the path a
//! served iteration takes.

use dvfs_repro::core::cache::Fingerprint;
use dvfs_repro::fault::FaultInjector;
use dvfs_repro::prelude::*;
use dvfs_repro::sim::{DeviceHook, HookHandle, OpClass, RecordMode, RunResult, SetFreqCmd};
use std::sync::{Arc, Mutex};

/// A case's device set-up and run options.
type Setup = fn(&mut Device, &Schedule) -> RunOptions;

/// A case's name, its set-up, and its recorded fingerprints: warmed,
/// then cold.
type Pin = (&'static str, Setup, u64, u64);

const PINS: [Pin; 7] = [
    ("plain", plain, 0xBF76893B45886301, 0xEE2253BAFCC74596),
    (
        "setfreq_mid_op",
        setfreq_mid_op,
        0x3B8AE08E1CB58FB5,
        0x1F4EDF0A92A9FFA3,
    ),
    ("drift", drift, 0x32E329D9E56C43C0, 0x538C546F8937EB09),
    (
        "uncore_scale",
        uncore_scale,
        0xD9742F3567F24DFE,
        0xAE45FEE6013944A3,
    ),
    (
        "telemetry",
        telemetry,
        0x7FBF523BA405EF3D,
        0x6C4C6CA338D1412D,
    ),
    (
        "fault_hook",
        fault_hook,
        0x9130DE5652297ED2,
        0x172F15D888DF2FAF,
    ),
    (
        "record_free",
        record_free,
        0x5CE1E1ACB82A3552,
        0x7FDED913ABE0D7F4,
    ),
];

/// The workload: `models::tiny` (compute ops and an idle gap) plus a
/// communication op with a core-scaled share.
fn schedule(cfg: &NpuConfig) -> Schedule {
    let mut s = models::tiny(cfg).schedule().clone();
    s.push(OpDescriptor::host("AllReduce", OpClass::Communication, 400.0).host_core_scaled(0.3));
    s
}

fn mid(dev: &Device) -> FreqMhz {
    let freqs: Vec<FreqMhz> = dev.config().freq_table.iter().collect();
    freqs[freqs.len() / 2]
}

fn plain(dev: &mut Device, _: &Schedule) -> RunOptions {
    RunOptions::at(dev.config().freq_table.max())
}

/// Switches down and back up a few times; each switch applies one
/// SetFreq latency after its trigger op, inside a later op.
fn setfreq_cmds(dev: &Device, s: &Schedule) -> Vec<SetFreqCmd> {
    let (lo, hi) = (dev.config().freq_table.min(), dev.config().freq_table.max());
    (1..s.len())
        .step_by(3)
        .enumerate()
        .map(|(k, after_op)| SetFreqCmd {
            after_op,
            target: if k % 2 == 0 { lo } else { hi },
        })
        .collect()
}

fn setfreq_mid_op(dev: &mut Device, s: &Schedule) -> RunOptions {
    RunOptions::at(dev.config().freq_table.max()).with_setfreq(setfreq_cmds(dev, s))
}

fn drift(dev: &mut Device, s: &Schedule) -> RunOptions {
    dev.set_drift(
        DriftModel::ambient_ramp(3.0, 8.0)
            .with_gamma_aging(0.2, 0.4)
            .with_theta_aging(0.1, 0.3),
    );
    RunOptions::at(mid(dev)).with_setfreq(setfreq_cmds(dev, s))
}

fn uncore_scale(dev: &mut Device, _: &Schedule) -> RunOptions {
    dev.set_uncore_scale(0.7).unwrap();
    RunOptions::at(mid(dev))
}

fn telemetry(dev: &mut Device, s: &Schedule) -> RunOptions {
    RunOptions::at(dev.config().freq_table.min())
        .with_setfreq(setfreq_cmds(dev, s))
        .with_telemetry(37.0)
}

/// A delayed SetFreq, a dropped SetFreq and tampered records.
fn fault_hook(dev: &mut Device, s: &Schedule) -> RunOptions {
    let plan = FaultPlan::seeded(3)
        .drop_setfreq_first(1)
        .delay_setfreq(700.0)
        .perturb_records(0.3, 1.5);
    let hook: Arc<Mutex<dyn DeviceHook>> = Arc::new(Mutex::new(FaultInjector::new(plan)));
    dev.set_hook(HookHandle::from_arc(hook));
    RunOptions::at(dev.config().freq_table.max())
        .with_setfreq(setfreq_cmds(dev, s))
        .with_telemetry(50.0)
}

/// The `drift` run, keeping no records.
fn record_free(dev: &mut Device, s: &Schedule) -> RunOptions {
    RunOptions {
        records: RecordMode::Discard,
        ..drift(dev, s)
    }
}

/// Mixes `floats` into `fp` by bit pattern.
fn push(fp: &mut Fingerprint, floats: &[f64]) {
    floats.iter().for_each(|&v| fp.push_f64(v));
}

fn push_run(fp: &mut Fingerprint, r: &RunResult) {
    push(
        fp,
        &[
            r.duration_us,
            r.energy_aicore_j,
            r.energy_soc_j,
            r.end_temp_c,
        ],
    );
    for rec in &r.records {
        let q = &rec.ratios;
        push(
            fp,
            &[
                rec.start_us,
                rec.dur_us,
                rec.aicore_w,
                rec.soc_w,
                rec.temp_c,
            ],
        );
        push(fp, &[q.cube, q.vector, q.scalar, q.mte1, q.mte2, q.mte3]);
        push(fp, &[rec.traffic_bytes, f64::from(rec.freq_mhz.mhz())]);
    }
    for s in &r.telemetry {
        push(fp, &[s.t_us, s.aicore_w, s.soc_w, s.temp_c]);
    }
    for &(t, f) in &r.freq_trace {
        push(fp, &[t, f64::from(f.mhz())]);
    }
    fp.push_str(&format!(
        "{} {} {}",
        r.records.len(),
        r.telemetry.len(),
        r.freq_trace.len()
    ));
}

/// The case's fingerprint over every built-in profile, with or without
/// a warm-up before the recorded run.
fn fingerprint(name: &str, setup: Setup, warm: bool) -> u64 {
    let mut fp = Fingerprint::new(name);
    for profile in profile::builtins() {
        let cfg = profile.config().clone();
        let s = schedule(&cfg);
        let mut dev = Device::with_seed(cfg.clone(), 0x5EED);
        let opts = setup(&mut dev, &s);
        if warm {
            let warm_c = dev.warm_until_steady(&s, opts.initial_freq).unwrap();
            push(&mut fp, &[warm_c, dev.clock_us()]);
        }
        push_run(&mut fp, &dev.run(&s, &opts).unwrap());
    }
    fp.finish()
}

/// Compares one column of the table, printing the whole table.
fn check_column(warm: bool) {
    let mut diverged = Vec::new();
    for (name, setup, warm_pin, cold_pin) in PINS {
        let (w, c) = (
            fingerprint(name, setup, true),
            fingerprint(name, setup, false),
        );
        println!("    (\"{name}\", {name}, 0x{w:016X}, 0x{c:016X}),");
        let (got, pin) = if warm { (w, warm_pin) } else { (c, cold_pin) };
        diverged.extend((got != pin).then_some(name));
    }
    assert!(diverged.is_empty(), "diverged from the pins: {diverged:?}");
}

#[test]
fn device_loop_outputs_match_the_recorded_pins() {
    check_column(true);
}

#[test]
fn cold_device_runs_match_the_recorded_pins() {
    check_column(false);
}

/// The fingerprint of one run alone.
fn run_bits(r: &RunResult) -> u64 {
    let mut fp = Fingerprint::new("run");
    push_run(&mut fp, r);
    fp.finish()
}

/// Clock, temperature and frequency, by bits.
fn state_bits(dev: &Device) -> (u64, u64, FreqMhz) {
    (dev.clock_us().to_bits(), dev.temp_c().to_bits(), dev.freq())
}

#[test]
fn record_free_runs_match_recorded_runs() {
    let cases: [(&str, Setup); 5] = [
        ("plain", plain),
        ("setfreq_mid_op", setfreq_mid_op),
        ("drift", drift),
        ("telemetry", telemetry),
        ("fault_hook", fault_hook),
    ];
    for profile in profile::builtins() {
        let cfg = profile.config().clone();
        let s = schedule(&cfg);
        for (name, setup) in cases {
            for warm in [false, true] {
                // Two devices in the same state, each with its own hook.
                let [(mut kept, opts), (mut free, _)] = [(); 2].map(|()| {
                    let mut dev = Device::with_seed(cfg.clone(), 0x5EED);
                    let opts = setup(&mut dev, &s);
                    if warm {
                        dev.warm_until_steady(&s, opts.initial_freq).unwrap();
                    }
                    (dev, opts)
                });
                let case = format!("{} {name} warm={warm}", profile.name());
                let recorded = kept.run(&s, &opts).unwrap();
                let discarded = free
                    .run(
                        &s,
                        &RunOptions {
                            records: RecordMode::Discard,
                            ..opts.clone()
                        },
                    )
                    .unwrap();
                assert_eq!(recorded.records.len(), s.len(), "{case}");
                assert_eq!(discarded.records.capacity(), 0, "{case}");
                let without_records = RunResult {
                    records: Vec::new(),
                    ..recorded
                };
                assert_eq!(run_bits(&without_records), run_bits(&discarded), "{case}");
                assert_eq!(state_bits(&kept), state_bits(&free), "{case}");
                // Same noise stream and hook state: the next recorded runs
                // match bit for bit.
                let next = [&mut kept, &mut free].map(|dev| run_bits(&dev.run(&s, &opts).unwrap()));
                assert_eq!(next[0], next[1], "{case}");
            }
        }
    }
}
