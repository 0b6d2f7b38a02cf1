//! Substrate throughput: operators simulated per second by the virtual
//! device (the reason whole GPT-3 iterations and calibration sweeps are
//! cheap enough to run in tests), the thermal warm-up every profile
//! point starts with (`Device::warm_until_steady`, the paper's "once
//! stable training is achieved") on the request service's schedules at
//! the ladder's minimum and maximum frequency, and one served iteration
//! of a strategy: executed from scratch, or replayed from a compiled,
//! record-free plan as the serve loop does.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use npu_dvfs::{DvfsStrategy, Stage, StageKind};
use npu_exec::{execute_strategy, CompiledStrategy, ExecutorOptions};
use npu_sim::{
    Device, DriftModel, FreqMhz, NpuConfig, OpDescriptor, RunOptions, Scenario, Schedule,
    SetFreqCmd,
};
use npu_workloads::models;

/// 48 ops alternating compute-bound and memory-bound, as in the fleet
/// benchmark's schedule.
fn serve_schedule() -> Schedule {
    (0..48)
        .map(|i| {
            if i % 2 == 0 {
                OpDescriptor::compute(format!("Mm{i}"), Scenario::PingPongIndependent)
                    .blocks(4)
                    .ld_bytes_per_block(64.0 * 1024.0)
                    .core_cycles_per_block(30_000.0 + 2_000.0 * f64::from(i))
                    .activity(6.0)
            } else {
                OpDescriptor::compute(format!("Ld{i}"), Scenario::PingPongIndependent)
                    .blocks(32)
                    .ld_bytes_per_block(f64::from((4 << 20) + (i << 14)))
                    .l2_hit_rate(0.1)
                    .core_cycles_per_block(50.0)
                    .activity(2.0)
            }
        })
        .collect()
}

/// One stage per op, alternating between 1000 and 1800 MHz: 47
/// switches. Planned with no apply latency, each switch is triggered by
/// the op before its stage.
fn switch_every_op(records: &[npu_sim::OpRecord]) -> DvfsStrategy {
    let stages = records
        .iter()
        .enumerate()
        .map(|(i, r)| Stage {
            start_us: r.start_us,
            dur_us: r.dur_us,
            op_range: i..i + 1,
            kind: StageKind::Lfc,
        })
        .collect();
    let freqs = (0..records.len())
        .map(|i| FreqMhz::new(if i % 2 == 0 { 1000 } else { 1800 }))
        .collect();
    DvfsStrategy::new(stages, freqs)
}

fn bench_simulator(c: &mut Criterion) {
    let cfg = NpuConfig::ascend_like();
    let w = models::resnet50(&cfg);
    let n = w.op_count() as u64;

    let mut group = c.benchmark_group("device_run");
    group.throughput(Throughput::Elements(n));
    group.bench_function("resnet50_fixed_freq", |b| {
        let mut dev = Device::new(cfg.clone());
        let opts = RunOptions::at(FreqMhz::new(1800));
        b.iter(|| dev.run(w.schedule(), &opts).expect("run"));
    });
    group.bench_function("resnet50_with_setfreq", |b| {
        let mut dev = Device::new(cfg.clone());
        let cmds: Vec<SetFreqCmd> = (0..w.op_count())
            .step_by(40)
            .enumerate()
            .map(|(k, i)| SetFreqCmd {
                after_op: i,
                target: FreqMhz::new(if k % 2 == 0 { 1200 } else { 1800 }),
            })
            .collect();
        let opts = RunOptions::at(FreqMhz::new(1800)).with_setfreq(cmds);
        b.iter(|| dev.run(w.schedule(), &opts).expect("run"));
    });
    group.bench_function("resnet50_no_records", |b| {
        let mut dev = Device::new(cfg.clone());
        let opts = RunOptions::at(FreqMhz::new(1800)).without_records();
        b.iter(|| dev.run(w.schedule(), &opts).expect("run"));
    });
    group.finish();

    let mut group = c.benchmark_group("warm_until_steady");
    group.sample_size(10);
    for (name, w) in [
        ("tiny", models::tiny(&cfg)),
        ("tanh_loop12", models::tanh_loop(&cfg, 12)),
    ] {
        for f in [cfg.freq_table.min(), cfg.freq_table.max()] {
            group.bench_function(format!("{name}_{}mhz", f.mhz()), |b| {
                b.iter(|| {
                    let mut dev = Device::new(cfg.clone());
                    dev.warm_until_steady(w.schedule(), f).expect("warm-up")
                });
            });
        }
    }
    group.finish();

    // One served iteration under drift: `execute_strategy` places the
    // triggers and keeps the records every time; the serve loop compiles
    // the strategy once and replays it record-free.
    let schedule = serve_schedule();
    let drifting = || {
        let mut dev = Device::new(cfg.clone());
        dev.set_drift(DriftModel::ambient_ramp(-300.0, 15.0).with_gamma_aging(-9.0, 0.45));
        dev
    };
    let base = drifting()
        .run(&schedule, &RunOptions::at(FreqMhz::new(1800)))
        .expect("baseline run");
    let strategy = switch_every_op(&base.records);
    let opts = ExecutorOptions {
        planned_latency_us: Some(0.0),
        ..ExecutorOptions::default()
    };
    let mut group = c.benchmark_group("serve_iteration");
    group.throughput(Throughput::Elements(schedule.len() as u64));
    group.bench_function("execute_strategy_48_ops", |b| {
        let mut dev = drifting();
        b.iter(|| {
            execute_strategy(&mut dev, &schedule, &strategy, &base.records, &opts).expect("run")
        });
    });
    group.bench_function("compiled_record_free_48_ops", |b| {
        let mut dev = drifting();
        let plan = CompiledStrategy::compile(&dev, &schedule, &strategy, &base.records, &opts)
            .expect("compile")
            .record_free();
        assert_eq!(plan.setfreq().len(), schedule.len() - 1);
        b.iter(|| plan.run(&mut dev, &schedule).expect("run"));
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
