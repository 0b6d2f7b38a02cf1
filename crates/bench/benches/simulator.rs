//! Substrate throughput: operators simulated per second by the virtual
//! device (the reason whole GPT-3 iterations and calibration sweeps are
//! cheap enough to run in tests), and the thermal warm-up every profile
//! point starts with (`Device::warm_until_steady`, the paper's "once
//! stable training is achieved") on the request service's schedules at
//! the ladder's minimum and maximum frequency.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use npu_sim::{Device, FreqMhz, NpuConfig, RunOptions, SetFreqCmd};
use npu_workloads::models;

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
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
