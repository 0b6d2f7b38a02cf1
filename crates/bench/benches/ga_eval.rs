//! Sect. 8.1 throughput claim: model-based policy evaluation is fast
//! enough to assess tens of thousands of strategies in minutes (the paper
//! evaluates a GPT-3 policy "in just milliseconds" and 20,000 strategies
//! within 5 minutes; a model-free approach would manage ~30 in the same
//! time).
//!
//! Besides the criterion groups, this bench self-times the evaluation
//! paths over an identical clone-chain genome stream — full
//! re-evaluation, incremental re-evaluation, and block-sum scoring over
//! the genome pool ([`GenomePool::evaluate`]) — plus pool scoring over a
//! GA-lineage replay (each generation bred from the last by cross-pool
//! copy, suffix swap and point mutation, the path the GA runs), and
//! writes the measured policies/sec to `BENCH_ga_eval.json` at the
//! workspace root so CI and EXPERIMENTS.md can consume the numbers
//! without scraping bench output. Alongside throughput it records three
//! correctness artifacts that `bench_gate` checks: pool scores on both
//! streams are bit-identical to the reference full evaluation, a warm
//! pool-scoring pass performs zero heap allocations (counted by a
//! wrapping global allocator), and the exact Pareto-DP oracle certifies
//! the GA's result on a small schedule with an optimality gap of
//! exactly `0.0`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use npu_bench::report::{self, Report, Value};
use npu_bench::{build_models, steady_profiles};
use npu_dvfs::{
    exact, preprocess::preprocess, score, search, serving_search, GaConfig, GenomePool,
    IncrementalEval, Stage, StageKind, StageTable, ThermalCoupling,
};
use npu_obs::ObserverHandle;
use npu_perf_model::FitFunction;
use npu_sim::{Device, FreqMhz, NpuConfig};
use npu_workloads::models;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation (and reallocation) so the bench can assert
/// the warm pool-scoring path never touches the heap.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn gpt3_table() -> StageTable {
    let cfg = NpuConfig::ascend_like();
    let w = models::gpt3(&cfg);
    let mut dev = Device::new(cfg.clone());
    let profiles = steady_profiles(&mut dev, &w, &[1800, 1000]);
    let (perf, power) = build_models(&cfg, &profiles, FitFunction::Quadratic);
    let pre = preprocess(&profiles[0].records, 5_000.0);
    StageTable::build(&pre, &perf, &power, &cfg.freq_table).expect("table")
}

/// A small synthetic schedule the exact oracle certifies (no thermal
/// coupling): the same shape as the GA unit tests — memory-bound stages
/// whose time is nearly flat in frequency, compute-bound stages with
/// time ~ 1/f, and power rising quadratically.
fn certified_table(n_mem: usize, n_cpu: usize) -> StageTable {
    let freqs: Vec<FreqMhz> = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
    let mut stages = Vec::new();
    let mut time = Vec::new();
    let mut ea = Vec::new();
    let mut es = Vec::new();
    let mut t0 = 0.0;
    for i in 0..n_mem + n_cpu {
        let mem = i < n_mem;
        let dur = 10_000.0;
        stages.push(Stage {
            start_us: t0,
            dur_us: dur,
            op_range: i..i + 1,
            kind: if mem { StageKind::Lfc } else { StageKind::Hfc },
        });
        t0 += dur;
        let mut trow = Vec::new();
        let mut arow = Vec::new();
        let mut srow = Vec::new();
        for &f in &freqs {
            let x = f.as_f64() / 1800.0;
            let t = if mem {
                dur * (1.02 - 0.02 * x)
            } else {
                dur / x
            };
            let p = 12.0 + 30.0 * x * x;
            trow.push(t);
            arow.push(p * t);
            srow.push((p + 180.0) * t);
        }
        time.push(trow);
        ea.push(arow);
        es.push(srow);
    }
    StageTable::from_parts(freqs, stages, time, ea, es).expect("consistent shapes")
}

/// [`certified_table`] with the thermal fix point on, so the exact
/// solver cannot certify it and serves the Lagrangian ladder's best rung
/// (the path every calibrated device's table takes).
fn coupled_table(n_mem: usize, n_cpu: usize) -> StageTable {
    let coupling = ThermalCoupling {
        gamma_aicore: 0.05,
        gamma_soc: 0.1,
        k_c_per_w: 0.08,
    };
    let volts = (0..9).map(|k| 0.70 + 0.03 * f64::from(k)).collect();
    certified_table(n_mem, n_cpu).with_thermal_coupling(coupling, volts)
}

const LCG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The loss target every scoring path here runs at.
const TARGET: f64 = 0.02;

/// Scores every genome of `pool` into `scores` (cleared first) by
/// folding its inherited block sums, in index order: the pass the GA
/// runs on each generation. With a warm buffer it allocates nothing.
fn score_pool(pool: &GenomePool<'_>, baseline_time: f64, scores: &mut Vec<f64>) {
    scores.clear();
    scores.extend((0..pool.len()).map(|i| score(&pool.evaluate(i), baseline_time, TARGET)));
}

fn lcg_step(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

/// A GA-like genome stream: each genome is the previous one with 1–3
/// point mutations (what crossover offspring look like gene-wise), from
/// a deterministic LCG so every evaluation path sees identical work.
fn genome_stream(table: &StageTable, len: usize) -> Vec<Vec<usize>> {
    let (n, m) = (table.n_stages(), table.n_freqs());
    let mut state = LCG_SEED;
    let mut genes = vec![m - 1; n];
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        for _ in 0..1 + lcg_step(&mut state) % 3 {
            let s = lcg_step(&mut state) % n;
            genes[s] = lcg_step(&mut state) % m;
        }
        out.push(genes.clone());
    }
    out
}

/// Replays the [`genome_stream`] LCG directly into a [`GenomePool`]
/// arena: clone the previous genome inside the pool, apply the point
/// mutations via [`GenomePool::set_gene`]. Scores every generation
/// through [`score_pool`] into `scores`. Writing through `on_scores`
/// lets the caller collect or sum without allocating on the hot path.
fn replay_stream_through_pool(
    table: &StageTable,
    pool: &mut GenomePool<'_>,
    scores: &mut Vec<f64>,
    len: usize,
    generation: usize,
    mut on_scores: impl FnMut(&[f64]),
) {
    let (n, m) = (table.n_stages(), table.n_freqs());
    let baseline_time = table.baseline().time_us;
    let mut state = LCG_SEED;
    let mut carry = vec![m - 1; n];
    let mut scored = 0;
    pool.clear();
    while scored < len {
        let idx = if pool.is_empty() {
            pool.push_genes(&carry)
        } else {
            pool.push_clone(pool.len() - 1)
        };
        for _ in 0..1 + lcg_step(&mut state) % 3 {
            let s = lcg_step(&mut state) % n;
            let g = lcg_step(&mut state) % m;
            carry[s] = g;
            pool.set_gene(idx, s, g);
        }
        if pool.len() == generation || scored + pool.len() == len {
            score_pool(pool, baseline_time, scores);
            on_scores(scores);
            scored += pool.len();
            pool.clear();
        }
    }
}

/// Replays a GA lineage: a random first generation, then each
/// generation bred from the previous scored one — LCG-drawn parents
/// copied across pools, each pair crossed over by a suffix swap at an
/// LCG cut, and each child given one point mutation. Scores every
/// generation through [`score_pool`] into `scores` and hands the pool
/// and its scores to `on_scores`.
fn replay_lineage<'t>(
    table: &'t StageTable,
    pools: &mut [GenomePool<'t>; 2],
    scores: &mut Vec<f64>,
    generations: usize,
    population: usize,
    mut on_scores: impl FnMut(&GenomePool<'t>, &[f64]),
) {
    let (n, m) = (table.n_stages(), table.n_freqs());
    let baseline_time = table.baseline().time_us;
    let mut state = LCG_SEED;
    let [cur, next] = pools;
    let (mut cur, mut next) = (cur, next);
    cur.clear();
    let mut genes = vec![0; n];
    for _ in 0..population {
        genes.fill_with(|| lcg_step(&mut state) % m);
        cur.push_genes(&genes);
    }
    for _ in 0..generations {
        score_pool(cur, baseline_time, scores);
        on_scores(cur, scores);
        next.clear();
        while next.len() < population {
            let ca = next.push_copy_from(cur, lcg_step(&mut state) % population);
            let cb = next.push_copy_from(cur, lcg_step(&mut state) % population);
            next.swap_suffix(ca, cb, 1 + lcg_step(&mut state) % (n - 1));
            for child in [ca, cb] {
                let s = lcg_step(&mut state) % n;
                next.set_gene(child, s, lcg_step(&mut state) % m);
            }
        }
        next.truncate(population);
        std::mem::swap(&mut cur, &mut next);
    }
}

/// Policies/sec of one evaluation mode over the shared genome stream.
fn time_policies_per_sec(total_policies: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    total_policies as f64 / start.elapsed().as_secs_f64()
}

/// Self-timed comparison of the evaluation paths.
fn measure_eval_modes(table: &StageTable) -> Report {
    let smoke = report::smoke();
    let stream_len = if smoke { 600 } else { 20_000 };
    let generation = 200;
    let stream = genome_stream(table, stream_len);
    let baseline_time = table.baseline().time_us;
    let target = TARGET;

    // Full pass: what every individual cost before the engine.
    let mut sink = 0.0_f64;
    let full = time_policies_per_sec(stream.len(), || {
        for g in &stream {
            sink += score(&table.evaluate(g), baseline_time, target);
        }
    });

    // Incremental: one evaluator repositioned per genome.
    let incremental = time_policies_per_sec(stream.len(), || {
        let mut inc = IncrementalEval::new(table, &stream[0]);
        for g in &stream {
            inc.assign(g);
            sink += score(&inc.eval(), baseline_time, target);
        }
    });

    // Pool fast path over the clone chain: each genome is a clone of
    // the previous one plus 1-3 point mutations, so this stream is made
    // of near-duplicates no GA produces; kept for continuity.
    let mut pool = GenomePool::with_capacity(table, generation);
    let mut scores = Vec::with_capacity(generation);
    let pool_pps = time_policies_per_sec(stream.len(), || {
        replay_stream_through_pool(table, &mut pool, &mut scores, stream_len, generation, |s| {
            sink += s.iter().sum::<f64>();
        });
    });

    // The GA's own path: generations bred from their scored parents.
    let lineage_gens = stream_len / generation;
    let lineage_len = lineage_gens * generation;
    let mut pools = [
        GenomePool::with_capacity(table, generation),
        GenomePool::with_capacity(table, generation),
    ];
    let lineage_pps = time_policies_per_sec(lineage_len, || {
        replay_lineage(
            table,
            &mut pools,
            &mut scores,
            lineage_gens,
            generation,
            |_, s| {
                sink += s.iter().sum::<f64>();
            },
        );
    });
    criterion::black_box(sink);

    // Correctness artifact 1: pool scores on both streams are
    // bit-identical to the full reference evaluation.
    let reference: Vec<u64> = stream
        .iter()
        .map(|g| score(&table.evaluate(g), baseline_time, target).to_bits())
        .collect();
    let mut got: Vec<u64> = Vec::with_capacity(stream_len);
    replay_stream_through_pool(table, &mut pool, &mut scores, stream_len, generation, |s| {
        got.extend(s.iter().map(|x| x.to_bits()));
    });
    let mut pool_bit_identical = got == reference;
    let mut genes = Vec::new();
    replay_lineage(
        table,
        &mut pools,
        &mut scores,
        lineage_gens,
        generation,
        |pool, s| {
            for (i, x) in s.iter().enumerate() {
                pool.read_genes(i, &mut genes);
                let want = score(&table.evaluate(&genes), baseline_time, target);
                pool_bit_identical &= x.to_bits() == want.to_bits();
            }
        },
    );

    // Correctness artifact 2: a warm pool-scoring pass allocates
    // nothing. Warm-up establishes buffer capacities on one generation;
    // the measured pass scores a *different* generation.
    let mut scores = Vec::new();
    fn warm(pool: &mut GenomePool<'_>, generation: usize, salt: usize) {
        let (n, m) = (pool.n_stages(), pool.n_freqs());
        pool.clear();
        let genes = vec![m - 1; n];
        for i in 0..generation {
            let idx = pool.push_genes(&genes);
            pool.set_gene(idx, (salt + i) % n, (salt + i) % m);
            pool.set_gene(idx, (salt + i * 7) % n, (salt + i * 3) % m);
        }
    }
    warm(&mut pool, generation, 0);
    score_pool(&pool, baseline_time, &mut scores);
    sink += scores.iter().sum::<f64>();
    warm(&mut pool, generation, 1);
    let before = ALLOCS.load(Ordering::Relaxed);
    score_pool(&pool, baseline_time, &mut scores);
    sink += scores.iter().sum::<f64>();
    let pool_score_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    criterion::black_box(sink);

    // Correctness artifact 3: on a small thermally-uncoupled schedule
    // the exact Pareto-DP oracle certifies the true Eq. (17) optimum and
    // the GA (with its memetic refinement) reaches it exactly.
    let small = certified_table(6, 6);
    let oracle = exact::solve(&small, target);
    let small_ga = search(
        &small,
        &GaConfig::default()
            .with_population(60)
            .with_iterations(120)
            .with_loss_target(target),
    );
    let optimality_gap = oracle.score - small_ga.best_score;

    // End-to-end GA throughput (evaluations/sec including selection,
    // crossover, mutation and refinement).
    let cfg = GaConfig::default()
        .with_iterations(if smoke { 2 } else { 50 })
        .with_oracle_seeds(8);
    let start = Instant::now();
    let outcome = search(table, &cfg);
    let ga_secs = start.elapsed().as_secs_f64();

    // A fleet-shaped search: 24 stages, population 60 x 240
    // generations. Median of five runs.
    let fleet_table = certified_table(12, 12);
    let fleet_cfg = GaConfig::default()
        .with_population(60)
        .with_iterations(240)
        .with_loss_target(target);
    let mut fleet_secs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            criterion::black_box(search(&fleet_table, &fleet_cfg));
            start.elapsed().as_secs_f64()
        })
        .collect();
    fleet_secs.sort_by(f64::total_cmp);

    let ga_policies_per_sec = outcome.evaluations as f64 / ga_secs;
    let mut report = Report::new("ga_eval");
    report
        .field("workload", "gpt3".to_owned())
        .field("n_stages", table.n_stages())
        .field("n_freqs", table.n_freqs())
        .field("stream_len", stream_len)
        .fixed("full_policies_per_sec", full, 1)
        .fixed("incremental_policies_per_sec", incremental, 1)
        .fixed("pool_policies_per_sec", pool_pps, 1)
        .fixed("lineage_policies_per_sec", lineage_pps, 1)
        .fixed("incremental_speedup", incremental / full, 2)
        .field("pool_bit_identical", pool_bit_identical)
        .field("pool_score_allocs", pool_score_allocs)
        .field("optimality_gap", Value::Exact(optimality_gap))
        .field("oracle_certified", oracle.certified)
        .field("ga_search_evaluations", outcome.evaluations)
        .fixed("ga_search_secs", ga_secs, 3)
        .fixed("ga_search_policies_per_sec", ga_policies_per_sec, 1)
        .fixed("ga_search_24_stages_secs", fleet_secs[2], 4);
    report
}

fn bench_ga(c: &mut Criterion) {
    let table = gpt3_table();
    let genes: Vec<usize> = (0..table.n_stages()).map(|i| i % table.n_freqs()).collect();

    let mut group = c.benchmark_group("policy_evaluation");
    group.throughput(Throughput::Elements(1));
    group.bench_function("full_evaluate_one_gpt3_policy", |b| {
        b.iter(|| table.evaluate(&genes));
    });
    group.bench_function("incremental_flip_and_eval", |b| {
        let mut inc = IncrementalEval::new(&table, &genes);
        let mut g = 0;
        b.iter(|| {
            g = (g + 1) % table.n_freqs();
            inc.set_gene(0, g);
            inc.eval()
        });
    });
    group.bench_function("incremental_probe", |b| {
        let inc = IncrementalEval::new(&table, &genes);
        let mut g = 0;
        b.iter(|| {
            g = (g + 1) % table.n_freqs();
            inc.probe(0, g)
        });
    });
    group.finish();

    let stream = genome_stream(&table, 512);
    let baseline_time = table.baseline().time_us;
    let mut group = c.benchmark_group("population_scoring");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("full_512_policies", |b| {
        b.iter(|| {
            stream
                .iter()
                .map(|g| score(&table.evaluate(g), baseline_time, 0.02))
                .sum::<f64>()
        });
    });
    group.bench_function("pool_512_policies", |b| {
        let mut pool = GenomePool::with_capacity(&table, 512);
        let mut scores = Vec::with_capacity(512);
        b.iter(|| {
            let mut sum = 0.0;
            replay_stream_through_pool(&table, &mut pool, &mut scores, 512, 512, |s| {
                sum += s.iter().sum::<f64>();
            });
            sum
        });
    });
    group.finish();

    // The serving path's search on a coupled table: the Lagrangian
    // ladder alone, and `serving_search` (the ladder's best rung plus
    // coordinate ascent), on GPT-3 and on a 48-stage fleet-sized table.
    // `fleet_drift` searches its 48-stage tables at loss 0.5, where the
    // budget never binds, so the ladder neither ranks nor repairs.
    let fleet = coupled_table(24, 24);
    let null = ObserverHandle::null();
    let mut group = c.benchmark_group("serving_search");
    group.sample_size(10);
    for (name, t, loss) in [
        ("gpt3", &table, TARGET),
        ("48_stages", &fleet, TARGET),
        ("48_stages_loss_0.5", &fleet, 0.5),
    ] {
        group.bench_function(format!("lagrangian_seeds_{name}"), |b| {
            b.iter(|| exact::lagrangian_seeds(t, loss, 64));
        });
        group.bench_function(format!("serving_search_{name}"), |b| {
            b.iter(|| serving_search(t, loss, &[], &null));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ga_search");
    group.sample_size(10);
    group.bench_function("gpt3_pop200_iters50", |b| {
        let cfg = GaConfig::default().with_iterations(50).with_oracle_seeds(8);
        b.iter(|| search(&table, &cfg));
    });
    group.finish();

    // Machine-readable summary at the workspace root. Smoke runs write a
    // sibling `.smoke.json` (checked by `bench_gate ga_eval`, then removed
    // by scripts/check.sh) and leave the checked-in full run untouched.
    measure_eval_modes(&table).write(report::smoke());
}

criterion_group!(benches, bench_ga);
criterion_main!(benches);
