//! Sect. 8.1 throughput claim: model-based policy evaluation is fast
//! enough to assess tens of thousands of strategies in minutes (the paper
//! evaluates a GPT-3 policy "in just milliseconds" and 20,000 strategies
//! within 5 minutes; a model-free approach would manage ~30 in the same
//! time).
//!
//! Besides the criterion groups, this bench self-times the three
//! evaluation paths over an identical GA-like genome stream — full
//! re-evaluation, incremental re-evaluation, and the memoized engine
//! over the bit-packed genome pool — and writes the measured
//! policies/sec to `BENCH_ga_eval.json` at the workspace root so CI and
//! EXPERIMENTS.md can consume the numbers without scraping bench
//! output. Alongside throughput it records three
//! correctness artifacts the check script gates on: pool scores are
//! bit-identical across 1/2/8 worker threads and to the reference full
//! evaluation, a warm single-threaded `score_pool` pass performs zero
//! heap allocations (counted by a wrapping global allocator), and the
//! exact Pareto-DP oracle certifies the GA's result on a small schedule
//! with an optimality gap of exactly `0.0`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use npu_bench::{build_models, steady_profiles};
use npu_dvfs::{
    exact, preprocess::preprocess, score, search, EvalEngine, GaConfig, GenomePool,
    IncrementalEval, Stage, StageKind, StageTable,
};
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

const LCG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

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
/// arena the way the GA builds generations: clone the previous genome
/// inside the pool, apply the point mutations via [`GenomePool::set_gene`].
/// Scores every generation through `engine.score_pool` and returns the
/// policies scored. Writing through `on_scores` lets the caller collect
/// or sum without allocating on the hot path.
fn replay_stream_through_pool(
    table: &StageTable,
    engine: &mut EvalEngine<'_>,
    pool: &mut GenomePool,
    len: usize,
    generation: usize,
    mut on_scores: impl FnMut(&[f64]),
) {
    let (n, m) = (table.n_stages(), table.n_freqs());
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
            on_scores(engine.score_pool(pool));
            scored += pool.len();
            pool.clear();
        }
    }
}

/// Policies/sec of one evaluation mode over the shared genome stream.
fn time_policies_per_sec(total_policies: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    total_policies as f64 / start.elapsed().as_secs_f64()
}

/// Self-timed comparison of the evaluation paths; returns JSON.
fn measure_eval_modes(table: &StageTable) -> String {
    let smoke = std::env::var("CRITERION_SMOKE").is_ok_and(|v| v == "1");
    let stream_len = if smoke { 600 } else { 20_000 };
    let generation = 200;
    let stream = genome_stream(table, stream_len);
    let baseline_time = table.baseline().time_us;
    let target = 0.02;
    let (n, m) = (table.n_stages(), table.n_freqs());

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

    // Pool fast path: generations live in the bit-packed arena, mutated
    // in place; fingerprints are maintained incrementally and scoring
    // extracts only the changed stages.
    let mut pool_engine = EvalEngine::new(table, baseline_time, target, 0);
    let mut pool = GenomePool::with_capacity(n, m, generation);
    let pool_pps = time_policies_per_sec(stream.len(), || {
        replay_stream_through_pool(
            table,
            &mut pool_engine,
            &mut pool,
            stream_len,
            generation,
            |s| {
                sink += s.iter().sum::<f64>();
            },
        );
    });
    criterion::black_box(sink);

    // Correctness artifact 1: pool scores are bit-identical to the full
    // reference evaluation at every worker count (fresh engine each, so
    // nothing is served from a previous run's memo).
    let reference: Vec<u64> = stream
        .iter()
        .map(|g| score(&table.evaluate(g), baseline_time, target).to_bits())
        .collect();
    let mut pool_bit_identical = true;
    for threads in [1usize, 2, 8] {
        let mut engine = EvalEngine::new(table, baseline_time, target, threads);
        let mut got: Vec<u64> = Vec::with_capacity(stream_len);
        replay_stream_through_pool(table, &mut engine, &mut pool, stream_len, generation, |s| {
            got.extend(s.iter().map(|x| x.to_bits()));
        });
        pool_bit_identical &= got == reference;
    }

    // Correctness artifact 2: a warm single-threaded `score_pool` pass
    // allocates nothing. Warm-up establishes buffer capacities and
    // memoizes one generation; the measured pass scores a *different*
    // (fresh, unmemoized) generation so the real evaluation path runs.
    let mut engine = EvalEngine::new(table, baseline_time, target, 1);
    fn warm(pool: &mut GenomePool, generation: usize, salt: usize) {
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
    sink += engine.score_pool(&pool).iter().sum::<f64>();
    warm(&mut pool, generation, 1);
    let before = ALLOCS.load(Ordering::Relaxed);
    sink += engine.score_pool(&pool).iter().sum::<f64>();
    let pool_score_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    criterion::black_box(sink);

    // Correctness artifact 3: on a small thermally-uncoupled schedule
    // the exact Pareto-DP oracle certifies the true Eq. (17) optimum and
    // the GA (with its memetic refinement) reaches it exactly.
    let small = certified_table(6, 6);
    let oracle = exact::solve(
        &small,
        &exact::ExactConfig::default().with_loss_target(target),
    );
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
    let cfg = GaConfig::default().with_iterations(if smoke { 2 } else { 50 });
    let start = Instant::now();
    let outcome = search(table, &cfg);
    let ga_secs = start.elapsed().as_secs_f64();

    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ga_eval\",\n",
            "  \"workload\": \"gpt3\",\n",
            "  \"n_stages\": {},\n",
            "  \"n_freqs\": {},\n",
            "  \"stream_len\": {},\n",
            "  \"full_policies_per_sec\": {:.1},\n",
            "  \"incremental_policies_per_sec\": {:.1},\n",
            "  \"pool_policies_per_sec\": {:.1},\n",
            "  \"incremental_speedup\": {:.2},\n",
            "  \"pool_bit_identical\": {},\n",
            "  \"pool_score_allocs\": {},\n",
            "  \"optimality_gap\": {:?},\n",
            "  \"oracle_certified\": {},\n",
            "  \"ga_search_evaluations\": {},\n",
            "  \"ga_search_unique_evaluations\": {},\n",
            "  \"ga_search_secs\": {:.3},\n",
            "  \"ga_search_policies_per_sec\": {:.1}\n",
            "}}\n"
        ),
        table.n_stages(),
        table.n_freqs(),
        stream_len,
        full,
        incremental,
        pool_pps,
        incremental / full,
        pool_bit_identical,
        pool_score_allocs,
        optimality_gap,
        oracle.certified,
        outcome.evaluations,
        outcome.unique_evaluations,
        ga_secs,
        outcome.evaluations as f64 / ga_secs,
    )
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
    group.bench_function("pool_512_policies_fresh_memo", |b| {
        let mut pool = GenomePool::with_capacity(table.n_stages(), table.n_freqs(), 512);
        b.iter(|| {
            let mut engine = EvalEngine::new(&table, baseline_time, 0.02, 0);
            let mut sum = 0.0;
            replay_stream_through_pool(&table, &mut engine, &mut pool, 512, 512, |s| {
                sum += s.iter().sum::<f64>();
            });
            sum
        });
    });
    group.finish();

    let mut group = c.benchmark_group("ga_search");
    group.sample_size(10);
    group.bench_function("gpt3_pop200_iters50", |b| {
        let cfg = GaConfig::default().with_iterations(50);
        b.iter(|| search(&table, &cfg));
    });
    group.finish();

    // Machine-readable summary at the workspace root. Smoke runs write a
    // sibling `.smoke.json` (validated then removed by scripts/check.sh)
    // and leave the checked-in full-run measurement untouched.
    let json = measure_eval_modes(&table);
    let smoke = std::env::var("CRITERION_SMOKE").is_ok_and(|v| v == "1");
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_ga_eval.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ga_eval.json")
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    }
    print!("{json}");
}

criterion_group!(benches, bench_ga);
criterion_main!(benches);
