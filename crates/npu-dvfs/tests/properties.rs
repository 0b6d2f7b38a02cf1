//! Property-based tests for preprocessing and the GA: stage partitioning,
//! FAI merging, duration conservation, and search-quality invariants on
//! random stage tables.

use proptest::prelude::*;

use npu_dvfs::{
    exact, preprocess::preprocess, score, search, serving_search, Evaluation, GaConfig, GenomePool,
    IncrementalEval, LossBudget, Stage, StageKind, StageTable, ThermalCoupling,
};
use npu_obs::ObserverHandle;
use npu_sim::{FreqMhz, OpClass, OpRecord, PipelineRatios, Scenario};
use rand::rngs::SmallRng;
use rand::Rng;

fn rec(index: usize, start: f64, dur: f64, sensitive: bool) -> OpRecord {
    let ratios = if sensitive {
        PipelineRatios {
            cube: 0.95,
            mte2: 0.3,
            ..PipelineRatios::default()
        }
    } else {
        PipelineRatios {
            mte2: 0.95,
            vector: 0.2,
            ..PipelineRatios::default()
        }
    };
    OpRecord {
        index,
        name: "X".into(),
        class: OpClass::Compute,
        scenario: Scenario::PingPongIndependent,
        start_us: start,
        dur_us: dur,
        freq_mhz: FreqMhz::new(1800),
        ratios,
        aicore_w: 30.0,
        soc_w: 200.0,
        temp_c: 60.0,
        traffic_bytes: 0.0,
    }
}

fn stream(spec: &[(f64, bool)]) -> Vec<OpRecord> {
    let mut t = 0.0;
    spec.iter()
        .enumerate()
        .map(|(i, &(dur, s))| {
            let r = rec(i, t, dur, s);
            t += dur;
            r
        })
        .collect()
}

prop_compose! {
    fn arb_profile()(spec in prop::collection::vec((10.0f64..5_000.0, any::<bool>()), 1..80))
        -> Vec<OpRecord> {
        stream(&spec)
    }
}

fn arb_table() -> impl Strategy<Value = StageTable> {
    arb_table_sized(2..24)
}

fn arb_table_sized(stages: std::ops::Range<usize>) -> impl Strategy<Value = StageTable> {
    prop::collection::vec((1_000.0f64..50_000.0, any::<bool>(), 5.0f64..40.0), stages)
        .prop_map(table_from_rows)
}

/// A 9-frequency memory/compute mix from `(duration µs, memory-bound,
/// active power W)` rows.
fn table_from_rows(rows: Vec<(f64, bool, f64)>) -> StageTable {
    table_from_rows_over((10..=18).map(|k| FreqMhz::new(k * 100)).collect(), rows)
}

/// [`table_from_rows`] over an arbitrary ascending frequency ladder.
fn table_from_rows_over(freqs: Vec<FreqMhz>, rows: Vec<(f64, bool, f64)>) -> StageTable {
    let mut stages = Vec::new();
    let mut time = Vec::new();
    let mut ea = Vec::new();
    let mut es = Vec::new();
    let mut t0 = 0.0;
    for (i, (dur, mem, p_active)) in rows.into_iter().enumerate() {
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
                dur * (1.05 - 0.05 * x)
            } else {
                dur / x
            };
            let p = 10.0 + p_active * x * x;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Preprocessing partitions the operator index space exactly once,
    /// regardless of profile shape or FAI.
    #[test]
    fn stages_partition_ops(records in arb_profile(), fai in 0.0f64..50_000.0) {
        let pre = preprocess(&records, fai);
        let mut next = 0;
        for s in pre.stages() {
            prop_assert_eq!(s.op_range.start, next);
            prop_assert!(s.op_range.end > s.op_range.start);
            next = s.op_range.end;
        }
        prop_assert_eq!(next, records.len());
    }

    /// Total profiled time is conserved through merging.
    #[test]
    fn duration_conserved(records in arb_profile(), fai in 0.0f64..50_000.0) {
        let total: f64 = records.iter().map(|r| r.dur_us).sum();
        let pre = preprocess(&records, fai);
        prop_assert!((pre.total_dur_us() - total).abs() < 1e-6 * total.max(1.0));
    }

    /// After merging, no stage is shorter than the FAI (unless the whole
    /// profile is one stage).
    #[test]
    fn fai_respected(records in arb_profile(), fai in 100.0f64..20_000.0) {
        let pre = preprocess(&records, fai);
        if pre.len() > 1 {
            for s in pre.stages() {
                prop_assert!(s.dur_us >= fai - 1e-9, "stage {} µs < FAI {fai}", s.dur_us);
            }
        }
    }

    /// A larger FAI never produces more candidate stages.
    #[test]
    fn coarser_fai_fewer_stages(records in arb_profile(), fai in 100.0f64..10_000.0) {
        let fine = preprocess(&records, fai);
        let coarse = preprocess(&records, 4.0 * fai);
        prop_assert!(coarse.len() <= fine.len());
    }

    /// The GA never returns something worse than the baseline individual
    /// and respects the predicted-performance bound direction: its best
    /// score is at least the baseline's score.
    #[test]
    fn ga_never_loses_to_baseline(table in arb_table(), seed in 0u64..50) {
        let mut cfg = GaConfig::default().with_population(24).with_iterations(30);
        cfg.seed = seed;
        let out = search(&table, &cfg);
        let baseline = table.baseline();
        let s_base = score(&baseline, baseline.time_us, cfg.perf_loss_target);
        prop_assert!(out.best_score >= s_base - 1e-12);
        // Score trace is monotone non-decreasing (elitism).
        for w in out.score_trace.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        // The winning strategy has one frequency per stage.
        prop_assert_eq!(out.strategy.len(), table.n_stages());
    }

    /// The incremental evaluator stays bit-identical (0 ULP) to a fresh
    /// full `StageTable::evaluate` after ANY sequence of gene flips —
    /// the invariant that lets the GA mix full, incremental and pool
    /// evaluation without perturbing the search.
    #[test]
    fn incremental_eval_bit_identical_to_full(
        table in arb_table(),
        raw_flips in prop::collection::vec((any::<usize>(), any::<usize>()), 0..64),
    ) {
        let n = table.n_stages();
        let m = table.n_freqs();
        let mut genes = vec![m - 1; n];
        let mut inc = IncrementalEval::new(&table, &genes);
        for (rs, rg) in raw_flips {
            let (s, g) = (rs % n, rg % m);
            inc.set_gene(s, g);
            genes[s] = g;
            let fast = inc.eval();
            let full = table.evaluate(&genes);
            prop_assert_eq!(fast.time_us.to_bits(), full.time_us.to_bits());
            prop_assert_eq!(
                fast.aicore_energy_wus.to_bits(),
                full.aicore_energy_wus.to_bits()
            );
            prop_assert_eq!(
                fast.soc_energy_wus.to_bits(),
                full.soc_energy_wus.to_bits()
            );
        }
    }

    /// Probing a single-gene variant equals committing the flip, for
    /// every (stage, gene) from a random starting genome.
    #[test]
    fn probe_bit_identical_to_commit(
        table in arb_table(),
        raw_start in prop::collection::vec(any::<usize>(), 24),
    ) {
        let n = table.n_stages();
        let m = table.n_freqs();
        let genes: Vec<usize> = (0..n).map(|i| raw_start[i % raw_start.len()] % m).collect();
        let inc = IncrementalEval::new(&table, &genes);
        for s in 0..n {
            for g in 0..m {
                let probed = inc.probe(s, g);
                let mut committed = genes.clone();
                committed[s] = g;
                let full = table.evaluate(&committed);
                prop_assert_eq!(probed.time_us.to_bits(), full.time_us.to_bits());
                prop_assert_eq!(
                    probed.aicore_energy_wus.to_bits(),
                    full.aicore_energy_wus.to_bits()
                );
            }
        }
    }

    /// Scoring a [`GenomePool`] genome from its block sums
    /// ([`GenomePool::evaluate`]) is bit-identical (0 ULP) to scoring it
    /// with a fresh full `StageTable::evaluate`. This pins the pool path
    /// the GA scores through — gene storage, block reduction and the
    /// block-sum fold — to the reference semantics.
    #[test]
    fn pool_scoring_bit_identical_to_full_evaluation(
        table in arb_table(),
        raw_genomes in prop::collection::vec(prop::collection::vec(any::<usize>(), 24), 1..120),
    ) {
        let n = table.n_stages();
        let m = table.n_freqs();
        let baseline = table.baseline().time_us;
        let loss = 0.02;
        let mut pool = GenomePool::new(&table);
        let mut expected = Vec::with_capacity(raw_genomes.len());
        for raw in &raw_genomes {
            let genes: Vec<usize> = (0..n).map(|i| raw[i % raw.len()] % m).collect();
            pool.push_genes(&genes);
            expected.push(score(&table.evaluate(&genes), baseline, loss));
        }
        prop_assert_eq!(pool.len(), expected.len());
        for (i, e) in expected.iter().enumerate() {
            let g = score(&pool.evaluate(i), baseline, loss);
            prop_assert_eq!(g.to_bits(), e.to_bits(), "genome {i}: {g} vs {e}");
        }
    }

    /// On thermally-uncoupled tables the Pareto-DP oracle certifies a
    /// true optimum: its score is ≥ every GA result and the returned
    /// genome achieves the reported score bit-exactly through the
    /// ordinary evaluation path.
    #[test]
    fn exact_oracle_certifies_and_dominates_the_ga(
        table in arb_table_sized(2..10),
        seed in 0u64..1_000,
    ) {
        let loss = 0.02;
        let out = exact::solve(&table, loss);
        prop_assert!(out.certified, "uncoupled table must certify");
        let achieved = score(&table.evaluate(&out.genes), table.baseline().time_us, loss);
        prop_assert_eq!(achieved.to_bits(), out.score.to_bits());
        let mut cfg = GaConfig::default().with_population(24).with_iterations(20);
        cfg.seed = seed;
        let ga = search(&table, &cfg);
        prop_assert!(
            out.score >= ga.best_score,
            "oracle {} below GA {}", out.score, ga.best_score
        );
    }

    /// A GA seeded from the Lagrangian ladder is guaranteed (elitism +
    /// score-monotone refinement) to finish at least as high as its best
    /// seed, on any table.
    #[test]
    fn oracle_seeded_ga_dominates_its_seeds(table in arb_table(), seed in 0u64..1_000) {
        let mut cfg = GaConfig::default()
            .with_population(40)
            .with_iterations(10)
            .with_oracle_seeds(4);
        cfg.seed = seed;
        let seeded = search(&table, &cfg);
        let best_seed = exact::lagrangian_seeds(&table, cfg.perf_loss_target, 4)
            .into_iter()
            .map(|s| s.score)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            seeded.best_score >= best_seed,
            "seeded GA {} below its own best seed {}", seeded.best_score, best_seed
        );
    }

    /// The serving search, on coupled and uncoupled tables with random
    /// warm seeds (empty, off the ladder, of any length) plus the
    /// uncoupled table's certified optimum as a strong seed: its result
    /// scores at least as high as every Lagrangian rung and every mapped
    /// seed, meets the budget T ≤ B/(1−ℓ) whenever any of those
    /// candidates does, no single-gene move from it scores higher without
    /// leaving that budget, and it reports a `best_eval` bit-identical to
    /// a full evaluation of its genes.
    #[test]
    fn serving_search_dominates_every_candidate(
        table in arb_table(),
        coupling in (any::<bool>(), 0.0f64..0.1, 0.0f64..0.15),
        loss in 0.0f64..0.3,
        raw_seeds in prop::collection::vec(prop::collection::vec(900u32..2_000, 0..30), 0..4),
    ) {
        let (coupled, gamma_aicore, k_c_per_w) = coupling;
        let mut seeds: Vec<Vec<FreqMhz>> = raw_seeds
            .iter()
            .map(|s| s.iter().map(|&mhz| FreqMhz::new(mhz)).collect())
            .collect();
        let optimum = exact::solve(&table, loss);
        if optimum.certified {
            seeds.push(optimum.genes.iter().map(|&g| table.freqs()[g]).collect());
        }
        let table = if coupled {
            let volts = (0..table.n_freqs()).map(|k| 0.70 + 0.03 * k as f64).collect();
            let coupling = ThermalCoupling { gamma_aicore, gamma_soc: 0.1, k_c_per_w };
            table.with_thermal_coupling(coupling, volts)
        } else {
            table
        };
        let out = serving_search(&table, loss, &seeds, &ObserverHandle::null());

        let (n, m) = (table.n_stages(), table.n_freqs());
        let baseline = table.baseline().time_us;
        let meets = |e: &Evaluation| LossBudget(loss).meets(baseline, e.time_us);
        // Candidates: every rung, and each non-empty seed mapped by
        // proportional index onto the lowest frequency at or above it.
        let mut candidates: Vec<Evaluation> = exact::lagrangian_seeds(&table, loss, usize::MAX)
            .into_iter()
            .map(|rung| rung.eval)
            .collect();
        for seed in seeds.iter().filter(|s| !s.is_empty()) {
            let genes: Vec<usize> = (0..n)
                .map(|i| {
                    let f = seed[i * seed.len() / n];
                    table.freqs().iter().position(|&g| g >= f).unwrap_or(m - 1)
                })
                .collect();
            candidates.push(table.evaluate(&genes));
        }
        for c in &candidates {
            let s = score(c, baseline, loss);
            prop_assert!(out.best_score >= s, "served {} below candidate {s}", out.best_score);
        }
        if candidates.iter().any(meets) {
            prop_assert!(meets(&out.best_eval), "served {:?} misses the budget", out.best_eval);
        }

        let genes: Vec<usize> = out
            .strategy
            .freqs()
            .iter()
            .map(|f| table.freqs().iter().position(|g| g == f).unwrap())
            .collect();
        let inc = IncrementalEval::new(&table, &genes);
        for s in 0..n {
            for g in 0..m {
                let moved = inc.probe(s, g);
                prop_assert!(
                    score(&moved, baseline, loss) <= out.best_score
                        || (meets(&out.best_eval) && !meets(&moved)),
                    "stage {s} to gene {g} scores higher"
                );
            }
        }
        let full = table.evaluate(&genes);
        prop_assert_eq!(full.time_us.to_bits(), out.best_eval.time_us.to_bits());
        prop_assert_eq!(
            full.aicore_energy_wus.to_bits(),
            out.best_eval.aicore_energy_wus.to_bits()
        );
        prop_assert_eq!(full.soc_energy_wus.to_bits(), out.best_eval.soc_energy_wus.to_bits());
        prop_assert_eq!(out.best_score.to_bits(), score(&full, baseline, loss).to_bits());
        prop_assert_eq!(out.score_trace, vec![out.best_score]);
        // The candidates, plus the ascent's probes on an uncertified answer.
        let scored = 1 + seeds.iter().filter(|s| !s.is_empty()).count();
        prop_assert!(out.evaluations >= scored);
    }

    /// On a thermally coupled table `solve` answers with the ladder rung
    /// that scores highest (the last of equal scores, as `max_by` picks),
    /// genes and evaluation bits included.
    #[test]
    fn coupled_solve_returns_the_best_ladder_rung(
        table in arb_table(),
        gamma_aicore in 0.01f64..0.1,
        k_c_per_w in 0.01f64..0.15,
        loss in 0.0f64..0.3,
    ) {
        let volts = (0..table.n_freqs()).map(|k| 0.70 + 0.03 * k as f64).collect();
        let coupling = ThermalCoupling { gamma_aicore, gamma_soc: 0.1, k_c_per_w };
        let table = table.with_thermal_coupling(coupling, volts);
        let out = exact::solve(&table, loss);
        let best = exact::lagrangian_seeds(&table, loss, 64)
            .into_iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .expect("a loss target below 1 yields rungs");
        prop_assert!(!out.certified);
        prop_assert_eq!(&out.genes, &best.genes);
        let bits = |e: &Evaluation| {
            [e.time_us, e.aicore_energy_wus, e.soc_energy_wus].map(f64::to_bits)
        };
        prop_assert_eq!(bits(&out.eval), bits(&best.eval));
        prop_assert_eq!(out.score.to_bits(), best.score.to_bits());
    }

    /// Score doubles exactly at the performance bound and decreases with
    /// power.
    #[test]
    fn score_structure(time in 50.0f64..1e6, power in 1.0f64..500.0, target in 0.005f64..0.2) {
        let eval_fast = npu_dvfs::Evaluation {
            time_us: time,
            aicore_energy_wus: power * time,
            soc_energy_wus: (power + 100.0) * time,
        };
        // Safely at the bound (tiny margin guards fp rounding of rel).
        let baseline = time * (1.0 - target) * (1.0 + 1e-9);
        let s = score(&eval_fast, baseline, target);
        let rel = baseline / time;
        prop_assert!((s - 2.0 * rel * rel / power).abs() < 1e-9 * s);
        // Just past the bound: bonus lost.
        let s_slow = score(&eval_fast, baseline * 0.999, target);
        prop_assert!(s_slow < s);
        // More power, lower score.
        let eval_hot = npu_dvfs::Evaluation {
            aicore_energy_wus: 2.0 * power * time,
            ..eval_fast
        };
        prop_assert!(score(&eval_hot, baseline, target) < s);
    }
}

/// FNV-1a over 64-bit words: a compact, platform-independent fingerprint
/// of a result's genes and float bits.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A deterministic 300-stage, thermally coupled memory/compute mix, the
/// size of table the ladder is pinned on. Stage shapes come from a fixed
/// SplitMix64 stream.
fn coupled_300_stage_table() -> StageTable {
    let ladder = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
    seeded_table(0x0DD5_EED5, 300, ladder, true)
}

/// A deterministic `n`-stage memory/compute mix over `freqs`, its stage
/// shapes drawn from a SplitMix64 stream seeded with `seed`. `coupled`
/// adds the thermal fix point.
fn seeded_table(seed: u64, n: usize, freqs: Vec<FreqMhz>, coupled: bool) -> StageTable {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows = (0..n)
        .map(|_| {
            let dur = 1_000.0 + 40_000.0 * unit();
            let mem = unit() < 0.45;
            (dur, mem, 5.0 + 35.0 * unit())
        })
        .collect();
    let volts = (0..freqs.len()).map(|k| 0.70 + 0.03 * k as f64).collect();
    let table = table_from_rows_over(freqs, rows);
    if !coupled {
        return table;
    }
    table.with_thermal_coupling(
        ThermalCoupling {
            gamma_aicore: 0.05,
            gamma_soc: 0.1,
            k_c_per_w: 0.08,
        },
        volts,
    )
}

/// Every rung's genes and evaluation/score bits, in order.
fn ladder_digest(seeds: &[exact::LagrangianSeed]) -> u64 {
    fingerprint(seeds.iter().flat_map(|s| {
        s.genes.iter().map(|&g| g as u64).chain([
            s.eval.time_us.to_bits(),
            s.eval.aicore_energy_wus.to_bits(),
            s.eval.soc_energy_wus.to_bits(),
            s.score.to_bits(),
        ])
    }))
}

/// Pins the Lagrangian ladder on a 300-stage table. Any change to the
/// sweep or the budget repair shows here.
#[test]
fn lagrangian_ladder_is_pinned_on_300_stages() {
    let table = coupled_300_stage_table();
    let seeds = exact::lagrangian_seeds(&table, 0.02, 64);
    let digest = ladder_digest(&seeds);
    assert_eq!(
        (seeds.len(), digest),
        (64, 0x2943_ba35_ef94_0189),
        "ladder digest {digest:#018x}"
    );
}

/// Pins the ladder at GPT-3's stage count, which pads the pairwise tree
/// to 1,024 leaves.
#[test]
fn lagrangian_ladder_is_pinned_on_960_stages() {
    let ladder = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
    let table = seeded_table(0x0960_5EED, 960, ladder, true);
    let seeds = exact::lagrangian_seeds(&table, 0.02, 64);
    let digest = ladder_digest(&seeds);
    assert_eq!(
        (seeds.len(), digest),
        (64, 0x02de_2505_563f_6c12),
        "ladder digest {digest:#018x}"
    );
}

/// Pins a short GA search seeded with 8 ladder rungs on 300 stages: the
/// winning strategy, its evaluation and score bits, the per-generation
/// trace and the evaluation count.
#[test]
fn oracle_seeded_search_is_pinned() {
    let table = coupled_300_stage_table();
    let cfg = GaConfig::default()
        .with_population(40)
        .with_iterations(20)
        .with_oracle_seeds(8);
    let out = search(&table, &cfg);
    let digest = fingerprint(
        out.strategy
            .freqs()
            .iter()
            .map(|f| u64::from(f.mhz()))
            .chain([
                out.best_eval.time_us.to_bits(),
                out.best_eval.aicore_energy_wus.to_bits(),
                out.best_eval.soc_energy_wus.to_bits(),
                out.best_score.to_bits(),
            ])
            .chain(out.score_trace.iter().map(|s| s.to_bits())),
    );
    assert_eq!(
        (out.evaluations, digest),
        (5_600, 0x1344_0c94_1061_4d1e),
        "search digest {digest:#018x}"
    );
}

/// A stage table for the ladder differential test, with the raw
/// per-cell time and AICore energy it was built from.
#[derive(Debug)]
struct LadderCase {
    table: StageTable,
    time: Vec<Vec<f64>>,
    ea: Vec<Vec<f64>>,
}

/// Non-finite cell values the generator mixes in (`-NaN` has its sign
/// bit set, which `total_cmp` orders below every other value).
const SPECIALS: [f64; 4] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];

/// Up to 40 stages × 9 frequencies of cells whose time is not monotone
/// in frequency. `quantized` draws time and energy from small integer
/// multiples, so many stages share an upgrade ratio. With `specials`,
/// one cell in 50 has a non-finite time or energy, and about one stage
/// in 16 is shaped so that its upgrade ratio is NaN while the rung's
/// total time is infinite rather than NaN, which keeps the repair
/// running. `coupled` turns on the thermal fix point.
fn arb_ladder_case() -> impl Strategy<Value = LadderCase> {
    (
        1usize..41,
        1usize..10,
        prop::collection::vec((1u32..17, 1u32..17, 0.5f64..2.0, 0u32..400), 40 * 9),
        prop::collection::vec(0u32..16, 40),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|(n, m, cells, traps, (quantized, specials, coupled))| {
            let (mut time, mut ea) = (Vec::new(), Vec::new());
            for s in 0..n {
                let (mut trow, mut arow) = (Vec::new(), Vec::new());
                for &(kt, ke, jitter, special) in &cells[s * 9..s * 9 + m] {
                    let (mut t, mut e) = if quantized {
                        (100.0 * f64::from(kt), 50.0 * f64::from(ke))
                    } else {
                        (
                            100.0 * f64::from(kt) * jitter,
                            50.0 * f64::from(ke) / jitter,
                        )
                    };
                    if specials && special < 8 {
                        let v = SPECIALS[special as usize % 4];
                        if special < 4 {
                            t = v;
                        } else {
                            e = v;
                        }
                    }
                    trow.push(t);
                    arow.push(e);
                }
                // Gene 0 is infinitely slow and ties every other gene at
                // an infinite λ-value, so the argmin keeps it; its upgrade
                // saves ∞ at ∞ cost, a NaN ratio.
                if specials && m >= 2 && traps[s] == 0 {
                    trow[0] = f64::INFINITY;
                    arow[0] = 50.0;
                    for e in &mut arow[1..] {
                        *e = f64::INFINITY;
                    }
                }
                time.push(trow);
                ea.push(arow);
            }
            ladder_case(time, ea, coupled)
        })
}

/// A [`LadderCase`] over `time` and `ea` (one row per stage, one column
/// per frequency from 1,000 MHz up in 100 MHz steps), with SoC energy
/// `1.5·e + 10·t`; `coupled` turns on the thermal fix point.
fn ladder_case(time: Vec<Vec<f64>>, ea: Vec<Vec<f64>>, coupled: bool) -> LadderCase {
    let m = time.first().map_or(1, Vec::len);
    let freqs: Vec<FreqMhz> = (0..m)
        .map(|k| FreqMhz::new(1000 + 100 * k as u32))
        .collect();
    let stages = (0..time.len())
        .map(|s| Stage {
            start_us: s as f64,
            dur_us: 1.0,
            op_range: s..s + 1,
            kind: if s % 2 == 0 {
                StageKind::Lfc
            } else {
                StageKind::Hfc
            },
        })
        .collect();
    let es = time
        .iter()
        .zip(&ea)
        .map(|(trow, arow)| {
            trow.iter()
                .zip(arow)
                .map(|(t, e)| 1.5 * e + 10.0 * t)
                .collect()
        })
        .collect();
    let mut table = StageTable::from_parts(freqs, stages, time.clone(), ea.clone(), es)
        .expect("consistent shapes");
    if coupled {
        let volts = (0..m).map(|k| 0.7 + 0.03 * k as f64).collect();
        table = table.with_thermal_coupling(
            ThermalCoupling {
                gamma_aicore: 0.05,
                gamma_soc: 0.1,
                k_c_per_w: 0.08,
            },
            volts,
        );
    }
    LadderCase { table, time, ea }
}

/// A 3-frequency table on whose sweep rounding in `e + λ * t` decides
/// argmins: 1–2 random probe stages, and for every same-sign slope of a
/// probe (where two of its genes cross) ten helper stages whose only
/// slope lies 1–5 ulps below or above it. Half the probes hold genes
/// whose times lie within a factor 1.001 of each other, so `λ·t` dwarfs
/// `e` and the gap between two genes' values moves by far less than an
/// ulp of them from rung to rung. A helper's genes `(t, e)` are `(2, 0)`,
/// `(1, L)` and `(1e9, 1e18)`: its one slope is `L`, and its slow third
/// gene puts the all-max baseline so far out that no rung is repaired.
fn arb_rounding_case() -> impl Strategy<Value = LadderCase> {
    let gene = (0.0f64..1.0, 1.0f64..1e3);
    let probe = (
        1.0f64..1e3,
        prop_oneof![Just(1.0), 1e-9f64..1e-3],
        (gene.clone(), gene.clone(), gene),
    );
    prop::collection::vec(probe, 1..3).prop_map(|probes| {
        let mut rows: Vec<[(f64, f64); 3]> = probes
            .into_iter()
            .map(|(base, spread, genes)| {
                let at = |(x, e): (f64, f64)| (base * (1.0 + spread * x), e);
                [at(genes.0), at(genes.1), at(genes.2)]
            })
            .collect();
        for p in 0..rows.len() {
            let probe = rows[p];
            for a in 0..3 {
                for b in a + 1..3 {
                    let (dt, de) = (probe[a].0 - probe[b].0, probe[b].1 - probe[a].1);
                    if !((dt > 0.0 && de > 0.0) || (dt < 0.0 && de < 0.0)) {
                        continue;
                    }
                    let crossing = (de / dt).to_bits();
                    for ulps in 1..=5 {
                        for bits in [crossing - ulps, crossing + ulps] {
                            rows.push([(2.0, 0.0), (1.0, f64::from_bits(bits)), (1e9, 1e18)]);
                        }
                    }
                }
            }
        }
        let time = rows
            .iter()
            .map(|r| r.iter().map(|g| g.0).collect())
            .collect();
        let ea = rows
            .iter()
            .map(|r| r.iter().map(|g| g.1).collect())
            .collect();
        ladder_case(time, ea, false)
    })
}

/// `exact::lagrangian_seeds` as first written, with the quadratic
/// budget repair: after every upgrade, rescan all stages for the best
/// time-saved-per-energy ratio and re-evaluate the whole table. The
/// sorted one-pass repair must reproduce it bit for bit.
fn reference_lagrangian_seeds(
    case: &LadderCase,
    loss: f64,
    max_seeds: usize,
) -> Vec<exact::LagrangianSeed> {
    let (table, time, ea) = (&case.table, &case.time, &case.ea);
    let n = table.n_stages();
    let m = table.n_freqs();
    assert!(loss < 1.0, "loss target must be below 1");
    if n == 0 || max_seeds == 0 {
        return Vec::new();
    }
    let baseline_time = table.baseline().time_us;
    let budget = baseline_time / (1.0 - loss);

    let mut lambdas = vec![0.0_f64];
    for s in 0..n {
        for a in 0..m {
            for b in (a + 1)..m {
                let (dt, de) = (time[s][a] - time[s][b], ea[s][b] - ea[s][a]);
                if (dt > 0.0 && de > 0.0) || (dt < 0.0 && de < 0.0) {
                    lambdas.push(de / dt);
                }
            }
        }
    }
    lambdas.retain(|l| l.is_finite() && *l >= 0.0);
    lambdas.sort_by(f64::total_cmp);
    lambdas.dedup();
    const MAX_LAMBDAS: usize = 192;
    let sweep: Vec<f64> = if lambdas.len() <= MAX_LAMBDAS {
        lambdas
    } else {
        (0..MAX_LAMBDAS)
            .map(|k| lambdas[k * (lambdas.len() - 1) / (MAX_LAMBDAS - 1)])
            .collect()
    };

    let min_time_gene: Vec<usize> = (0..n)
        .map(|s| {
            (0..m)
                .min_by(|&a, &b| time[s][a].total_cmp(&time[s][b]))
                .unwrap_or(m - 1)
        })
        .collect();

    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut genes = vec![0usize; n];
    for &lambda in sweep.iter().chain(std::iter::once(&f64::MAX)) {
        for (s, g) in genes.iter_mut().enumerate() {
            let value = |x: usize| {
                if lambda == f64::MAX {
                    time[s][x]
                } else {
                    ea[s][x] + lambda * time[s][x]
                }
            };
            *g = (0..m)
                .min_by(|&a, &b| value(a).total_cmp(&value(b)))
                .unwrap_or(m - 1);
        }
        let mut eval = table.evaluate(&genes);
        while eval.time_us > budget {
            let mut best: Option<(usize, f64)> = None;
            for s in 0..n {
                let (g, fast) = (genes[s], min_time_gene[s]);
                if g == fast {
                    continue;
                }
                let saved = time[s][g] - time[s][fast];
                if saved <= 0.0 {
                    continue;
                }
                let cost = (ea[s][fast] - ea[s][g]).max(1e-12);
                let ratio = saved / cost;
                if best.as_ref().is_none_or(|&(_, r)| ratio > r) {
                    best = Some((s, ratio));
                }
            }
            let Some((s, _)) = best else { break };
            genes[s] = min_time_gene[s];
            eval = table.evaluate(&genes);
        }
        if seen.insert(genes.clone()) {
            out.push(exact::LagrangianSeed {
                genes: genes.clone(),
                eval,
                score: score(&eval, baseline_time, loss),
            });
        }
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.genes.cmp(&b.genes)));
    out.truncate(max_seeds);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted one-pass budget repair returns exactly the rungs of
    /// the quadratic rescan: same genes, same evaluation and score bits,
    /// same order — across ratio ties, non-monotone rows, thermal
    /// coupling, non-finite cells and loss targets from 0 upward.
    #[test]
    fn lagrangian_seeds_match_the_quadratic_repair(
        case in arb_ladder_case(),
        loss in prop_oneof![Just(0.0), 0.0f64..0.05, 0.05f64..0.9],
    ) {
        ladder_matches_reference(&case, loss)?;
    }

    /// The ladder carries a stage's argmin across rungs only where no
    /// rounding can move it: on sweeps with rungs a few ulps either side
    /// of every probe crossing, every rung matches the full rescan.
    #[test]
    fn lagrangian_skip_holds_where_rounding_decides(case in arb_rounding_case()) {
        ladder_matches_reference(&case, 0.02)?;
    }
}

/// Compares every rung of `exact::lagrangian_seeds` with
/// [`reference_lagrangian_seeds`]: same genes, same evaluation and score
/// bits, same order.
fn ladder_matches_reference(case: &LadderCase, loss: f64) -> Result<(), String> {
    let got = exact::lagrangian_seeds(&case.table, loss, usize::MAX);
    let want = reference_lagrangian_seeds(case, loss, usize::MAX);
    prop_assert_eq!(got.len(), want.len());
    // Rust leaves the sign and payload of a NaN result unspecified, so a
    // NaN compares as one value; every other float by its bits.
    let bits = |s: &exact::LagrangianSeed| {
        [
            s.eval.time_us,
            s.eval.aicore_energy_wus,
            s.eval.soc_energy_wus,
            s.score,
        ]
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
    };
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(&g.genes, &w.genes, "rung {i}: genes differ");
        prop_assert_eq!(
            bits(g),
            bits(w),
            "rung {i}: evaluation or score bits differ"
        );
    }
    Ok(())
}

/// `(s, err)`: `a + b` rounded, and its error, so `s + err = a + b`
/// exactly (Knuth's TwoSum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let b_part = s - a;
    (s, (a - (s - b_part)) + (b - b_part))
}

/// `(p, err)`: `a * b` rounded, and its error through one fused
/// multiply-add, so `p + err = a·b` exactly while nothing underflows.
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    (p, a.mul_add(b, -p))
}

/// The sign of the exact sum of `terms`. Shewchuk's grow-expansion keeps
/// the running sum as non-overlapping components of increasing
/// magnitude, and the largest nonzero component carries the sign.
fn exact_sum_sign(terms: &[f64]) -> std::cmp::Ordering {
    let mut expansion: Vec<f64> = Vec::new();
    for &term in terms {
        let mut grown = Vec::with_capacity(expansion.len() + 1);
        let mut q = term;
        for &e in &expansion {
            let (sum, err) = two_sum(q, e);
            if err != 0.0 {
                grown.push(err);
            }
            q = sum;
        }
        grown.push(q);
        expansion = grown;
    }
    expansion
        .iter()
        .rev()
        .find(|&&x| x != 0.0)
        .map_or(std::cmp::Ordering::Equal, |x| x.total_cmp(&0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The lemma behind the ladder's skip: for non-negative `e` and a
    /// normal `λ·t`, the scan's `e + λ * t` lies within a factor
    /// `(1 ± u)²` of the exact `x = e + λt`, u = 2⁻⁵³. With
    /// `x = v + err` from an error-free product and sum, the bounds read
    /// `err + (2u + u²)·x ≥ 0` and `−err + (2u − u²)·x ≥ 0`, sums of
    /// exactly scaled terms whose sign is taken exactly.
    #[test]
    fn lambda_value_rounds_within_the_lemma_bound(
        e in prop_oneof![Just(0.0), 1e-12f64..1e-3, 1e-3f64..1e12],
        lambda in prop_oneof![1e-9f64..1e-3, 1e-3f64..1e9],
        t in prop_oneof![1e-6f64..1.0, 1.0f64..1e9],
    ) {
        let (p, p_err) = two_product(lambda, t);
        let (v, s_err) = two_sum(e, p);
        prop_assert_eq!(v.to_bits(), (e + lambda * t).to_bits());
        let (u2, uu) = (f64::EPSILON, f64::EPSILON * f64::EPSILON / 4.0);
        let above = [s_err, p_err, u2 * v, u2 * s_err, u2 * p_err, uu * v, uu * s_err, uu * p_err];
        let below = [-s_err, -p_err, u2 * v, u2 * s_err, u2 * p_err, -uu * v, -uu * s_err, -uu * p_err];
        prop_assert!(exact_sum_sign(&above).is_ge(), "v above (1+u)²x: e={e:e} λ={lambda:e} t={t:e}");
        prop_assert!(exact_sum_sign(&below).is_ge(), "v below (1-u)²x: e={e:e} λ={lambda:e} t={t:e}");
    }
}

/// Stage counts for the lineage test: empty, single, both sides of the
/// 8-stage minimum block, both sides of every block-width change, the
/// GPT-3 schedule, and one past 2,048 stages (128-stage blocks).
const LINEAGE_STAGES: [usize; 13] = [0, 1, 7, 8, 9, 31, 32, 33, 255, 256, 257, 960, 2_100];

/// Stages per block sum for an `n`-stage pool: `max(8, n_pad / 32)`,
/// capped at `n_pad` (the layout `GenomePool` documents).
fn block_stages(n: usize) -> usize {
    let n_pad = n.next_power_of_two();
    (n_pad / 32).max(8).min(n_pad)
}

/// Checks genome `idx` of `pool`: its block-sum evaluation against a
/// full evaluation of its genes.
fn check_genome(pool: &GenomePool<'_>, table: &StageTable, idx: usize) -> Result<(), String> {
    let mut genes = Vec::new();
    pool.read_genes(idx, &mut genes);
    let (fast, full) = (pool.evaluate(idx), table.evaluate(&genes));
    let bits = |e: &npu_dvfs::Evaluation| {
        [
            e.time_us.to_bits(),
            e.aicore_energy_wus.to_bits(),
            e.soc_energy_wus.to_bits(),
        ]
    };
    prop_assert_eq!(
        bits(&fast),
        bits(&full),
        "genome {idx}: {fast:?} vs {full:?}"
    );
    Ok(())
}

/// Applies one random pool operation to one of the two pools, drawing
/// its operands from `rng` within the pools' and table's shape. Returns
/// the target pool's index and the genomes in it the operation wrote.
fn apply_random_pool_op(
    pools: &mut [GenomePool<'_>; 2],
    rng: &mut SmallRng,
) -> (usize, Vec<usize>) {
    let t = rng.gen_range(0..2);
    let [p0, p1] = pools;
    let (pool, other) = if t == 0 { (p0, &*p1) } else { (p1, &*p0) };
    let (n, m, len) = (pool.n_stages(), pool.n_freqs(), pool.len());
    let written = match rng.gen_range(0..32) {
        0..=5 => {
            let genes: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            vec![pool.push_genes(&genes)]
        }
        6..=11 if !other.is_empty() => {
            vec![pool.push_copy_from(other, rng.gen_range(0..other.len()))]
        }
        12..=15 if len > 0 => vec![pool.push_clone(rng.gen_range(0..len))],
        16..=23 if len > 0 => {
            let (a, b) = (rng.gen_range(0..len), rng.gen_range(0..len));
            let block = block_stages(n);
            let from = match rng.gen_range(0..4) {
                0 => 0,
                1 => n,
                2 => rng.gen_range(0..=n / block) * block,
                _ => rng.gen_range(0..=n),
            };
            pool.swap_suffix(a, b, from);
            vec![a, b]
        }
        24..=29 if len > 0 && n > 0 => {
            let (idx, stage) = (rng.gen_range(0..len), rng.gen_range(0..n));
            let gene = if rng.gen_range(0..3) == 0 {
                pool.gene(idx, stage) // a no-op write
            } else {
                rng.gen_range(0..m)
            };
            pool.set_gene(idx, stage, gene);
            vec![idx]
        }
        30 => {
            pool.truncate(rng.gen_range(0..=len));
            Vec::new()
        }
        31 => {
            pool.clear();
            Vec::new()
        }
        _ => Vec::new(),
    };
    (t, written)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every pool mutator keeps each genome's block sums coherent with
    /// its genes, across two pools bound to one table: after a random
    /// sequence of pushes, cross-pool copies, clones, suffix swaps (cut
    /// at 0, at n, block-aligned and mid-block), point mutations (no-op
    /// writes included), truncations and clears, scoring from
    /// [`GenomePool::evaluate`] is bit-identical to
    /// `score(table.evaluate(genes))` for every genome.
    /// Runs on every stage count in [`LINEAGE_STAGES`], over 1-, 9- and
    /// 17-point alphabets, thermally coupled and uncoupled, with its own
    /// operation sequence per table.
    #[test]
    fn pool_lineage_keeps_block_sums_coherent(seed in any::<u64>(), len in 16usize..64) {
        let tables = LINEAGE_STAGES
            .iter()
            .flat_map(|&n| [1u32, 9, 17].into_iter().map(move |m| (n, m)))
            .flat_map(|(n, m)| [false, true].into_iter().map(move |c| (n, m, c)));
        for (ti, (n, m, coupled)) in tables.enumerate() {
            let freqs = (0..m).map(|k| FreqMhz::new(1_000 + 50 * k)).collect();
            let table = seeded_table(0x1_1EA6E ^ n as u64, n, freqs, coupled);
            let mut pools = [GenomePool::new(&table), GenomePool::new(&table)];
            let mut rng = SmallRng::seed_from_u64(seed ^ (ti as u64).wrapping_mul(0x9E37_79B9));
            for _ in 0..len {
                let (t, written) = apply_random_pool_op(&mut pools, &mut rng);
                for idx in written {
                    check_genome(&pools[t], &table, idx)?;
                }
            }
            let baseline = table.baseline().time_us;
            for pool in &pools {
                let mut genes = Vec::new();
                for i in 0..pool.len() {
                    check_genome(pool, &table, i)?;
                    let g = score(&pool.evaluate(i), baseline, 0.02);
                    pool.read_genes(i, &mut genes);
                    let want = score(&table.evaluate(&genes), baseline, 0.02);
                    prop_assert_eq!(
                        g.to_bits(), want.to_bits(),
                        "n={n} m={m} coupled={coupled} genome {i}: {g} vs {want}"
                    );
                }
            }
        }
    }
}

/// A copy between pools bound to different tables is refused, even when
/// the tables are equal in content: block sums are only meaningful
/// against the table that produced them.
#[test]
#[should_panic(expected = "same stage table")]
fn cross_table_copy_is_refused() {
    let ladder = || (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
    let (a, b) = (
        seeded_table(1, 12, ladder(), false),
        seeded_table(1, 12, ladder(), false),
    );
    let mut src = GenomePool::new(&a);
    src.push_genes(&[0; 12]);
    let mut dst = GenomePool::new(&b);
    let _ = dst.push_copy_from(&src, 0);
}
