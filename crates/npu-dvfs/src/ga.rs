//! Genetic-algorithm strategy search (paper Sect. 6.3).
//!
//! Individuals are per-stage frequency assignments. The first generation
//! holds the all-max **baseline** individual and a **prior** individual
//! (LFC stages at 1600 MHz, HFC at 1800 MHz); the rest is random. Scoring
//! follows Eq. (17): individuals meeting the performance lower bound earn
//! a doubled score. New generations come from score-proportional
//! (roulette) selection, last-`k` suffix crossover, and single-gene
//! mutation, with the best individual carried over unchanged. After the
//! last generation, the best individual climbs by the coordinate ascent
//! [`crate::exact::serving_search`] runs (the memetic refinement).
//!
//! Generations live in a [`GenomePool`] arena (two pools, swapped per
//! generation). Children are built inside the arena by copy, suffix swap
//! and point mutation, which carry each parent's evaluation-tree block
//! sums over to the child, and every genome of a generation is scored by
//! folding those sums ([`GenomePool::evaluate`]) on the calling thread.
//! The hot loop performs no per-individual heap allocation, and scoring
//! is a pure function of the genome, so the search returns a
//! bit-identical [`GaOutcome`] for a given seed.
//!
//! The first generation can additionally be seeded from the
//! [`crate::exact`] Lagrangian ladder (see [`GaConfig::oracle_seeds`]):
//! near-optimal rungs of the relaxed per-stage problem that point
//! mutation alone could not rediscover.
//!
//! The serving paths (sessions, serve, fleet and service) do not run
//! this GA: they call [`crate::exact::serving_search`]. The GA stays for
//! the paper's figures, which call [`search`] directly.

use crate::budget::LossBudget;
use crate::engine::RouletteWheel;
use crate::exact;
use crate::pool::GenomePool;
use crate::preprocess::StageKind;
use crate::strategy::{DvfsStrategy, Evaluation, StageTable};
use npu_obs::{Event, ObserverHandle};
use npu_sim::FreqMhz;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-individual mutation probability (the paper's 0.15).
const MUTATION_RATE: f64 = 0.15;
/// Per-pair crossover probability.
const CROSSOVER_RATE: f64 = 0.9;
/// The prior individual's frequency for LFC stages, MHz.
const LFC_PRIOR_MHZ: u32 = 1600;
/// The prior individual's frequency for HFC stages, MHz.
const HFC_PRIOR_MHZ: u32 = 1800;

/// GA hyper-parameters. Defaults mirror the paper's evaluation
/// (population 200, 600 iterations, 2 % loss target; mutation rate 0.15).
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Generations to run.
    pub iterations: usize,
    /// Allowed relative performance loss (e.g. `0.02` for 2 %).
    pub perf_loss_target: f64,
    /// Whether to seed the population with the LFC/HFC prior individual.
    pub include_prior: bool,
    /// RNG seed (the search is deterministic given the seed).
    pub seed: u64,
    /// Oracle seed individuals injected into the first generation from
    /// the [`crate::exact::lagrangian_seeds`] ladder; `0` (the default)
    /// seeds none, at any stage count. Seeding consumes no RNG draws
    /// itself, but it reduces the number of random first-generation
    /// individuals, so turning it on changes the search trajectory.
    pub oracle_seeds: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 200,
            iterations: 600,
            perf_loss_target: 0.02,
            include_prior: true,
            seed: 0x6A_5EED,
            oracle_seeds: 0,
        }
    }
}

impl GaConfig {
    /// Sets the performance-loss target, chainable.
    #[must_use]
    pub fn with_loss_target(mut self, target: f64) -> Self {
        self.perf_loss_target = target;
        self
    }

    /// Sets the iteration count, chainable.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the population size, chainable.
    #[must_use]
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Sets an explicit oracle seed count (see [`Self::oracle_seeds`]),
    /// chainable.
    #[must_use]
    pub fn with_oracle_seeds(mut self, seeds: usize) -> Self {
        self.oracle_seeds = seeds;
        self
    }
}

/// Result of a GA search.
#[derive(Debug, Clone, PartialEq)]
pub struct GaOutcome {
    /// The best strategy found.
    pub strategy: DvfsStrategy,
    /// Its predicted evaluation.
    pub best_eval: Evaluation,
    /// Its score.
    pub best_score: f64,
    /// Best score after each generation (paper Fig. 17).
    pub score_trace: Vec<f64>,
    /// Total individuals scored (GA generations plus the final ascent's
    /// probes).
    pub evaluations: usize,
}

/// Scores one evaluation per Eq. (17): `Score = (Per/Per_base)² / Power`,
/// doubled when the time meets the [`LossBudget`] bound
/// `T ≤ B/(1−loss_target)`. Performance is the reciprocal of iteration
/// time, so `Per/Per_base = baseline_time / time`.
///
/// Degenerate evaluations — non-positive or non-finite time or power —
/// score `0.0`, so a poisoned individual can never win the roulette or
/// the elite slot.
#[must_use]
pub fn score(eval: &Evaluation, baseline_time_us: f64, perf_loss_target: f64) -> f64 {
    // `is_finite` first: NaN would slip through a bare `<= 0.0` test.
    if !eval.time_us.is_finite() || eval.time_us <= 0.0 {
        return 0.0;
    }
    let rel = baseline_time_us / eval.time_us;
    let power = eval.aicore_w();
    if !power.is_finite() || power <= 0.0 {
        return 0.0;
    }
    let base = rel * rel / power;
    if !base.is_finite() {
        return 0.0;
    }
    if LossBudget(perf_loss_target).meets(baseline_time_us, eval.time_us) {
        2.0 * base
    } else {
        base
    }
}

/// Runs the genetic search over a stage table.
///
/// # Panics
///
/// Panics if `cfg.population < 2` or the table has no frequency points.
#[must_use]
pub fn search(table: &StageTable, cfg: &GaConfig) -> GaOutcome {
    search_observed(table, cfg, &ObserverHandle::null())
}

/// Like [`search`], additionally emitting one [`Event::GaGeneration`] per
/// generation through `obs` (generation index and best score so far;
/// `memo_hits` is always 0). The search trajectory is untouched: with a
/// disabled handle the outcome is bit-identical to [`search`].
///
/// # Panics
///
/// Panics if `cfg.population < 2` or the table has no frequency points.
#[must_use]
pub fn search_observed(table: &StageTable, cfg: &GaConfig, obs: &ObserverHandle) -> GaOutcome {
    assert!(cfg.population >= 2, "population must be at least 2");
    let n = table.n_stages();
    let m = table.n_freqs();
    assert!(m >= 1, "table must have frequency points");
    let baseline_time = table.baseline().time_us;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    if n == 0 {
        let outcome = table.evaluate(&[]);
        return GaOutcome {
            strategy: DvfsStrategy::new(Vec::new(), Vec::new()),
            best_eval: outcome,
            best_score: 0.0,
            score_trace: Vec::new(),
            evaluations: 0,
        };
    }

    // First generation: baseline + prior (+ oracle) + random (paper
    // Sect. 6.3.1), built directly into the arena.
    let max_gene = m - 1;
    let mut pool = GenomePool::with_capacity(table, cfg.population + 1);
    let mut next = GenomePool::with_capacity(table, cfg.population + 1);
    let mut genes_buf: Vec<usize> = vec![max_gene; n];
    pool.push_genes(&genes_buf); // baseline individual
    if cfg.include_prior {
        let lfc = table.gene_at_or_above(FreqMhz::new(LFC_PRIOR_MHZ));
        let hfc = table.gene_at_or_above(FreqMhz::new(HFC_PRIOR_MHZ));
        genes_buf.clear();
        genes_buf.extend(table.stages().iter().map(|s| match s.kind {
            StageKind::Lfc => lfc,
            StageKind::Hfc => hfc,
        }));
        pool.push_genes(&genes_buf);
        // Deterministic seed individuals beyond the paper's single prior:
        // every uniform frequency (so the search dominates program-level
        // DVFS by construction) and the prior at every LFC depth. With
        // hundreds of genes, point mutations alone cannot rediscover
        // these; seeding costs a handful of slots.
        let hfc_max = max_gene;
        for g in 0..m {
            if pool.len() + 1 >= cfg.population {
                break;
            }
            genes_buf.clear();
            genes_buf.resize(n, g);
            pool.push_genes(&genes_buf);
        }
        for lfc_g in 0..m {
            if pool.len() + 1 >= cfg.population {
                break;
            }
            genes_buf.clear();
            genes_buf.extend(table.stages().iter().map(|s| match s.kind {
                StageKind::Lfc => lfc_g,
                StageKind::Hfc => hfc_max,
            }));
            pool.push_genes(&genes_buf);
        }
    }
    // Oracle seeds: best rungs of the Lagrangian ladder. Injected before
    // the random fill and drawing nothing from the RNG, so with the
    // (default) count of zero the trajectory is untouched.
    if cfg.oracle_seeds > 0 {
        for seed in exact::lagrangian_seeds(table, cfg.perf_loss_target, cfg.oracle_seeds) {
            if pool.len() + 1 >= cfg.population {
                break;
            }
            pool.push_genes(&seed.genes);
        }
    }
    while pool.len() < cfg.population {
        genes_buf.clear();
        genes_buf.extend((0..n).map(|_| rng.gen_range(0..m)));
        pool.push_genes(&genes_buf);
    }

    // Every genome is scored by folding its inherited block sums, in
    // index order, into one reused buffer. The RNG stream above/below
    // never depends on scoring internals.
    let mut scores = Vec::with_capacity(cfg.population);
    let mut score_trace = Vec::with_capacity(cfg.iterations);
    let mut best_score = f64::NEG_INFINITY;
    let mut evaluations = 0;

    for iter in 0..cfg.iterations {
        scores.clear();
        scores.extend(
            (0..pool.len()).map(|i| score(&pool.evaluate(i), baseline_time, cfg.perf_loss_target)),
        );
        evaluations += scores.len();
        // The population is never empty; the fallback keeps this
        // panic-free without perturbing any reachable trajectory.
        let (gen_best_idx, gen_best) = scores
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, f64::NEG_INFINITY));
        // The best-so-far genome is always in the pool: index 0 holds
        // the baseline individual in the first generation and the elite
        // carried over in every later one.
        let elite = if gen_best > best_score {
            best_score = gen_best;
            gen_best_idx
        } else {
            0
        };
        score_trace.push(best_score);

        // Next generation: elite + roulette-selected offspring via the
        // prefix-sum wheel (O(log n) per draw). Children are copied,
        // crossed and mutated inside the arena — no per-individual
        // allocation.
        let wheel = RouletteWheel::new(&scores);
        if obs.enabled() {
            obs.emit(Event::GaGeneration {
                iter,
                best_score,
                memo_hits: 0,
            });
        }
        next.clear();
        next.push_copy_from(&pool, elite); // elitism
        while next.len() < cfg.population {
            let pa = wheel.sample(&mut rng);
            let pb = wheel.sample(&mut rng);
            let ca = next.push_copy_from(&pool, pa);
            let cb = next.push_copy_from(&pool, pb);
            if rng.gen::<f64>() < CROSSOVER_RATE && n > 1 {
                // Swap the last k genes (paper Sect. 6.3.3).
                let k = rng.gen_range(1..n);
                next.swap_suffix(ca, cb, n - k);
            }
            for child in [ca, cb] {
                if rng.gen::<f64>() < MUTATION_RATE {
                    let j = rng.gen_range(0..n);
                    next.set_gene(child, j, rng.gen_range(0..m));
                }
            }
        }
        next.truncate(cfg.population);
        std::mem::swap(&mut pool, &mut next);
    }

    // Memetic refinement: coordinate ascent from the GA's best individual
    // (the elite at index 0). Every move raises the score, so the
    // returned strategy achieves at least the GA's best.
    let mut genes = Vec::with_capacity(n);
    pool.read_genes(0, &mut genes);
    let (best_eval, best_score, probes) =
        exact::ascend(table, &mut genes, baseline_time, cfg.perf_loss_target);
    evaluations += probes;
    if let Some(last) = score_trace.last_mut() {
        *last = best_score;
    }

    let freqs: Vec<FreqMhz> = genes.iter().map(|&g| table.freqs()[g]).collect();
    GaOutcome {
        strategy: DvfsStrategy::new(table.stages().to_vec(), freqs),
        best_eval,
        best_score,
        score_trace,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Stage;
    use crate::strategy::StageTable;

    /// A synthetic table: `n_mem` memory-bound stages (time almost flat in
    /// f, power rising) and `n_cpu` compute-bound stages (time ~ 1/f).
    fn table(n_mem: usize, n_cpu: usize) -> StageTable {
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
                let p = 12.0 + 30.0 * x * x; // rising power with frequency
                trow.push(t);
                arow.push(p * t);
                srow.push((p + 180.0) * t);
            }
            time.push(trow);
            ea.push(arow);
            es.push(srow);
        }
        StageTable::from_parts(freqs, stages, time, ea, es).unwrap()
    }

    fn quick_cfg() -> GaConfig {
        GaConfig::default().with_population(60).with_iterations(120)
    }

    #[test]
    fn finds_low_freq_for_memory_stages() {
        let t = table(4, 4);
        let out = search(&t, &quick_cfg());
        let freqs = out.strategy.freqs();
        // Memory stages (first 4) should end well below max frequency.
        for (i, f) in freqs.iter().take(4).enumerate() {
            assert!(f.mhz() <= 1400, "memory stage {i} at {f}");
        }
        // Compute stages should stay at/near max to hold the 2 % budget.
        for (i, f) in freqs.iter().skip(4).enumerate() {
            assert!(f.mhz() >= 1700, "compute stage {i} at {f}");
        }
    }

    #[test]
    fn respects_performance_bound() {
        let t = table(4, 4);
        let out = search(&t, &quick_cfg());
        let baseline = t.baseline().time_us;
        assert!(
            LossBudget(0.02).meets(baseline, out.best_eval.time_us),
            "predicted loss {}",
            LossBudget::measured(baseline, out.best_eval.time_us)
        );
    }

    #[test]
    fn saves_power_versus_baseline() {
        let t = table(4, 4);
        let out = search(&t, &quick_cfg());
        let baseline = t.baseline();
        assert!(
            out.best_eval.aicore_w() < baseline.aicore_w() * 0.95,
            "expected ≥5 % AICore power reduction, got {} vs {}",
            out.best_eval.aicore_w(),
            baseline.aicore_w()
        );
    }

    #[test]
    fn score_trace_is_monotone() {
        let t = table(3, 3);
        let out = search(&t, &quick_cfg());
        assert_eq!(out.score_trace.len(), 120);
        assert!(out.score_trace.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn looser_targets_allow_more_savings() {
        // Paper Table 3: larger loss targets yield larger power cuts.
        let t = table(4, 4);
        let tight = search(&t, &quick_cfg().with_loss_target(0.02));
        let loose = search(&t, &quick_cfg().with_loss_target(0.10));
        assert!(loose.best_eval.aicore_w() <= tight.best_eval.aicore_w() + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = table(3, 3);
        let a = search(&t, &quick_cfg());
        let b = search(&t, &quick_cfg());
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.score_trace, b.score_trace);
    }

    #[test]
    fn observed_search_emits_generations_without_perturbing_outcome() {
        use npu_obs::{MetricsRegistry, ObserverHandle};
        use std::sync::Arc;

        let t = table(3, 3);
        let silent = search(&t, &quick_cfg());
        let metrics = Arc::new(MetricsRegistry::new());
        let obs = ObserverHandle::from_arc(metrics.clone());
        let observed = search_observed(&t, &quick_cfg(), &obs);
        assert_eq!(silent, observed, "observer must not change the search");
        assert_eq!(metrics.counter("event.GaGeneration"), 120);
        // Every genome is folded from its block sums; nothing is memoized.
        assert_eq!(metrics.counter("ga.memo_hits"), 0);
        let scores = metrics.histogram("ga.best_score").unwrap();
        assert_eq!(scores.count, 120);
        // Events carry the pre-refinement trace, which the memetic pass
        // can only improve upon.
        assert!(scores.max <= observed.score_trace[119] + 1e-12);
        assert!(scores.max >= observed.score_trace[0]);
    }

    #[test]
    fn prior_individual_speeds_convergence() {
        // Paper Sect. 7.4: at the 2 % target the prior individuals are
        // already (near-)optimal, so the first generations score higher.
        let t = table(6, 6);
        let with_prior = search(&t, &quick_cfg().with_iterations(5));
        let mut no_prior_cfg = quick_cfg().with_iterations(5);
        no_prior_cfg.include_prior = false;
        let without = search(&t, &no_prior_cfg);
        assert!(with_prior.score_trace[0] >= without.score_trace[0]);
    }

    #[test]
    fn oracle_seeding_never_scores_below_cold_start() {
        // Seeding the first generation from the Lagrangian ladder must
        // not lose to the cold-start GA, and the outcome is guaranteed
        // to be at least the best seed's own score (elitism + monotone
        // refinement from the GA's best).
        let t = table(6, 6);
        let short = quick_cfg().with_iterations(10);
        let cold = search(&t, &short);
        let seeded = search(&t, &short.clone().with_oracle_seeds(6));
        assert!(
            seeded.best_score >= cold.best_score,
            "seeded {} < cold {}",
            seeded.best_score,
            cold.best_score
        );
        let best_seed = exact::lagrangian_seeds(&t, short.perf_loss_target, 6)
            .into_iter()
            .map(|s| s.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(seeded.best_score >= best_seed);
        assert!(seeded.score_trace[0] >= best_seed);
    }

    #[test]
    fn zero_oracle_seeds_seed_nothing_at_any_stage_count() {
        // Without the priors, a population of three starts as the
        // all-max baseline, the best ladder rung when one oracle seed is
        // asked for, and random genomes. Random genomes miss the budget
        // and score below the baseline, which meets it; the best rung
        // beats the baseline. So the first trace entry (generation 0,
        // before refinement) shows whether the ladder was seeded.
        for (n_mem, n_cpu) in [(4, 4), (128, 127), (128, 128), (480, 480)] {
            let t = table(n_mem, n_cpu);
            let mut cfg = GaConfig::default().with_population(3).with_iterations(2);
            cfg.include_prior = false;
            let baseline = t.baseline();
            let base_score = score(&baseline, baseline.time_us, cfg.perf_loss_target);
            let best_rung = exact::lagrangian_seeds(&t, cfg.perf_loss_target, 1)[0].score;
            assert!(best_rung > base_score, "{} stages", t.n_stages());
            let cold = search(&t, &cfg);
            assert_eq!(cold.score_trace[0], base_score, "{} stages", t.n_stages());
            let seeded = search(&t, &cfg.clone().with_oracle_seeds(1));
            assert_eq!(seeded.score_trace[0], best_rung, "{} stages", t.n_stages());
        }
    }

    #[test]
    fn score_doubles_when_target_met() {
        let eval_ok = Evaluation {
            time_us: 100.0,
            aicore_energy_wus: 4_000.0,
            soc_energy_wus: 20_000.0,
        };
        let s_ok = score(&eval_ok, 100.0, 0.02); // rel = 1.0 -> bonus
        let eval_slow = Evaluation {
            time_us: 110.0,
            aicore_energy_wus: 4_400.0,
            soc_energy_wus: 22_000.0,
        };
        let s_slow = score(&eval_slow, 100.0, 0.02); // rel = 0.909 -> no bonus
        assert!(s_ok > 2.0 * s_slow * 0.8, "bonus should dominate");
        assert_eq!(score(&eval_ok, 100.0, 0.02), 2.0 * (1.0 / 40.0));
    }

    #[test]
    fn degenerate_evaluations_score_zero() {
        let nan_time = Evaluation {
            time_us: f64::NAN,
            aicore_energy_wus: 1.0,
            soc_energy_wus: 1.0,
        };
        let nan_energy = Evaluation {
            time_us: 100.0,
            aicore_energy_wus: f64::NAN,
            soc_energy_wus: 1.0,
        };
        let inf_time = Evaluation {
            time_us: f64::INFINITY,
            aicore_energy_wus: 1.0,
            soc_energy_wus: 1.0,
        };
        let neg_time = Evaluation {
            time_us: -5.0,
            aicore_energy_wus: 1.0,
            soc_energy_wus: 1.0,
        };
        for eval in [nan_time, nan_energy, inf_time, neg_time] {
            assert_eq!(score(&eval, 100.0, 0.02), 0.0, "{eval:?}");
        }
        // NaN baseline poisons `rel`: still 0, never NaN.
        let ok = Evaluation {
            time_us: 100.0,
            aicore_energy_wus: 4_000.0,
            soc_energy_wus: 1.0,
        };
        assert_eq!(score(&ok, f64::NAN, 0.02), 0.0);
        assert_eq!(score(&ok, f64::INFINITY, 0.02), 0.0);
    }

    #[test]
    fn refined_result_respects_predicted_budget() {
        // The refinement climbs Eq. (17) score restricted to the
        // predicted loss budget: the returned evaluation must satisfy it
        // whenever the (always feasible) baseline individual exists.
        for target in [0.01, 0.02, 0.05, 0.10] {
            let t = table(5, 5);
            let out = search(&t, &quick_cfg().with_loss_target(target));
            let base = t.baseline().time_us;
            assert!(
                LossBudget(target).meets(base, out.best_eval.time_us),
                "target {target}: {} over {base}",
                out.best_eval.time_us
            );
        }
    }

    #[test]
    fn returned_strategy_achieves_the_reported_score() {
        // Regression: the memetic refinement used to descend on raw
        // power in budget, which degenerates to the slowest feasible
        // individual — discarding the GA's work — while `best_score`
        // kept the GA's (higher) value, so the reported score was one
        // the returned strategy did not achieve. The returned genes and
        // the reported score must always agree, and never lose to any
        // uniform-frequency strategy the population was seeded with.
        for target in [0.02, 0.10, 0.50] {
            let t = table(3, 5);
            let out = search(&t, &quick_cfg().with_loss_target(target));
            let baseline = t.baseline().time_us;
            let genes: Vec<usize> = out
                .strategy
                .freqs()
                .iter()
                .map(|f| t.freqs().iter().position(|g| g == f).unwrap())
                .collect();
            let achieved = score(&t.evaluate(&genes), baseline, target);
            assert!(
                (achieved - out.best_score).abs() <= 1e-12 * out.best_score.abs(),
                "target {target}: returned strategy scores {achieved}, reported {}",
                out.best_score
            );
            for g in 0..t.n_freqs() {
                let uniform = t.evaluate(&vec![g; t.n_stages()]);
                let s = score(&uniform, baseline, target);
                assert!(
                    out.best_score >= s - 1e-12,
                    "target {target}: GA best {} loses to seeded uniform {} ({s})",
                    out.best_score,
                    t.freqs()[g]
                );
            }
        }
    }

    #[test]
    fn empty_table_yields_empty_strategy() {
        let t = StageTable::from_parts(vec![FreqMhz::new(1800)], vec![], vec![], vec![], vec![])
            .unwrap();
        let out = search(&t, &quick_cfg());
        assert!(out.strategy.is_empty());
        assert_eq!(out.evaluations, 0);
    }

    #[test]
    fn baseline_individual_bounds_worst_case() {
        // Even with zero iterations of improvement (1 iteration, tiny
        // population), the elite baseline individual guarantees a valid
        // strategy no worse than baseline performance.
        let t = table(2, 2);
        let cfg = GaConfig::default().with_population(2).with_iterations(1);
        let out = search(&t, &cfg);
        assert!(LossBudget(0.02).meets(t.baseline().time_us, out.best_eval.time_us));
    }
}
