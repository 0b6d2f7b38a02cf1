//! Model-free DVFS search (the alternative the paper's Sect. 8.1 argues
//! against).
//!
//! Instead of scoring candidate strategies with performance/power models
//! (microseconds per policy), a model-free search executes every
//! candidate on the real system and scores the measured outcome. Each
//! evaluation then costs a full training iteration — for GPT-3, ~11 s —
//! so within the five minutes in which the model-based search assesses
//! 20,000 strategies, a model-free search manages about 30. This module
//! implements that baseline faithfully (same genetic operators as
//! [`npu_dvfs::search`], measured scoring, a virtual-time budget) so the
//! comparison can be run end to end.

use npu_dvfs::{score, DvfsStrategy, Evaluation, Preprocessed, RouletteWheel};
use npu_exec::{execute_strategy, ExecError, ExecutorOptions};
use npu_sim::{Device, FreqMhz, OpRecord, Schedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Individuals per generation (small — evaluations are expensive).
const POPULATION: usize = 10;
/// Per-individual mutation probability.
const MUTATION_RATE: f64 = 0.3;
/// Per-pair crossover probability.
const CROSSOVER_RATE: f64 = 0.9;
/// Allowed relative performance loss.
const PERF_LOSS_TARGET: f64 = 0.02;
/// RNG seed.
const SEED: u64 = 0xF0_F0;

/// Result of a model-free search.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFreeOutcome {
    /// Best strategy found within the budget.
    pub strategy: DvfsStrategy,
    /// Its *measured* evaluation (from the device run that scored it).
    pub best_eval: Evaluation,
    /// Its score.
    pub best_score: f64,
    /// Number of strategies executed.
    pub evaluations: usize,
    /// Virtual device time consumed, µs.
    pub virtual_cost_us: f64,
}

/// Runs the model-free genetic search: same operators as the model-based
/// GA, but every individual is scored by executing it on `dev` and
/// measuring iteration time and AICore power. `budget_virtual_us` is the
/// total *virtual* device time the search may spend executing candidate
/// strategies — the resource the paper counts: each evaluation costs one
/// training iteration of it (Sect. 8.1 grants five minutes, `300.0e6`).
///
/// # Errors
///
/// Returns [`ExecError`] if a strategy execution fails.
pub fn model_free_search(
    dev: &mut Device,
    schedule: &Schedule,
    baseline_records: &[OpRecord],
    pre: &Preprocessed,
    budget_virtual_us: f64,
) -> Result<ModelFreeOutcome, ExecError> {
    let stages = pre.stages().to_vec();
    let n = stages.len();
    let freqs: Vec<FreqMhz> = dev.config().freq_table.iter().collect();
    let m = freqs.len();
    let max_gene = m - 1;
    let baseline_time: f64 = baseline_records.iter().map(|r| r.dur_us).sum();
    let mut rng = SmallRng::seed_from_u64(SEED);

    let mut outcome = ModelFreeOutcome {
        strategy: DvfsStrategy::new(stages.clone(), vec![freqs[max_gene]; n]),
        best_eval: Evaluation {
            time_us: baseline_time,
            aicore_energy_wus: f64::MAX,
            soc_energy_wus: f64::MAX,
        },
        best_score: f64::NEG_INFINITY,
        evaluations: 0,
        virtual_cost_us: 0.0,
    };
    if n == 0 {
        return Ok(outcome);
    }

    // Initial population: baseline + prior-ish + random.
    let mut population: Vec<Vec<usize>> = vec![vec![max_gene; n]];
    population.push(
        stages
            .iter()
            .map(|s| match s.kind {
                npu_dvfs::StageKind::Lfc => m.saturating_sub(3),
                npu_dvfs::StageKind::Hfc => max_gene,
            })
            .collect(),
    );
    while population.len() < POPULATION {
        population.push((0..n).map(|_| rng.gen_range(0..m)).collect());
    }

    'outer: loop {
        // Score the generation by executing each individual.
        let mut scores = Vec::with_capacity(population.len());
        for genes in &population {
            if outcome.virtual_cost_us >= budget_virtual_us {
                break 'outer;
            }
            let strategy =
                DvfsStrategy::new(stages.clone(), genes.iter().map(|&g| freqs[g]).collect());
            let exec = execute_strategy(
                dev,
                schedule,
                &strategy,
                baseline_records,
                &ExecutorOptions::default(),
            )?;
            outcome.evaluations += 1;
            outcome.virtual_cost_us += exec.result.duration_us;
            let eval = Evaluation {
                time_us: exec.result.duration_us,
                aicore_energy_wus: exec.result.energy_aicore_j * 1e6,
                soc_energy_wus: exec.result.energy_soc_j * 1e6,
            };
            let s = score(&eval, baseline_time, PERF_LOSS_TARGET);
            if s > outcome.best_score {
                outcome.best_score = s;
                outcome.best_eval = eval;
                outcome.strategy = strategy;
            }
            scores.push(s);
        }

        // Next generation (roulette + last-k crossover + point mutation).
        // The wheel handles non-finite/non-positive scores and draws in
        // O(log population); an empty score list (budget exhausted before
        // the first evaluation this generation) falls back to uniform.
        let wheel = RouletteWheel::new(&scores);
        let pick = |rng: &mut SmallRng| -> usize {
            if wheel.is_empty() {
                return rng.gen_range(0..population.len());
            }
            wheel.sample(rng)
        };
        let mut next = Vec::with_capacity(POPULATION);
        // Elitism on the best-so-far genes.
        next.push(
            outcome
                .strategy
                .freqs()
                .iter()
                .map(|f| freqs.iter().position(|g| g == f).expect("grid freq"))
                .collect::<Vec<usize>>(),
        );
        while next.len() < POPULATION {
            let pa = population[pick(&mut rng)].clone();
            let pb = population[pick(&mut rng)].clone();
            let (mut ca, mut cb) = (pa, pb);
            if rng.gen::<f64>() < CROSSOVER_RATE && n > 1 {
                let k = rng.gen_range(1..n);
                for i in n - k..n {
                    std::mem::swap(&mut ca[i], &mut cb[i]);
                }
            }
            for child in [&mut ca, &mut cb] {
                if rng.gen::<f64>() < MUTATION_RATE {
                    let j = rng.gen_range(0..n);
                    child[j] = rng.gen_range(0..m);
                }
            }
            next.push(ca);
            if next.len() < POPULATION {
                next.push(cb);
            }
        }
        population = next;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_dvfs::preprocess::preprocess;
    use npu_sim::{NpuConfig, RunOptions};
    use npu_workloads::models;

    #[test]
    fn respects_virtual_budget() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg.clone());
        let base = dev
            .run(w.schedule(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        let pre = preprocess(&base.records, 100.0);
        let budget = 30_000.0; // ~30 iterations of the tiny workload
        let out = model_free_search(&mut dev, w.schedule(), &base.records, &pre, budget).unwrap();
        assert!(out.evaluations > 0);
        // One evaluation may straddle the budget edge, no more.
        assert!(out.virtual_cost_us <= 30_000.0 + 2.0 * base.duration_us);
        assert!(out.best_score > f64::NEG_INFINITY);
        assert_eq!(out.strategy.len(), pre.len());
    }

    #[test]
    fn finds_some_savings_given_generous_budget() {
        let cfg = NpuConfig::ascend_like();
        let w = models::tanh_loop(&cfg, 60);
        let mut dev = Device::new(cfg.clone());
        let base = dev
            .run(w.schedule(), &RunOptions::at(FreqMhz::new(1800)))
            .unwrap();
        let pre = preprocess(&base.records, 500.0);
        let budget = 400.0 * base.duration_us;
        let out = model_free_search(&mut dev, w.schedule(), &base.records, &pre, budget).unwrap();
        let base_power = base.avg_aicore_w();
        assert!(
            out.best_eval.aicore_w() < base_power,
            "measured power {} should beat baseline {}",
            out.best_eval.aicore_w(),
            base_power
        );
    }

    #[test]
    fn empty_profile_returns_baseline() {
        let cfg = NpuConfig::ascend_like();
        let mut dev = Device::new(cfg.clone());
        let pre = preprocess(&[], 100.0);
        let out = model_free_search(&mut dev, &Schedule::default(), &[], &pre, 300.0e6).unwrap();
        assert_eq!(out.evaluations, 0);
        assert!(out.strategy.is_empty());
    }
}
