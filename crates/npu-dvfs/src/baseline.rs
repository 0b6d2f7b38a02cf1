//! Coarse-grained DVFS baselines.
//!
//! Prior GPU work applies DVFS at the granularity of a whole program run
//! (paper refs. [2, 3, 12, 15]) or of multi-second sub-phases (refs.
//! [32, 38, 39, 46, 47]). These baselines search the same objective as the
//! fine-grained GA — minimum average AICore power subject to the
//! [`LossBudget`] bound — but with one frequency for the whole
//! iteration, or one per contiguous phase. Comparing them against the
//! operator-level search quantifies the benefit of millisecond DVFS, the
//! paper's core motivation.

use crate::budget::LossBudget;
use crate::engine::IncrementalEval;
use crate::strategy::{DvfsStrategy, Evaluation, StageTable};
use npu_sim::FreqMhz;

/// Outcome of a baseline search.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// The chosen strategy (uniform per phase).
    pub strategy: DvfsStrategy,
    /// Its predicted evaluation.
    pub eval: Evaluation,
}

/// Program-level DVFS: one frequency for the entire iteration. Sweeps all
/// supported points and keeps the lowest-AICore-power one whose predicted
/// performance meets the lower bound; falls back to the maximum frequency
/// when nothing else qualifies.
///
/// # Panics
///
/// Panics if the table has no frequency points.
#[must_use]
pub fn program_level(table: &StageTable, perf_loss_target: f64) -> BaselineOutcome {
    assert!(table.n_freqs() >= 1);
    let n = table.n_stages();
    let baseline_time = table.baseline().time_us;
    let mut best: Option<(usize, Evaluation)> = None;
    for g in 0..table.n_freqs() {
        let eval = table.evaluate(&vec![g; n]);
        if !LossBudget(perf_loss_target).meets(baseline_time, eval.time_us) {
            continue;
        }
        let better = match &best {
            None => true,
            Some((_, b)) => eval.aicore_w() < b.aicore_w(),
        };
        if better {
            best = Some((g, eval));
        }
    }
    let (g, eval) = best.unwrap_or_else(|| {
        let g = table.n_freqs() - 1;
        (g, table.evaluate(&vec![g; n]))
    });
    let freq = table.freqs()[g];
    BaselineOutcome {
        strategy: DvfsStrategy::new(table.stages().to_vec(), vec![freq; n]),
        eval,
    }
}

/// Phase-level DVFS: the iteration is split into `n_phases` contiguous
/// phases of roughly equal duration; each phase gets one frequency.
/// Optimizes by coordinate descent — starting from all-max, repeatedly
/// apply the single phase-downclock with the best power-saving per unit
/// of performance loss that still fits the budget, until none fits.
///
/// With `n_phases = 1` this degenerates to (greedy) program-level DVFS;
/// with `n_phases = table.n_stages()` it approaches operator-level
/// granularity but with a much weaker search than the GA.
///
/// # Panics
///
/// Panics if `n_phases == 0` or the table has no frequency points.
#[must_use]
pub fn phase_level(table: &StageTable, n_phases: usize, perf_loss_target: f64) -> BaselineOutcome {
    assert!(n_phases >= 1, "need at least one phase");
    assert!(table.n_freqs() >= 1);
    let n = table.n_stages();
    let max_gene = table.n_freqs() - 1;
    if n == 0 {
        return BaselineOutcome {
            strategy: DvfsStrategy::new(Vec::new(), Vec::new()),
            eval: table.evaluate(&[]),
        };
    }

    // Assign stages to phases by cumulative baseline duration.
    let total: f64 = table.stages().iter().map(|s| s.dur_us).sum();
    let mut phase_of = vec![0usize; n];
    let mut acc = 0.0;
    for (i, s) in table.stages().iter().enumerate() {
        let mid = acc + 0.5 * s.dur_us;
        let p = ((mid / total) * n_phases as f64).floor() as usize;
        phase_of[i] = p.min(n_phases - 1);
        acc += s.dur_us;
    }

    let baseline_time = table.baseline().time_us;
    let mut phase_gene = vec![max_gene; n_phases];
    let genes_for = |pg: &[usize]| -> Vec<usize> { (0..n).map(|i| pg[phase_of[i]]).collect() };
    // A scratch incremental evaluator hops between trial genomes,
    // re-summing only the stages of the downclocked phase; its results
    // are bit-identical to full `evaluate` calls.
    let mut scratch = IncrementalEval::new(table, &genes_for(&phase_gene));
    let mut current = scratch.eval();
    loop {
        let mut best_move: Option<(usize, Evaluation, f64)> = None;
        for p in 0..n_phases {
            if phase_gene[p] == 0 {
                continue;
            }
            let mut trial = phase_gene.clone();
            trial[p] -= 1;
            scratch.assign(&genes_for(&trial));
            let eval = scratch.eval();
            if !LossBudget(perf_loss_target).meets(baseline_time, eval.time_us) {
                continue;
            }
            let saved = current.aicore_w() - eval.aicore_w();
            let cost = (eval.time_us - current.time_us).max(0.0);
            let ratio = saved / (cost + 1.0); // prefer free savings
            if saved > 0.0 && best_move.as_ref().is_none_or(|(_, _, r)| ratio > *r) {
                best_move = Some((p, eval, ratio));
            }
        }
        match best_move {
            Some((p, eval, _)) => {
                phase_gene[p] -= 1;
                current = eval;
            }
            None => break,
        }
    }
    let freqs: Vec<FreqMhz> = genes_for(&phase_gene)
        .into_iter()
        .map(|g| table.freqs()[g])
        .collect();
    BaselineOutcome {
        strategy: DvfsStrategy::new(table.stages().to_vec(), freqs),
        eval: current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::{search, GaConfig};
    use crate::preprocess::{Stage, StageKind};

    /// Synthetic table: alternating memory-bound (flat time, power rises
    /// with f) and compute-bound (time ~ 1/f) stages.
    fn table(n: usize) -> StageTable {
        let freqs: Vec<FreqMhz> = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
        let mut stages = Vec::new();
        let mut time = Vec::new();
        let mut ea = Vec::new();
        let mut es = Vec::new();
        let mut t0 = 0.0;
        for i in 0..n {
            let mem = i % 2 == 0;
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
        StageTable::from_parts(freqs, stages, time, ea, es).unwrap()
    }

    #[test]
    fn program_level_meets_budget() {
        let t = table(8);
        let out = program_level(&t, 0.02);
        let base = t.baseline().time_us;
        assert!(LossBudget(0.02).meets(base, out.eval.time_us));
        // Uniform: no switches needed.
        assert_eq!(out.strategy.setfreq_count(out.strategy.freqs()[0]), 0);
    }

    #[test]
    fn program_level_tight_budget_stays_at_max() {
        // With a 0% budget and compute-bound stages, only fmax qualifies.
        let t = table(8);
        let out = program_level(&t, 0.0);
        assert!(out.strategy.freqs().iter().all(|f| f.mhz() == 1800));
    }

    #[test]
    fn phase_level_beats_program_level() {
        let t = table(16);
        let target = 0.02;
        let prog = program_level(&t, target);
        let phase = phase_level(&t, 8, target);
        assert!(
            phase.eval.aicore_w() <= prog.eval.aicore_w() + 1e-9,
            "phase {} vs program {}",
            phase.eval.aicore_w(),
            prog.eval.aicore_w()
        );
        let base = t.baseline().time_us;
        assert!(LossBudget(target).meets(base, phase.eval.time_us));
    }

    #[test]
    fn operator_level_beats_phase_level() {
        // The paper's motivating granularity hierarchy: with alternating
        // memory/compute stages, whole phases cannot isolate the
        // memory-bound halves but per-stage genes can.
        let t = table(16);
        let target = 0.02;
        let phase = phase_level(&t, 4, target);
        let ga = search(
            &t,
            &GaConfig::default().with_population(60).with_iterations(150),
        );
        assert!(
            ga.best_eval.aicore_w() < phase.eval.aicore_w() - 1e-9,
            "GA {} vs phase {}",
            ga.best_eval.aicore_w(),
            phase.eval.aicore_w()
        );
    }

    #[test]
    fn single_phase_equals_program_level_or_better() {
        let t = table(8);
        let prog = program_level(&t, 0.04);
        let one = phase_level(&t, 1, 0.04);
        // Greedy single-phase descent lands on a uniform frequency meeting
        // the budget; it cannot beat the exhaustive uniform sweep.
        assert!(one.eval.aicore_w() >= prog.eval.aicore_w() - 1e-9);
        let base = t.baseline().time_us;
        assert!(LossBudget(0.04).meets(base, one.eval.time_us));
    }

    #[test]
    fn baselines_take_the_papers_budget() {
        // The slower, lower-power frequency runs 1105 µs against a
        // 1000 µs baseline at ℓ = 0.1: past B·(1+ℓ) = 1100 but within
        // B/(1−ℓ) ≈ 1111.1, so both baselines must pick it.
        let stage = Stage {
            start_us: 0.0,
            dur_us: 1000.0,
            op_range: 0..1,
            kind: StageKind::Lfc,
        };
        let (slow, fast) = (FreqMhz::new(1000), FreqMhz::new(1800));
        let t = StageTable::from_parts(
            vec![slow, fast],
            vec![stage],
            vec![vec![1105.0, 1000.0]],
            vec![vec![20_000.0, 40_000.0]],
            vec![vec![200_000.0, 250_000.0]],
        )
        .unwrap();
        assert_eq!(program_level(&t, 0.1).strategy.freqs(), &[slow]);
        assert_eq!(phase_level(&t, 1, 0.1).strategy.freqs(), &[slow]);
        // A tighter target keeps the baseline frequency.
        assert_eq!(program_level(&t, 0.09).strategy.freqs(), &[fast]);
    }

    #[test]
    fn empty_table_is_empty_strategy() {
        let t = StageTable::from_parts(vec![FreqMhz::new(1800)], vec![], vec![], vec![], vec![])
            .unwrap();
        let out = phase_level(&t, 4, 0.02);
        assert!(out.strategy.is_empty());
    }
}
