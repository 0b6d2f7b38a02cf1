//! The performance bound of paper Sect. 6.3, written once.

/// A loss target ℓ and the bound it sets, `Per ≥ Per_base·(1−ℓ)` (paper
/// Sect. 6.3). Performance is the reciprocal of iteration time, so a
/// strategy of time `T` meets it against baseline time `B` when
/// `T ≤ B/(1−ℓ)`. The score, the searches, the baselines and the checks
/// all test this one form, so a time on the ceiling meets the bound
/// everywhere or nowhere.
///
/// A target of 1 or more, or NaN, sets no bound: every time meets it. A
/// negative target asks for a speed-up: the ceiling lies below `B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBudget(pub f64);

impl LossBudget {
    /// The ceiling `B/(1−ℓ)` on a strategy's time against baseline time
    /// `baseline_us`; `None` when the target sets no bound.
    #[must_use]
    pub fn ceiling(self, baseline_us: f64) -> Option<f64> {
        (self.0 < 1.0).then(|| baseline_us / (1.0 - self.0))
    }

    /// Whether time `time_us` meets the bound against `baseline_us`.
    #[must_use]
    pub fn meets(self, baseline_us: f64, time_us: f64) -> bool {
        self.ceiling(baseline_us).is_none_or(|c| time_us <= c)
    }

    /// The loss `1 − B/T` that time `time_us` shows against
    /// `baseline_us`, the paper's definition: exactly ℓ on the ceiling,
    /// negative for a run faster than the baseline.
    #[must_use]
    pub fn measured(baseline_us: f64, time_us: f64) -> f64 {
        1.0 - baseline_us / time_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{ascend, lagrangian_seeds};
    use crate::ga::score;
    use crate::preprocess::{Stage, StageKind};
    use crate::strategy::StageTable;
    use npu_sim::FreqMhz;

    #[test]
    fn every_site_agrees_on_the_ceiling() {
        // One stage at B = 1000 µs and ℓ = 0.08 whose slower gene takes
        // exactly fl(1000/(1−0.08)) µs at half the energy. The rate form
        // B/T ≥ 1−ℓ rounds that time out of the bound; the time form
        // keeps it in, at every site.
        let (base, loss) = (1000.0, 0.08);
        let slow = base / (1.0 - loss);
        assert!(base / slow < 1.0 - loss, "the rate form must miss it");
        let budget = LossBudget(loss);
        assert_eq!(budget.ceiling(base), Some(slow));
        assert!(budget.meets(base, slow));
        assert!(!budget.meets(base, f64::from_bits(slow.to_bits() + 1)));
        assert_eq!(LossBudget::measured(base, slow), 1.0 - base / slow);

        let stage = Stage {
            start_us: 0.0,
            dur_us: base,
            op_range: 0..1,
            kind: StageKind::Lfc,
        };
        let table = StageTable::from_parts(
            vec![FreqMhz::new(1000), FreqMhz::new(1800)],
            vec![stage],
            vec![vec![slow, base]],
            vec![vec![20.0, 40.0]],
            vec![vec![200.0, 400.0]],
        )
        .unwrap();
        // `score` doubles the slow gene.
        let eval = table.evaluate(&[0]);
        assert_eq!(eval.time_us, slow);
        let rel = base / slow;
        assert_eq!(
            score(&eval, base, loss),
            2.0 * (rel * rel / eval.aicore_w())
        );
        // The ladder's λ = 0 rung is the slow gene, left unrepaired.
        let rungs = lagrangian_seeds(&table, loss, 8);
        assert!(rungs.iter().any(|r| r.genes == [0]), "{rungs:?}");
        // The ascent from all-max keeps the bound and still moves onto it.
        let mut genes = vec![1];
        let (end, end_score, _) = ascend(&table, &mut genes, base, loss);
        assert_eq!(genes, [0]);
        assert_eq!((end, end_score), (eval, score(&eval, base, loss)));

        // ℓ = 0: the ceiling is the baseline itself.
        assert_eq!(LossBudget(0.0).ceiling(base), Some(base));
        assert!(LossBudget(0.0).meets(base, base));
        assert!(!LossBudget(0.0).meets(base, slow));
        // A negative target asks for a speed-up.
        assert!(!LossBudget(-0.01).meets(base, base));
        // ℓ ≥ 1 and NaN set no bound: every time meets it, the ladder
        // has nothing to repair into, and `score` doubles every gene.
        for loss in [1.0, 1.5, f64::INFINITY, f64::NAN] {
            let budget = LossBudget(loss);
            assert_eq!(budget.ceiling(base), None, "{loss}");
            assert!(budget.meets(base, 1e300), "{loss}");
            assert!(lagrangian_seeds(&table, loss, 8).is_empty(), "{loss}");
            let s = score(&eval, base, loss);
            assert_eq!(s, 2.0 * (rel * rel / eval.aicore_w()), "{loss}");
        }
    }
}
