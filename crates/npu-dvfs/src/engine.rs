//! Incremental evaluation and roulette selection for the GA search.
//!
//! Scoring dominates GA wall time: the paper's configuration evaluates
//! 200 individuals × 600 generations, and every candidate move of the
//! memetic refinement is another evaluation. Two observations make the
//! hot loop cheap without changing any result:
//!
//! 1. **Incrementality.** An evaluation is a sum of per-stage cells plus
//!    a thermal fix point on the totals. [`IncrementalEval`] keeps the
//!    per-stage cells in a fixed-topology pairwise summation tree
//!    (leaves padded with zeros to a power of two), so changing one gene
//!    updates O(log n) tree nodes instead of re-summing n stages — and,
//!    because [`crate::StageTable::evaluate`] reduces over the *same*
//!    tree shape, the root sums are **bit-identical** to a fresh full
//!    pass after any sequence of gene flips (`x + 0.0` is exact, and
//!    both paths perform the identical `left + right` additions).
//! 2. **Lineage.** A GA child is a copy of one parent with another
//!    parent's suffix and at most one point mutation.
//!    [`crate::GenomePool`] keeps each genome's sums for aligned blocks
//!    of that same tree and carries them from parent to child, so the GA
//!    scores a genome by folding at most 32 block sums to the root
//!    ([`crate::GenomePool::evaluate`]).
//!
//! Scoring is a pure function of the genome, and the GA folds every
//! genome of a generation on the caller's thread. At a few dozen
//! additions per score, nothing in front of the fold pays for itself: a
//! score memo that served 29 % of Fig. 17's generation scorings saved no
//! measurable wall time, and a second worker costs more to spawn than it
//! saves.
//!
//! [`RouletteWheel`] replaces the O(population) linear selection scan
//! with a prefix-sum + binary-search sampler over pre-normalized
//! cumulative weights.

use crate::strategy::{Evaluation, StageTable, Sums};
use rand::rngs::SmallRng;
use rand::Rng;

/// Incremental evaluator over one genome: a segment tree of per-stage
/// `Sums` whose root feeds the thermal fix point. Re-scoring after `k`
/// gene changes costs O(k·log n) instead of O(n).
///
/// The tree topology (leaves padded to `n.next_power_of_two()`, parent =
/// `left + right`) exactly mirrors [`StageTable::evaluate`], so
/// [`Self::eval`] is bit-identical to a fresh full evaluation of the
/// current genome, regardless of the update history.
#[derive(Debug, Clone)]
pub struct IncrementalEval<'t> {
    table: &'t StageTable,
    genes: Vec<usize>,
    /// Leaf count: `n_stages.next_power_of_two()` (1 when empty).
    n_pad: usize,
    /// Heap-ordered tree, `2 * n_pad` nodes; root at index 1, leaf `i` at
    /// `n_pad + i`. Padding leaves stay [`Sums::ZERO`] forever.
    nodes: Vec<Sums>,
}

impl<'t> IncrementalEval<'t> {
    /// Builds the evaluator positioned at `genes`.
    ///
    /// # Panics
    ///
    /// Panics if `genes.len() != table.n_stages()` or a gene is out of
    /// range.
    #[must_use]
    pub fn new(table: &'t StageTable, genes: &[usize]) -> Self {
        assert_eq!(
            genes.len(),
            table.n_stages(),
            "gene count must match stages"
        );
        let n = genes.len();
        let n_pad = n.next_power_of_two(); // 0usize -> 1
        let mut nodes = vec![Sums::ZERO; 2 * n_pad];
        for (i, &g) in genes.iter().enumerate() {
            nodes[n_pad + i] = table.cell(i, g);
        }
        for i in (1..n_pad).rev() {
            nodes[i] = Sums::add(nodes[2 * i], nodes[2 * i + 1]);
        }
        Self {
            table,
            genes: genes.to_vec(),
            n_pad,
            nodes,
        }
    }

    /// The current genome.
    #[must_use]
    pub fn genes(&self) -> &[usize] {
        &self.genes
    }

    /// The table this evaluator reads from.
    #[must_use]
    pub fn table(&self) -> &'t StageTable {
        self.table
    }

    /// Sets one gene, updating O(log n) tree nodes.
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `gene` is out of range.
    pub fn set_gene(&mut self, stage: usize, gene: usize) {
        if self.genes[stage] == gene {
            return;
        }
        self.genes[stage] = gene;
        let mut idx = self.n_pad + stage;
        self.nodes[idx] = self.table.cell(stage, gene);
        while idx > 1 {
            idx /= 2;
            self.nodes[idx] = Sums::add(self.nodes[2 * idx], self.nodes[2 * idx + 1]);
        }
    }

    /// Repositions the evaluator at `genes`, touching only the stages
    /// that differ from the current genome. Costs O(diff · log n) — for
    /// GA offspring (a crossover suffix plus a point mutation away from a
    /// parent) this is far below a full rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `genes.len()` disagrees with the table.
    pub fn assign(&mut self, genes: &[usize]) {
        assert_eq!(
            genes.len(),
            self.genes.len(),
            "gene count must match stages"
        );
        for (i, &g) in genes.iter().enumerate() {
            if self.genes[i] != g {
                self.set_gene(i, g);
            }
        }
    }

    fn root(&self) -> Sums {
        // With n == 0, n_pad == 1 and nodes[1] is the (zero) leaf, which
        // doubles as the root.
        self.nodes[1]
    }

    /// Evaluates the current genome (thermal fix point included).
    /// Bit-identical to `table.evaluate(self.genes())`.
    #[must_use]
    pub fn eval(&self) -> Evaluation {
        self.table.finish_sums(self.root())
    }

    /// Evaluates a one-gene variant *without* committing it: walks the
    /// root-to-leaf path once, combining the trial cell with the stored
    /// sibling sums in tree order (so the result is bit-identical to
    /// `set_gene` + `eval` + undo, at a third of the cost).
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `gene` is out of range.
    #[must_use]
    pub fn probe(&self, stage: usize, gene: usize) -> Evaluation {
        if self.genes[stage] == gene {
            return self.eval();
        }
        let mut acc = self.table.cell(stage, gene);
        let mut idx = self.n_pad + stage;
        while idx > 1 {
            let sibling = self.nodes[idx ^ 1];
            acc = if idx.is_multiple_of(2) {
                Sums::add(acc, sibling)
            } else {
                Sums::add(sibling, acc)
            };
            idx /= 2;
        }
        self.table.finish_sums(acc)
    }
}

/// Score-proportional sampler: normalized prefix sums + binary search,
/// O(log n) per draw instead of the O(n) linear scan.
///
/// The cumulative weights are divided by the total **once at build
/// time**, so a draw is a raw unit-interval ticket resolved by binary
/// search — no per-draw multiply or division. Non-finite and
/// non-positive scores contribute **exactly zero** weight — they can
/// never be drawn while any entry carries weight, and they never borrow
/// mass from a neighbor's prefix. Two degenerate inputs are defined
/// explicitly:
///
/// * **Weightless wheel** (every score non-positive or non-finite, or
///   the slice empty of mass): `total == 0` and [`Self::sample`] falls
///   back to a uniform draw over all entries — the same behavior as the
///   linear running-sum scan it replaces (which also cannot distinguish
///   entries when every increment is zero), and still exactly one RNG
///   draw so the caller's stream position is independent of the scores.
/// * **Ticket at the top of the range**: a ticket can reach `1.0` after
///   normalization rounding. The search then lands past the end, and
///   the draw resolves to the *last entry with positive weight*, never
///   a trailing zero-weight entry.
#[derive(Debug, Clone)]
pub struct RouletteWheel {
    /// Cumulative weights normalized into `[0, 1]`.
    cum: Vec<f64>,
    /// Raw (pre-normalization) total weight.
    total: f64,
    /// Index of the last entry with positive incremental mass; draws that
    /// round up to the top of the range resolve here. 0 when the wheel is
    /// weightless.
    last_weighted: usize,
}

impl RouletteWheel {
    /// Builds the wheel from raw scores, normalizing the cumulative sums
    /// once.
    #[must_use]
    pub fn new(scores: &[f64]) -> Self {
        let mut cum = Vec::with_capacity(scores.len());
        let mut acc = 0.0_f64;
        let mut last_weighted = 0_usize;
        for (i, &s) in scores.iter().enumerate() {
            if s.is_finite() && s > 0.0 {
                acc += s;
                last_weighted = i;
            }
            cum.push(acc);
        }
        if acc > 0.0 {
            for c in &mut cum {
                *c /= acc;
            }
        }
        Self {
            cum,
            total: acc,
            last_weighted,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Whether the wheel has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Resolves a unit-interval ticket to an entry index: the first
    /// index whose normalized cumulative weight exceeds the ticket.
    /// Zero-weight entries (`cum[i] == cum[i-1]`) are never selected
    /// because `partition_point` skips past ties, and a ticket that
    /// reaches the top of the range resolves to the last *weighted*
    /// entry rather than whatever entry happens to sit at the end.
    fn index_for_ticket(&self, ticket: f64) -> usize {
        let idx = self.cum.partition_point(|&c| c <= ticket);
        if idx < self.cum.len() {
            idx
        } else {
            self.last_weighted
        }
    }

    /// Draws one index with probability proportional to its score.
    ///
    /// # Panics
    ///
    /// Panics if the wheel is empty.
    #[must_use]
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        assert!(!self.cum.is_empty(), "cannot sample an empty wheel");
        if self.total <= 0.0 {
            // Weightless: uniform over all entries (see type docs).
            return rng.gen_range(0..self.cum.len());
        }
        self.index_for_ticket(rng.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{Stage, StageKind};
    use npu_sim::FreqMhz;
    use rand::SeedableRng;

    fn table(n_stages: usize) -> StageTable {
        let freqs: Vec<FreqMhz> = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
        let mut stages = Vec::new();
        let mut time = Vec::new();
        let mut ea = Vec::new();
        let mut es = Vec::new();
        for i in 0..n_stages {
            stages.push(Stage {
                start_us: i as f64 * 100.0,
                dur_us: 100.0,
                op_range: i..i + 1,
                kind: if i % 2 == 0 {
                    StageKind::Lfc
                } else {
                    StageKind::Hfc
                },
            });
            let mut trow = Vec::new();
            let mut arow = Vec::new();
            let mut srow = Vec::new();
            for (j, &f) in freqs.iter().enumerate() {
                let x = f.as_f64() / 1800.0;
                // Deliberately awkward magnitudes to surface any
                // re-association between full and incremental paths.
                let t = 100.0 / x + (i as f64).mul_add(0.37, 0.01 * j as f64);
                trow.push(t);
                arow.push((12.0 + 30.0 * x * x) * t);
                srow.push((190.0 + 25.0 * x) * t);
            }
            time.push(trow);
            ea.push(arow);
            es.push(srow);
        }
        StageTable::from_parts(freqs, stages, time, ea, es).unwrap()
    }

    fn assert_bit_identical(a: &Evaluation, b: &Evaluation) {
        assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
        assert_eq!(a.aicore_energy_wus.to_bits(), b.aicore_energy_wus.to_bits());
        assert_eq!(a.soc_energy_wus.to_bits(), b.soc_energy_wus.to_bits());
    }

    #[test]
    fn incremental_matches_full_after_flips() {
        let t = table(7); // odd count exercises the zero padding
        let mut genes = vec![8_usize; 7];
        let mut inc = IncrementalEval::new(&t, &genes);
        assert_bit_identical(&inc.eval(), &t.evaluate(&genes));
        let flips = [(0, 3), (6, 0), (3, 5), (0, 8), (2, 1), (6, 7), (2, 1)];
        for (s, g) in flips {
            inc.set_gene(s, g);
            genes[s] = g;
            assert_bit_identical(&inc.eval(), &t.evaluate(&genes));
        }
    }

    #[test]
    fn probe_matches_committed_flip() {
        let t = table(5);
        let genes = vec![4_usize; 5];
        let inc = IncrementalEval::new(&t, &genes);
        for s in 0..5 {
            for g in 0..t.n_freqs() {
                let probed = inc.probe(s, g);
                let mut committed = inc.clone();
                committed.set_gene(s, g);
                assert_bit_identical(&probed, &committed.eval());
            }
        }
    }

    #[test]
    fn assign_repositions_to_arbitrary_genome() {
        let t = table(6);
        let mut inc = IncrementalEval::new(&t, &[0, 1, 2, 3, 4, 5]);
        let target = vec![8, 1, 0, 3, 7, 2];
        inc.assign(&target);
        assert_eq!(inc.genes(), target.as_slice());
        assert_bit_identical(&inc.eval(), &t.evaluate(&target));
    }

    #[test]
    fn empty_genome_is_supported() {
        let t = table(0);
        let inc = IncrementalEval::new(&t, &[]);
        assert_bit_identical(&inc.eval(), &t.evaluate(&[]));
    }

    #[test]
    fn wheel_prefers_heavy_entries_and_skips_zeros() {
        let wheel = RouletteWheel::new(&[0.0, 3.0, f64::NAN, 1.0]);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0_usize; 4];
        for _ in 0..4_000 {
            counts[wheel.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "zero-score entry drawn");
        assert_eq!(counts[2], 0, "NaN-score entry drawn");
        assert!(counts[1] > counts[3] * 2, "weights ignored: {counts:?}");
    }

    #[test]
    fn wheel_falls_back_to_uniform_when_weightless() {
        // Degenerate wheels — every score non-positive or non-finite —
        // have `total == 0` and draw uniformly over all entries, exactly
        // one RNG draw per sample (so the caller's RNG stream position
        // does not depend on the scores).
        for scores in [
            vec![0.0, 0.0, 0.0],
            vec![-1.0, -2.5, -0.0],
            vec![f64::NAN, f64::NEG_INFINITY, f64::INFINITY],
        ] {
            let wheel = RouletteWheel::new(&scores);
            let mut rng = SmallRng::seed_from_u64(11);
            let mut seen = [false; 3];
            for _ in 0..200 {
                seen[wheel.sample(&mut rng)] = true;
            }
            assert_eq!(seen, [true, true, true], "scores {scores:?}");
        }
    }

    #[test]
    fn negative_score_among_positives_gets_zero_probability() {
        // A single negative entry must contribute exactly zero mass: no
        // ticket in the closed unit range — including the exact boundary
        // between its neighbors' prefixes and the rounded-up
        // `ticket == 1.0` edge — may resolve to it.
        let scores = [1.0, -5.0, 2.0];
        let wheel = RouletteWheel::new(&scores);
        assert_eq!(wheel.total, 3.0);
        for k in 0..=3_000 {
            let ticket = k as f64 / 3_000.0;
            let idx = wheel.index_for_ticket(ticket);
            assert_ne!(idx, 1, "negative entry drawn for ticket {ticket}");
        }
        // The boundary ticket sitting exactly on the negative entry's
        // (flat) prefix belongs to the *next* weighted entry — the
        // negative entry cannot borrow mass from its predecessor.
        assert_eq!(wheel.index_for_ticket(1.0 / 3.0), 2);
        // Sampling agrees: index 1 never appears.
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..4_000 {
            assert_ne!(wheel.sample(&mut rng), 1);
        }
    }

    #[test]
    fn top_of_range_ticket_resolves_to_last_weighted_entry() {
        // A unit ticket of exactly 1.0 lands past every normalized
        // prefix; the draw must then land on the last entry that carries
        // weight, not on a trailing zero-weight (or negative) entry.
        let wheel = RouletteWheel::new(&[1.0, 2.0, -3.0, 0.0]);
        assert_eq!(wheel.index_for_ticket(1.0), 1);
        let single = RouletteWheel::new(&[4.0]);
        assert_eq!(single.index_for_ticket(1.0), 0);
    }

    #[test]
    fn wheel_matches_linear_scan_distribution() {
        // The wheel must select index i iff the linear running-sum scan
        // would, for the same unit ticket. The scores sum to 4.0 (a
        // power of two), so normalization is exact and the comparison is
        // bit-precise.
        let scores = [0.5, 0.0, 2.0, 1.25, 0.0, 0.25];
        let wheel = RouletteWheel::new(&scores);
        let total: f64 = scores.iter().sum();
        for k in 0..1_000 {
            let ticket = k as f64 / 1_000.0;
            let mut acc = ticket * total;
            let mut linear = scores.len() - 1;
            for (i, &s) in scores.iter().enumerate() {
                acc -= s;
                if acc < 0.0 {
                    linear = i;
                    break;
                }
            }
            let binary = wheel
                .cum
                .partition_point(|&c| c <= ticket)
                .min(scores.len() - 1);
            assert_eq!(binary, linear, "ticket {ticket}");
        }
    }

    #[test]
    fn normalized_wheel_equals_reference_multiplying_sampler() {
        // Pre-normalizing the prefix sums must not change a single draw
        // versus the reference sampler that kept raw prefixes and
        // multiplied every ticket by the total. Deterministic seeds: if
        // this passes once, it passes forever.
        let score_sets: Vec<Vec<f64>> = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0.125, 7.5, 0.0, 0.375, 2.0],
            (0..97)
                .map(|i| ((i * 37 + 11) % 53) as f64 * 0.173)
                .collect(),
            vec![1e-9, 5e3, 2.0, 1e-12, 8.125],
        ];
        for scores in score_sets {
            let wheel = RouletteWheel::new(&scores);
            // Reference: the pre-normalization sampler.
            let mut raw_cum = Vec::with_capacity(scores.len());
            let mut acc = 0.0_f64;
            let mut last_weighted = 0;
            for (i, &s) in scores.iter().enumerate() {
                if s.is_finite() && s > 0.0 {
                    acc += s;
                    last_weighted = i;
                }
                raw_cum.push(acc);
            }
            let reference = |u: f64| -> usize {
                let ticket = u * acc;
                let idx = raw_cum.partition_point(|&c| c <= ticket);
                if idx < raw_cum.len() {
                    idx
                } else {
                    last_weighted
                }
            };
            let mut rng_a = SmallRng::seed_from_u64(0xD1CE);
            let mut rng_b = SmallRng::seed_from_u64(0xD1CE);
            for draw in 0..5_000 {
                let got = wheel.sample(&mut rng_a);
                let want = reference(rng_b.gen::<f64>());
                assert_eq!(got, want, "draw {draw} over {} scores", scores.len());
            }
        }
    }
}
