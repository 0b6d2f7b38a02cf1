//! Parallel + incremental strategy-evaluation engine for the GA search.
//!
//! Scoring dominates GA wall time: the paper's configuration evaluates
//! 200 individuals × 600 generations, and every candidate move of the
//! memetic refinement is another evaluation. Four observations make the
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
//! 2. **Purity.** Scoring uses no RNG — it is a pure function of the
//!    genome — so a generation can be scored on any number of threads in
//!    any order and the scores are identical. [`EvalEngine`] fans a
//!    population out over `std::thread::scope` workers that write
//!    results by index; the GA's RNG stream stays sequential and never
//!    observes thread count.
//! 3. **Redundancy.** Elitism, crossover between similar parents and
//!    seeded individuals make duplicate genomes common. [`EvalEngine`]
//!    memoizes score by genome fingerprint — in a bounded, deterministic
//!    [`FingerprintRing`] rather than an unbounded map — and evaluates
//!    only first occurrences.
//! 4. **Flat genomes.** The fast path scores a bit-packed
//!    [`GenomePool`]: fingerprints are maintained incrementally by the
//!    pool (O(1) per mutation instead of an O(n) hash per lookup), and
//!    per-worker [`PoolScratch`] evaluators reposition by XOR-diffing
//!    packed words. All buffers are engine-owned and reused, so a warm
//!    single-threaded scoring pass allocates nothing.
//!
//! [`RouletteWheel`] replaces the O(population) linear selection scan
//! with a prefix-sum + binary-search sampler over pre-normalized
//! cumulative weights.

use crate::ga::score;
use crate::memo::FingerprintRing;
use crate::pool::{assert_pool_matches, GenomePool, PoolScratch};
use crate::strategy::{Evaluation, StageTable, Sums};
use npu_sim::par::resolve_threads;
use rand::rngs::SmallRng;
use rand::Rng;
use std::thread;

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

/// Minimum pending genomes per worker before adding that worker pays
/// off. Spawning one scoped thread costs about as much as incrementally
/// scoring a few dozen individuals (the `ga_eval` bench measures both),
/// so the engine caps the worker count at `pending / MIN_GENOMES_PER_WORKER`
/// instead of gating on a single population-size threshold — a
/// 200-individual generation gets 4 workers with real work each rather
/// than 16 workers whose spawn cost eats the speedup.
const MIN_GENOMES_PER_WORKER: usize = 48;

/// Slots in the bounded score memo. At ~24 bytes per slot this caps the
/// memo at a fixed ~24 MB per engine for the life of a search — the old
/// unbounded `HashMap` grew past 8.9 M entries on a GPT-3-sized run.
const MEMO_SLOTS: usize = 1 << 20;

/// Initial slots in the within-call dedup ring (regrown if a population
/// ever exceeds half of it).
const SEEN_SLOTS: usize = 1 << 12;

/// Population scorer: memoized, incremental, optionally parallel.
///
/// Scores are a pure function of the genome (given the table, baseline
/// time and loss target fixed at construction), so results are identical
/// — bitwise — for any worker count, and duplicate genomes are served
/// from a bounded memo without re-evaluation. Duplicate detection and
/// memo updates run sequentially in population-index order before any
/// fan-out, so thread count cannot even perturb the memo's (bounded,
/// deterministic) eviction sequence.
///
/// Populations arrive as a bit-packed [`GenomePool`] through
/// [`Self::score_pool`]. All dedup and result buffers are engine-owned:
/// a warm single-threaded [`Self::score_pool`] call performs no heap
/// allocation.
///
/// The fan-out is a chunked scorer of its own rather than
/// [`npu_sim::par::par_map_ordered`]: each worker keeps a persistent
/// [`PoolScratch`] across generations and writes a disjoint slice of the
/// engine-owned result buffer, which an index map cannot express.
#[derive(Debug)]
pub struct EvalEngine<'t> {
    table: &'t StageTable,
    baseline_time_us: f64,
    perf_loss_target: f64,
    workers: usize,
    /// Bounded fingerprint → score memo (deterministic eviction).
    memo: FingerprintRing<f64>,
    /// Within-call dedup: fingerprint → first population index.
    seen: FingerprintRing<u32>,
    /// One warm evaluator per worker, built lazily and reused across
    /// generations. Tree state depends only on the current genome, so
    /// reuse cannot change any score.
    scratches: Vec<Option<PoolScratch<'t>>>,
    scores_buf: Vec<f64>,
    /// Population indices needing evaluation this call.
    pending: Vec<u32>,
    /// `(dst, src)` within-population duplicate copies.
    copy_from: Vec<(u32, u32)>,
    /// Freshly evaluated scores, parallel to `pending`.
    fresh_buf: Vec<f64>,
    scored: usize,
    unique_scored: usize,
}

impl<'t> EvalEngine<'t> {
    /// Creates an engine. `threads == 0` auto-detects the CPU count.
    #[must_use]
    pub fn new(
        table: &'t StageTable,
        baseline_time_us: f64,
        perf_loss_target: f64,
        threads: usize,
    ) -> Self {
        Self {
            table,
            baseline_time_us,
            perf_loss_target,
            workers: resolve_threads(threads),
            memo: FingerprintRing::new(MEMO_SLOTS),
            seen: FingerprintRing::new(SEEN_SLOTS),
            scratches: Vec::new(),
            scores_buf: Vec::new(),
            pending: Vec::new(),
            copy_from: Vec::new(),
            fresh_buf: Vec::new(),
            scored: 0,
            unique_scored: 0,
        }
    }

    /// Individuals scored so far, memo hits included.
    #[must_use]
    pub fn scored(&self) -> usize {
        self.scored
    }

    /// Individuals actually evaluated (memo misses).
    #[must_use]
    pub fn unique_scored(&self) -> usize {
        self.unique_scored
    }

    /// Live entries in the score memo (bounded by
    /// [`Self::memo_capacity`]).
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Hard bound on the score memo's entry count.
    #[must_use]
    pub fn memo_capacity(&self) -> usize {
        self.memo.capacity()
    }

    /// Scores every genome of a pool, returning one score per genome in
    /// index order (a view into an engine-owned buffer, valid until the
    /// next scoring call). Duplicates — within the pool or across
    /// earlier calls — are evaluated once; the rest fan out over the
    /// worker pool in deterministic index order.
    ///
    /// # Panics
    ///
    /// Panics if the pool's shape disagrees with the engine's table.
    #[must_use]
    pub fn score_pool(&mut self, pool: &GenomePool) -> &[f64] {
        assert_pool_matches(pool, self.table);
        self.run_scoring(pool);
        &self.scores_buf
    }

    /// Scoring core behind [`Self::score_pool`]. Results land in
    /// `self.scores_buf`.
    fn run_scoring(&mut self, pool: &GenomePool) {
        let Self {
            table,
            baseline_time_us,
            perf_loss_target,
            workers,
            memo,
            seen,
            scratches,
            scores_buf,
            pending,
            copy_from,
            fresh_buf,
            scored,
            unique_scored,
        } = self;
        let table: &'t StageTable = table;
        let (bt, lt) = (*baseline_time_us, *perf_loss_target);
        let count = pool.len();
        debug_assert!(count <= u32::MAX as usize, "population exceeds u32 indices");
        *scored += count;

        // Sequential dedup pass, in index order: resolve duplicates
        // within this population to their first occurrence, serve
        // memoized genomes, queue the rest.
        if seen.capacity() < count.saturating_mul(2) {
            *seen = FingerprintRing::new(count * 2);
        } else {
            seen.clear();
        }
        scores_buf.clear();
        scores_buf.resize(count, 0.0);
        pending.clear();
        copy_from.clear();
        for (i, slot) in scores_buf.iter_mut().enumerate() {
            let fp = pool.fp(i);
            if let Some(j) = seen.get(fp) {
                copy_from.push((i as u32, j));
            } else if let Some(s) = memo.get(fp) {
                seen.insert(fp, i as u32);
                *slot = s;
            } else {
                seen.insert(fp, i as u32);
                pending.push(i as u32);
            }
        }
        *unique_scored += pending.len();

        // Evaluate the pending genomes: inline unless enough work exists
        // to amortize every spawned worker (at least
        // MIN_GENOMES_PER_WORKER genomes each). Workers reuse persistent
        // per-worker scratches and write into disjoint slices of the
        // engine-owned result buffer; chunking cannot change any result.
        if !pending.is_empty() {
            let n_workers = if *workers <= 1 {
                1
            } else {
                (*workers).min(pending.len() / MIN_GENOMES_PER_WORKER)
            };
            fresh_buf.clear();
            fresh_buf.resize(pending.len(), 0.0);
            while scratches.len() < n_workers.max(1) {
                scratches.push(None);
            }
            if n_workers <= 1 {
                let scratch = scratches[0].get_or_insert_with(|| PoolScratch::new(table));
                for (out, &i) in fresh_buf.iter_mut().zip(pending.iter()) {
                    *out = score(&scratch.eval_pool(pool, i as usize), bt, lt);
                }
            } else {
                let chunk = pending.len().div_ceil(n_workers);
                thread::scope(|s| {
                    let mut rest: &mut [f64] = fresh_buf;
                    let mut handles = Vec::with_capacity(n_workers);
                    for (idxs, slot) in pending.chunks(chunk).zip(scratches.iter_mut()) {
                        let (out, tail) = rest.split_at_mut(idxs.len());
                        rest = tail;
                        handles.push(s.spawn(move || {
                            let scratch = slot.get_or_insert_with(|| PoolScratch::new(table));
                            for (o, &i) in out.iter_mut().zip(idxs.iter()) {
                                *o = score(&scratch.eval_pool(pool, i as usize), bt, lt);
                            }
                        }));
                    }
                    for h in handles {
                        h.join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    }
                });
            }
            // Memo writes stay sequential in index order, so eviction is
            // a pure function of the genome sequence.
            for (&i, &s) in pending.iter().zip(fresh_buf.iter()) {
                scores_buf[i as usize] = s;
                memo.insert(pool.fp(i as usize), s);
            }
        }
        for &(dst, src) in copy_from.iter() {
            scores_buf[dst as usize] = scores_buf[src as usize];
        }
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
    fn pool_scores_bit_match_direct_evaluation_at_any_thread_count() {
        let t = table(11);
        let baseline = t.baseline().time_us;
        // Stages 0-2 spell `i` in base 9, so all 200 genomes are
        // distinct: every one is pending, and multi-thread runs take the
        // scoped-worker path (pending / MIN_GENOMES_PER_WORKER > 1).
        let population: Vec<Vec<usize>> = (0..200_usize)
            .map(|i| {
                (0..11_u32)
                    .map(|s| (i / 9_usize.pow(s % 3) + s as usize) % t.n_freqs())
                    .collect()
            })
            .collect();
        let mut pool = GenomePool::new(11, t.n_freqs());
        for g in &population {
            pool.push_genes(g);
        }
        let expect: Vec<u64> = population
            .iter()
            .map(|g| score(&t.evaluate(g), baseline, 0.02).to_bits())
            .collect();
        for threads in [1, 2, 5, 8] {
            let mut engine = EvalEngine::new(&t, baseline, 0.02, threads);
            let got: Vec<u64> = engine
                .score_pool(&pool)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(got, expect, "threads = {threads}");
            assert_eq!(engine.unique_scored(), population.len());
        }
    }

    #[test]
    fn engine_memoizes_duplicates() {
        let t = table(4);
        let baseline = t.baseline().time_us;
        let mut engine = EvalEngine::new(&t, baseline, 0.02, 1);
        let a = [1, 2, 3, 4];
        let b = [8, 8, 8, 8];
        let mut pool = GenomePool::new(4, t.n_freqs());
        for g in [&a, &b, &a, &a] {
            pool.push_genes(g);
        }
        let scores = engine.score_pool(&pool).to_vec();
        assert_eq!(engine.scored(), 4);
        assert_eq!(engine.unique_scored(), 2);
        assert_eq!(engine.memo_len(), 2);
        assert!(engine.memo_len() <= engine.memo_capacity());
        assert_eq!(scores[0].to_bits(), scores[2].to_bits());
        assert_eq!(scores[0].to_bits(), scores[3].to_bits());
        // A later generation repeating a genome is served from the memo.
        pool.clear();
        pool.push_genes(&a);
        let again = engine.score_pool(&pool)[0];
        assert_eq!(engine.unique_scored(), 2);
        assert_eq!(again.to_bits(), scores[0].to_bits());
    }

    #[test]
    fn template_reuse_is_stable_across_generations() {
        // Successive generations reuse the persistent per-worker
        // scratches; scores must stay identical to direct evaluation no
        // matter what the previous generation left behind.
        let t = table(9);
        let baseline = t.baseline().time_us;
        let mut engine = EvalEngine::new(&t, baseline, 0.02, 4);
        for gen in 0..3_usize {
            let mut pool = GenomePool::new(9, t.n_freqs());
            let population: Vec<Vec<usize>> = (0..200)
                .map(|i| {
                    (0..9)
                        .map(|s| (gen * 31 + i * 7 + s * 3) % t.n_freqs())
                        .collect()
                })
                .collect();
            for g in &population {
                pool.push_genes(g);
            }
            let got = engine.score_pool(&pool).to_vec();
            for (g, s) in population.iter().zip(&got) {
                let direct = score(&t.evaluate(g), baseline, 0.02);
                assert_eq!(s.to_bits(), direct.to_bits(), "gen {gen}");
            }
        }
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
