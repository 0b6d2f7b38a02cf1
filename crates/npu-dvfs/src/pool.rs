//! Flat, allocation-free genome storage for the GA hot path.
//!
//! A GA generation used to live as `Vec<Vec<usize>>`: one heap
//! allocation per individual, 8 bytes per gene, and a full O(n) pass
//! (fingerprint + diff scan) per evaluation. [`GenomePool`] replaces
//! that with a struct-of-arrays arena:
//!
//! * **Bit-packed genes.** A gene indexes one of at most 256 frequency
//!   points, so it fits in 4 bits (≤16 points — the paper's ladder has
//!   9) or 8 bits. A GPT-3-sized genome (960 stages) is 60 `u64` words
//!   instead of 7.7 KB of `usize`s — small enough that diffing two
//!   genomes is 60 XORs.
//! * **One contiguous buffer.** Genome `i` occupies
//!   `words[i*W .. (i+1)*W]`. Building the next generation reuses the
//!   arena via [`GenomePool::clear`] — after warm-up, a generation
//!   allocates nothing.
//! * **Incremental fingerprints.** Every genome carries a 64-bit
//!   fingerprint maintained as `base ^ XOR_w contrib(w, word_w)`, so a
//!   single-gene mutation updates the fingerprint in O(1) (XOR the old
//!   word's contribution out, the new one in) instead of re-hashing all
//!   n genes — which used to dominate the engine's per-genome cost.
//!
//! [`PoolScratch`] pairs a warm [`IncrementalEval`] with a packed
//! mirror of its current genome: repositioning onto another genome
//! diffs the packed words (XOR + `trailing_zeros`), touching only the
//! changed stages. [`genome_fingerprint`] computes the identical
//! fingerprint for an unpacked `&[usize]` genome.

use crate::engine::IncrementalEval;
use crate::strategy::{Evaluation, StageTable};

/// How genes map onto `u64` words for a given table shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackLayout {
    n_stages: usize,
    n_freqs: usize,
    /// Bits per gene: 4 when the alphabet fits a nibble, else 8.
    gene_bits: u32,
    genes_per_word: usize,
    words_per_genome: usize,
    gene_mask: u64,
}

impl PackLayout {
    fn new(n_stages: usize, n_freqs: usize) -> Self {
        assert!(
            (1..=256).contains(&n_freqs),
            "gene alphabet must fit one byte: {n_freqs} frequency points"
        );
        let gene_bits: u32 = if n_freqs <= 16 { 4 } else { 8 };
        let genes_per_word = (64 / gene_bits) as usize;
        Self {
            n_stages,
            n_freqs,
            gene_bits,
            genes_per_word,
            words_per_genome: n_stages.div_ceil(genes_per_word),
            gene_mask: (1u64 << gene_bits) - 1,
        }
    }

    #[inline]
    fn word_and_shift(&self, stage: usize) -> (usize, u32) {
        debug_assert!(stage < self.n_stages);
        (
            stage / self.genes_per_word,
            (stage % self.genes_per_word) as u32 * self.gene_bits,
        )
    }
}

/// splitmix64 finalizer: the one mixing primitive behind every genome
/// fingerprint in this module.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const FP_SEED: u64 = 0xA076_1D64_78BD_642F;
const FP_WORD_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// Length-dependent fingerprint base: two genomes of different stage
/// counts can never collide through word contributions alone.
#[inline]
fn fp_base(n_stages: usize) -> u64 {
    mix(FP_SEED ^ n_stages as u64)
}

/// Position-salted contribution of one packed word. XORing contributions
/// makes the whole-genome fingerprint incrementally updatable: changing
/// word `w` from `a` to `b` is `fp ^= contrib(w, a) ^ contrib(w, b)`.
#[inline]
fn word_contrib(word_idx: usize, word: u64) -> u64 {
    mix(word ^ mix(word_idx as u64 ^ FP_WORD_SALT))
}

/// Fingerprint of an unpacked genome, identical to the fingerprint a
/// [`GenomePool`] with the same `n_freqs` maintains for these genes —
/// the bridge that lets slice-based and pooled scoring share one memo.
///
/// # Panics
///
/// Panics if `n_freqs` is outside `1..=256` or a gene is out of range.
#[must_use]
pub fn genome_fingerprint(genes: &[usize], n_freqs: usize) -> u64 {
    let layout = PackLayout::new(genes.len(), n_freqs);
    let mut fp = fp_base(genes.len());
    for (w, chunk) in genes.chunks(layout.genes_per_word).enumerate() {
        fp ^= word_contrib(w, pack_word(&layout, chunk));
    }
    fp
}

/// Packs up to `genes_per_word` genes into one word (low lanes first).
#[inline]
fn pack_word(layout: &PackLayout, chunk: &[usize]) -> u64 {
    let mut word = 0u64;
    for (k, &g) in chunk.iter().enumerate() {
        assert!(
            g < layout.n_freqs,
            "gene {g} out of range ({} frequency points)",
            layout.n_freqs
        );
        word |= (g as u64) << (k as u32 * layout.gene_bits);
    }
    word
}

/// A flat arena of bit-packed genomes with per-genome fingerprints.
///
/// All genomes share one `Vec<u64>`; [`Self::clear`] keeps the buffers
/// for the next generation, so a warmed pool never allocates.
#[derive(Debug, Clone)]
pub struct GenomePool {
    layout: PackLayout,
    /// Genome `i` is `words[i*W .. (i+1)*W]`, `W = words_per_genome`.
    words: Vec<u64>,
    /// One fingerprint per genome, maintained incrementally.
    fps: Vec<u64>,
    base_fp: u64,
}

impl GenomePool {
    /// Creates an empty pool for genomes of `n_stages` genes over an
    /// alphabet of `n_freqs` frequency points.
    ///
    /// # Panics
    ///
    /// Panics if `n_freqs` is outside `1..=256`.
    #[must_use]
    pub fn new(n_stages: usize, n_freqs: usize) -> Self {
        Self::with_capacity(n_stages, n_freqs, 0)
    }

    /// [`Self::new`] with space pre-reserved for `genomes` individuals.
    #[must_use]
    pub fn with_capacity(n_stages: usize, n_freqs: usize, genomes: usize) -> Self {
        let layout = PackLayout::new(n_stages, n_freqs);
        Self {
            layout,
            words: Vec::with_capacity(genomes * layout.words_per_genome),
            fps: Vec::with_capacity(genomes),
            base_fp: fp_base(n_stages),
        }
    }

    /// Genes per genome.
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.layout.n_stages
    }

    /// Alphabet size.
    #[must_use]
    pub fn n_freqs(&self) -> usize {
        self.layout.n_freqs
    }

    /// Number of genomes currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether the pool holds no genomes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Drops all genomes, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.fps.clear();
    }

    /// Drops genomes past index `len` (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.fps.len() {
            self.fps.truncate(len);
            self.words.truncate(len * self.layout.words_per_genome);
        }
    }

    /// Appends a genome from unpacked genes; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the gene count disagrees or a gene is out of range.
    pub fn push_genes(&mut self, genes: &[usize]) -> usize {
        assert_eq!(
            genes.len(),
            self.layout.n_stages,
            "gene count must match stages"
        );
        let mut fp = self.base_fp;
        for (w, chunk) in genes.chunks(self.layout.genes_per_word.max(1)).enumerate() {
            let word = pack_word(&self.layout, chunk);
            self.words.push(word);
            fp ^= word_contrib(w, word);
        }
        self.fps.push(fp);
        self.fps.len() - 1
    }

    /// Appends a copy of genome `src` from `other` (same layout);
    /// returns the new index. `other` may be `self`-shaped next-gen pool.
    ///
    /// # Panics
    ///
    /// Panics if the layouts disagree or `src` is out of range.
    pub fn push_copy_from(&mut self, other: &GenomePool, src: usize) -> usize {
        assert_eq!(self.layout, other.layout, "pool layouts must agree");
        self.words.extend_from_slice(other.words_of(src));
        self.fps.push(other.fps[src]);
        self.fps.len() - 1
    }

    /// Appends a copy of this pool's own genome `src`; returns the index.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn push_clone(&mut self, src: usize) -> usize {
        assert!(src < self.fps.len(), "genome {src} out of range");
        let w = self.layout.words_per_genome;
        self.words.extend_from_within(src * w..(src + 1) * w);
        self.fps.push(self.fps[src]);
        self.fps.len() - 1
    }

    /// Reads one gene.
    #[must_use]
    pub fn gene(&self, idx: usize, stage: usize) -> usize {
        let (w, shift) = self.layout.word_and_shift(stage);
        ((self.words[idx * self.layout.words_per_genome + w] >> shift) & self.layout.gene_mask)
            as usize
    }

    /// Sets one gene, updating the genome's fingerprint in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `idx`, `stage` or `gene` is out of range.
    pub fn set_gene(&mut self, idx: usize, stage: usize, gene: usize) {
        assert!(
            gene < self.layout.n_freqs,
            "gene {gene} out of range ({} frequency points)",
            self.layout.n_freqs
        );
        let (w, shift) = self.layout.word_and_shift(stage);
        let slot = idx * self.layout.words_per_genome + w;
        let old = self.words[slot];
        let new = (old & !(self.layout.gene_mask << shift)) | ((gene as u64) << shift);
        if new != old {
            self.words[slot] = new;
            self.fps[idx] ^= word_contrib(w, old) ^ word_contrib(w, new);
        }
    }

    /// Swaps the gene suffix `[from_stage, n_stages)` between genomes
    /// `a` and `b` — the GA's last-`k` crossover — word-at-a-time, with
    /// O(changed words) fingerprint updates.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `from_stage > n_stages`.
    pub fn swap_suffix(&mut self, a: usize, b: usize, from_stage: usize) {
        assert!(from_stage <= self.layout.n_stages, "suffix start past end");
        if a == b || from_stage == self.layout.n_stages {
            return;
        }
        let wpg = self.layout.words_per_genome;
        let (wb, off) = (
            from_stage / self.layout.genes_per_word,
            from_stage % self.layout.genes_per_word,
        );
        for w in wb..wpg {
            let (ia, ib) = (a * wpg + w, b * wpg + w);
            let (va, vb) = (self.words[ia], self.words[ib]);
            // Boundary word: only lanes at or above `off` swap.
            let keep_mask = if w == wb && off > 0 {
                (1u64 << (off as u32 * self.layout.gene_bits)) - 1
            } else {
                0
            };
            let na = (va & keep_mask) | (vb & !keep_mask);
            let nb = (vb & keep_mask) | (va & !keep_mask);
            if na != va {
                // The contribution delta is symmetric: both genomes
                // exchange the same pair of word values.
                self.words[ia] = na;
                self.words[ib] = nb;
                self.fps[a] ^= word_contrib(w, va) ^ word_contrib(w, na);
                self.fps[b] ^= word_contrib(w, vb) ^ word_contrib(w, nb);
            }
        }
    }

    /// Unpacks genome `idx` into `out` (cleared first).
    pub fn read_genes(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.layout.n_stages).map(|s| self.gene(idx, s)));
    }

    /// The genome's 64-bit fingerprint (identical to
    /// [`genome_fingerprint`] of its unpacked genes).
    #[must_use]
    pub fn fp(&self, idx: usize) -> u64 {
        self.fps[idx]
    }

    /// The packed words of genome `idx`.
    pub(crate) fn words_of(&self, idx: usize) -> &[u64] {
        let w = self.layout.words_per_genome;
        &self.words[idx * w..(idx + 1) * w]
    }

    fn layout_matches(&self, table: &StageTable) -> bool {
        self.layout == PackLayout::new(table.n_stages(), table.n_freqs())
    }
}

/// Per-worker evaluation scratch: a warm [`IncrementalEval`] plus a
/// packed mirror of its current genome. Repositioning onto the next
/// genome XOR-diffs packed words and updates only the changed stages —
/// O(diff · log n) with a word-sized constant factor.
#[derive(Debug)]
pub struct PoolScratch<'t> {
    inc: IncrementalEval<'t>,
    packed: Vec<u64>,
    layout: PackLayout,
}

impl<'t> PoolScratch<'t> {
    /// Creates a scratch positioned at the all-zero genome.
    #[must_use]
    pub fn new(table: &'t StageTable) -> Self {
        let genes = vec![0usize; table.n_stages()];
        let layout = PackLayout::new(table.n_stages(), table.n_freqs());
        Self {
            inc: IncrementalEval::new(table, &genes),
            packed: vec![0u64; layout.words_per_genome],
            layout,
        }
    }

    /// Repositions one packed word, committing only the lanes that
    /// changed to the underlying evaluator.
    #[inline]
    fn sync_word(&mut self, w: usize, new_word: u64) {
        let mut x = new_word ^ self.packed[w];
        if x == 0 {
            return;
        }
        let bits = self.layout.gene_bits;
        while x != 0 {
            let shift = (x.trailing_zeros() / bits) * bits;
            let stage = w * self.layout.genes_per_word + (shift / bits) as usize;
            self.inc.set_gene(
                stage,
                ((new_word >> shift) & self.layout.gene_mask) as usize,
            );
            x &= !(self.layout.gene_mask << shift);
        }
        self.packed[w] = new_word;
    }

    /// Evaluates genome `idx` of `pool`. Bit-identical to
    /// `table.evaluate(&genes)` of the unpacked genome.
    ///
    /// # Panics
    ///
    /// Panics if the pool's layout disagrees with the scratch's table.
    pub fn eval_pool(&mut self, pool: &GenomePool, idx: usize) -> Evaluation {
        assert_eq!(self.layout, pool.layout, "pool layout must match table");
        let src = pool.words_of(idx);
        for (w, &word) in src.iter().enumerate() {
            self.sync_word(w, word);
        }
        self.inc.eval()
    }
}

/// Asserts a pool was built for `table`'s shape (engine entry check).
pub(crate) fn assert_pool_matches(pool: &GenomePool, table: &StageTable) {
    assert!(
        pool.layout_matches(table),
        "genome pool shape ({} stages × {} freqs) must match table ({} × {})",
        pool.n_stages(),
        pool.n_freqs(),
        table.n_stages(),
        table.n_freqs()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{Stage, StageKind};
    use npu_sim::FreqMhz;

    fn table(n_stages: usize, n_freqs: usize) -> StageTable {
        let freqs: Vec<FreqMhz> = (0..n_freqs)
            .map(|k| FreqMhz::new(1000 + 50 * k as u32))
            .collect();
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
                let t = 100.0 / x + (i as f64).mul_add(0.37, 0.013 * j as f64);
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

    fn genome(n: usize, m: usize, salt: usize) -> Vec<usize> {
        (0..n).map(|s| (s * 7 + salt * 13 + 3) % m).collect()
    }

    #[test]
    fn pack_layout_picks_nibbles_for_small_alphabets() {
        let nib = PackLayout::new(37, 9);
        assert_eq!(nib.gene_bits, 4);
        assert_eq!(nib.genes_per_word, 16);
        assert_eq!(nib.words_per_genome, 3);
        let byte = PackLayout::new(37, 17);
        assert_eq!(byte.gene_bits, 8);
        assert_eq!(byte.genes_per_word, 8);
        assert_eq!(byte.words_per_genome, 5);
    }

    #[test]
    fn push_and_read_round_trip() {
        for m in [2, 9, 16, 17, 200] {
            let mut pool = GenomePool::new(21, m);
            let g = genome(21, m, 1);
            let idx = pool.push_genes(&g);
            let mut out = Vec::new();
            pool.read_genes(idx, &mut out);
            assert_eq!(out, g, "m = {m}");
            for (s, &want) in g.iter().enumerate() {
                assert_eq!(pool.gene(idx, s), want);
            }
        }
    }

    #[test]
    fn fingerprints_match_the_free_function_through_every_mutation_path() {
        let m = 9;
        let mut pool = GenomePool::new(33, m);
        let a = pool.push_genes(&genome(33, m, 0));
        let b = pool.push_clone(a);
        let c = pool.push_genes(&genome(33, m, 5));
        pool.set_gene(b, 0, 3);
        pool.set_gene(b, 17, 8);
        pool.set_gene(b, 32, 1);
        pool.set_gene(b, 32, 1); // no-op keeps fp coherent
        pool.swap_suffix(b, c, 13);
        pool.swap_suffix(a, c, 32);
        let mut out = Vec::new();
        for idx in [a, b, c] {
            pool.read_genes(idx, &mut out);
            assert_eq!(
                pool.fp(idx),
                genome_fingerprint(&out, m),
                "genome {idx} fingerprint drifted from its genes"
            );
        }
        // Distinct genomes get distinct fingerprints here.
        assert_ne!(pool.fp(a), pool.fp(b));
        assert_ne!(pool.fp(b), pool.fp(c));
    }

    #[test]
    fn swap_suffix_swaps_exactly_the_suffix() {
        for (n, m, from) in [
            (20, 9, 7),
            (16, 9, 0),
            (16, 9, 16),
            (11, 30, 5),
            (48, 9, 16),
        ] {
            let mut pool = GenomePool::new(n, m);
            let ga = genome(n, m, 1);
            let gb = genome(n, m, 2);
            let a = pool.push_genes(&ga);
            let b = pool.push_genes(&gb);
            pool.swap_suffix(a, b, from);
            for s in 0..n {
                let (wa, wb) = if s < from {
                    (ga[s], gb[s])
                } else {
                    (gb[s], ga[s])
                };
                assert_eq!(pool.gene(a, s), wa, "n={n} m={m} from={from} stage {s}");
                assert_eq!(pool.gene(b, s), wb, "n={n} m={m} from={from} stage {s}");
            }
        }
    }

    #[test]
    fn copy_truncate_and_clear_manage_the_arena() {
        let mut cur = GenomePool::with_capacity(10, 9, 4);
        let g0 = genome(10, 9, 0);
        let g1 = genome(10, 9, 1);
        cur.push_genes(&g0);
        cur.push_genes(&g1);
        let mut next = GenomePool::new(10, 9);
        next.push_copy_from(&cur, 1);
        next.push_copy_from(&cur, 0);
        next.push_copy_from(&cur, 0);
        assert_eq!(next.len(), 3);
        assert_eq!(next.fp(0), cur.fp(1));
        next.truncate(1);
        assert_eq!(next.len(), 1);
        let mut out = Vec::new();
        next.read_genes(0, &mut out);
        assert_eq!(out, g1);
        next.clear();
        assert!(next.is_empty());
        next.push_genes(&g0);
        assert_eq!(next.fp(0), cur.fp(0));
    }

    #[test]
    fn scratch_eval_is_bit_identical_to_full_evaluation() {
        for m in [9, 30] {
            let t = table(13, m);
            let mut pool = GenomePool::new(13, m);
            for salt in 0..6 {
                pool.push_genes(&genome(13, m, salt));
            }
            let mut scratch = PoolScratch::new(&t);
            let mut out = Vec::new();
            // Jump around the pool (non-sequential diffs) to stress
            // mirror coherence.
            for &idx in &[0usize, 3, 1, 5, 2, 4, 0, 5] {
                let fast = scratch.eval_pool(&pool, idx);
                pool.read_genes(idx, &mut out);
                let full = t.evaluate(&out);
                assert_eq!(fast.time_us.to_bits(), full.time_us.to_bits());
                assert_eq!(
                    fast.aicore_energy_wus.to_bits(),
                    full.aicore_energy_wus.to_bits()
                );
                assert_eq!(fast.soc_energy_wus.to_bits(), full.soc_energy_wus.to_bits());
            }
        }
    }

    #[test]
    fn empty_genomes_are_supported() {
        let mut pool = GenomePool::new(0, 9);
        let idx = pool.push_genes(&[]);
        assert_eq!(pool.fp(idx), genome_fingerprint(&[], 9));
        let t = table(0, 9);
        let mut scratch = PoolScratch::new(&t);
        let e = scratch.eval_pool(&pool, idx);
        assert_eq!(e.time_us.to_bits(), t.evaluate(&[]).time_us.to_bits());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_genes() {
        let mut pool = GenomePool::new(3, 9);
        let _ = pool.push_genes(&[0, 9, 0]);
    }

    #[test]
    #[should_panic(expected = "alphabet")]
    fn rejects_oversized_alphabets() {
        let _ = GenomePool::new(3, 257);
    }
}
