//! Flat, allocation-free genome storage for the GA hot path.
//!
//! A GA generation used to live as `Vec<Vec<usize>>`: one heap
//! allocation per individual, 8 bytes per gene, and a full O(n) pass
//! (fingerprint + evaluation) per score. [`GenomePool`] replaces that
//! with a struct-of-arrays arena bound to the [`StageTable`] its genomes
//! are scored against:
//!
//! * **Bit-packed genes.** A gene indexes one of at most 256 frequency
//!   points, so it fits in 4 bits (≤16 points — the paper's ladder has
//!   9) or 8 bits. A GPT-3-sized genome (960 stages) is 60 `u64` words
//!   instead of 7.7 KB of `usize`s.
//! * **One contiguous buffer.** Genome `i` occupies
//!   `words[i*W .. (i+1)*W]`. Building the next generation reuses the
//!   arena via [`GenomePool::clear`] — after warm-up, a generation
//!   allocates nothing.
//! * **Incremental fingerprints.** Every genome carries a 64-bit
//!   fingerprint maintained as `base ^ XOR_w contrib(w, word_w)`, so a
//!   single-gene mutation updates the fingerprint in O(1) (XOR the old
//!   word's contribution out, the new one in) instead of re-hashing all
//!   n genes.
//! * **Block sums.** Every genome also keeps the [`Sums`] of its aligned
//!   power-of-two blocks of the evaluation tree: `max(8, n_pad / 32)`
//!   stages per block (`n_pad` = stage count rounded up to a power of
//!   two), so at most 32 blocks — 32 blocks of 32 stages for GPT-3's 960.
//!   An aligned block is a node of [`StageTable::evaluate`]'s pairwise
//!   tree, so folding the blocks to the root ([`GenomePool::evaluate`])
//!   is bit-identical to a full evaluation. Every mutator keeps the sums
//!   current from the genome's lineage: a copy takes its parent's
//!   blocks, a suffix swap exchanges the whole blocks past the cut and
//!   re-reduces only the cut block, a point mutation re-reduces its one
//!   block. A GA child therefore scores in a few dozen additions instead
//!   of a pass over every stage.
//!
//! [`genome_fingerprint`] computes the identical fingerprint for an
//! unpacked `&[usize]` genome.

use crate::strategy::{Evaluation, StageTable, Sums};

/// Fewest stages per block-sum block: below this, a short schedule's
/// blocks cost more to copy into every child than re-reducing one saves.
const MIN_BLOCK_STAGES: usize = 8;

/// Most blocks per genome (the fold's fixed-size stack buffer).
const MAX_BLOCKS: usize = 32;

/// How genes map onto `u64` words and evaluation-tree blocks for a given
/// table shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackLayout {
    n_stages: usize,
    n_freqs: usize,
    /// Bits per gene: 4 when the alphabet fits a nibble, else 8.
    gene_bits: u32,
    genes_per_word: usize,
    words_per_genome: usize,
    gene_mask: u64,
    /// Stages per block sum (a power of two).
    block_stages: usize,
    /// Blocks per genome: `n_pad / block_stages`, at most [`MAX_BLOCKS`].
    n_blocks: usize,
}

impl PackLayout {
    fn new(n_stages: usize, n_freqs: usize) -> Self {
        assert!(
            (1..=256).contains(&n_freqs),
            "gene alphabet must fit one byte: {n_freqs} frequency points"
        );
        let gene_bits: u32 = if n_freqs <= 16 { 4 } else { 8 };
        let genes_per_word = (64 / gene_bits) as usize;
        let n_pad = n_stages.next_power_of_two(); // 0 -> 1
        let block_stages = (n_pad / MAX_BLOCKS).max(MIN_BLOCK_STAGES).min(n_pad);
        Self {
            n_stages,
            n_freqs,
            gene_bits,
            genes_per_word,
            words_per_genome: n_stages.div_ceil(genes_per_word),
            gene_mask: (1u64 << gene_bits) - 1,
            block_stages,
            n_blocks: n_pad / block_stages,
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
/// [`GenomePool`] over an `n_freqs`-point table maintains for these
/// genes.
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

/// A flat arena of bit-packed genomes with per-genome fingerprints and
/// evaluation-tree block sums, bound to one [`StageTable`].
///
/// All genomes share one `Vec<u64>`; [`Self::clear`] keeps the buffers
/// for the next generation, so a warmed pool never allocates.
#[derive(Debug, Clone)]
pub struct GenomePool<'t> {
    table: &'t StageTable,
    layout: PackLayout,
    /// Genome `i` is `words[i*W .. (i+1)*W]`, `W = words_per_genome`.
    words: Vec<u64>,
    /// One fingerprint per genome, maintained incrementally.
    fps: Vec<u64>,
    /// Genome `i`'s block sums are `blocks[i*B .. (i+1)*B]`,
    /// `B = n_blocks`; block `b` covers stages
    /// `[b * block_stages, (b + 1) * block_stages)`.
    blocks: Vec<Sums>,
    base_fp: u64,
}

impl<'t> GenomePool<'t> {
    /// Creates an empty pool for genomes over `table`'s stages and
    /// frequency points.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 256 (or no) frequency points.
    #[must_use]
    pub fn new(table: &'t StageTable) -> Self {
        Self::with_capacity(table, 0)
    }

    /// [`Self::new`] with space pre-reserved for `genomes` individuals.
    #[must_use]
    pub fn with_capacity(table: &'t StageTable, genomes: usize) -> Self {
        let layout = PackLayout::new(table.n_stages(), table.n_freqs());
        Self {
            table,
            layout,
            words: Vec::with_capacity(genomes * layout.words_per_genome),
            fps: Vec::with_capacity(genomes),
            blocks: Vec::with_capacity(genomes * layout.n_blocks),
            base_fp: fp_base(layout.n_stages),
        }
    }

    /// The table this pool's genomes are scored against.
    pub(crate) fn table(&self) -> &'t StageTable {
        self.table
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
        self.blocks.clear();
    }

    /// Drops genomes past index `len` (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.fps.len() {
            self.fps.truncate(len);
            self.words.truncate(len * self.layout.words_per_genome);
            self.blocks.truncate(len * self.layout.n_blocks);
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
        for (w, chunk) in genes.chunks(self.layout.genes_per_word).enumerate() {
            let word = pack_word(&self.layout, chunk);
            self.words.push(word);
            fp ^= word_contrib(w, word);
        }
        self.fps.push(fp);
        let width = self.layout.block_stages;
        let mut genes = genes.iter().copied();
        for b in 0..self.layout.n_blocks {
            let sums = self.table.reduce(b * width, width, &mut genes);
            self.blocks.push(sums);
        }
        self.fps.len() - 1
    }

    /// Appends a copy of genome `src` from `other`, block sums included;
    /// returns the new index.
    ///
    /// # Panics
    ///
    /// Panics if `other` is bound to a different table (compared by
    /// address) or `src` is out of range.
    pub fn push_copy_from(&mut self, other: &GenomePool<'_>, src: usize) -> usize {
        assert!(
            std::ptr::eq(self.table, other.table),
            "pools must be bound to the same stage table"
        );
        self.words.extend_from_slice(other.words_of(src));
        self.blocks.extend_from_slice(other.blocks_of(src));
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
        let (w, b) = (self.layout.words_per_genome, self.layout.n_blocks);
        self.words.extend_from_within(src * w..(src + 1) * w);
        self.blocks.extend_from_within(src * b..(src + 1) * b);
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

    /// Sets one gene, updating the genome's fingerprint in O(1) and
    /// re-reducing the one block that holds the stage.
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
            self.reduce_block(idx, stage / self.layout.block_stages);
        }
    }

    /// Swaps the gene suffix `[from_stage, n_stages)` between genomes
    /// `a` and `b` — the GA's last-`k` crossover — word-at-a-time, with
    /// O(changed words) fingerprint updates. The whole blocks past the
    /// cut swap their sums; only the block the cut falls inside is
    /// re-reduced, once per genome.
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
                self.words[ia] = na;
                self.words[ib] = nb;
                self.fps[a] ^= word_contrib(w, va) ^ word_contrib(w, na);
                self.fps[b] ^= word_contrib(w, vb) ^ word_contrib(w, nb);
            }
        }
        let (width, nb) = (self.layout.block_stages, self.layout.n_blocks);
        let cut = from_stage / width;
        let mid_block = !from_stage.is_multiple_of(width);
        for blk in cut + usize::from(mid_block)..nb {
            self.blocks.swap(a * nb + blk, b * nb + blk);
        }
        if mid_block {
            self.reduce_block(a, cut);
            self.reduce_block(b, cut);
        }
    }

    /// Unpacks genome `idx` into `out` (cleared first).
    pub fn read_genes(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.genes_from(idx, 0));
    }

    /// The genome's 64-bit fingerprint (identical to
    /// [`genome_fingerprint`] of its unpacked genes).
    #[must_use]
    pub fn fp(&self, idx: usize) -> u64 {
        self.fps[idx]
    }

    /// Evaluates genome `idx` by folding its block sums to the root of
    /// the evaluation tree. Bit-identical to `table.evaluate(&genes)` of
    /// the unpacked genome.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn evaluate(&self, idx: usize) -> Evaluation {
        let mut acc = [Sums::ZERO; MAX_BLOCKS];
        let blocks = &mut acc[..self.layout.n_blocks];
        blocks.copy_from_slice(self.blocks_of(idx));
        self.table.finish_sums(Sums::fold(blocks))
    }

    /// The packed words of genome `idx`.
    fn words_of(&self, idx: usize) -> &[u64] {
        let w = self.layout.words_per_genome;
        &self.words[idx * w..(idx + 1) * w]
    }

    /// The block sums of genome `idx`.
    fn blocks_of(&self, idx: usize) -> &[Sums] {
        let b = self.layout.n_blocks;
        &self.blocks[idx * b..(idx + 1) * b]
    }

    /// The genes of genome `idx` from stage `from` on, in order.
    fn genes_from(&self, idx: usize, from: usize) -> impl Iterator<Item = usize> + '_ {
        (from..self.layout.n_stages).map(move |s| self.gene(idx, s))
    }

    /// Re-reduces block `blk` of genome `idx` from its packed genes.
    fn reduce_block(&mut self, idx: usize, blk: usize) {
        let width = self.layout.block_stages;
        let lo = blk * width;
        let sums = self.table.reduce(lo, width, &mut self.genes_from(idx, lo));
        self.blocks[idx * self.layout.n_blocks + blk] = sums;
    }
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

    fn assert_evaluates_like_full(pool: &GenomePool<'_>, t: &StageTable, idx: usize) {
        let mut genes = Vec::new();
        pool.read_genes(idx, &mut genes);
        let (fast, full) = (pool.evaluate(idx), t.evaluate(&genes));
        assert_eq!(fast.time_us.to_bits(), full.time_us.to_bits());
        assert_eq!(
            fast.aicore_energy_wus.to_bits(),
            full.aicore_energy_wus.to_bits()
        );
        assert_eq!(fast.soc_energy_wus.to_bits(), full.soc_energy_wus.to_bits());
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
    fn block_layout_keeps_at_most_32_blocks_of_at_least_8_stages() {
        for (n, block_stages, n_blocks) in [
            (0, 1, 1),
            (1, 1, 1),
            (7, 8, 1),
            (9, 8, 2),
            (256, 8, 32),
            (257, 16, 32),
            (960, 32, 32),
            (2_049, 128, 32),
        ] {
            let l = PackLayout::new(n, 9);
            assert_eq!(
                (l.block_stages, l.n_blocks),
                (block_stages, n_blocks),
                "n = {n}"
            );
        }
    }

    #[test]
    fn push_and_read_round_trip() {
        for m in [2, 9, 16, 17, 200] {
            let t = table(21, m);
            let mut pool = GenomePool::new(&t);
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
    fn fingerprints_and_sums_track_every_mutation_path() {
        let m = 9;
        let t = table(33, m);
        let mut pool = GenomePool::new(&t);
        let a = pool.push_genes(&genome(33, m, 0));
        let b = pool.push_clone(a);
        let c = pool.push_genes(&genome(33, m, 5));
        pool.set_gene(b, 0, 3);
        pool.set_gene(b, 17, 8);
        pool.set_gene(b, 32, 1);
        pool.set_gene(b, 32, 1); // no-op keeps fp and sums coherent
        pool.swap_suffix(b, c, 13);
        pool.swap_suffix(a, c, 32);
        pool.swap_suffix(a, b, 8); // block-aligned cut
        let mut out = Vec::new();
        for idx in [a, b, c] {
            pool.read_genes(idx, &mut out);
            assert_eq!(
                pool.fp(idx),
                genome_fingerprint(&out, m),
                "genome {idx} fingerprint drifted from its genes"
            );
            assert_evaluates_like_full(&pool, &t, idx);
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
            let t = table(n, m);
            let mut pool = GenomePool::new(&t);
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
            assert_evaluates_like_full(&pool, &t, a);
            assert_evaluates_like_full(&pool, &t, b);
        }
    }

    #[test]
    fn copy_truncate_and_clear_manage_the_arena() {
        let t = table(10, 9);
        let mut cur = GenomePool::with_capacity(&t, 4);
        let g0 = genome(10, 9, 0);
        let g1 = genome(10, 9, 1);
        cur.push_genes(&g0);
        cur.push_genes(&g1);
        let mut next = GenomePool::new(&t);
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
        assert_evaluates_like_full(&next, &t, 0);
        next.clear();
        assert!(next.is_empty());
        next.push_genes(&g0);
        assert_eq!(next.fp(0), cur.fp(0));
        assert_evaluates_like_full(&next, &t, 0);
    }

    #[test]
    fn evaluate_is_bit_identical_to_full_evaluation() {
        for (n, m) in [(13, 9), (13, 30), (300, 9)] {
            let t = table(n, m);
            let mut pool = GenomePool::new(&t);
            for salt in 0..6 {
                pool.push_genes(&genome(n, m, salt));
            }
            for idx in 0..6 {
                assert_evaluates_like_full(&pool, &t, idx);
            }
        }
    }

    #[test]
    fn empty_genomes_are_supported() {
        let t = table(0, 9);
        let mut pool = GenomePool::new(&t);
        let idx = pool.push_genes(&[]);
        assert_eq!(pool.fp(idx), genome_fingerprint(&[], 9));
        assert_evaluates_like_full(&pool, &t, idx);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_genes() {
        let t = table(3, 9);
        let mut pool = GenomePool::new(&t);
        let _ = pool.push_genes(&[0, 9, 0]);
    }

    #[test]
    #[should_panic(expected = "alphabet")]
    fn rejects_oversized_alphabets() {
        let t = table(3, 257);
        let _ = GenomePool::new(&t);
    }
}
