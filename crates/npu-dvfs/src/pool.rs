//! Flat, allocation-free genome storage for the GA hot path.
//!
//! A GA generation used to live as `Vec<Vec<usize>>`: one heap
//! allocation per individual, 8 bytes per gene, and a full O(n) pass per
//! score. [`GenomePool`] replaces that with a struct-of-arrays arena
//! bound to the [`StageTable`] its genomes are scored against:
//!
//! * **One byte per gene.** A gene indexes one of at most 256 frequency
//!   points, so genome `i` is the byte run `genes[i*n .. (i+1)*n]`. A
//!   GPT-3-sized genome (960 stages) is 960 bytes instead of 7.7 KB of
//!   `usize`s.
//! * **One contiguous buffer.** Building the next generation reuses the
//!   arena via [`GenomePool::clear`] — after warm-up, a generation
//!   allocates nothing.
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

use crate::strategy::{Evaluation, StageTable, Sums};

/// Fewest stages per block-sum block: below this, a short schedule's
/// blocks cost more to copy into every child than re-reducing one saves.
const MIN_BLOCK_STAGES: usize = 8;

/// Most blocks per genome (the fold's fixed-size stack buffer).
const MAX_BLOCKS: usize = 32;

/// Stages per block and blocks per genome for an `n_stages` schedule:
/// `max(8, n_pad / 32)` stages (capped at `n_pad`, a power of two) and
/// `n_pad / block_stages` blocks, at most [`MAX_BLOCKS`].
fn block_layout(n_stages: usize) -> (usize, usize) {
    let n_pad = n_stages.next_power_of_two(); // 0 -> 1
    let block_stages = (n_pad / MAX_BLOCKS).max(MIN_BLOCK_STAGES).min(n_pad);
    (block_stages, n_pad / block_stages)
}

/// A flat arena of one-byte-per-gene genomes with per-genome
/// evaluation-tree block sums, bound to one [`StageTable`].
///
/// All genomes share one `Vec<u8>`; [`Self::clear`] keeps the buffers
/// for the next generation, so a warmed pool never allocates.
#[derive(Debug, Clone)]
pub struct GenomePool<'t> {
    table: &'t StageTable,
    /// Stages per block sum (a power of two).
    block_stages: usize,
    /// Blocks per genome, at least 1 (so it also counts the genomes of
    /// an empty schedule).
    n_blocks: usize,
    /// Genome `i` is `genes[i*n .. (i+1)*n]`, `n = n_stages`.
    genes: Vec<u8>,
    /// Genome `i`'s block sums are `blocks[i*B .. (i+1)*B]`,
    /// `B = n_blocks`; block `b` covers stages
    /// `[b * block_stages, (b + 1) * block_stages)`.
    blocks: Vec<Sums>,
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
        let n_freqs = table.n_freqs();
        assert!(
            (1..=256).contains(&n_freqs),
            "gene alphabet must fit one byte: {n_freqs} frequency points"
        );
        let (block_stages, n_blocks) = block_layout(table.n_stages());
        Self {
            table,
            block_stages,
            n_blocks,
            genes: Vec::with_capacity(genomes * table.n_stages()),
            blocks: Vec::with_capacity(genomes * n_blocks),
        }
    }

    /// Genes per genome.
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.table.n_stages()
    }

    /// Alphabet size.
    #[must_use]
    pub fn n_freqs(&self) -> usize {
        self.table.n_freqs()
    }

    /// Number of genomes currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len() / self.n_blocks
    }

    /// Whether the pool holds no genomes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Drops all genomes, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.genes.clear();
        self.blocks.clear();
    }

    /// Drops genomes past index `len` (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.genes.truncate(len * self.n_stages());
        self.blocks.truncate(len * self.n_blocks);
    }

    /// Appends a genome from its genes; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the gene count disagrees or a gene is out of range.
    pub fn push_genes(&mut self, genes: &[usize]) -> usize {
        assert_eq!(genes.len(), self.n_stages(), "gene count must match stages");
        let m = self.n_freqs();
        for &g in genes {
            assert!(g < m, "gene {g} out of range ({m} frequency points)");
            self.genes.push(g as u8);
        }
        let width = self.block_stages;
        let mut genes = genes.iter().copied();
        for b in 0..self.n_blocks {
            let sums = self.table.reduce(b * width, width, &mut genes);
            self.blocks.push(sums);
        }
        self.len() - 1
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
        self.blocks.extend_from_slice(other.blocks_of(src));
        self.genes.extend_from_slice(other.genes_of(src));
        self.len() - 1
    }

    /// Appends a copy of this pool's own genome `src`; returns the index.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn push_clone(&mut self, src: usize) -> usize {
        assert!(src < self.len(), "genome {src} out of range");
        let (n, b) = (self.n_stages(), self.n_blocks);
        self.genes.extend_from_within(src * n..(src + 1) * n);
        self.blocks.extend_from_within(src * b..(src + 1) * b);
        self.len() - 1
    }

    /// Reads one gene.
    ///
    /// # Panics
    ///
    /// Panics if `idx` or `stage` is out of range.
    #[must_use]
    pub fn gene(&self, idx: usize, stage: usize) -> usize {
        usize::from(self.genes_of(idx)[stage])
    }

    /// Sets one gene, re-reducing the one block that holds the stage.
    ///
    /// # Panics
    ///
    /// Panics if `idx`, `stage` or `gene` is out of range.
    pub fn set_gene(&mut self, idx: usize, stage: usize, gene: usize) {
        let m = self.n_freqs();
        assert!(gene < m, "gene {gene} out of range ({m} frequency points)");
        let n = self.n_stages();
        let slot = &mut self.genes[idx * n..(idx + 1) * n][stage];
        if usize::from(*slot) != gene {
            *slot = gene as u8;
            self.reduce_block(idx, stage / self.block_stages);
        }
    }

    /// Swaps the gene suffix `[from_stage, n_stages)` between genomes
    /// `a` and `b` — the GA's last-`k` crossover. The whole blocks past
    /// the cut swap their sums; only the block the cut falls inside is
    /// re-reduced, once per genome.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `from_stage > n_stages`.
    pub fn swap_suffix(&mut self, a: usize, b: usize, from_stage: usize) {
        let n = self.n_stages();
        assert!(from_stage <= n, "suffix start past end");
        if a == b || from_stage == n {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.genes.split_at_mut(hi * n);
        head[lo * n + from_stage..(lo + 1) * n].swap_with_slice(&mut tail[from_stage..n]);
        let (width, nb) = (self.block_stages, self.n_blocks);
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

    /// Reads genome `idx`'s genes into `out` (cleared first).
    pub fn read_genes(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.genes_of(idx).iter().map(|&g| usize::from(g)));
    }

    /// Evaluates genome `idx` by folding its block sums to the root of
    /// the evaluation tree. Bit-identical to `table.evaluate(&genes)` of
    /// the genome's genes.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn evaluate(&self, idx: usize) -> Evaluation {
        let mut acc = [Sums::ZERO; MAX_BLOCKS];
        let blocks = &mut acc[..self.n_blocks];
        blocks.copy_from_slice(self.blocks_of(idx));
        self.table.finish_sums(Sums::fold(blocks))
    }

    /// The genes of genome `idx`.
    fn genes_of(&self, idx: usize) -> &[u8] {
        let n = self.n_stages();
        &self.genes[idx * n..(idx + 1) * n]
    }

    /// The block sums of genome `idx`.
    fn blocks_of(&self, idx: usize) -> &[Sums] {
        let b = self.n_blocks;
        &self.blocks[idx * b..(idx + 1) * b]
    }

    /// Re-reduces block `blk` of genome `idx` from its genes.
    fn reduce_block(&mut self, idx: usize, blk: usize) {
        let width = self.block_stages;
        let lo = blk * width;
        let mut genes = self.genes_of(idx)[lo..].iter().map(|&g| usize::from(g));
        let sums = self.table.reduce(lo, width, &mut genes);
        self.blocks[idx * self.n_blocks + blk] = sums;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::score;
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
            assert_eq!(block_layout(n), (block_stages, n_blocks), "n = {n}");
        }
    }

    #[test]
    fn push_and_read_round_trip() {
        for m in [2, 9, 16, 17, 200, 256] {
            let t = table(21, m);
            let mut pool = GenomePool::new(&t);
            let mut g = genome(21, m, 1);
            g[20] = m - 1; // the alphabet's top gene fits its byte
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
    fn sums_track_every_mutation_path() {
        let m = 9;
        let t = table(33, m);
        let mut pool = GenomePool::new(&t);
        let a = pool.push_genes(&genome(33, m, 0));
        let b = pool.push_clone(a);
        let c = pool.push_genes(&genome(33, m, 5));
        pool.set_gene(b, 0, 3);
        pool.set_gene(b, 17, 8);
        pool.set_gene(b, 32, 1);
        pool.set_gene(b, 32, 1); // a no-op write keeps the sums coherent
        pool.swap_suffix(b, c, 13);
        pool.swap_suffix(a, c, 32);
        pool.swap_suffix(a, b, 8); // block-aligned cut
        for idx in [a, b, c] {
            assert_evaluates_like_full(&pool, &t, idx);
        }
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
            // The later genome first: the swap must not depend on order.
            let b = pool.push_genes(&gb);
            let a = pool.push_genes(&ga);
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
        next.truncate(1);
        assert_eq!(next.len(), 1);
        let mut out = Vec::new();
        next.read_genes(0, &mut out);
        assert_eq!(out, g1);
        assert_evaluates_like_full(&next, &t, 0);
        next.clear();
        assert!(next.is_empty());
        next.push_genes(&g0);
        next.read_genes(0, &mut out);
        assert_eq!(out, g0);
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
    fn pool_scores_bit_match_direct_evaluation() {
        let t = table(11, 9);
        let baseline = t.baseline().time_us;
        // Stages 0-2 spell `i` in base 9, so all 200 genomes are distinct.
        let population: Vec<Vec<usize>> = (0..200_usize)
            .map(|i| {
                (0..11_u32)
                    .map(|s| (i / 9_usize.pow(s % 3) + s as usize) % t.n_freqs())
                    .collect()
            })
            .collect();
        let mut pool = GenomePool::new(&t);
        for g in &population {
            pool.push_genes(g);
        }
        for (i, g) in population.iter().enumerate() {
            let want = score(&t.evaluate(g), baseline, 0.02);
            let got = score(&pool.evaluate(i), baseline, 0.02);
            assert_eq!(got.to_bits(), want.to_bits(), "genome {i}");
        }
    }

    #[test]
    fn empty_genomes_are_supported() {
        let t = table(0, 9);
        let mut pool = GenomePool::new(&t);
        let idx = pool.push_genes(&[]);
        assert_eq!((idx, pool.len()), (0, 1));
        assert_evaluates_like_full(&pool, &t, idx);
        assert_eq!(pool.push_clone(idx), 1);
        pool.truncate(1);
        assert_eq!(pool.len(), 1);
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
