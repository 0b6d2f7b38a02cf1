//! Stage-level prediction tables and the DVFS strategy type.
//!
//! The genetic algorithm must score thousands of candidate strategies per
//! second (paper Sect. 8.1: a policy is evaluated in milliseconds, which
//! is why model-based search beats model-free). [`StageTable`] precomputes
//! predicted time and energy for every `(stage, frequency)` pair once, in
//! a flat stage-major layout (`[stage][freq]` contiguous `f64` rows), so
//! scoring an individual is one linear scan — and the
//! [`crate::engine::IncrementalEval`] engine re-scores an individual in
//! O(changed genes · log stages) on top of the same cells.
//!
//! Evaluation sums per-stage contributions over a **fixed-topology
//! pairwise tree** (stages padded to a power of two) rather than a
//! left-to-right running sum. The tree makes the result independent of
//! *how* the sum is reached: a fresh full pass and an incremental update
//! of any gene subset produce bit-identical totals, which is what lets
//! the GA mix full, incremental, and parallel evaluation freely without
//! perturbing the search trajectory.

use crate::preprocess::{Preprocessed, Stage};
use npu_perf_model::PerfModelStore;
use npu_power_model::PowerModel;
use npu_sim::{FreqMhz, FrequencyTable};
use std::fmt;
use std::sync::Arc;

/// Predicted outcome of one strategy (one GA individual).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Predicted iteration time, µs.
    pub time_us: f64,
    /// Predicted AICore energy, W·µs.
    pub aicore_energy_wus: f64,
    /// Predicted SoC energy, W·µs.
    pub soc_energy_wus: f64,
}

impl Evaluation {
    /// Average AICore power, W.
    #[must_use]
    pub fn aicore_w(&self) -> f64 {
        if self.time_us > 0.0 {
            self.aicore_energy_wus / self.time_us
        } else {
            0.0
        }
    }

    /// Average SoC power, W.
    #[must_use]
    pub fn soc_w(&self) -> f64 {
        if self.time_us > 0.0 {
            self.soc_energy_wus / self.time_us
        } else {
            0.0
        }
    }
}

/// Errors building a [`StageTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// Table dimensions disagree.
    ShapeMismatch,
    /// A stage references operators outside the model stores.
    OpOutOfRange {
        /// Offending stage index.
        stage: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch => write!(f, "table dimensions disagree"),
            Self::OpOutOfRange { stage } => {
                write!(
                    f,
                    "stage {stage} references operators outside the model stores"
                )
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Thermal coupling used when scoring strategies: the workload-level
/// temperature fix point (paper Sect. 5.4.2) applied across stages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThermalCoupling {
    /// AICore temperature coefficient, W/(K·V).
    pub gamma_aicore: f64,
    /// SoC temperature coefficient, W/(K·V).
    pub gamma_soc: f64,
    /// Thermal coupling constant, °C/W.
    pub k_c_per_w: f64,
}

/// Widest leaf range [`StageTable::reduce`] folds without recursing.
const LEAF_RUN: usize = 32;

/// Per-stage accumulator: the four running totals an evaluation needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Sums {
    /// Time, µs.
    pub time: f64,
    /// Temperature-independent AICore energy, W·µs.
    pub ea: f64,
    /// Temperature-independent SoC energy, W·µs.
    pub es: f64,
    /// ∫ V dt, V·µs (feeds the thermal fix point).
    pub vt: f64,
}

impl Sums {
    pub(crate) const ZERO: Sums = Sums {
        time: 0.0,
        ea: 0.0,
        es: 0.0,
        vt: 0.0,
    };

    /// The one combining operation used by every evaluation path. All
    /// summation topologies route through this exact `left + right` so
    /// full and incremental evaluation stay bit-identical.
    #[inline]
    pub(crate) fn add(left: Sums, right: Sums) -> Sums {
        Sums {
            time: left.time + right.time,
            ea: left.ea + right.ea,
            es: left.es + right.es,
            vt: left.vt + right.vt,
        }
    }

    /// Folds a power-of-two run of sibling subtree sums to their root,
    /// level by level, adjacent pairs first: the same `left + right`
    /// pairs recursive halving adds. Overwrites `sums`.
    pub(crate) fn fold(sums: &mut [Sums]) -> Sums {
        debug_assert!(sums.len().is_power_of_two());
        let mut k = sums.len();
        while k > 1 {
            k /= 2;
            for i in 0..k {
                sums[i] = Sums::add(sums[2 * i], sums[2 * i + 1]);
            }
        }
        sums[0]
    }
}

/// Precomputed per-stage, per-frequency predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTable {
    freqs: Vec<FreqMhz>,
    /// Supply voltage per frequency point, V.
    volts: Vec<f64>,
    stages: Vec<Stage>,
    /// Stage-major `[stage][freq]` predicted time, µs (`stage * n_freqs + freq`).
    time_us: Vec<f64>,
    /// Stage-major temperature-independent AICore energy, W·µs.
    aicore_e: Vec<f64>,
    /// Stage-major temperature-independent SoC energy, W·µs.
    soc_e: Vec<f64>,
    coupling: ThermalCoupling,
}

impl StageTable {
    /// Builds the table from preprocessed stages plus the performance and
    /// power models (paper Sect. 6.3.2: per-stage predictions feed
    /// individual scoring).
    ///
    /// # Errors
    ///
    /// Returns [`TableError::OpOutOfRange`] when a stage's operator range
    /// exceeds either model store.
    pub fn build(
        pre: &Preprocessed,
        perf: &PerfModelStore,
        power: &PowerModel,
        freqs: &FrequencyTable,
    ) -> Result<Self, TableError> {
        let fs: Vec<FreqMhz> = freqs.iter().collect();
        let volts: Vec<f64> = fs.iter().map(|&f| power.voltage_curve().volts(f)).collect();
        let m = fs.len();
        let mut time_us = Vec::with_capacity(pre.len() * m);
        let mut aicore_e = Vec::with_capacity(pre.len() * m);
        let mut soc_e = Vec::with_capacity(pre.len() * m);
        for (si, stage) in pre.stages().iter().enumerate() {
            if stage.op_range.end > perf.len() || stage.op_range.end > power.len() {
                return Err(TableError::OpOutOfRange { stage: si });
            }
            for &f in &fs {
                let mut t = 0.0;
                let mut ea = 0.0;
                let mut es = 0.0;
                for i in stage.op_range.clone() {
                    let dt = perf.predict_time_us(i, f);
                    let p = power.predict_base(i, f);
                    t += dt;
                    ea += p.aicore_w * dt;
                    es += p.soc_w * dt;
                }
                time_us.push(t);
                aicore_e.push(ea);
                soc_e.push(es);
            }
        }
        Ok(Self {
            freqs: fs,
            volts,
            stages: pre.stages().to_vec(),
            time_us,
            aicore_e,
            soc_e,
            coupling: ThermalCoupling {
                gamma_aicore: power.gamma(npu_power_model::PowerDomain::AiCore),
                gamma_soc: power.gamma(npu_power_model::PowerDomain::Soc),
                k_c_per_w: power.k_c_per_w(),
            },
        })
    }

    /// Builds a table from raw prediction arrays (used by tests and
    /// synthetic benchmarks). Rows are `[stage][freq]`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::ShapeMismatch`] when dimensions disagree.
    pub fn from_parts(
        freqs: Vec<FreqMhz>,
        stages: Vec<Stage>,
        time_us: Vec<Vec<f64>>,
        aicore_e: Vec<Vec<f64>>,
        soc_e: Vec<Vec<f64>>,
    ) -> Result<Self, TableError> {
        let n = stages.len();
        let m = freqs.len();
        let ok = time_us.len() == n
            && aicore_e.len() == n
            && soc_e.len() == n
            && time_us.iter().all(|r| r.len() == m)
            && aicore_e.iter().all(|r| r.len() == m)
            && soc_e.iter().all(|r| r.len() == m);
        if !ok {
            return Err(TableError::ShapeMismatch);
        }
        let volts = vec![0.0; freqs.len()];
        Ok(Self {
            freqs,
            volts,
            stages,
            time_us: time_us.into_iter().flatten().collect(),
            aicore_e: aicore_e.into_iter().flatten().collect(),
            soc_e: soc_e.into_iter().flatten().collect(),
            coupling: ThermalCoupling::default(),
        })
    }

    /// Overrides the thermal coupling (for synthetic tables built with
    /// [`Self::from_parts`], which default to no coupling). `volts[i]`
    /// must correspond to `freqs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `volts` length disagrees with the frequency count.
    #[must_use]
    pub fn with_thermal_coupling(mut self, coupling: ThermalCoupling, volts: Vec<f64>) -> Self {
        assert_eq!(volts.len(), self.freqs.len());
        self.coupling = coupling;
        self.volts = volts;
        self
    }

    /// Supported frequencies (gene alphabet), ascending.
    #[must_use]
    pub fn freqs(&self) -> &[FreqMhz] {
        &self.freqs
    }

    /// The candidate stages.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of stages (genes per individual).
    #[must_use]
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of frequency points (alphabet size).
    #[must_use]
    pub fn n_freqs(&self) -> usize {
        self.freqs.len()
    }

    /// The gene of the lowest table frequency at or above `f`; the top
    /// gene when `f` lies above the ladder.
    pub(crate) fn gene_at_or_above(&self, f: FreqMhz) -> usize {
        self.freqs
            .iter()
            .position(|&g| g >= f)
            .unwrap_or(self.freqs.len().saturating_sub(1))
    }

    /// Maps a strategy's per-stage frequencies onto this table, into
    /// `genes`: each frequency through [`Self::gene_at_or_above`], and a
    /// strategy of another length stretched or compressed by proportional
    /// stage index, so one searched under a different stage split still
    /// lands. `freqs` must not be empty.
    pub(crate) fn map_freqs(&self, freqs: &[FreqMhz], genes: &mut Vec<usize>) {
        let n = self.n_stages();
        genes.clear();
        genes.extend((0..n).map(|i| self.gene_at_or_above(freqs[i * freqs.len() / n])));
    }

    /// The `(time, aicore_e, soc_e, volt·time)` contribution of one
    /// `(stage, gene)` cell.
    ///
    /// # Panics
    ///
    /// Panics if `gene` is out of range (prevents silently reading a
    /// neighbouring stage's row in the flat layout).
    #[inline(always)]
    pub(crate) fn cell(&self, stage: usize, gene: usize) -> Sums {
        let m = self.freqs.len();
        assert!(gene < m, "gene {gene} out of range ({m} frequency points)");
        let i = stage * m + gene;
        let t = self.time_us[i];
        Sums {
            time: t,
            ea: self.aicore_e[i],
            es: self.soc_e[i],
            vt: self.volts[gene] * t,
        }
    }

    /// One stage's predicted times and temperature-independent AICore
    /// energies, one entry per gene: the `time` and `ea` that
    /// [`Self::cell`] reads.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[inline]
    pub(crate) fn rows(&self, stage: usize) -> (&[f64], &[f64]) {
        let m = self.freqs.len();
        let cells = stage * m..(stage + 1) * m;
        (&self.time_us[cells.clone()], &self.aicore_e[cells])
    }

    /// The thermal coupling applied by [`Self::finish_sums`] (lets the
    /// exact solver decide whether the fix point can affect a score).
    pub(crate) fn coupling(&self) -> ThermalCoupling {
        self.coupling
    }

    /// Finishes an evaluation from accumulated sums: runs the
    /// workload-level temperature fix point (the chip's thermal time
    /// constant dwarfs any stage, so ΔT follows the time-averaged SoC
    /// power of the whole iteration; ≤4 iterations in practice).
    pub(crate) fn finish_sums(&self, sums: Sums) -> Evaluation {
        let mut dt = 0.0;
        if sums.time > 0.0 && self.coupling.k_c_per_w > 0.0 {
            for _ in 0..8 {
                let p_soc = (sums.es + self.coupling.gamma_soc * dt * sums.vt) / sums.time;
                let new_dt = self.coupling.k_c_per_w * p_soc;
                if (new_dt - dt).abs() < 0.05 {
                    dt = new_dt;
                    break;
                }
                dt = new_dt;
            }
        }
        Evaluation {
            time_us: sums.time,
            aicore_energy_wus: sums.ea + self.coupling.gamma_aicore * dt * sums.vt,
            soc_energy_wus: sums.es + self.coupling.gamma_soc * dt * sums.vt,
        }
    }

    /// Fixed-topology pairwise reduction of the stage cells over the leaf
    /// range `[lo, lo + width)`, where `lo` is a multiple of `width`, a
    /// power of two. `genes` yields the genes of the stages in the range,
    /// in order; leaves past the last stage contribute zero. This is the
    /// exact summation tree [`crate::engine::IncrementalEval`] maintains,
    /// and the range is one of its nodes — what [`crate::GenomePool`]'s
    /// block sums store.
    ///
    /// A range of up to [`LEAF_RUN`] leaves gathers its cells into a
    /// buffer (zeros past the last stage) and [`Sums::fold`]s it; wider
    /// ranges halve recursively down to that size.
    ///
    /// # Panics
    ///
    /// Panics if `genes` runs out before the last stage in the range.
    pub(crate) fn reduce(
        &self,
        lo: usize,
        width: usize,
        genes: &mut impl Iterator<Item = usize>,
    ) -> Sums {
        debug_assert!(width.is_power_of_two() && lo.is_multiple_of(width));
        if width > LEAF_RUN {
            let half = width / 2;
            let left = self.reduce(lo, half, genes);
            return Sums::add(left, self.reduce(lo + half, half, genes));
        }
        let mut buf = [Sums::ZERO; LEAF_RUN];
        let live = width.min(self.n_stages().saturating_sub(lo));
        for (k, slot) in buf[..live].iter_mut().enumerate() {
            let stage = lo + k;
            let Some(gene) = genes.next() else {
                panic!("gene iterator ended at stage {stage}");
            };
            *slot = self.cell(stage, gene);
        }
        Sums::fold(&mut buf[..width])
    }

    /// Evaluates an individual: per-stage predicted time/energy summed
    /// over the iteration (pairwise tree), then the thermal fix point.
    ///
    /// # Panics
    ///
    /// Panics if `genes.len() != n_stages()` or a gene is out of range.
    #[must_use]
    pub fn evaluate(&self, genes: &[usize]) -> Evaluation {
        assert_eq!(genes.len(), self.n_stages(), "gene count must match stages");
        if genes.is_empty() {
            return self.finish_sums(Sums::ZERO);
        }
        let width = genes.len().next_power_of_two();
        self.finish_sums(self.reduce(0, width, &mut genes.iter().copied()))
    }

    /// The all-max-frequency baseline evaluation.
    #[must_use]
    pub fn baseline(&self) -> Evaluation {
        let g = vec![self.n_freqs() - 1; self.n_stages()];
        self.evaluate(&g)
    }
}

/// A concrete DVFS strategy: one frequency per candidate stage.
///
/// The strategy is immutable and shares its stages and frequencies
/// behind one [`Arc`], so a clone (one per served request) allocates
/// nothing.
#[derive(Clone, PartialEq)]
pub struct DvfsStrategy(Arc<(Vec<Stage>, Vec<FreqMhz>)>);

impl DvfsStrategy {
    /// Creates a strategy; `freqs[i]` applies to `stages[i]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    #[must_use]
    pub fn new(stages: Vec<Stage>, freqs: Vec<FreqMhz>) -> Self {
        assert_eq!(stages.len(), freqs.len(), "one frequency per stage");
        Self(Arc::new((stages, freqs)))
    }

    /// The stages.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.0 .0
    }

    /// Per-stage frequencies.
    #[must_use]
    pub fn freqs(&self) -> &[FreqMhz] {
        &self.0 .1
    }

    /// Number of stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages().len()
    }

    /// Whether the strategy is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages().is_empty()
    }

    /// Number of `SetFreq` commands needed to execute the strategy from
    /// `initial`: one per stage boundary where the frequency changes.
    #[must_use]
    pub fn setfreq_count(&self, initial: FreqMhz) -> usize {
        let mut cur = initial;
        let mut count = 0;
        for &f in self.freqs() {
            if f != cur {
                count += 1;
                cur = f;
            }
        }
        count
    }
}

/// The text a derived `Debug` on `{ stages, freqs }` would print.
impl fmt::Debug for DvfsStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DvfsStrategy")
            .field("stages", &self.stages())
            .field("freqs", &self.freqs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::StageKind;

    fn mk_stage(start: f64, dur: f64, range: std::ops::Range<usize>, kind: StageKind) -> Stage {
        Stage {
            start_us: start,
            dur_us: dur,
            op_range: range,
            kind,
        }
    }

    fn synthetic_table() -> StageTable {
        // Two freqs (1000, 1800); stage 0 memory-bound (flat time), stage
        // 1 compute-bound (time ~ 1/f).
        let freqs = vec![FreqMhz::new(1000), FreqMhz::new(1800)];
        let stages = vec![
            mk_stage(0.0, 100.0, 0..1, StageKind::Lfc),
            mk_stage(100.0, 100.0, 1..2, StageKind::Hfc),
        ];
        let time = vec![vec![102.0, 100.0], vec![180.0, 100.0]];
        let ea = vec![vec![2_000.0, 3_500.0], vec![4_000.0, 5_000.0]];
        let es = vec![vec![20_000.0, 25_000.0], vec![30_000.0, 28_000.0]];
        StageTable::from_parts(freqs, stages, time, ea, es).unwrap()
    }

    #[test]
    fn evaluate_sums_rows() {
        let t = synthetic_table();
        let e = t.evaluate(&[0, 1]);
        assert!((e.time_us - 202.0).abs() < 1e-12);
        assert!((e.aicore_energy_wus - 7_000.0).abs() < 1e-12);
        assert!((e.soc_energy_wus - 48_000.0).abs() < 1e-12);
        assert!((e.aicore_w() - 7_000.0 / 202.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_is_all_max() {
        let t = synthetic_table();
        let b = t.baseline();
        assert!((b.time_us - 200.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gene count")]
    fn evaluate_validates_gene_count() {
        let t = synthetic_table();
        let _ = t.evaluate(&[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn evaluate_validates_gene_values() {
        let t = synthetic_table();
        let _ = t.evaluate(&[0, 2]);
    }

    #[test]
    fn pairwise_sum_matches_linear_for_odd_stage_counts() {
        // Three stages pad to a 4-leaf tree; the zero padding leaf must
        // not perturb the totals.
        let freqs = vec![FreqMhz::new(1000), FreqMhz::new(1800)];
        let stages: Vec<Stage> = (0..3)
            .map(|i| mk_stage(i as f64, 1.0, i..i + 1, StageKind::Lfc))
            .collect();
        let rows = |v: f64| vec![vec![v, v + 1.0]; 3];
        let t = StageTable::from_parts(freqs, stages, rows(10.0), rows(20.0), rows(30.0)).unwrap();
        let e = t.evaluate(&[0, 1, 0]);
        assert!((e.time_us - (10.0 + 11.0 + 10.0)).abs() < 1e-12);
        assert!((e.aicore_energy_wus - (20.0 + 21.0 + 20.0)).abs() < 1e-12);
        assert!((e.soc_energy_wus - (30.0 + 31.0 + 30.0)).abs() < 1e-12);
    }

    #[test]
    fn from_parts_validates_shapes() {
        let freqs = vec![FreqMhz::new(1000)];
        let stages = vec![mk_stage(0.0, 1.0, 0..1, StageKind::Lfc)];
        let err = StageTable::from_parts(
            freqs,
            stages,
            vec![vec![1.0, 2.0]], // wrong width
            vec![vec![1.0]],
            vec![vec![1.0]],
        )
        .unwrap_err();
        assert_eq!(err, TableError::ShapeMismatch);
    }

    #[test]
    fn setfreq_count_counts_transitions() {
        let stages = vec![
            mk_stage(0.0, 1.0, 0..1, StageKind::Lfc),
            mk_stage(1.0, 1.0, 1..2, StageKind::Hfc),
            mk_stage(2.0, 1.0, 2..3, StageKind::Lfc),
        ];
        let s = DvfsStrategy::new(
            stages,
            vec![FreqMhz::new(1200), FreqMhz::new(1800), FreqMhz::new(1800)],
        );
        assert_eq!(s.setfreq_count(FreqMhz::new(1800)), 2); // ->1200, ->1800
        assert_eq!(s.setfreq_count(FreqMhz::new(1200)), 1);
    }

    #[test]
    fn clones_share_storage_and_debug_prints_the_fields() {
        let stages = vec![mk_stage(0.0, 1.0, 0..1, StageKind::Lfc)];
        let s = DvfsStrategy::new(stages.clone(), vec![FreqMhz::new(1200)]);
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.0, &c.0));
        assert_eq!(c, s);
        assert_eq!(
            format!("{s:?}"),
            format!("DvfsStrategy {{ stages: {stages:?}, freqs: [FreqMhz(1200)] }}")
        );
    }
}
