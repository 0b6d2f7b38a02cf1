//! # npu-dvfs — fine-grained DVFS strategy generation
//!
//! Implements Sect. 6 of the paper:
//!
//! * [`classify`] — bottleneck classification from profiler pipeline
//!   ratios (Fig. 12) and the frequency-sensitivity split (Table 1);
//! * [`preprocess`] — the four-step pipeline of Fig. 13 that turns a
//!   profiled iteration into Low/High Frequency Candidate stages and
//!   merges candidates shorter than the frequency-adjustment interval;
//! * [`StageTable`] — precomputed per-stage/per-frequency performance and
//!   power predictions, so one strategy scores in microseconds
//!   (the model-based advantage of paper Sect. 8.1);
//! * [`LossBudget`] — the performance bound `T ≤ B/(1−ℓ)` of Sect. 6.3
//!   and the measured loss `1 − B/T`, the one form every search, baseline
//!   and report here uses;
//! * [`search`] — the genetic algorithm (Sect. 6.3): baseline + prior
//!   individuals, Eq. (17) scoring with a doubled score when the
//!   performance bound is met, roulette selection, last-`k` crossover and
//!   point mutation, then the serving search's coordinate ascent from the
//!   best individual;
//! * [`IncrementalEval`] / [`RouletteWheel`] — incremental evaluation
//!   for the coordinate ascent and the baselines (O(changed genes ·
//!   log stages) per re-score, bit-identical to a full pass) and the GA's
//!   O(log n) roulette selection;
//! * [`GenomePool`] — the structure-of-arrays genome arena the GA
//!   generations live in, bound to its [`StageTable`]: one byte per
//!   gene, one contiguous buffer reused across generations, and
//!   per-genome block sums of the evaluation tree that children inherit
//!   from their parents, so scoring a child folds at most 32 sums
//!   instead of re-summing every stage;
//! * [`exact`] — the per-stage separable oracle: a Pareto-frontier
//!   dynamic program that certifies the true Eq. (17) optimum on
//!   thermally-uncoupled tables (bit-identical to [`StageTable`]
//!   evaluation), plus the Lagrangian-relaxation ladder that can seed
//!   the GA population;
//! * [`serving_search`] — the search the serving paths run: the exact
//!   solver's answer or a higher-scoring warm-start seed, as a
//!   [`GaOutcome`]. The GA stays for the paper's figures.
//!
//! # Example
//!
//! ```
//! use npu_dvfs::{preprocess::preprocess, GaConfig};
//!
//! // Preprocess an empty profile: no stages, nothing to search.
//! let pre = preprocess(&[], 5_000.0);
//! assert!(pre.is_empty());
//! let cfg = GaConfig::default().with_loss_target(0.02);
//! assert_eq!(cfg.perf_loss_target, 0.02);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
mod budget;
pub mod classify;
mod engine;
pub mod exact;
mod ga;
pub mod persist;
mod pool;
pub mod preprocess;
mod strategy;

pub use baseline::{phase_level, program_level, BaselineOutcome};
pub use budget::LossBudget;
pub use classify::{Bottleneck, Sensitivity};
pub use engine::{IncrementalEval, RouletteWheel};
pub use exact::{serving_search, ExactOutcome, LagrangianSeed};
pub use ga::{score, search, search_observed, GaConfig, GaOutcome};
pub use persist::{read_strategy, write_strategy, StrategyParseError, STRATEGY_HEADER};
pub use pool::GenomePool;
pub use preprocess::{Preprocessed, Stage, StageKind};
pub use strategy::{DvfsStrategy, Evaluation, StageTable, TableError, ThermalCoupling};
