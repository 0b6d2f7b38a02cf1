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
//! * [`search`] — the genetic algorithm (Sect. 6.3): baseline + prior
//!   individuals, Eq. (17) scoring with a doubled score when the
//!   performance bound is met, roulette selection, last-`k` crossover and
//!   point mutation;
//! * [`EvalEngine`] / [`IncrementalEval`] / [`RouletteWheel`] — the
//!   evaluation engine behind [`search`]: memoized (bounded,
//!   deterministically evicting [`FingerprintRing`]), incremental
//!   (O(changed genes · log stages) per re-score, bit-identical to a
//!   full pass) and parallel across scoped worker threads without
//!   perturbing the seeded search trajectory;
//! * [`GenomePool`] / [`PoolScratch`] — the bit-packed structure-of-
//!   arrays genome arena the GA generations live in: 4 bits per gene for
//!   the paper's 9-level frequency ladder, one contiguous buffer reused
//!   across generations, O(1) incrementally-maintained fingerprints, and
//!   word-level delta extraction so scoring touches only changed stages;
//! * [`exact`] — the per-stage separable oracle: a Pareto-frontier
//!   dynamic program that certifies the true Eq. (17) optimum on
//!   thermally-uncoupled tables (bit-identical to [`StageTable`]
//!   evaluation), plus the Lagrangian-relaxation ladder that seeds the
//!   GA population on large schedules.
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
pub mod classify;
mod engine;
pub mod exact;
mod ga;
mod memo;
pub mod persist;
mod pool;
pub mod preprocess;
mod strategy;

pub use baseline::{phase_level, program_level, BaselineOutcome};
pub use classify::{Bottleneck, Sensitivity};
pub use engine::{EvalEngine, IncrementalEval, RouletteWheel};
pub use exact::{ExactConfig, ExactOutcome, LagrangianSeed};
pub use ga::{score, search, search_observed, GaConfig, GaOutcome};
pub use memo::FingerprintRing;
pub use persist::{read_strategy, write_strategy, StrategyParseError, STRATEGY_HEADER};
pub use pool::{genome_fingerprint, GenomePool, PoolScratch};
pub use preprocess::{Preprocessed, Stage, StageKind};
pub use strategy::{DvfsStrategy, Evaluation, StageTable, TableError, ThermalCoupling};
