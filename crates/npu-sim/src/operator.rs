//! Operator descriptors: everything the timeline and power models need to
//! know about one AI operator.
//!
//! The paper's analysis (Sect. 4.2) classifies operators along two axes —
//! whether they use PingPong (double buffering) and whether their load and
//! store phases are dependent — yielding the four execution scenarios of
//! Figs. 5–8. A descriptor carries that scenario plus the raw quantities
//! (block count `n`, per-block Ld/St volumes, core cycles, L2 hit rate)
//! from which the ground-truth cycle functions are evaluated.

use std::fmt;
use std::sync::Arc;

/// High-level class of an operator as seen by the DVFS strategy
/// (paper Table 1 distinguishes compute operators from AICPU,
/// communication and idle segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Runs on the AICores; its duration depends on the core frequency.
    Compute,
    /// Runs on the host-side AI CPU; core-frequency insensitive.
    AiCpu,
    /// Collective communication (HCCL-style); core-frequency insensitive.
    Communication,
    /// Scheduling gap with no work dispatched; core-frequency insensitive.
    Idle,
}

impl OpClass {
    /// All four classes.
    #[must_use]
    pub fn all() -> [OpClass; 4] {
        [Self::Compute, Self::AiCpu, Self::Communication, Self::Idle]
    }

    /// Whether operators of this class respond to AICore frequency changes.
    #[must_use]
    pub fn is_core_frequency_sensitive(self) -> bool {
        matches!(self, Self::Compute)
    }

    /// The variant's name, exactly as [`Debug`](fmt::Debug) prints it:
    /// the one spelling cache keys and cache artifacts use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Compute => "Compute",
            Self::AiCpu => "AiCpu",
            Self::Communication => "Communication",
            Self::Idle => "Idle",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Compute => "compute",
            Self::AiCpu => "aicpu",
            Self::Communication => "communication",
            Self::Idle => "idle",
        };
        f.write_str(s)
    }
}

/// The four execution scenarios of paper Sect. 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// No double buffering; Ld and St of different blocks may overlap
    /// (Fig. 5, Eq. (5)).
    PingPongFreeIndependent,
    /// No double buffering; Ld → core → St strictly serialized
    /// (Fig. 6, Eq. (6)).
    PingPongFreeDependent,
    /// Double buffering; independent Ld/St (Fig. 7, Eq. (7)).
    PingPongIndependent,
    /// Double buffering; dependent Ld/St (Fig. 8, Eq. (8)).
    PingPongDependent,
}

impl Scenario {
    /// Whether the operator uses PingPong (double buffering).
    #[must_use]
    pub fn pingpong(self) -> bool {
        matches!(self, Self::PingPongIndependent | Self::PingPongDependent)
    }

    /// Whether load and store phases are dependent (cannot overlap).
    #[must_use]
    pub fn dependent(self) -> bool {
        matches!(self, Self::PingPongFreeDependent | Self::PingPongDependent)
    }

    /// All four scenarios, for exhaustive sweeps in tests and experiments.
    #[must_use]
    pub fn all() -> [Scenario; 4] {
        [
            Self::PingPongFreeIndependent,
            Self::PingPongFreeDependent,
            Self::PingPongIndependent,
            Self::PingPongDependent,
        ]
    }

    /// The variant's name, exactly as [`Debug`](fmt::Debug) prints it:
    /// the one spelling cache keys and cache artifacts use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::PingPongFreeIndependent => "PingPongFreeIndependent",
            Self::PingPongFreeDependent => "PingPongFreeDependent",
            Self::PingPongIndependent => "PingPongIndependent",
            Self::PingPongDependent => "PingPongDependent",
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::PingPongFreeIndependent => "pingpong-free/independent",
            Self::PingPongFreeDependent => "pingpong-free/dependent",
            Self::PingPongIndependent => "pingpong/independent",
            Self::PingPongDependent => "pingpong/dependent",
        };
        f.write_str(s)
    }
}

/// Distribution of an operator's core-domain cycles across the four
/// core-side pipelines (cube, vector, scalar, MTE1). Fractions are
/// normalized to sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreMix {
    /// Fraction of core cycles on the cube (matrix) unit.
    pub cube: f64,
    /// Fraction on the vector unit.
    pub vector: f64,
    /// Fraction on the scalar unit.
    pub scalar: f64,
    /// Fraction on MTE1 (intra-AICore transfers).
    pub mte1: f64,
}

impl CoreMix {
    /// Creates a mix, normalizing the fractions.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative or all are zero.
    #[must_use]
    pub fn new(cube: f64, vector: f64, scalar: f64, mte1: f64) -> Self {
        assert!(
            cube >= 0.0 && vector >= 0.0 && scalar >= 0.0 && mte1 >= 0.0,
            "core mix fractions must be non-negative"
        );
        let sum = cube + vector + scalar + mte1;
        assert!(
            sum > 0.0,
            "core mix must have at least one non-zero fraction"
        );
        Self {
            cube: cube / sum,
            vector: vector / sum,
            scalar: scalar / sum,
            mte1: mte1 / sum,
        }
    }

    /// A cube-dominated mix typical of MatMul/Conv operators.
    #[must_use]
    pub fn cube_heavy() -> Self {
        Self::new(0.82, 0.05, 0.03, 0.10)
    }

    /// A vector-dominated mix typical of elementwise/normalization ops.
    #[must_use]
    pub fn vector_heavy() -> Self {
        Self::new(0.0, 0.85, 0.08, 0.07)
    }

    /// A scalar-dominated mix (control-heavy ops).
    #[must_use]
    pub fn scalar_heavy() -> Self {
        Self::new(0.0, 0.15, 0.75, 0.10)
    }

    /// An MTE1-dominated mix (on-core data movement).
    #[must_use]
    pub fn mte1_heavy() -> Self {
        Self::new(0.05, 0.15, 0.05, 0.75)
    }
}

impl Default for CoreMix {
    fn default() -> Self {
        Self::vector_heavy()
    }
}

/// Full description of one operator instance.
///
/// # Examples
///
/// ```
/// use npu_sim::{OpDescriptor, Scenario, CoreMix};
///
/// let op = OpDescriptor::compute("MatMul", Scenario::PingPongIndependent)
///     .blocks(8)
///     .ld_bytes_per_block(512.0 * 1024.0)
///     .st_bytes_per_block(256.0 * 1024.0)
///     .l2_hit_rate(0.85)
///     .core_cycles_per_block(40_000.0)
///     .core_mix(CoreMix::cube_heavy())
///     .activity(20.0);
/// assert!(op.class().is_core_frequency_sensitive());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpDescriptor {
    /// Shared with every record a run makes of this operator.
    name: Arc<str>,
    class: OpClass,
    scenario: Scenario,
    n_blocks: u32,
    ld_bytes_per_block: f64,
    st_bytes_per_block: f64,
    l2_hit_rate: f64,
    core_cycles_per_block: f64,
    core_mix: CoreMix,
    /// AICore activity factor α, W/(GHz·V²).
    alpha_w_per_ghz_v2: f64,
    /// Fixed pre/post-processing time, µs (frequency independent; makes
    /// short operators "no-pipeline bound").
    fixed_overhead_us: f64,
    /// For non-compute classes: duration at the maximum core frequency, µs.
    host_duration_us: f64,
    /// Fraction of a host-side operator's duration that scales with the
    /// core frequency (e.g. the on-core reduce kernels inside an
    /// all-reduce); the rest is link/host time.
    host_core_fraction: f64,
}

impl OpDescriptor {
    /// Starts a compute operator (chainable setters below).
    #[must_use]
    pub fn compute(name: impl Into<String>, scenario: Scenario) -> Self {
        Self {
            name: Arc::from(name.into()),
            class: OpClass::Compute,
            scenario,
            n_blocks: 1,
            ld_bytes_per_block: 0.0,
            st_bytes_per_block: 0.0,
            l2_hit_rate: 0.5,
            core_cycles_per_block: 0.0,
            core_mix: CoreMix::default(),
            alpha_w_per_ghz_v2: 10.0,
            fixed_overhead_us: 0.0,
            host_duration_us: 0.0,
            host_core_fraction: 0.0,
        }
    }

    /// Creates a host-side operator (AICPU, communication, or idle gap)
    /// with a fixed, core-frequency-independent duration.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`OpClass::Compute`] (use [`Self::compute`]) or
    /// `duration_us` is negative.
    #[must_use]
    pub fn host(name: impl Into<String>, class: OpClass, duration_us: f64) -> Self {
        assert!(
            class != OpClass::Compute,
            "use OpDescriptor::compute for compute operators"
        );
        assert!(duration_us >= 0.0, "duration must be non-negative");
        Self {
            name: Arc::from(name.into()),
            class,
            scenario: Scenario::PingPongFreeIndependent,
            n_blocks: 1,
            ld_bytes_per_block: 0.0,
            st_bytes_per_block: 0.0,
            l2_hit_rate: 0.5,
            core_cycles_per_block: 0.0,
            core_mix: CoreMix::default(),
            alpha_w_per_ghz_v2: 0.0,
            fixed_overhead_us: 0.0,
            host_duration_us: duration_us,
            host_core_fraction: 0.0,
        }
    }

    /// Creates an idle scheduling gap of the given length.
    #[must_use]
    pub fn idle_gap(duration_us: f64) -> Self {
        Self::host("Idle", OpClass::Idle, duration_us)
    }

    /// Sets the number of core-computation blocks `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn blocks(mut self, n: u32) -> Self {
        assert!(n >= 1, "an operator has at least one block");
        self.n_blocks = n;
        self
    }

    /// Sets the per-block load volume in bytes.
    #[must_use]
    pub fn ld_bytes_per_block(mut self, bytes: f64) -> Self {
        assert!(bytes >= 0.0);
        self.ld_bytes_per_block = bytes;
        self
    }

    /// Sets the per-block store volume in bytes.
    #[must_use]
    pub fn st_bytes_per_block(mut self, bytes: f64) -> Self {
        assert!(bytes >= 0.0);
        self.st_bytes_per_block = bytes;
        self
    }

    /// Sets the L2 hit rate in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    #[must_use]
    pub fn l2_hit_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "hit rate must be in [0,1]");
        self.l2_hit_rate = rate;
        self
    }

    /// Sets the core-domain cycles per block.
    #[must_use]
    pub fn core_cycles_per_block(mut self, cycles: f64) -> Self {
        assert!(cycles >= 0.0);
        self.core_cycles_per_block = cycles;
        self
    }

    /// Sets the core pipeline mix.
    #[must_use]
    pub fn core_mix(mut self, mix: CoreMix) -> Self {
        self.core_mix = mix;
        self
    }

    /// Sets the AICore activity factor α in W/(GHz·V²). Applies to
    /// compute operators and to the on-core portion of collectives.
    #[must_use]
    pub fn activity(mut self, alpha: f64) -> Self {
        assert!(alpha >= 0.0);
        self.alpha_w_per_ghz_v2 = alpha;
        self
    }

    /// Sets the fixed (frequency-independent) pre/post-processing time.
    #[must_use]
    pub fn fixed_overhead_us(mut self, us: f64) -> Self {
        assert!(us >= 0.0);
        self.fixed_overhead_us = us;
        self
    }

    /// Operator name (e.g. `"MatMul"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator name as the shared string its records hold.
    pub(crate) fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// High-level class.
    #[must_use]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// Execution scenario.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Block count `n`.
    #[must_use]
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Per-block load volume, bytes.
    #[must_use]
    pub fn ld_bytes(&self) -> f64 {
        self.ld_bytes_per_block
    }

    /// Per-block store volume, bytes.
    #[must_use]
    pub fn st_bytes(&self) -> f64 {
        self.st_bytes_per_block
    }

    /// L2 hit rate.
    #[must_use]
    pub fn l2_hit(&self) -> f64 {
        self.l2_hit_rate
    }

    /// Core cycles per block.
    #[must_use]
    pub fn core_cycles(&self) -> f64 {
        self.core_cycles_per_block
    }

    /// Core pipeline mix.
    #[must_use]
    pub fn mix(&self) -> CoreMix {
        self.core_mix
    }

    /// AICore activity factor α, W/(GHz·V²).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha_w_per_ghz_v2
    }

    /// Fixed pre/post-processing time, µs.
    #[must_use]
    pub fn fixed_overhead(&self) -> f64 {
        self.fixed_overhead_us
    }

    /// Duration for host-side classes at the maximum core frequency, µs.
    #[must_use]
    pub fn host_duration(&self) -> f64 {
        self.host_duration_us
    }

    /// Sets the fraction of a host-side operator's time that scales with
    /// the core frequency (collective reduce kernels run on the vector
    /// cores even though the transfer itself does not).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn host_core_scaled(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.host_core_fraction = fraction;
        self
    }

    /// Core-scaled fraction of a host-side operator's duration.
    #[must_use]
    pub fn host_core_fraction(&self) -> f64 {
        self.host_core_fraction
    }

    /// Total bytes moved between core and uncore per execution.
    #[must_use]
    pub fn total_traffic_bytes(&self) -> f64 {
        f64::from(self.n_blocks) * (self.ld_bytes_per_block + self.st_bytes_per_block)
    }
}

impl fmt::Display for OpDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.name, self.class, self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_debug_spellings() {
        for class in OpClass::all() {
            assert_eq!(class.name(), format!("{class:?}"));
        }
        for scenario in Scenario::all() {
            assert_eq!(scenario.name(), format!("{scenario:?}"));
        }
    }

    #[test]
    fn scenario_axes() {
        assert!(!Scenario::PingPongFreeIndependent.pingpong());
        assert!(!Scenario::PingPongFreeIndependent.dependent());
        assert!(!Scenario::PingPongFreeDependent.pingpong());
        assert!(Scenario::PingPongFreeDependent.dependent());
        assert!(Scenario::PingPongIndependent.pingpong());
        assert!(!Scenario::PingPongIndependent.dependent());
        assert!(Scenario::PingPongDependent.pingpong());
        assert!(Scenario::PingPongDependent.dependent());
    }

    #[test]
    fn class_sensitivity() {
        assert!(OpClass::Compute.is_core_frequency_sensitive());
        assert!(!OpClass::AiCpu.is_core_frequency_sensitive());
        assert!(!OpClass::Communication.is_core_frequency_sensitive());
        assert!(!OpClass::Idle.is_core_frequency_sensitive());
    }

    #[test]
    fn core_mix_normalizes() {
        let m = CoreMix::new(2.0, 1.0, 1.0, 0.0);
        assert!((m.cube - 0.5).abs() < 1e-12);
        assert!((m.cube + m.vector + m.scalar + m.mte1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn core_mix_rejects_negative() {
        let _ = CoreMix::new(-0.1, 0.5, 0.3, 0.3);
    }

    #[test]
    #[should_panic(expected = "at least one non-zero")]
    fn core_mix_rejects_all_zero() {
        let _ = CoreMix::new(0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn builder_chain() {
        let op = OpDescriptor::compute("Gelu", Scenario::PingPongIndependent)
            .blocks(4)
            .ld_bytes_per_block(1024.0)
            .st_bytes_per_block(1024.0)
            .l2_hit_rate(0.3)
            .core_cycles_per_block(100.0)
            .activity(8.0);
        assert_eq!(op.name(), "Gelu");
        assert_eq!(op.n_blocks(), 4);
        assert_eq!(op.total_traffic_bytes(), 4.0 * 2048.0);
    }

    #[test]
    #[should_panic(expected = "use OpDescriptor::compute")]
    fn host_rejects_compute_class() {
        let _ = OpDescriptor::host("X", OpClass::Compute, 10.0);
    }

    #[test]
    fn idle_gap_class() {
        let gap = OpDescriptor::idle_gap(42.0);
        assert_eq!(gap.class(), OpClass::Idle);
        assert_eq!(gap.host_duration(), 42.0);
    }

    #[test]
    fn display_formats() {
        let op = OpDescriptor::compute("Add", Scenario::PingPongFreeDependent);
        assert_eq!(op.to_string(), "Add (compute, pingpong-free/dependent)");
        assert_eq!(OpClass::AiCpu.to_string(), "aicpu");
        assert_eq!(
            Scenario::PingPongIndependent.to_string(),
            "pingpong/independent"
        );
    }

    #[test]
    #[should_panic(expected = "hit rate")]
    fn hit_rate_validated() {
        let _ = OpDescriptor::compute("X", Scenario::PingPongIndependent).l2_hit_rate(1.5);
    }
}
