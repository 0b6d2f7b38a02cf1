//! Content-addressed artifact cache for the optimization pipeline.
//!
//! Every expensive artifact the pipeline produces — frequency-sweep
//! profiles, fitted performance/power models, search outcomes — is a
//! deterministic function of its inputs: the device configuration and
//! noise seed, the workload schedule, and the stage's own options.
//! [`ArtifactCache`] exploits that by keying each artifact on a
//! [`Fingerprint`] of exactly those inputs, so a warm session skips
//! straight past profiling, model fitting and search to the execute
//! stage, and a fleet of sessions over the same workload pays the
//! simulation cost once.
//!
//! Key derivation (invalidation is implicit — any input change changes
//! the key):
//!
//! - **profile key** ← every [`NpuConfig`] field (the frequency ladder
//!   and the voltage curve's base, knee and slope included), the device
//!   noise seed, every descriptor field of every schedule operator, and
//!   the build frequencies in profiling order.
//! - **model key** ← profile key + fitting function + the eight
//!   calibration parameters.
//! - **search key** ← model key + the effective FAI + the two
//!   [`OptimizerConfig`] inputs the session's search reads: the loss
//!   target and the warm-start transfer seeds, so a fleet-transferred
//!   search never aliases a cold one. The GA's own settings change
//!   nothing a session computes, so they must not fragment the cache.
//! - **fleet strategy key** ← the owning device's configuration + noise
//!   seed + strategy generation; the publication address a
//!   `FleetController` uses to share one device's active strategy with
//!   its cluster neighbors.
//!
//! The store is in-memory (cheap-clone handle, shared across threads).
//! With [`ArtifactCache::persistent`] profile and search artifacts are
//! additionally spilled to a directory as versioned text files — the
//! encoding prints `f64`s with plain [`Display`](std::fmt::Display)
//! (shortest round-trippable form), so a reloaded artifact is
//! bit-identical to the one written. Model artifacts stay memory-only:
//! fits are pure and cheap to recompute from cached profiles, which
//! carry all the simulation cost.

use crate::optimizer::OptimizerConfig;
use crate::report::MeasuredIteration;
use npu_dvfs::persist::check_stage;
use npu_dvfs::{DvfsStrategy, Evaluation, GaOutcome, Stage, StageKind, StrategyParseError};
use npu_obs::{Event, ObserverHandle};
use npu_perf_model::{FitFunction, FreqProfile, PerfModelStore};
use npu_power_model::{HardwareCalibration, PowerModel};
use npu_sim::{FreqMhz, NpuConfig, OpRecord, Schedule};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// Incremental FNV-1a content fingerprint.
///
/// Stable across runs and processes (no randomized hasher state), so
/// fingerprints are valid persistent cache keys. Floats are hashed by
/// their IEEE-754 bit pattern — two configurations fingerprint equal iff
/// they are bit-identical, which is exactly the cache's notion of "same
/// inputs".
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Fingerprint {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Starts a fingerprint for `domain` (a versioned namespace string;
    /// different domains never collide by construction order alone).
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut fp = Self {
            state: Self::OFFSET,
        };
        fp.push_str(domain);
        fp
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes in a `u64`.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Mixes in an `f64` by bit pattern.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Mixes in a string (length-prefixed, so `("ab","c")` and
    /// `("a","bc")` differ).
    pub fn push_str(&mut self, s: &str) {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes());
    }

    /// Mixes in a `usize`.
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    /// Mixes in a `bool`.
    pub fn push_bool(&mut self, v: bool) {
        self.push_u64(u64::from(v));
    }

    /// The 64-bit fingerprint of everything pushed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

fn push_config(fp: &mut Fingerprint, cfg: &NpuConfig) {
    // The device-profile fingerprint (0 for hand-built configs) keeps
    // artifacts from ever aliasing across device descriptions, even if
    // two profiles were numerically identical field-for-field.
    fp.push_u64(cfg.profile_fp);
    fp.push_u64(u64::from(cfg.core_num));
    for (_, v) in cfg.float_fields() {
        fp.push_f64(v);
    }
    let points = cfg.freq_table.points();
    fp.push_usize(points.len());
    for &f in points {
        fp.push_u64(u64::from(f.mhz()));
    }
    let curve = &cfg.voltage_curve;
    fp.push_f64(curve.base_volts());
    fp.push_u64(u64::from(curve.knee().mhz()));
    fp.push_f64(curve.slope_v_per_mhz());
}

fn push_schedule(fp: &mut Fingerprint, schedule: &Schedule) {
    fp.push_usize(schedule.ops().len());
    for op in schedule.ops() {
        fp.push_str(op.name());
        fp.push_str(op.class().name());
        fp.push_str(op.scenario().name());
        fp.push_u64(u64::from(op.n_blocks()));
        let mix = op.mix();
        for v in [
            op.ld_bytes(),
            op.st_bytes(),
            op.l2_hit(),
            op.core_cycles(),
            op.alpha(),
            op.fixed_overhead(),
            op.host_duration(),
            op.host_core_fraction(),
            mix.cube,
            mix.vector,
            mix.scalar,
            mix.mte1,
        ] {
            fp.push_f64(v);
        }
    }
}

/// Cache key for a profiling sweep: device config + noise seed +
/// schedule + build frequencies (in profiling order).
#[must_use]
pub fn profile_key(
    cfg: &NpuConfig,
    device_seed: u64,
    schedule: &Schedule,
    build_freqs: &[FreqMhz],
) -> u64 {
    // v2: the pass count and the keep-raw flag left the key (profiling
    // records one pass per frequency). v3: the warm-up solves the thermal
    // steady state and draws no noise, so the same inputs profile
    // differently. v4: the float fields are hashed in profile order and
    // the voltage curve by its coefficients, not by its value at every
    // ladder point.
    let mut fp = Fingerprint::new("npu-core/profile/v4");
    push_config(&mut fp, cfg);
    fp.push_u64(device_seed);
    push_schedule(&mut fp, schedule);
    fp.push_usize(build_freqs.len());
    for &f in build_freqs {
        fp.push_u64(u64::from(f.mhz()));
    }
    fp.finish()
}

/// Cache key for the fitted models: the profile key + fitting options +
/// the calibration parameters the power model is built from.
#[must_use]
pub fn model_key(profile_key: u64, fit: FitFunction, calib: &HardwareCalibration) -> u64 {
    // v2: the robust-fit flag left the key (every fit is the plain one).
    let mut fp = Fingerprint::new("npu-core/model/v2");
    fp.push_u64(profile_key);
    fp.push_str(&format!("{fit:?}"));
    for v in [
        calib.aicore_idle.beta,
        calib.aicore_idle.theta,
        calib.soc_idle.beta,
        calib.soc_idle.theta,
        calib.gamma_aicore,
        calib.gamma_soc,
        calib.thermal.k_c_per_w,
        calib.thermal.ambient_c,
    ] {
        fp.push_f64(v);
    }
    fp.finish()
}

/// Cache key for the serving search: the model key + effective FAI +
/// the two [`OptimizerConfig`] inputs [`npu_dvfs::serving_search`]
/// reads, the loss target and the warm seeds. The GA's own settings
/// change nothing a session computes, so they must not fragment the
/// cache.
#[must_use]
pub fn search_key(model_key: u64, fai_us: f64, opts: &OptimizerConfig) -> u64 {
    // v2: the oracle-seeding fields joined GaConfig (they change the
    // first generation, hence the whole trajectory).
    // v3: warm-start transfer seeds joined GaConfig — a warm-seeded
    // search must never alias the cold one (or a differently-seeded
    // one) under the same key.
    // v4: sessions run the exact solver instead of the GA, so the
    // strategy under a key changed wherever the solver beats the GA,
    // and only the loss target and the warm seeds are hashed.
    // v5: the score's bonus and the ascent test the loss budget as
    // T ≤ B/(1−ℓ) (`npu_dvfs::LossBudget`), which rounds differently
    // from their former B/T ≥ 1−ℓ at the ceiling.
    let mut fp = Fingerprint::new("npu-core/search/v5");
    fp.push_u64(model_key);
    fp.push_f64(fai_us);
    fp.push_f64(opts.ga.perf_loss_target);
    fp.push_usize(opts.warm_seeds.len());
    for seed in &opts.warm_seeds {
        fp.push_usize(seed.len());
        for &f in seed {
            fp.push_u64(u64::from(f.mhz()));
        }
    }
    fp.finish()
}

/// Cache key under which a fleet controller publishes a device's active
/// strategy for cross-device transfer: the owning device's configuration
/// and noise seed plus the strategy generation. Distinct devices (their
/// configurations or seeds differ) and successive generations of the
/// same device can never alias, so a transfer lookup either finds the
/// exact published strategy or misses.
#[must_use]
pub fn fleet_strategy_key(cfg: &NpuConfig, device_seed: u64, generation: usize) -> u64 {
    // v2: `push_config` changed as in `profile_key` v4.
    let mut fp = Fingerprint::new("npu-core/fleet-strategy/v2");
    push_config(&mut fp, cfg);
    fp.push_u64(device_seed);
    fp.push_usize(generation);
    fp.finish()
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// The profile stage's outputs: the per-frequency profiles and the
/// measured baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArtifact {
    /// One profile per build frequency, fmax first.
    pub profiles: Vec<FreqProfile>,
    /// The fmax profile folded into the measured baseline iteration.
    pub baseline: MeasuredIteration,
}

/// The model stage's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Fitted per-operator performance models.
    pub perf: PerfModelStore,
    /// Fitted power model.
    pub power: PowerModel,
}

/// The search stage's output.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArtifact {
    /// The search outcome: winning strategy, predicted evaluation, trace.
    pub outcome: GaOutcome,
}

// ---------------------------------------------------------------------------
// Text encoding (persistence)
// ---------------------------------------------------------------------------

/// One `f64` in text-store form.
///
/// Finite values — `-0.0` and subnormals included — print in
/// [`Display`](std::fmt::Display)'s shortest round-trippable decimal
/// form. Non-finite values are the one place Display loses information:
/// `NaN` drops the sign and payload bits and parses back to a single
/// canonical quiet NaN, so those are escaped as `#x` followed by the 16
/// hex digits of the raw IEEE-754 bit pattern. Every float therefore
/// round-trips bit-exactly through [`Lines::f64`].
struct F64Text(f64);

impl std::fmt::Display for F64Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "#x{:016x}", self.0.to_bits())
        }
    }
}

/// Errors from decoding a persisted cache artifact.
#[derive(Debug, PartialEq, Eq)]
pub struct ArtifactParseError {
    /// 1-based line the decoder rejected.
    pub line: usize,
    /// What was wrong.
    pub what: String,
}

impl std::fmt::Display for ArtifactParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "artifact parse error at line {}: {}",
            self.line, self.what
        )
    }
}

impl std::error::Error for ArtifactParseError {}

fn parse_err(line: usize, what: impl Into<String>) -> ArtifactParseError {
    ArtifactParseError {
        line,
        what: what.into(),
    }
}

/// Error from a checked cache lookup: the persisted artifact for the key
/// *exists* but could not be used. Returned by
/// [`ArtifactCache::try_lookup`] — the lossy [`ArtifactCache::lookup`]
/// folds these cases into a plain miss.
#[derive(Debug)]
pub enum CacheError {
    /// The artifact file exists but reading it failed.
    Io {
        /// Artifact kind (`"profile"` or `"search"`).
        kind: &'static str,
        /// The content-addressed cache key.
        key: u64,
        /// The file the cache tried to read.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The artifact file was read but is corrupt or truncated.
    Corrupt {
        /// Artifact kind (`"profile"` or `"search"`).
        kind: &'static str,
        /// The content-addressed cache key.
        key: u64,
        /// The file that failed to decode.
        path: PathBuf,
        /// Where and why decoding stopped.
        source: ArtifactParseError,
    },
    /// A single-flight follower waited on a leader that failed to
    /// produce the artifact (its compute erred or panicked). The flight
    /// entry is gone — a retry will elect a fresh leader — but this
    /// follower did not get a result and must decide for itself whether
    /// to recompute.
    FlightPoisoned {
        /// Artifact kind (`"profile"`, `"model"` or `"search"`).
        kind: &'static str,
        /// The content-addressed cache key.
        key: u64,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io {
                kind,
                key,
                path,
                source,
            } => write!(
                f,
                "persisted {kind} artifact {key:016x} at {} unreadable: {source}",
                path.display()
            ),
            Self::Corrupt {
                kind,
                key,
                path,
                source,
            } => write!(
                f,
                "persisted {kind} artifact {key:016x} at {} corrupt: {source}",
                path.display()
            ),
            Self::FlightPoisoned { kind, key } => write!(
                f,
                "single-flight leader for {kind} artifact {key:016x} failed; no result published"
            ),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Corrupt { source, .. } => Some(source),
            Self::FlightPoisoned { .. } => None,
        }
    }
}

struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines(),
            line_no: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, ArtifactParseError> {
        self.line_no += 1;
        self.iter
            .next()
            .ok_or_else(|| parse_err(self.line_no, "unexpected end of file"))
    }

    /// Accepts the end of the artifact: only empty lines may follow the
    /// blocks its counts declared, so a damaged count is an error at the
    /// first line it leaves over instead of a different artifact.
    fn finish(mut self) -> Result<(), ArtifactParseError> {
        for line in self.iter.by_ref() {
            self.line_no += 1;
            if !line.is_empty() {
                return Err(parse_err(
                    self.line_no,
                    format!("unexpected line after the last block: `{line}`"),
                ));
            }
        }
        Ok(())
    }

    fn expect(&mut self, tag: &str) -> Result<&'a str, ArtifactParseError> {
        let line = self.next()?;
        line.strip_prefix(tag)
            .ok_or_else(|| parse_err(self.line_no, format!("expected `{tag}…`, got `{line}`")))
    }

    fn fields<const N: usize>(&mut self, tag: &str) -> Result<[&'a str; N], ArtifactParseError> {
        let rest = self.expect(tag)?;
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let n = parts.len();
        parts.try_into().map_err(|_| {
            parse_err(
                self.line_no,
                format!("expected {N} fields after `{tag}`, got {n}"),
            )
        })
    }

    fn f64(&self, s: &str) -> Result<f64, ArtifactParseError> {
        // `#x…` is the bit-exact escape for non-finite values (see
        // [`F64Text`]); plain decimal — the historical form, which also
        // accepts `NaN`/`inf` from older files — covers everything else.
        if let Some(hex) = s.strip_prefix("#x") {
            return u64::from_str_radix(hex, 16)
                .map(f64::from_bits)
                .map_err(|_| parse_err(self.line_no, format!("bad float bits `{s}`")));
        }
        s.parse()
            .map_err(|_| parse_err(self.line_no, format!("bad float `{s}`")))
    }

    fn uint<T: std::str::FromStr>(&self, s: &str) -> Result<T, ArtifactParseError> {
        s.parse()
            .map_err(|_| parse_err(self.line_no, format!("bad integer `{s}`")))
    }

    fn freq(&self, s: &str) -> Result<FreqMhz, ArtifactParseError> {
        match self.uint(s)? {
            0 => Err(parse_err(self.line_no, "frequency must be positive")),
            mhz => Ok(FreqMhz::new(mhz)),
        }
    }
}

fn write_profiles(out: &mut String, profiles: &[FreqProfile]) {
    let _ = writeln!(out, "profiles {}", profiles.len());
    for p in profiles {
        let _ = writeln!(out, "freq {} {}", p.freq.mhz(), p.records.len());
        for r in &p.records {
            // The operator name goes last: it may contain spaces, every
            // other field is whitespace-free. Floats print in shortest
            // round-trippable form.
            let _ = writeln!(
                out,
                "rec {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                r.index,
                r.class.name(),
                r.scenario.name(),
                F64Text(r.start_us),
                F64Text(r.dur_us),
                r.freq_mhz.mhz(),
                F64Text(r.ratios.cube),
                F64Text(r.ratios.vector),
                F64Text(r.ratios.scalar),
                F64Text(r.ratios.mte1),
                F64Text(r.ratios.mte2),
                F64Text(r.ratios.mte3),
                F64Text(r.aicore_w),
                F64Text(r.soc_w),
                F64Text(r.temp_c),
                F64Text(r.traffic_bytes),
                r.name,
            );
        }
    }
}

fn read_freq_block(lines: &mut Lines<'_>) -> Result<FreqProfile, ArtifactParseError> {
    let [mhz, n_recs] = lines.fields::<2>("freq")?;
    let freq = lines.freq(mhz)?;
    let n_recs: usize = lines.uint(n_recs)?;
    // Never size a vector from a decoded count: a corrupt count must
    // fail at end of file, not abort on allocation.
    let mut records = Vec::new();
    for _ in 0..n_recs {
        let rest = lines.expect("rec ")?;
        let mut parts = rest.splitn(17, ' ');
        let mut field = |what: &str| {
            parts
                .next()
                .ok_or_else(|| parse_err(lines.line_no, format!("missing `{what}`")))
        };
        let index: usize = lines.uint(field("index")?)?;
        let class = parse_op_class(field("class")?, lines.line_no)?;
        let scenario = parse_scenario(field("scenario")?, lines.line_no)?;
        let start_us = lines.f64(field("start_us")?)?;
        let dur_us = lines.f64(field("dur_us")?)?;
        let freq_mhz = lines.freq(field("freq_mhz")?)?;
        let cube = lines.f64(field("cube")?)?;
        let vector = lines.f64(field("vector")?)?;
        let scalar = lines.f64(field("scalar")?)?;
        let mte1 = lines.f64(field("mte1")?)?;
        let mte2 = lines.f64(field("mte2")?)?;
        let mte3 = lines.f64(field("mte3")?)?;
        let aicore_w = lines.f64(field("aicore_w")?)?;
        let soc_w = lines.f64(field("soc_w")?)?;
        let temp_c = lines.f64(field("temp_c")?)?;
        let traffic_bytes = lines.f64(field("traffic_bytes")?)?;
        let name = field("name")?.into();
        records.push(OpRecord {
            index,
            name,
            class,
            scenario,
            start_us,
            dur_us,
            freq_mhz,
            ratios: npu_sim::PipelineRatios {
                cube,
                vector,
                scalar,
                mte1,
                mte2,
                mte3,
            },
            aicore_w,
            soc_w,
            temp_c,
            traffic_bytes,
        });
    }
    Ok(FreqProfile { freq, records })
}

fn parse_op_class(s: &str, line: usize) -> Result<npu_sim::OpClass, ArtifactParseError> {
    npu_sim::OpClass::all()
        .into_iter()
        .find(|c| c.name() == s)
        .ok_or_else(|| parse_err(line, format!("unknown op class `{s}`")))
}

fn parse_scenario(s: &str, line: usize) -> Result<npu_sim::Scenario, ArtifactParseError> {
    npu_sim::Scenario::all()
        .into_iter()
        .find(|c| c.name() == s)
        .ok_or_else(|| parse_err(line, format!("unknown scenario `{s}`")))
}

impl ProfileArtifact {
    /// Encodes the artifact as versioned text (bit-exact round trip via
    /// [`Self::from_text`]).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        // v2: the `raw` block of kept profiling passes left the format.
        out.push_str("npu-core-cache profile v2\n");
        let b = &self.baseline;
        let _ = writeln!(
            out,
            "baseline {} {} {} {}",
            F64Text(b.time_us),
            F64Text(b.aicore_w),
            F64Text(b.soc_w),
            F64Text(b.temp_c)
        );
        write_profiles(&mut out, &self.profiles);
        out
    }

    /// Decodes an artifact written by [`Self::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactParseError`] on any malformed line, a zero
    /// frequency included, and on a non-empty line after the declared
    /// blocks.
    pub fn from_text(text: &str) -> Result<Self, ArtifactParseError> {
        let mut lines = Lines::new(text);
        let header = lines.next()?;
        if header != "npu-core-cache profile v2" {
            return Err(parse_err(1, format!("bad header `{header}`")));
        }
        let [t, a, s, c] = lines.fields::<4>("baseline")?;
        let baseline = MeasuredIteration {
            time_us: lines.f64(t)?,
            aicore_w: lines.f64(a)?,
            soc_w: lines.f64(s)?,
            temp_c: lines.f64(c)?,
        };
        let [n] = lines.fields::<1>("profiles")?;
        let n: usize = lines.uint(n)?;
        let mut profiles = Vec::new();
        for _ in 0..n {
            profiles.push(read_freq_block(&mut lines)?);
        }
        lines.finish()?;
        Ok(Self { profiles, baseline })
    }
}

impl SearchArtifact {
    /// Encodes the artifact as versioned text (bit-exact round trip via
    /// [`Self::from_text`]).
    #[must_use]
    pub fn to_text(&self) -> String {
        let o = &self.outcome;
        let mut out = String::new();
        // v2: the unique-evaluation count left `evals`.
        out.push_str("npu-core-cache search v2\n");
        let _ = writeln!(
            out,
            "eval {} {} {}",
            F64Text(o.best_eval.time_us),
            F64Text(o.best_eval.aicore_energy_wus),
            F64Text(o.best_eval.soc_energy_wus)
        );
        let _ = writeln!(out, "score {}", F64Text(o.best_score));
        let _ = write!(out, "trace {}", o.score_trace.len());
        for &v in &o.score_trace {
            let _ = write!(out, " {}", F64Text(v));
        }
        out.push('\n');
        let _ = writeln!(out, "evals {}", o.evaluations);
        let _ = writeln!(out, "stages {}", o.strategy.len());
        for (stage, freq) in o.strategy.stages().iter().zip(o.strategy.freqs()) {
            let kind = match stage.kind {
                StageKind::Lfc => "LFC",
                StageKind::Hfc => "HFC",
            };
            let _ = writeln!(
                out,
                "stage {} {} {} {} {kind} {}",
                F64Text(stage.start_us),
                F64Text(stage.dur_us),
                stage.op_range.start,
                stage.op_range.end,
                freq.mhz(),
            );
        }
        out
    }

    /// Decodes an artifact written by [`Self::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactParseError`] on any malformed line, including a
    /// stage line [`check_stage`] rejects, and on a non-empty line after
    /// the declared stages.
    pub fn from_text(text: &str) -> Result<Self, ArtifactParseError> {
        let mut lines = Lines::new(text);
        let header = lines.next()?;
        if header != "npu-core-cache search v2" {
            return Err(parse_err(1, format!("bad header `{header}`")));
        }
        let [t, a, s] = lines.fields::<3>("eval")?;
        let best_eval = Evaluation {
            time_us: lines.f64(t)?,
            aicore_energy_wus: lines.f64(a)?,
            soc_energy_wus: lines.f64(s)?,
        };
        let [score] = lines.fields::<1>("score")?;
        let best_score = lines.f64(score)?;
        let trace_rest = lines.expect("trace ")?;
        let mut trace_parts = trace_rest.split_whitespace();
        let n_trace: usize = lines.uint(
            trace_parts
                .next()
                .ok_or_else(|| parse_err(lines.line_no, "missing trace count"))?,
        )?;
        let score_trace: Vec<f64> = trace_parts
            .map(|p| lines.f64(p))
            .collect::<Result<_, _>>()?;
        if score_trace.len() != n_trace {
            return Err(parse_err(
                lines.line_no,
                format!("trace count {n_trace} != {} values", score_trace.len()),
            ));
        }
        let [evals] = lines.fields::<1>("evals")?;
        let evaluations: usize = lines.uint(evals)?;
        let [n_stages] = lines.fields::<1>("stages")?;
        let n_stages: usize = lines.uint(n_stages)?;
        let mut stages = Vec::new();
        let mut freqs = Vec::new();
        for _ in 0..n_stages {
            let [start, dur, op_start, op_end, kind, mhz] = lines.fields::<6>("stage")?;
            let kind = match kind {
                "LFC" => StageKind::Lfc,
                "HFC" => StageKind::Hfc,
                _ => {
                    return Err(parse_err(
                        lines.line_no,
                        format!("unknown stage kind `{kind}`"),
                    ))
                }
            };
            let stage = Stage {
                start_us: lines.f64(start)?,
                dur_us: lines.f64(dur)?,
                op_range: lines.uint::<usize>(op_start)?..lines.uint::<usize>(op_end)?,
                kind,
            };
            let line = lines.line_no;
            let freq = check_stage(stages.last(), &stage, lines.uint(mhz)?, line).map_err(|e| {
                let what = match e {
                    StrategyParseError::BadLine { what, .. } => what,
                    other => other.to_string(),
                };
                parse_err(line, what)
            })?;
            stages.push(stage);
            freqs.push(freq);
        }
        lines.finish()?;
        Ok(Self {
            outcome: GaOutcome {
                strategy: DvfsStrategy::new(stages, freqs),
                best_eval,
                best_score,
                score_trace,
                evaluations,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Hit/miss counters for one artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Lookups served from the store (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

/// A snapshot of the cache's hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Profile-artifact lookups.
    pub profile: KindStats,
    /// Model-artifact lookups.
    pub model: KindStats,
    /// Search-artifact lookups.
    pub search: KindStats,
}

impl CacheStats {
    /// Total hits across kinds.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.profile.hits + self.model.hits + self.search.hits
    }

    /// Total misses across kinds.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.profile.misses + self.model.misses + self.search.misses
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Counters {
    fn tally(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> KindStats {
        KindStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Locks `m`, recovering the data from a poisoned lock: every critical
/// section in the cache leaves its map consistent, so a panic elsewhere
/// never invalidates it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------------

/// Single-flight counters for one artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightStats {
    /// Flights that ran their computation (exactly one per in-flight key).
    pub led: u64,
    /// Followers served by blocking on a leader's published result.
    pub coalesced: u64,
    /// Followers that woke to a poisoned flight (the leader failed).
    pub poisoned: u64,
}

/// A snapshot of the cache's single-flight counters (see
/// [`ArtifactCache::flight_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheFlightStats {
    /// Profile-artifact flights.
    pub profile: FlightStats,
    /// Model-artifact flights.
    pub model: FlightStats,
    /// Search-artifact flights.
    pub search: FlightStats,
}

/// How a single-flight call obtained its artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRole {
    /// The store already held the artifact (memory or disk); nothing ran.
    Cached,
    /// This caller led the flight: its `compute` ran and the result was
    /// inserted into the store.
    Led,
    /// Another caller was computing the key; this one blocked until the
    /// leader published its result.
    Coalesced,
}

/// Error from [`ArtifactCache::single_flight`].
#[derive(Debug)]
pub enum SingleFlightError<E> {
    /// This caller led the flight and its own computation failed. Any
    /// followers of the flight observe [`SingleFlightError::Poisoned`].
    Compute(E),
    /// This caller followed a leader that failed to publish; the inner
    /// error is always [`CacheError::FlightPoisoned`]. The flight entry
    /// is gone, so retrying elects a fresh leader.
    Poisoned(CacheError),
}

impl<E: std::fmt::Display> std::fmt::Display for SingleFlightError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Compute(e) => write!(f, "single-flight compute failed: {e}"),
            Self::Poisoned(e) => e.fmt(f),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for SingleFlightError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Compute(e) => Some(e),
            Self::Poisoned(e) => Some(e),
        }
    }
}

#[derive(Debug)]
enum FlightState<T> {
    Pending,
    Done(Arc<T>),
    Poisoned,
}

/// One in-flight computation: followers block on `cv` until the leader
/// publishes a result or poisons the slot.
#[derive(Debug)]
struct FlightSlot<T> {
    state: Mutex<FlightState<T>>,
    cv: Condvar,
}

impl<T> FlightSlot<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader publishes (`Some`) or poisons (`None`).
    fn wait(&self) -> Option<Arc<T>> {
        let mut state = lock(&self.state);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                FlightState::Done(artifact) => return Some(artifact.clone()),
                FlightState::Poisoned => return None,
            }
        }
    }

    fn publish(&self, outcome: Option<Arc<T>>) {
        let mut state = lock(&self.state);
        *state = match outcome {
            Some(artifact) => FlightState::Done(artifact),
            None => FlightState::Poisoned,
        };
        drop(state);
        self.cv.notify_all();
    }
}

enum Join<T> {
    Lead(Arc<FlightSlot<T>>),
    Follow(Arc<FlightSlot<T>>),
}

/// The in-flight computations of one artifact kind, keyed on the same
/// content-addressed keys as the store. The table lock is only ever held
/// for a map probe/insert/remove — store lookups, disk I/O and the
/// computation itself all run outside it.
#[derive(Debug)]
struct FlightTable<T> {
    inflight: Mutex<HashMap<u64, Arc<FlightSlot<T>>>>,
    led: AtomicU64,
    coalesced: AtomicU64,
    poisoned: AtomicU64,
}

impl<T> FlightTable<T> {
    fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
            led: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        }
    }

    /// Atomically either registers the caller as the key's leader or
    /// hands back the existing in-flight slot to wait on. This is the
    /// negative-lookup race fix: miss-classification and leader election
    /// happen under one lock, so two concurrent misses can never both
    /// decide to compute.
    fn join(&self, key: u64) -> Join<T> {
        let mut table = lock(&self.inflight);
        match table.get(&key) {
            Some(slot) => Join::Follow(slot.clone()),
            None => {
                let slot = Arc::new(FlightSlot::new());
                table.insert(key, slot.clone());
                Join::Lead(slot)
            }
        }
    }

    /// Publishes the flight's outcome, then retires the entry. Publish
    /// happens first so a joiner racing the removal either finds the slot
    /// (and reads the published value) or finds no entry (and leads a
    /// fresh flight whose store lookup hits the just-inserted artifact).
    fn finish(&self, key: u64, slot: &FlightSlot<T>, outcome: Option<Arc<T>>) {
        slot.publish(outcome);
        lock(&self.inflight).remove(&key);
    }

    fn snapshot(&self) -> FlightStats {
        FlightStats {
            led: self.led.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }
}

/// Poisons the flight unless the leader completed it — an erring (or
/// panicking) leader must never strand its followers on the condvar.
struct LeadGuard<'a, T> {
    table: &'a FlightTable<T>,
    key: u64,
    slot: Arc<FlightSlot<T>>,
    done: bool,
}

impl<T> LeadGuard<'_, T> {
    fn complete(mut self, artifact: Arc<T>) {
        self.done = true;
        self.table.finish(self.key, &self.slot, Some(artifact));
    }
}

impl<T> Drop for LeadGuard<'_, T> {
    fn drop(&mut self) {
        if !self.done {
            self.table.finish(self.key, &self.slot, None);
        }
    }
}

// ---------------------------------------------------------------------------
// Artifact kinds
// ---------------------------------------------------------------------------

/// An artifact kind the cache stores: [`ProfileArtifact`],
/// [`ModelArtifact`] or [`SearchArtifact`]. The generic
/// [`ArtifactCache`] operations take one of these as their type
/// parameter, e.g. `cache.lookup::<SearchArtifact>(key)`. The trait is
/// sealed: the three kinds are the only implementors.
pub trait Artifact: kind::Kind {}

pub(crate) mod kind {
    use super::{ArtifactCache, ArtifactParseError, Counters, FlightTable};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// What the cache knows about one artifact kind. Public only in
    /// name: the module is crate-private, which seals
    /// [`super::Artifact`].
    pub trait Kind: Sized + Send + Sync + 'static {
        /// The kind's name: the persisted file-name prefix and the
        /// `kind` of its errors and events.
        const NAME: &'static str;
        /// The kind's text codec; `None` keeps the kind memory-only.
        const CODEC: Codec<Self>;
        /// The kind's store within `cache`.
        fn domain(cache: &ArtifactCache) -> &Domain<Self>;
    }

    /// A kind's `(encode, decode)` text functions for the persistence
    /// directory, if it has one.
    pub type Codec<A> = Option<(fn(&A) -> String, fn(&str) -> Result<A, ArtifactParseError>)>;

    /// One artifact kind's store: its own map lock, hit/miss counters and
    /// single-flight table, so traffic in different kinds never contends
    /// on a shared lock.
    #[derive(Debug)]
    pub struct Domain<A> {
        pub(super) map: Mutex<HashMap<u64, Arc<A>>>,
        pub(super) stats: Counters,
        pub(super) flights: FlightTable<A>,
    }

    impl<A> Domain<A> {
        pub(super) fn new() -> Self {
            Self {
                map: Mutex::new(HashMap::new()),
                stats: Counters::default(),
                flights: FlightTable::new(),
            }
        }
    }
}

use kind::{Codec, Domain, Kind};

impl Kind for ProfileArtifact {
    const NAME: &'static str = "profile";
    const CODEC: Codec<Self> = Some((Self::to_text, Self::from_text));
    fn domain(cache: &ArtifactCache) -> &Domain<Self> {
        &cache.inner.profiles
    }
}

/// Fits are pure and cheap to recompute from cached profiles, so model
/// artifacts stay memory-only.
impl Kind for ModelArtifact {
    const NAME: &'static str = "model";
    const CODEC: Codec<Self> = None;
    fn domain(cache: &ArtifactCache) -> &Domain<Self> {
        &cache.inner.models
    }
}

impl Kind for SearchArtifact {
    const NAME: &'static str = "search";
    const CODEC: Codec<Self> = Some((Self::to_text, Self::from_text));
    fn domain(cache: &ArtifactCache) -> &Domain<Self> {
        &cache.inner.searches
    }
}

impl Artifact for ProfileArtifact {}
impl Artifact for ModelArtifact {}
impl Artifact for SearchArtifact {}

#[derive(Debug)]
struct CacheInner {
    profiles: Domain<ProfileArtifact>,
    models: Domain<ModelArtifact>,
    searches: Domain<SearchArtifact>,
    dir: Option<PathBuf>,
    /// Set on the first failed disk write; once set, the cache stops
    /// touching the persistence directory and runs memory-only.
    disk_failed: AtomicBool,
    obs: Mutex<ObserverHandle>,
}

impl CacheInner {
    fn with_dir(dir: Option<PathBuf>) -> Self {
        Self {
            profiles: Domain::new(),
            models: Domain::new(),
            searches: Domain::new(),
            dir,
            disk_failed: AtomicBool::new(false),
            obs: Mutex::new(ObserverHandle::null()),
        }
    }
}

/// The content-addressed artifact store. Cheap to clone — clones share
/// one store, which is how a fleet of concurrent sessions reuses each
/// other's work.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    inner: Arc<CacheInner>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// An empty in-memory cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CacheInner::with_dir(None)),
        }
    }

    /// An in-memory cache that additionally spills profile and search
    /// artifacts to `dir` (created if missing) and falls back to it on
    /// in-memory misses, so a later process starts warm.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn persistent(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            inner: Arc::new(CacheInner::with_dir(Some(dir))),
        })
    }

    /// Attaches an observer: disk-degradation incidents are emitted as
    /// [`Event::CacheDegraded`] instead of being silently swallowed.
    pub fn set_observer(&self, obs: ObserverHandle) {
        *lock(&self.inner.obs) = obs;
    }

    /// Whether a disk write has failed and the cache degraded to
    /// memory-only mode (persistent caches only; always `false` for
    /// purely in-memory caches).
    #[must_use]
    pub fn disk_degraded(&self) -> bool {
        self.inner.disk_failed.load(Ordering::Relaxed)
    }

    /// The persistence directory, if this cache spills to disk.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// Snapshot of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            profile: self.inner.profiles.stats.snapshot(),
            model: self.inner.models.stats.snapshot(),
            search: self.inner.searches.stats.snapshot(),
        }
    }

    /// Resets the hit/miss counters (the stored artifacts stay).
    pub fn reset_stats(&self) {
        self.inner.profiles.stats.reset();
        self.inner.models.stats.reset();
        self.inner.searches.stats.reset();
    }

    /// Snapshot of the single-flight counters: flights led, followers
    /// coalesced onto a leader's result, and followers that observed a
    /// poisoned flight.
    #[must_use]
    pub fn flight_stats(&self) -> CacheFlightStats {
        CacheFlightStats {
            profile: self.inner.profiles.flights.snapshot(),
            model: self.inner.models.flights.snapshot(),
            search: self.inner.searches.flights.snapshot(),
        }
    }

    /// The on-disk path of a persisted `A` artifact: `None` for
    /// memory-only kinds and caches, and once the cache has degraded.
    /// (Crate-internal: the fleet chaos corruption fault overwrites the
    /// file behind the cache's back.)
    pub(crate) fn disk_path<A: Artifact>(&self, key: u64) -> Option<PathBuf> {
        if A::CODEC.is_none() || self.inner.disk_failed.load(Ordering::Relaxed) {
            return None;
        }
        self.inner
            .dir
            .as_ref()
            .map(|d| d.join(format!("{}-{key:016x}.txt", A::NAME)))
    }

    /// Spills `text` to `path`; the first failure trips degraded mode
    /// (all later disk traffic is skipped) and is surfaced through the
    /// attached observer as a [`Event::CacheDegraded`] event.
    fn spill(&self, kind: &'static str, path: PathBuf, text: String) {
        if let Err(e) = std::fs::write(path, text) {
            self.inner.disk_failed.store(true, Ordering::Relaxed);
            let obs = lock(&self.inner.obs);
            if obs.enabled() {
                obs.emit(Event::CacheDegraded {
                    kind: kind.to_owned(),
                    error: e.to_string(),
                });
            }
        }
    }

    /// Looks up an artifact: memory first, then — for profile and search
    /// artifacts — the persistence directory. Counts a hit or miss. A
    /// persisted file that exists but cannot be read or decoded is
    /// treated as a miss; use [`Self::try_lookup`] to surface that case
    /// as a typed error instead of a silent skip.
    #[must_use]
    pub fn lookup<A: Artifact>(&self, key: u64) -> Option<Arc<A>> {
        self.try_lookup(key).unwrap_or_default()
    }

    /// [`Self::lookup`], surfacing persistence problems.
    ///
    /// Memory hits, disk hits and genuine absences behave identically to
    /// the unchecked lookup. The difference is a key whose artifact file
    /// *exists* but cannot be used — unreadable, corrupt or truncated:
    /// that still counts a [`CacheStats`] miss (the caller must recompute
    /// either way) but returns the typed [`CacheError`] so the condition
    /// is observable rather than silently folded into "never cached".
    /// Model artifacts are never persisted, so their lookups never fail.
    ///
    /// The disk read and decode run with no lock held — only the two map
    /// probes are critical sections — so a slow disk never stalls
    /// concurrent memory hits on the same kind.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] when the persisted file exists but reading it
    /// fails; [`CacheError::Corrupt`] when it reads but fails to decode.
    pub fn try_lookup<A: Artifact>(&self, key: u64) -> Result<Option<Arc<A>>, CacheError> {
        let domain = A::domain(self);
        let in_memory = lock(&domain.map).get(&key).cloned();
        let found = match in_memory {
            Some(artifact) => Ok(Some(artifact)),
            // Promote a disk hit, preferring an artifact a racing
            // promoter or inserter beat us to — every caller then shares
            // one `Arc` per key.
            None => self.load::<A>(key).map(|loaded| {
                loaded.map(|artifact| lock(&domain.map).entry(key).or_insert(artifact).clone())
            }),
        };
        domain.stats.tally(matches!(found, Ok(Some(_))));
        found
    }

    /// Reads and decodes a persisted artifact. `Ok(None)` when there is
    /// no file to read (memory-only kind or cache, degraded cache, or no
    /// such file); `Err` when the file exists but cannot be used.
    fn load<A: Artifact>(&self, key: u64) -> Result<Option<Arc<A>>, CacheError> {
        let (Some((_, decode)), Some(path)) = (A::CODEC, self.disk_path::<A>(key)) else {
            return Ok(None);
        };
        let kind = A::NAME;
        match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(source) => Err(CacheError::Io {
                kind,
                key,
                path,
                source,
            }),
            Ok(text) => match decode(&text) {
                Ok(artifact) => Ok(Some(Arc::new(artifact))),
                Err(source) => Err(CacheError::Corrupt {
                    kind,
                    key,
                    path,
                    source,
                }),
            },
        }
    }

    /// Stores an artifact. Profile and search artifacts are also spilled
    /// to disk when the cache is persistent; a disk error degrades the
    /// cache to memory-only mode and emits [`Event::CacheDegraded`] — the
    /// memory store is authoritative either way.
    pub fn insert<A: Artifact>(&self, key: u64, artifact: A) -> Arc<A> {
        if let (Some((encode, _)), Some(path)) = (A::CODEC, self.disk_path::<A>(key)) {
            self.spill(A::NAME, path, encode(&artifact));
        }
        let artifact = Arc::new(artifact);
        lock(&A::domain(self).map).insert(key, artifact.clone());
        artifact
    }

    /// Drops the in-memory copy of an artifact, forcing the next lookup
    /// back to the persistence directory (or to a miss for memory-only
    /// kinds and caches). Returns whether an entry was present. The
    /// chaos harness uses this to model a node whose memory state is
    /// lost while its disk artifact has been corrupted.
    pub fn evict<A: Artifact>(&self, key: u64) -> bool {
        lock(&A::domain(self).map).remove(&key).is_some()
    }

    /// Runs `compute` for `key` under the single-flight guarantee: of N
    /// concurrent callers with the same key, exactly one (the *leader*)
    /// performs the lookup — and, on a miss, the computation and insert
    /// — while the other N−1 block until the leader publishes its
    /// result. The returned [`FlightRole`] records how this caller's
    /// artifact was obtained. Store lookups, disk I/O and the
    /// computation all run outside the flight-table lock.
    ///
    /// Lookup semantics match [`Self::lookup`]: an unreadable or corrupt
    /// persisted file is treated as a miss (and recomputed), and exactly
    /// one [`CacheStats`] hit or miss is counted per flight.
    ///
    /// # Errors
    ///
    /// [`SingleFlightError::Compute`] when this caller led the flight
    /// and its own `compute` failed; [`SingleFlightError::Poisoned`]
    /// when it followed a leader that failed (or panicked) — the flight
    /// entry is gone, so retrying elects a fresh leader.
    pub fn single_flight<A: Artifact, E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<A, E>,
    ) -> Result<(Arc<A>, FlightRole), SingleFlightError<E>> {
        let flights = &A::domain(self).flights;
        let slot = match flights.join(key) {
            Join::Follow(slot) => slot,
            Join::Lead(slot) => {
                let guard = LeadGuard {
                    table: flights,
                    key,
                    slot,
                    done: false,
                };
                if let Some(found) = self.lookup::<A>(key) {
                    guard.complete(found.clone());
                    return Ok((found, FlightRole::Cached));
                }
                return match compute() {
                    Ok(artifact) => {
                        let artifact = self.insert(key, artifact);
                        flights.led.fetch_add(1, Ordering::Relaxed);
                        guard.complete(artifact.clone());
                        Ok((artifact, FlightRole::Led))
                    }
                    // Dropping the guard poisons the flight, waking any
                    // followers with `FlightPoisoned`.
                    Err(e) => Err(SingleFlightError::Compute(e)),
                };
            }
        };
        match slot.wait() {
            Some(artifact) => {
                flights.coalesced.fetch_add(1, Ordering::Relaxed);
                Ok((artifact, FlightRole::Coalesced))
            }
            None => {
                flights.poisoned.fetch_add(1, Ordering::Relaxed);
                Err(SingleFlightError::Poisoned(CacheError::FlightPoisoned {
                    kind: A::NAME,
                    key,
                }))
            }
        }
    }
}
