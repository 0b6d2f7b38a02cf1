//! # npu-exec — DVFS strategy execution
//!
//! Implements Sect. 7.1 of the paper: turn a [`DvfsStrategy`] into
//! `SetFreq` dispatches on the device's dedicated frequency stream.
//!
//! For every stage boundary where the frequency changes, the executor
//! subtracts the `SetFreq` apply latency from the adjustment time point
//! (taken from the baseline profile timeline) and picks the **last
//! operator ending before that point** as the trigger: when the trigger
//! operator completes on the compute stream, the `SetFreq` is dispatched,
//! so the new frequency is active when the stage's first operator starts.
//!
//! The *planned* latency may differ from the device's *actual* latency —
//! that mismatch is exactly the paper's Fig. 18 experiment, where a
//! 14 ms-delayed `SetFreq` (V100-class DVFS) erodes both the power savings
//! and the performance of the same strategy.
//!
//! Execution is compile, then run: [`CompiledStrategy::compile`] places
//! the triggers once, and [`CompiledStrategy::run`] replays them on the
//! device. [`execute_strategy`] does both for one iteration; a loop that
//! repeats a strategy compiles it once and runs it every iteration, as the
//! paper's runtime does (Sect. 7).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

// Strategy persistence lives in `npu_dvfs::persist` (next to the type it
// serializes, enabling the `DvfsStrategy::{to_writer, from_reader}`
// inherent methods); re-exported here because the executor process is
// the natural reader.
pub use npu_dvfs::persist;
pub use npu_dvfs::persist::{read_strategy, write_strategy, StrategyParseError, STRATEGY_HEADER};

mod resilient;
pub use resilient::{
    execute_resilient, Degradation, Guardrail, ResilientOptions, ResilientOutcome, RetryPolicy,
};

use npu_dvfs::DvfsStrategy;
use npu_obs::Event;
use npu_sim::{
    Device, DeviceError, FreqMhz, OpRecord, RecordMode, RunOptions, RunResult, Schedule, SetFreqCmd,
};
use std::fmt;

/// Options for strategy execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorOptions {
    /// Latency the trigger-placement arithmetic assumes, µs. `None` uses
    /// the device's actual latency (the well-calibrated case).
    pub planned_latency_us: Option<f64>,
    /// Collect telemetry during the run.
    pub collect_telemetry: bool,
    /// Telemetry sampling period, µs.
    pub telemetry_period_us: f64,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        Self {
            planned_latency_us: None,
            collect_telemetry: false,
            telemetry_period_us: 1_000.0,
        }
    }
}

impl ExecutorOptions {
    /// Checks the options for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidOptions`] when `telemetry_period_us`
    /// is non-positive or non-finite, or `planned_latency_us` is negative
    /// or non-finite.
    pub fn validate(&self) -> Result<(), ExecError> {
        if !self.telemetry_period_us.is_finite() || self.telemetry_period_us <= 0.0 {
            return Err(ExecError::InvalidOptions(format!(
                "telemetry_period_us must be positive and finite, got {}",
                self.telemetry_period_us
            )));
        }
        if let Some(l) = self.planned_latency_us {
            if !l.is_finite() || l < 0.0 {
                return Err(ExecError::InvalidOptions(format!(
                    "planned_latency_us must be non-negative and finite, got {l}"
                )));
            }
        }
        Ok(())
    }
}

/// Result of executing a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// The device run under the strategy.
    pub result: RunResult,
    /// Number of `SetFreq` commands dispatched (paper reports 821 for
    /// GPT-3 at a 5 ms FAI).
    pub setfreq_count: usize,
    /// The initial frequency the run started at.
    pub initial_freq: FreqMhz,
    /// Which degradation rung produced this outcome ([`Degradation::None`]
    /// for a plain, healthy execution).
    pub degradation: Degradation,
}

/// Errors from strategy execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The strategy's operator indices do not fit the schedule/profile.
    StrategyMismatch {
        /// Operators covered by the strategy.
        strategy_ops: usize,
        /// Operators in the schedule.
        schedule_ops: usize,
    },
    /// The underlying device rejected the run.
    Device(DeviceError),
    /// The executor options are inconsistent (non-positive telemetry
    /// period, non-finite planned latency, …).
    InvalidOptions(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StrategyMismatch {
                strategy_ops,
                schedule_ops,
            } => write!(
                f,
                "strategy covers {strategy_ops} operators but the schedule has {schedule_ops}"
            ),
            Self::Device(e) => write!(f, "device error: {e}"),
            Self::InvalidOptions(msg) => write!(f, "invalid executor options: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Device(e) => Some(e),
            Self::StrategyMismatch { .. } | Self::InvalidOptions(_) => None,
        }
    }
}

impl From<DeviceError> for ExecError {
    fn from(e: DeviceError) -> Self {
        Self::Device(e)
    }
}

/// One planned frequency switch: the stage it opens, its trigger
/// operator, and the time the apply is expected to land (relative to run
/// start). The resilient executor checks actual applies against this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedApply {
    /// Index of the stage this switch opens.
    pub stage_idx: usize,
    /// Trigger operator index (dispatch fires when it completes).
    pub trigger_op: usize,
    /// Requested frequency.
    pub target: FreqMhz,
    /// Trigger operator's completion time in the baseline profile, µs.
    pub trigger_end_us: f64,
    /// Expected apply time (`trigger_end_us` + planned latency), µs.
    pub planned_apply_us: f64,
}

/// Plans a strategy's frequency switches against the baseline profile
/// timeline: the initial frequency plus one [`PlannedApply`] per stage
/// boundary where the frequency changes.
///
/// `baseline_records` must come from a profiled run of the same schedule
/// (they supply the time points for trigger placement).
///
/// # Errors
///
/// Returns [`ExecError::StrategyMismatch`] when a stage's operator range
/// is empty, does not start where the previous stage's ended, or
/// exceeds the profile.
pub fn plan_applies(
    strategy: &DvfsStrategy,
    baseline_records: &[OpRecord],
    planned_latency_us: f64,
    default_freq: FreqMhz,
) -> Result<(FreqMhz, Vec<PlannedApply>), ExecError> {
    let covered = strategy.stages().last().map_or(0, |s| s.op_range.end);
    let mut prev_end = None;
    for stage in strategy.stages() {
        let range = &stage.op_range;
        if range.is_empty()
            || range.end > baseline_records.len()
            || prev_end.is_some_and(|end| end != range.start)
        {
            return Err(ExecError::StrategyMismatch {
                strategy_ops: covered,
                schedule_ops: baseline_records.len(),
            });
        }
        prev_end = Some(range.end);
    }
    let initial = strategy.freqs().first().copied().unwrap_or(default_freq);
    let mut applies = Vec::new();
    let mut current = initial;
    for (stage_idx, (stage, &freq)) in strategy
        .stages()
        .iter()
        .zip(strategy.freqs())
        .enumerate()
        .skip(1)
    {
        if freq == current {
            continue;
        }
        let boundary = stage.op_range.start;
        let target = baseline_records[boundary].start_us - planned_latency_us;
        // The trigger is the operator whose completion time sits closest
        // to `target`, so the switch applies as close to the boundary as
        // the operator grid allows (paper Sect. 7.1: "identify the last
        // operator before the resulting time point as the SetFreq
        // trigger"). A pure "last op ending before target" rule fails
        // when a long operator spans the target point — the trigger would
        // fire one whole operator too early and a pair of opposite
        // switches could cancel. Completion times are monotone, so a
        // binary search finds the closest end.
        let trigger = {
            let slice = &baseline_records[..boundary];
            match slice.binary_search_by(|r| r.end_us().total_cmp(&target)) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) if i >= slice.len() => slice.len() - 1,
                Err(i) => {
                    let before = target - slice[i - 1].end_us();
                    let after = slice[i].end_us() - target;
                    if before <= after {
                        i - 1
                    } else {
                        i
                    }
                }
            }
        };
        let trigger_end = baseline_records[trigger].end_us();
        applies.push(PlannedApply {
            stage_idx,
            trigger_op: trigger,
            target: freq,
            trigger_end_us: trigger_end,
            planned_apply_us: trigger_end + planned_latency_us,
        });
        current = freq;
    }
    Ok((initial, applies))
}

/// Compiles a strategy into an initial frequency plus `SetFreq` dispatches
/// against the baseline profile timeline.
///
/// Thin wrapper over [`plan_applies`] that keeps only the dispatch view
/// (trigger operator + target frequency).
///
/// # Errors
///
/// Returns [`ExecError::StrategyMismatch`] when the strategy's operator
/// ranges do not fit the profile (see [`plan_applies`]).
pub fn compile_strategy(
    strategy: &DvfsStrategy,
    baseline_records: &[OpRecord],
    planned_latency_us: f64,
    default_freq: FreqMhz,
) -> Result<(FreqMhz, Vec<SetFreqCmd>), ExecError> {
    let (initial, applies) =
        plan_applies(strategy, baseline_records, planned_latency_us, default_freq)?;
    let cmds = applies
        .iter()
        .map(|a| SetFreqCmd {
            after_op: a.trigger_op,
            target: a.target,
        })
        .collect();
    Ok((initial, cmds))
}

/// A strategy compiled for one schedule on one device: the initial
/// frequency and the `SetFreq` commands, placed against the baseline
/// profile and sorted by trigger, in the device run every iteration of
/// the strategy makes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStrategy {
    run: RunOptions,
    /// Operators in the schedule the triggers index.
    ops: usize,
}

impl CompiledStrategy {
    /// Places `strategy`'s triggers against `baseline_records`, for the
    /// apply latency `opts` plans with (the device's own by default).
    /// Runs keep their per-operator records until
    /// [`Self::record_free`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the options are inconsistent or the
    /// strategy does not fit the schedule or its profile.
    pub fn compile(
        dev: &Device,
        schedule: &Schedule,
        strategy: &DvfsStrategy,
        baseline_records: &[OpRecord],
        opts: &ExecutorOptions,
    ) -> Result<Self, ExecError> {
        opts.validate()?;
        if baseline_records.len() != schedule.len() {
            return Err(ExecError::StrategyMismatch {
                strategy_ops: baseline_records.len(),
                schedule_ops: schedule.len(),
            });
        }
        let planned = opts
            .planned_latency_us
            .unwrap_or(dev.config().setfreq_latency_us);
        let fmax = dev.config().freq_table.max();
        let (initial, mut cmds) = compile_strategy(strategy, baseline_records, planned, fmax)?;
        cmds.sort_by_key(|c| c.after_op);
        let mut run = RunOptions::at(initial).with_setfreq(cmds);
        if opts.collect_telemetry {
            run = run.with_telemetry(opts.telemetry_period_us);
        }
        Ok(Self {
            run,
            ops: schedule.len(),
        })
    }

    /// Runs of this plan keep no per-operator records
    /// ([`RecordMode::Discard`]). They draw the same noise and leave the
    /// device as a recorded run does, so every total, the frequency
    /// trace, the telemetry and every later run stay bit-identical.
    #[must_use]
    pub fn record_free(mut self) -> Self {
        self.run.records = RecordMode::Discard;
        self
    }

    /// The `SetFreq` commands, sorted by trigger operator.
    #[must_use]
    pub fn setfreq(&self) -> &[SetFreqCmd] {
        &self.run.setfreq
    }

    /// Runs one iteration of the plan on `dev`.
    ///
    /// When the device carries an enabled observer, the iteration is
    /// reported as an [`Event::IterationMeasured`] labeled `"optimized"`
    /// (the `SetFreq` applies themselves are emitted by the device during
    /// the run).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StrategyMismatch`] when `schedule` is not as
    /// long as the schedule the plan was compiled for, and
    /// [`ExecError::Device`] when the device rejects the run.
    pub fn run(
        &self,
        dev: &mut Device,
        schedule: &Schedule,
    ) -> Result<ExecutionOutcome, ExecError> {
        if schedule.len() != self.ops {
            return Err(ExecError::StrategyMismatch {
                strategy_ops: self.ops,
                schedule_ops: schedule.len(),
            });
        }
        let result = dev.run(schedule, &self.run)?;
        let obs = dev.observer();
        if obs.enabled() {
            obs.emit(Event::IterationMeasured {
                label: "optimized".to_owned(),
                time_us: result.duration_us,
                aicore_w: result.avg_aicore_w(),
                soc_w: result.avg_soc_w(),
                temp_c: result.end_temp_c,
            });
        }
        Ok(ExecutionOutcome {
            result,
            setfreq_count: self.run.setfreq.len(),
            initial_freq: self.run.initial_freq,
            degradation: Degradation::None,
        })
    }
}

/// Executes `strategy` on `dev` over `schedule`, placing `SetFreq`
/// triggers against `baseline_records`: [`CompiledStrategy::compile`],
/// then one recorded [`CompiledStrategy::run`].
///
/// # Errors
///
/// Returns [`ExecError`] when the options are inconsistent, the strategy
/// does not fit the schedule or the device rejects the run.
pub fn execute_strategy(
    dev: &mut Device,
    schedule: &Schedule,
    strategy: &DvfsStrategy,
    baseline_records: &[OpRecord],
    opts: &ExecutorOptions,
) -> Result<ExecutionOutcome, ExecError> {
    CompiledStrategy::compile(dev, schedule, strategy, baseline_records, opts)?.run(dev, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_dvfs::{preprocess::preprocess, DvfsStrategy, Stage, StageKind};
    use npu_sim::NpuConfig;
    use npu_workloads::models;

    fn quiet_cfg() -> NpuConfig {
        NpuConfig::builder().noise(0.0, 0.0, 0.0).build().unwrap()
    }

    fn baseline(dev: &mut Device, schedule: &Schedule) -> RunResult {
        dev.run(schedule, &RunOptions::at(FreqMhz::new(1800)))
            .unwrap()
    }

    /// A hand-built two-stage strategy over a profile: first half at
    /// `f_head`, second half at `f_tail`.
    fn two_stage(records: &[OpRecord], f_head: u32, f_tail: u32) -> DvfsStrategy {
        let mid = records.len() / 2;
        let end = records.len();
        let half1: f64 = records[..mid].iter().map(|r| r.dur_us).sum();
        let half2: f64 = records[mid..].iter().map(|r| r.dur_us).sum();
        let stages = vec![
            Stage {
                start_us: 0.0,
                dur_us: half1,
                op_range: 0..mid,
                kind: StageKind::Lfc,
            },
            Stage {
                start_us: records[mid].start_us,
                dur_us: half2,
                op_range: mid..end,
                kind: StageKind::Hfc,
            },
        ];
        DvfsStrategy::new(stages, vec![FreqMhz::new(f_head), FreqMhz::new(f_tail)])
    }

    #[test]
    fn executes_two_stage_strategy() {
        let cfg = quiet_cfg();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg);
        let base = baseline(&mut dev, w.schedule());
        let strategy = two_stage(&base.records, 1200, 1800);
        let out = execute_strategy(
            &mut dev,
            w.schedule(),
            &strategy,
            &base.records,
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert_eq!(out.initial_freq.mhz(), 1200);
        assert_eq!(out.setfreq_count, 1);
        // The run actually switched frequency.
        assert_eq!(out.result.freq_trace.len(), 2);
        assert_eq!(out.result.freq_trace[1].1.mhz(), 1800);
    }

    #[test]
    fn uniform_strategy_needs_no_setfreq() {
        let cfg = quiet_cfg();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg);
        let base = baseline(&mut dev, w.schedule());
        let strategy = two_stage(&base.records, 1500, 1500);
        let out = execute_strategy(
            &mut dev,
            w.schedule(),
            &strategy,
            &base.records,
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert_eq!(out.setfreq_count, 0);
        assert_eq!(out.result.freq_trace.len(), 1);
    }

    #[test]
    fn trigger_fires_before_stage_boundary() {
        let cfg = quiet_cfg();
        let latency = cfg.setfreq_latency_us;
        let w = models::gpt3(&cfg); // long enough that triggers are interior
                                    // Profile only the first 300 ops to keep the test quick.
        let head: Schedule = w.schedule().ops()[..300].iter().cloned().collect();
        let mut dev = Device::new(cfg);
        let base = baseline(&mut dev, &head);
        let strategy = two_stage(&base.records, 1100, 1800);
        let boundary_start = base.records[strategy.stages()[1].op_range.start].start_us;
        let (initial, cmds) =
            compile_strategy(&strategy, &base.records, latency, FreqMhz::new(1800)).unwrap();
        assert_eq!(initial.mhz(), 1100);
        assert_eq!(cmds.len(), 1);
        // The closest-end rule places the apply within one operator (or
        // one latency) of the boundary — never a whole long operator off.
        let trigger_end = base.records[cmds[0].after_op].end_us();
        let apply = trigger_end + latency;
        assert!(
            (apply - boundary_start).abs() < 10.0 * latency,
            "apply ({apply}) should land near the boundary ({boundary_start})"
        );
    }

    #[test]
    fn delayed_setfreq_still_runs_but_shifts_applies() {
        // Plan triggers for 1 ms but execute on a device with a 15 ms
        // apply latency (paper Fig. 18's V100 emulation).
        let slow_cfg = NpuConfig::builder()
            .noise(0.0, 0.0, 0.0)
            .setfreq_latency_us(15_000.0)
            .build()
            .unwrap();
        let w = models::tiny(&slow_cfg);
        let mut dev = Device::new(slow_cfg);
        let base = baseline(&mut dev, w.schedule());
        let strategy = two_stage(&base.records, 1100, 1800);
        let out = execute_strategy(
            &mut dev,
            w.schedule(),
            &strategy,
            &base.records,
            &ExecutorOptions {
                planned_latency_us: Some(1_000.0),
                ..ExecutorOptions::default()
            },
        )
        .unwrap();
        // The switch may land after the run ends (tiny is ~1 ms long), but
        // the command was dispatched.
        assert_eq!(out.setfreq_count, 1);
    }

    #[test]
    fn long_operator_spanning_target_does_not_cancel_switches() {
        // Regression: with a "last op ending before target" rule, an
        // up-switch whose target point falls inside a long operator (e.g.
        // an 11 ms collective) picks a trigger one whole operator early
        // and lands at the same time as the preceding down-switch,
        // cancelling it. The closest-completion rule must pick the long
        // operator itself.
        let cfg = quiet_cfg();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg);
        let base = baseline(&mut dev, w.schedule());
        // Build a synthetic profile: op0 2 ms, op1 11 ms, op2.. short.
        let mut records = base.records.clone();
        let mut t = 0.0;
        for (i, r) in records.iter_mut().enumerate() {
            r.start_us = t;
            r.dur_us = match i {
                0 => 2_000.0,
                1 => 11_000.0,
                _ => 100.0,
            };
            t += r.dur_us;
        }
        let stages = vec![
            Stage {
                start_us: 0.0,
                dur_us: 13_000.0,
                op_range: 0..2,
                kind: StageKind::Lfc,
            },
            Stage {
                start_us: 13_000.0,
                dur_us: t - 13_000.0,
                op_range: 2..records.len(),
                kind: StageKind::Hfc,
            },
        ];
        let strategy = DvfsStrategy::new(stages, vec![FreqMhz::new(1200), FreqMhz::new(1800)]);
        let (initial, cmds) =
            compile_strategy(&strategy, &records, 1_000.0, FreqMhz::new(1800)).unwrap();
        assert_eq!(initial.mhz(), 1200);
        assert_eq!(cmds.len(), 1);
        // Target = 13 000 − 1 000 = 12 000 µs, inside op1 (2 000–13 000).
        // Closest completion is op1's (13 000), not op0's (2 000).
        assert_eq!(cmds[0].after_op, 1);
    }

    #[test]
    fn rejects_mismatched_profile() {
        let cfg = quiet_cfg();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg);
        let base = baseline(&mut dev, w.schedule());
        let strategy = two_stage(&base.records, 1200, 1800);
        let mut short = base.records.clone();
        short.pop();
        let err = execute_strategy(
            &mut dev,
            w.schedule(),
            &strategy,
            &short,
            &ExecutorOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::StrategyMismatch { .. }));
    }

    #[test]
    fn plan_applies_rejects_ranges_that_do_not_tile_the_profile() {
        let cfg = quiet_cfg();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg);
        let records = baseline(&mut dev, w.schedule()).records;
        let n = records.len();
        let plan = |ranges: &[std::ops::Range<usize>]| {
            let stages = ranges
                .iter()
                .map(|r| Stage {
                    start_us: 0.0,
                    dur_us: 1.0,
                    op_range: r.clone(),
                    kind: StageKind::Lfc,
                })
                .collect();
            let freqs = [1200, 1800, 1300][..ranges.len()]
                .iter()
                .map(|&mhz| FreqMhz::new(mhz))
                .collect();
            plan_applies(
                &DvfsStrategy::new(stages, freqs),
                &records,
                1_000.0,
                FreqMhz::new(1800),
            )
        };
        assert!(plan(&[0..n / 2, n / 2..n]).is_ok());
        for ranges in [
            // Inverted: the next stage would index past the records.
            vec![0..n / 2, n + 50..n],
            // Empty.
            vec![0..n / 2, n / 2..n / 2, n / 2..n],
            // A gap, then an overlap.
            vec![0..n / 2, n / 2 + 1..n],
            vec![0..n / 2, n / 2 - 1..n],
            // Past the records, in a middle stage.
            vec![0..n + 1, n + 1..n + 2],
        ] {
            let err = plan(&ranges).unwrap_err();
            assert!(
                matches!(err, ExecError::StrategyMismatch { .. }),
                "{ranges:?}: {err}"
            );
        }
    }

    #[test]
    fn preprocessed_strategy_round_trips() {
        // preprocess -> uniform strategy over stages -> execute.
        let cfg = quiet_cfg();
        let w = models::tiny(&cfg);
        let mut dev = Device::new(cfg);
        let base = baseline(&mut dev, w.schedule());
        let pre = preprocess(&base.records, 100.0);
        assert!(!pre.is_empty());
        let freqs = vec![FreqMhz::new(1400); pre.len()];
        let strategy = DvfsStrategy::new(pre.stages().to_vec(), freqs);
        let out = execute_strategy(
            &mut dev,
            w.schedule(),
            &strategy,
            &base.records,
            &ExecutorOptions::default(),
        )
        .unwrap();
        assert_eq!(out.initial_freq.mhz(), 1400);
        assert_eq!(out.setfreq_count, 0);
    }
}
