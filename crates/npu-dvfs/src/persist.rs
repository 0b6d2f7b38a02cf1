//! Strategy persistence: a human-readable text format for generated DVFS
//! strategies, so the generation phase and the execution phase can run in
//! separate processes (exactly the paper's production split — the DVFS
//! Executor "reads the strategy generated in the DVFS Strategy Generate
//! phase", Sect. 7.1).
//!
//! Format (`# …` lines are comments):
//!
//! ```text
//! npu-dvfs-strategy v1
//! stage <start_us> <dur_us> <op_start> <op_end> <LFC|HFC> <freq_mhz>
//! ```
//!
//! The free functions [`write_strategy`]/[`read_strategy`] and the
//! inherent [`DvfsStrategy::to_writer`]/[`DvfsStrategy::from_reader`]
//! methods are interchangeable.

use crate::preprocess::{Stage, StageKind};
use crate::strategy::DvfsStrategy;
use npu_sim::FreqMhz;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Magic header line of the strategy format.
pub const STRATEGY_HEADER: &str = "npu-dvfs-strategy v1";

/// Errors parsing a persisted strategy.
#[derive(Debug)]
pub enum StrategyParseError {
    /// Missing or wrong header line.
    BadHeader,
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// Stage operator ranges are not contiguous/increasing.
    Inconsistent(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for StrategyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadHeader => write!(f, "missing or unsupported strategy header"),
            Self::BadLine { line, what } => write!(f, "line {line}: {what}"),
            Self::Inconsistent(what) => write!(f, "inconsistent strategy: {what}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StrategyParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StrategyParseError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl DvfsStrategy {
    /// Writes this strategy in the v1 text format (see
    /// [`write_strategy`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn to_writer<W: Write>(&self, out: W) -> io::Result<()> {
        write_strategy(self, out)
    }

    /// Reads a strategy in the v1 text format (see [`read_strategy`]).
    ///
    /// # Errors
    ///
    /// Returns [`StrategyParseError`] on malformed input.
    pub fn from_reader<R: BufRead>(reader: R) -> Result<Self, StrategyParseError> {
        read_strategy(reader)
    }
}

/// Writes a strategy in the v1 text format.
///
/// # Errors
///
/// Returns any I/O error from `out`.
pub fn write_strategy<W: Write>(strategy: &DvfsStrategy, mut out: W) -> io::Result<()> {
    writeln!(out, "{STRATEGY_HEADER}")?;
    writeln!(
        out,
        "# stage <start_us> <dur_us> <op_start> <op_end> <kind> <freq_mhz>"
    )?;
    for (stage, freq) in strategy.stages().iter().zip(strategy.freqs()) {
        writeln!(
            out,
            "stage {:.3} {:.3} {} {} {} {}",
            stage.start_us,
            stage.dur_us,
            stage.op_range.start,
            stage.op_range.end,
            stage.kind,
            freq.mhz()
        )?;
    }
    Ok(())
}

/// Reads a strategy in the v1 text format.
///
/// # Errors
///
/// Returns [`StrategyParseError`] on malformed input.
pub fn read_strategy<R: BufRead>(reader: R) -> Result<DvfsStrategy, StrategyParseError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or(StrategyParseError::BadHeader)?
        .map_err(StrategyParseError::Io)?;
    if header.trim() != STRATEGY_HEADER {
        return Err(StrategyParseError::BadHeader);
    }
    let mut stages = Vec::new();
    let mut freqs = Vec::new();
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        let line = line.map_err(StrategyParseError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let tag = parts.next().unwrap_or_default();
        if tag != "stage" {
            return Err(StrategyParseError::BadLine {
                line: line_no,
                what: format!("unknown record '{tag}'"),
            });
        }
        let mut field = |what: &str| -> Result<String, StrategyParseError> {
            parts
                .next()
                .map(str::to_owned)
                .ok_or_else(|| StrategyParseError::BadLine {
                    line: line_no,
                    what: format!("missing field <{what}>"),
                })
        };
        let parse_f64 = |v: String, what: &str| -> Result<f64, StrategyParseError> {
            v.parse().map_err(|_| StrategyParseError::BadLine {
                line: line_no,
                what: format!("invalid <{what}>: '{v}'"),
            })
        };
        let parse_usize = |v: String, what: &str| -> Result<usize, StrategyParseError> {
            v.parse().map_err(|_| StrategyParseError::BadLine {
                line: line_no,
                what: format!("invalid <{what}>: '{v}'"),
            })
        };
        let start_us = parse_f64(field("start_us")?, "start_us")?;
        let dur_us = parse_f64(field("dur_us")?, "dur_us")?;
        let op_start = parse_usize(field("op_start")?, "op_start")?;
        let op_end = parse_usize(field("op_end")?, "op_end")?;
        let kind = match field("kind")?.as_str() {
            "LFC" => StageKind::Lfc,
            "HFC" => StageKind::Hfc,
            other => {
                return Err(StrategyParseError::BadLine {
                    line: line_no,
                    what: format!("invalid <kind>: '{other}'"),
                })
            }
        };
        let mhz: u32 = field("freq_mhz")?
            .parse()
            .map_err(|_| StrategyParseError::BadLine {
                line: line_no,
                what: "invalid <freq_mhz>".to_owned(),
            })?;
        let stage = Stage {
            start_us,
            dur_us,
            op_range: op_start..op_end,
            kind,
        };
        freqs.push(check_stage(stages.last(), &stage, mhz, line_no)?);
        stages.push(stage);
    }
    Ok(DvfsStrategy::new(stages, freqs))
}

/// The checks every strategy decoder applies to a decoded stage line
/// (1-based `line`) before the stage may run: its frequency is
/// positive, and its operator range is non-empty and starts where
/// `prev`'s ended, as preprocessing produces. Returns the frequency.
///
/// # Errors
///
/// [`StrategyParseError::BadLine`] for a zero frequency or an empty
/// range, [`StrategyParseError::Inconsistent`] for a range that does
/// not continue `prev`'s.
pub fn check_stage(
    prev: Option<&Stage>,
    stage: &Stage,
    mhz: u32,
    line: usize,
) -> Result<FreqMhz, StrategyParseError> {
    let bad_line = |what: &str| StrategyParseError::BadLine {
        line,
        what: what.to_owned(),
    };
    if mhz == 0 {
        return Err(bad_line("frequency must be positive"));
    }
    if stage.op_range.is_empty() {
        return Err(bad_line("op range must be non-empty"));
    }
    if prev.is_some_and(|p| p.op_range.end != stage.op_range.start) {
        return Err(StrategyParseError::Inconsistent(format!(
            "stage op ranges not contiguous at op {}",
            stage.op_range.start
        )));
    }
    Ok(FreqMhz::new(mhz))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn sample() -> DvfsStrategy {
        let stages = vec![
            Stage {
                start_us: 0.0,
                dur_us: 6_000.0,
                op_range: 0..4,
                kind: StageKind::Hfc,
            },
            Stage {
                start_us: 6_000.0,
                dur_us: 7_500.5,
                op_range: 4..9,
                kind: StageKind::Lfc,
            },
        ];
        DvfsStrategy::new(stages, vec![FreqMhz::new(1800), FreqMhz::new(1300)])
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let mut buf = Vec::new();
        write_strategy(&s, &mut buf).unwrap();
        let parsed = read_strategy(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn inherent_methods_match_free_functions() {
        let s = sample();
        let mut via_method = Vec::new();
        s.to_writer(&mut via_method).unwrap();
        let mut via_free = Vec::new();
        write_strategy(&s, &mut via_free).unwrap();
        assert_eq!(via_method, via_free);
        let parsed = DvfsStrategy::from_reader(BufReader::new(via_method.as_slice())).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_strategy(BufReader::new("bogus v9\n".as_bytes())).unwrap_err();
        assert!(matches!(err, StrategyParseError::BadHeader));
    }

    #[test]
    fn rejects_malformed_lines() {
        let text = format!("{STRATEGY_HEADER}\nstage 0 100 0 x LFC 1300\n");
        let err = read_strategy(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(
            matches!(err, StrategyParseError::BadLine { line: 2, .. }),
            "{err}"
        );

        let text = format!("{STRATEGY_HEADER}\nwhatever\n");
        let err = read_strategy(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, StrategyParseError::BadLine { .. }));

        let text = format!("{STRATEGY_HEADER}\nstage 0 100 0 2 MID 1300\n");
        let err = read_strategy(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, StrategyParseError::BadLine { .. }));
    }

    #[test]
    fn rejects_non_contiguous_ranges() {
        let text =
            format!("{STRATEGY_HEADER}\nstage 0 100 0 2 LFC 1300\nstage 100 100 3 5 HFC 1800\n");
        let err = read_strategy(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, StrategyParseError::Inconsistent(_)));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = format!("{STRATEGY_HEADER}\n# comment\n\nstage 0 100 0 2 LFC 1300\n");
        let s = read_strategy(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.freqs()[0].mhz(), 1300);
    }

    #[test]
    fn empty_strategy_round_trips() {
        let s = DvfsStrategy::new(Vec::new(), Vec::new());
        let mut buf = Vec::new();
        write_strategy(&s, &mut buf).unwrap();
        let parsed = read_strategy(BufReader::new(buf.as_slice())).unwrap();
        assert!(parsed.is_empty());
    }

    /// A reader that fails after yielding the header, to exercise the
    /// `Io` error path.
    struct FailingReader {
        served: bool,
    }

    impl io::Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.served {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link died"));
            }
            self.served = true;
            let line = format!("{STRATEGY_HEADER}\n");
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    #[test]
    fn io_failures_surface_as_io_variant() {
        let err = read_strategy(BufReader::new(FailingReader { served: false })).unwrap_err();
        match &err {
            StrategyParseError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("expected Io, got {other}"),
        }
        // The source chain exposes the underlying io::Error.
        use std::error::Error as _;
        assert!(err.source().is_some());
    }
}
