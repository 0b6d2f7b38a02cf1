//! Declarative device descriptions: parsed, validated device profiles.
//!
//! The simulator used to hardcode the Ascend-910 shape (`ascend_like`,
//! `ascend_default`) at every layer; this module replaces the literals
//! with a parsed, validated, declarative description — the
//! machine-description architecture accelerator modeling needs once more
//! than one backend exists. A [`DeviceProfile`] is loaded from a small
//! TOML subset (hand-rolled parser, no external dependencies — the same
//! vendored-offline style as the rest of the workspace) and carries:
//!
//! * the frequency ladder and `SetFreq` apply latency ([`FrequencyTable`]),
//! * the firmware voltage curve ([`VoltageCurve`]),
//! * the pipeline set the timeline model drives (cube/vector/mte…),
//! * the memory hierarchy (port widths, L2/HBM bandwidth, `T0`),
//! * the power-model coefficient priors (β, θ, γ, uncore floor) and the
//!   thermal coupling — the quantities offline calibration refines,
//! * measurement-noise levels.
//!
//! Parsing is strict: unknown sections/keys, missing keys, type
//! mismatches and invalid physics (non-monotone ladder, non-positive
//! coefficients, a voltage knee that does not cover the ladder) are
//! typed [`ProfileError`]s carrying the offending line.
//!
//! Three profiles ship embedded in the crate (and as files under
//! `profiles/` at the workspace root): [`ascend_910`] — bit-identical
//! to the historical `NpuConfig::ascend_like()` literal and the source
//! of truth behind it — plus [`v100_class`] (coarse ladder, 15 ms DVFS
//! latency) and [`edge_npu`] (sparse 4-point ladder).
//!
//! # Examples
//!
//! ```
//! use npu_sim::profile::{self, DeviceProfile};
//!
//! let ascend = profile::ascend_910();
//! assert_eq!(ascend.name(), "ascend-910");
//! assert_eq!(ascend.config().core_num, 24);
//!
//! // Round trip: the canonical serialization re-parses bit-exactly.
//! let again = DeviceProfile::parse(&ascend.to_toml()).unwrap();
//! assert_eq!(again.fingerprint(), ascend.fingerprint());
//! ```

use crate::config::{ConfigError, NpuConfig, Row, Rule, ROWS};
use crate::freq::{FreqMhz, FrequencyTable, VoltageCurve};
use std::fmt;
use std::sync::OnceLock;

/// The pipelines a profile may declare, in canonical order. `mte2`
/// (load) and `mte3` (store) are mandatory — the timeline model's
/// Eq. (4) transfer terms have nothing to drive without them.
const KNOWN_PIPELINES: [&str; 6] = ["cube", "vector", "scalar", "mte1", "mte2", "mte3"];

/// Pipelines every profile must declare.
const REQUIRED_PIPELINES: [&str; 2] = ["mte2", "mte3"];

/// Error parsing or validating a device profile. Every variant that
/// points at profile text carries the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The file could not be read.
    Io {
        /// Path that failed to read.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A line is not a section header, a `key = value` pair, a comment
    /// or blank.
    Syntax {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A section this schema does not define.
    UnknownSection {
        /// 1-based source line.
        line: usize,
        /// The offending section name.
        section: String,
    },
    /// A key this schema does not define in its section.
    UnknownKey {
        /// 1-based source line.
        line: usize,
        /// Section the key appeared in (empty = top level).
        section: String,
        /// The offending key.
        key: String,
    },
    /// The same key appeared twice in one section.
    DuplicateKey {
        /// 1-based source line of the second occurrence.
        line: usize,
        /// Section the key appeared in.
        section: String,
        /// The duplicated key.
        key: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section.
        section: &'static str,
    },
    /// A required key is absent from its section.
    MissingKey {
        /// Section the key belongs to.
        section: &'static str,
        /// The absent key.
        key: &'static str,
    },
    /// A value has the wrong type for its key.
    Type {
        /// 1-based source line.
        line: usize,
        /// The key whose value mismatched.
        key: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// The `schema` version is not one this parser understands.
    Schema {
        /// 1-based source line.
        line: usize,
        /// The declared version.
        found: i64,
    },
    /// A quantity that must be strictly positive was zero or negative.
    NonPositive {
        /// 1-based source line.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// A quantity that must be non-negative was negative.
    Negative {
        /// 1-based source line.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// A fraction that must lie in `[0, 1]` did not.
    OutOfUnitRange {
        /// 1-based source line.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// The frequency ladder is empty, not strictly increasing, or wider
    /// than the 256-point genome alphabet.
    Ladder {
        /// 1-based source line of `points_mhz`.
        line: usize,
        /// What is wrong with the ladder.
        message: String,
    },
    /// The voltage curve does not cover a ladder point: the knee falls
    /// outside the ladder's span, so part of the operating range has no
    /// firmware-defined voltage regime.
    VoltageCoverage {
        /// 1-based source line of `knee_mhz`.
        line: usize,
        /// The uncovered ladder endpoint, MHz.
        freq_mhz: u32,
    },
    /// A pipeline name outside the known set.
    UnknownPipeline {
        /// 1-based source line.
        line: usize,
        /// The offending pipeline name.
        name: String,
    },
    /// A pipeline listed twice.
    DuplicatePipeline {
        /// 1-based source line.
        line: usize,
        /// The duplicated pipeline name.
        name: String,
    },
    /// A mandatory pipeline (`mte2`/`mte3`) is absent.
    MissingPipeline {
        /// The absent pipeline.
        name: &'static str,
    },
    /// The thermal coupling leaves the chip no steady state
    /// ([`NpuConfig::has_thermal_steady_state`]).
    ThermalRunaway {
        /// 1-based source line of `k_c_per_w`.
        line: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, message } => write!(f, "cannot read profile {path}: {message}"),
            Self::Syntax { line, message } => write!(f, "line {line}: {message}"),
            Self::UnknownSection { line, section } => {
                write!(f, "line {line}: unknown section [{section}]")
            }
            Self::UnknownKey { line, section, key } => {
                write!(f, "line {line}: unknown key `{key}` in section [{section}]")
            }
            Self::DuplicateKey { line, section, key } => {
                write!(
                    f,
                    "line {line}: duplicate key `{key}` in section [{section}]"
                )
            }
            Self::MissingSection { section } => write!(f, "missing section [{section}]"),
            Self::MissingKey { section, key } => {
                write!(f, "missing key `{key}` in section [{section}]")
            }
            Self::Type {
                line,
                key,
                expected,
            } => write!(f, "line {line}: `{key}` must be {expected}"),
            Self::Schema { line, found } => {
                write!(
                    f,
                    "line {line}: unsupported schema version {found} (expected 1)"
                )
            }
            Self::NonPositive { line, key } => {
                write!(f, "line {line}: `{key}` must be strictly positive")
            }
            Self::Negative { line, key } => {
                write!(f, "line {line}: `{key}` must be non-negative")
            }
            Self::OutOfUnitRange { line, key } => {
                write!(f, "line {line}: `{key}` must lie in [0, 1]")
            }
            Self::Ladder { line, message } => write!(f, "line {line}: {message}"),
            Self::VoltageCoverage { line, freq_mhz } => write!(
                f,
                "line {line}: voltage knee leaves ladder point {freq_mhz} MHz uncovered \
                 (knee must lie within the ladder span)"
            ),
            Self::UnknownPipeline { line, name } => {
                write!(f, "line {line}: unknown pipeline `{name}`")
            }
            Self::DuplicatePipeline { line, name } => {
                write!(f, "line {line}: duplicate pipeline `{name}`")
            }
            Self::MissingPipeline { name } => {
                write!(f, "missing mandatory pipeline `{name}`")
            }
            Self::ThermalRunaway { line } => write!(
                f,
                "line {line}: `k_c_per_w` · max(γ_soc, γ_aicore) · V(f_max) must be below 1, \
                 or the chip has no thermal steady state"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

impl ProfileError {
    /// The parser's form of a rule violation on `line`.
    fn at(line: usize, e: ConfigError) -> Self {
        match e {
            ConfigError::NonPositive(key) => Self::NonPositive {
                line,
                key: key.to_owned(),
            },
            ConfigError::Negative(key) => Self::Negative {
                line,
                key: key.to_owned(),
            },
            ConfigError::OutOfUnitRange(key) => Self::OutOfUnitRange {
                line,
                key: key.to_owned(),
            },
            ConfigError::NonFinite(key) => Self::Type {
                line,
                key: key.to_owned(),
                expected: "a finite number",
            },
            ConfigError::ThermalRunaway => Self::ThermalRunaway { line },
        }
    }
}

// ---------------------------------------------------------------------------
// TOML-subset front end
// ---------------------------------------------------------------------------

/// A parsed value. Numbers keep their raw token so typed getters can
/// parse them with full precision (`str::parse::<f64>` is correctly
/// rounded, exactly like a Rust literal).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Bool(bool),
    Num(String),
    Array(Vec<Value>),
}

#[derive(Debug, Clone)]
struct Entry {
    key: String,
    line: usize,
    value: Value,
}

#[derive(Debug, Clone)]
struct RawSection {
    name: String,
    line: usize,
    entries: Vec<Entry>,
}

/// Strips a `#` comment that starts outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_string(token: &str, line: usize, key: &str) -> Result<String, ProfileError> {
    let inner = token
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| ProfileError::Syntax {
            line,
            message: format!("unterminated string in `{key}`"),
        })?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => {
                    return Err(ProfileError::Syntax {
                        line,
                        message: format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                    })
                }
            }
        } else if c == '"' {
            return Err(ProfileError::Syntax {
                line,
                message: format!("stray quote inside `{key}`"),
            });
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Splits an array body on top-level commas (strings may contain commas).
fn split_array(body: &str, line: usize) -> Result<Vec<String>, ProfileError> {
    let mut items = Vec::new();
    let mut depth_str = false;
    let mut escaped = false;
    let mut cur = String::new();
    for c in body.chars() {
        match c {
            '\\' if depth_str && !escaped => {
                escaped = true;
                cur.push(c);
                continue;
            }
            '"' if !escaped => {
                depth_str = !depth_str;
                cur.push(c);
            }
            ',' if !depth_str => {
                items.push(cur.trim().to_owned());
                cur.clear();
            }
            '[' | ']' if !depth_str => {
                return Err(ProfileError::Syntax {
                    line,
                    message: "nested arrays are not supported".to_owned(),
                })
            }
            _ => cur.push(c),
        }
        escaped = false;
    }
    let tail = cur.trim();
    if !tail.is_empty() {
        items.push(tail.to_owned());
    }
    Ok(items)
}

fn is_numeric_token(token: &str) -> bool {
    !token.is_empty()
        && token
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E' | '_'))
}

fn parse_value(token: &str, line: usize, key: &str) -> Result<Value, ProfileError> {
    if token.starts_with('"') {
        return parse_string(token, line, key).map(Value::Str);
    }
    if token == "true" {
        return Ok(Value::Bool(true));
    }
    if token == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = token.strip_prefix('[') {
        let body = body.strip_suffix(']').ok_or_else(|| ProfileError::Syntax {
            line,
            message: format!("unterminated array in `{key}`"),
        })?;
        let mut items = Vec::new();
        for item in split_array(body, line)? {
            items.push(parse_value(&item, line, key)?);
        }
        return Ok(Value::Array(items));
    }
    if is_numeric_token(token) {
        let cleaned: String = token.chars().filter(|&c| c != '_').collect();
        // Reject tokens `f64::from_str` cannot digest now, with a span,
        // instead of at first typed access. The token grammar cannot
        // spell `inf` or `nan`; a token that overflows (`1e400`) reads
        // as ±∞, which every float rule rejects.
        if cleaned.parse::<f64>().is_err() {
            return Err(ProfileError::Syntax {
                line,
                message: format!("malformed number `{token}` in `{key}`"),
            });
        }
        return Ok(Value::Num(cleaned));
    }
    Err(ProfileError::Syntax {
        line,
        message: format!("unrecognized value `{token}` for `{key}`"),
    })
}

/// Parses profile text into raw sections (section 0 is the top level).
fn parse_sections(text: &str) -> Result<Vec<RawSection>, ProfileError> {
    let mut sections = vec![RawSection {
        name: String::new(),
        line: 0,
        entries: Vec::new(),
    }];
    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = strip_comment(raw_line).trim();
        if stripped.is_empty() {
            continue;
        }
        if let Some(rest) = stripped.strip_prefix('[') {
            let name = rest.strip_suffix(']').ok_or_else(|| ProfileError::Syntax {
                line,
                message: "unterminated section header".to_owned(),
            })?;
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(ProfileError::Syntax {
                    line,
                    message: format!("malformed section name `{name}`"),
                });
            }
            sections.push(RawSection {
                name: name.to_owned(),
                line,
                entries: Vec::new(),
            });
            continue;
        }
        let (key, value) = stripped
            .split_once('=')
            .ok_or_else(|| ProfileError::Syntax {
                line,
                message: "expected `key = value` or `[section]`".to_owned(),
            })?;
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(ProfileError::Syntax {
                line,
                message: format!("malformed key `{key}`"),
            });
        }
        let value = parse_value(value.trim(), line, key)?;
        // Non-emptiness invariant: `sections` starts with the top-level
        // section and only ever grows.
        if let Some(section) = sections.last_mut() {
            section.entries.push(Entry {
                key: key.to_owned(),
                line,
                value,
            });
        }
    }
    Ok(sections)
}

// ---------------------------------------------------------------------------
// Typed section access
// ---------------------------------------------------------------------------

/// One parsed section with schema-checked, typed access to its keys.
#[derive(Debug)]
struct Section<'a> {
    raw: &'a RawSection,
    name: &'static str,
}

impl<'a> Section<'a> {
    /// Rejects duplicate keys and keys that are neither `structured`
    /// nor one of the section's table rows.
    fn check_keys(&self, structured: &[&str]) -> Result<(), ProfileError> {
        for (i, e) in self.raw.entries.iter().enumerate() {
            let key = e.key.as_str();
            if !structured.contains(&key)
                && !ROWS.iter().any(|r| r.section == self.name && r.key == key)
            {
                return Err(ProfileError::UnknownKey {
                    line: e.line,
                    section: self.raw.name.clone(),
                    key: e.key.clone(),
                });
            }
            if self.raw.entries[..i].iter().any(|p| p.key == e.key) {
                return Err(ProfileError::DuplicateKey {
                    line: e.line,
                    section: self.raw.name.clone(),
                    key: e.key.clone(),
                });
            }
        }
        Ok(())
    }

    fn entry(&self, key: &'static str) -> Result<&'a Entry, ProfileError> {
        self.raw
            .entries
            .iter()
            .find(|e| e.key == key)
            .ok_or(ProfileError::MissingKey {
                section: self.name,
                key,
            })
    }

    fn f64(&self, key: &'static str) -> Result<(f64, usize), ProfileError> {
        let e = self.entry(key)?;
        match &e.value {
            Value::Num(raw) => raw.parse().map_err(|_| type_error(e, "a number")),
            _ => Err(type_error(e, "a number")),
        }
        .map(|v| (v, e.line))
    }

    /// Reads a float and checks it against `rule`.
    fn checked_f64(&self, key: &'static str, rule: Rule) -> Result<f64, ProfileError> {
        let (v, line) = self.f64(key)?;
        rule.check(key, v).map_err(|e| ProfileError::at(line, e))?;
        Ok(v)
    }

    /// Reads the section's table rows, in table order, into their slots
    /// of `rows`.
    fn read_rows(&self, rows: &mut [f64]) -> Result<(), ProfileError> {
        for (row, slot) in ROWS.iter().zip(rows) {
            if row.section == self.name {
                *slot = self.checked_f64(row.key, row.rule)?;
            }
        }
        Ok(())
    }

    fn u32(&self, key: &'static str) -> Result<(u32, usize), ProfileError> {
        let e = self.entry(key)?;
        match &e.value {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| type_error(e, "a non-negative integer")),
            _ => Err(type_error(e, "a non-negative integer")),
        }
        .map(|v| (v, e.line))
    }

    fn string(&self, key: &'static str) -> Result<(String, usize), ProfileError> {
        let e = self.entry(key)?;
        match &e.value {
            Value::Str(s) => Ok((s.clone(), e.line)),
            _ => Err(type_error(e, "a string")),
        }
    }

    fn string_or(&self, key: &'static str, default: &str) -> Result<(String, usize), ProfileError> {
        match self.string(key) {
            Ok(v) => Ok(v),
            Err(ProfileError::MissingKey { .. }) => Ok((default.to_owned(), self.raw.line)),
            Err(e) => Err(e),
        }
    }

    fn u32_array(&self, key: &'static str) -> Result<(Vec<u32>, usize), ProfileError> {
        let e = self.entry(key)?;
        let Value::Array(items) = &e.value else {
            return Err(type_error(e, "an array of integers"));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Value::Num(raw) = item else {
                return Err(type_error(e, "an array of integers"));
            };
            let Ok(v) = raw.parse::<u32>() else {
                return Err(type_error(e, "an array of non-negative integers"));
            };
            out.push(v);
        }
        Ok((out, e.line))
    }

    fn string_array(&self, key: &'static str) -> Result<(Vec<String>, usize), ProfileError> {
        let e = self.entry(key)?;
        let Value::Array(items) = &e.value else {
            return Err(type_error(e, "an array of strings"));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Value::Str(s) = item else {
                return Err(type_error(e, "an array of strings"));
            };
            out.push(s.clone());
        }
        Ok((out, e.line))
    }
}

/// The type error for `entry`'s value.
fn type_error(entry: &Entry, expected: &'static str) -> ProfileError {
    ProfileError::Type {
        line: entry.line,
        key: entry.key.clone(),
        expected,
    }
}

/// Finds section `name` and checks its keys (see [`Section::check_keys`]).
fn open<'a>(
    sections: &'a [RawSection],
    name: &'static str,
    structured: &[&str],
) -> Result<Section<'a>, ProfileError> {
    let section = sections
        .iter()
        .find(|s| s.name == name)
        .map(|raw| Section { raw, name })
        .ok_or(ProfileError::MissingSection { section: name })?;
    section.check_keys(structured)?;
    Ok(section)
}

// ---------------------------------------------------------------------------
// The profile itself
// ---------------------------------------------------------------------------

/// A parsed, validated device description.
///
/// Construct with [`DeviceProfile::parse`] (text) or
/// [`DeviceProfile::from_file`]; the three shipped profiles are
/// available pre-parsed via [`ascend_910`], [`v100_class`] and
/// [`edge_npu`]. The derived [`NpuConfig`] carries the profile's
/// [fingerprint](DeviceProfile::fingerprint) so artifact-cache keys
/// can never alias configurations from different device descriptions.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    description: String,
    pipelines: Vec<String>,
    config: NpuConfig,
    fingerprint: u64,
}

/// 64-bit FNV-1a over the canonical serialization: the profile's
/// content identity, independent of comments and formatting.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl DeviceProfile {
    /// Parses and validates profile text.
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileError`] describing the first syntax, schema or
    /// validation problem, with the offending source line where one
    /// exists.
    pub fn parse(text: &str) -> Result<Self, ProfileError> {
        let sections = parse_sections(text)?;

        // Top level: the schema version only.
        let top = Section {
            // Index 0 always exists: `parse_sections` seeds it.
            raw: &sections[0],
            name: "",
        };
        top.check_keys(&["schema"])?;
        let (schema, schema_line) = top.u32("schema").map_err(|e| match e {
            ProfileError::MissingKey { .. } => ProfileError::MissingKey {
                section: "top level",
                key: "schema",
            },
            other => other,
        })?;
        if schema != 1 {
            return Err(ProfileError::Schema {
                line: schema_line,
                found: i64::from(schema),
            });
        }

        const SECTIONS: [&str; 8] = [
            "device",
            "cores",
            "memory",
            "frequency",
            "voltage",
            "power",
            "thermal",
            "noise",
        ];
        for s in sections.iter().skip(1) {
            if !SECTIONS.contains(&s.name.as_str()) {
                return Err(ProfileError::UnknownSection {
                    line: s.line,
                    section: s.name.clone(),
                });
            }
            if sections.iter().skip(1).filter(|o| o.name == s.name).count() > 1 {
                return Err(ProfileError::Syntax {
                    line: s.line,
                    message: format!("section [{}] declared twice", s.name),
                });
            }
        }

        // Structured keys first in each section, then its table rows.
        let mut rows = [0.0; ROWS.len()];
        let device = open(&sections, "device", &["name", "description"])?;
        let (name, name_line) = device.string("name")?;
        if name.is_empty() {
            return Err(ProfileError::Syntax {
                line: name_line,
                message: "device name must not be empty".to_owned(),
            });
        }
        let (description, _) = device.string_or("description", "")?;

        let cores = open(&sections, "cores", &["count", "pipelines"])?;
        let (core_num, core_line) = cores.u32("count")?;
        if core_num == 0 {
            return Err(ProfileError::NonPositive {
                line: core_line,
                key: "count".to_owned(),
            });
        }
        let (pipelines, pipe_line) = cores.string_array("pipelines")?;
        for (i, p) in pipelines.iter().enumerate() {
            if !KNOWN_PIPELINES.contains(&p.as_str()) {
                return Err(ProfileError::UnknownPipeline {
                    line: pipe_line,
                    name: p.clone(),
                });
            }
            if pipelines[..i].contains(p) {
                return Err(ProfileError::DuplicatePipeline {
                    line: pipe_line,
                    name: p.clone(),
                });
            }
        }
        for required in REQUIRED_PIPELINES {
            if !pipelines.iter().any(|p| p == required) {
                return Err(ProfileError::MissingPipeline { name: required });
            }
        }
        cores.read_rows(&mut rows)?;
        open(&sections, "memory", &[])?.read_rows(&mut rows)?;

        let frequency = open(&sections, "frequency", &["points_mhz"])?;
        let (points, ladder_line) = frequency.u32_array("points_mhz")?;
        if points.is_empty() {
            return Err(ProfileError::Ladder {
                line: ladder_line,
                message: "frequency ladder must contain at least one point".to_owned(),
            });
        }
        if points.contains(&0) {
            return Err(ProfileError::Ladder {
                line: ladder_line,
                message: "frequency ladder points must be positive".to_owned(),
            });
        }
        if points.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ProfileError::Ladder {
                line: ladder_line,
                message: "frequency ladder must be strictly increasing".to_owned(),
            });
        }
        if points.len() > 256 {
            return Err(ProfileError::Ladder {
                line: ladder_line,
                message: format!(
                    "frequency ladder has {} points; the genome alphabet caps at 256",
                    points.len()
                ),
            });
        }
        frequency.read_rows(&mut rows)?;

        let voltage = open(
            &sections,
            "voltage",
            &["base_v", "knee_mhz", "slope_v_per_mhz"],
        )?;
        let base_v = voltage.checked_f64("base_v", Rule::Positive)?;
        let (knee_mhz, knee_line) = voltage.u32("knee_mhz")?;
        if knee_mhz == 0 {
            return Err(ProfileError::NonPositive {
                line: knee_line,
                key: "knee_mhz".to_owned(),
            });
        }
        let slope = voltage.checked_f64("slope_v_per_mhz", Rule::NonNegative)?;
        // Coverage: the knee must lie within the ladder span so both
        // firmware regimes (flat, linear) are anchored to real operating
        // points and no ladder point sits outside the curve's
        // definition region.
        let (lo, hi) = (points[0], points[points.len() - 1]);
        if knee_mhz < lo {
            return Err(ProfileError::VoltageCoverage {
                line: knee_line,
                freq_mhz: lo,
            });
        }
        if knee_mhz > hi {
            return Err(ProfileError::VoltageCoverage {
                line: knee_line,
                freq_mhz: hi,
            });
        }
        for name in ["power", "thermal", "noise"] {
            open(&sections, name, &[])?.read_rows(&mut rows)?;
        }

        // Constructors below cannot fail: the ladder is validated
        // non-empty/increasing and the curve's base/slope positive and
        // non-negative above.
        let freq_points: Vec<FreqMhz> = points.iter().map(|&m| FreqMhz::new(m)).collect();
        let freq_table = match FrequencyTable::new(freq_points) {
            Ok(t) => t,
            Err(e) => unreachable!("validated ladder rejected: {e}"),
        };
        let voltage_curve = VoltageCurve::new(base_v, FreqMhz::new(knee_mhz), slope);
        let config = NpuConfig::from_rows(core_num, freq_table, voltage_curve, rows);
        if !config.has_thermal_steady_state() {
            // Reported at the thermal coupling's line.
            let k = Row::k_c_per_w;
            let line = open(&sections, k.section, &[])?.entry(k.key)?.line;
            return Err(ProfileError::ThermalRunaway { line });
        }

        let mut profile = Self {
            name,
            description,
            pipelines,
            config,
            fingerprint: 0,
        };
        // Content identity: the fingerprint hashes the canonical
        // serialization, so formatting and comments never alias two
        // distinct devices — and two textually different spellings of
        // the same device agree.
        let fingerprint = fnv1a(profile.to_toml().as_bytes());
        profile.fingerprint = fingerprint;
        profile.config.profile_fp = fingerprint;
        Ok(profile)
    }

    /// Reads and parses a profile file.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Io`] if the file cannot be read, or any
    /// parse/validation error from [`DeviceProfile::parse`].
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, ProfileError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ProfileError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// The device name (`[device] name`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The human-readable description (may be empty).
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The declared pipeline set, in profile order.
    #[must_use]
    pub fn pipelines(&self) -> &[String] {
        &self.pipelines
    }

    /// The hardware configuration this profile describes. Its
    /// `profile_fp` field carries [`Self::fingerprint`], so artifact
    /// caches keyed on the config can never alias across devices.
    #[must_use]
    pub fn config(&self) -> &NpuConfig {
        &self.config
    }

    /// The profile's content fingerprint (FNV-1a of the canonical
    /// serialization): stable across formatting, comments and reparsing.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Canonical serialization. Floats are printed with Rust's
    /// shortest-round-trip formatting, so `parse(to_toml(p))`
    /// reconstructs every value bit-exactly; parsing the output again
    /// is a fixed point.
    #[must_use]
    pub fn to_toml(&self) -> String {
        use fmt::Write as _;
        let c = &self.config;
        let list = |items: Vec<String>| format!("[{}]", items.join(", "));
        let pipelines = list(self.pipelines.iter().map(|p| quote(p)).collect());
        let mhz = list(c.freq_table.iter().map(|f| f.mhz().to_string()).collect());
        let curve = &c.voltage_curve;
        // Each section's structured keys, which precede its table rows.
        let sections = [
            (
                "device",
                vec![
                    ("name", quote(&self.name)),
                    ("description", quote(&self.description)),
                ],
            ),
            (
                "cores",
                vec![("count", c.core_num.to_string()), ("pipelines", pipelines)],
            ),
            ("memory", Vec::new()),
            ("frequency", vec![("points_mhz", mhz)]),
            (
                "voltage",
                vec![
                    ("base_v", format!("{:?}", curve.base_volts())),
                    ("knee_mhz", curve.knee().mhz().to_string()),
                    ("slope_v_per_mhz", format!("{:?}", curve.slope_v_per_mhz())),
                ],
            ),
            ("power", Vec::new()),
            ("thermal", Vec::new()),
            ("noise", Vec::new()),
        ];
        let mut out = String::from("schema = 1\n");
        for (section, structured) in sections {
            // Infallible: `write!` into a String cannot fail.
            let _ = write!(out, "\n[{section}]\n");
            for (key, value) in structured {
                let _ = writeln!(out, "{key} = {value}");
            }
            for row in ROWS.iter().filter(|r| r.section == section) {
                let _ = writeln!(out, "{} = {:?}", row.key, (row.get)(c));
            }
        }
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Embedded profiles
// ---------------------------------------------------------------------------

/// Text of the shipped ascend-910 profile (`profiles/ascend-910.toml`).
pub const ASCEND_910_TOML: &str = include_str!("../../../profiles/ascend-910.toml");
/// Text of the shipped v100-class profile (`profiles/v100-class.toml`).
pub const V100_CLASS_TOML: &str = include_str!("../../../profiles/v100-class.toml");
/// Text of the shipped edge-npu profile (`profiles/edge-npu.toml`).
pub const EDGE_NPU_TOML: &str = include_str!("../../../profiles/edge-npu.toml");

fn builtin(cell: &'static OnceLock<DeviceProfile>, text: &'static str) -> &'static DeviceProfile {
    cell.get_or_init(|| match DeviceProfile::parse(text) {
        Ok(p) => p,
        // The shipped profiles are validated by tests and the
        // profile-lint CI step; a parse failure here is a build defect.
        Err(e) => unreachable!("embedded profile rejected: {e}"),
    })
}

/// The Ascend-910-class profile behind [`NpuConfig::ascend_like`]
/// (bit-identical to the historical hardcoded literal).
#[must_use]
pub fn ascend_910() -> &'static DeviceProfile {
    static CELL: OnceLock<DeviceProfile> = OnceLock::new();
    builtin(&CELL, ASCEND_910_TOML)
}

/// A V100-class profile: coarser 8-point ladder, 15 ms `SetFreq` apply
/// latency (the paper's motivating contrast in Sect. 2).
#[must_use]
pub fn v100_class() -> &'static DeviceProfile {
    static CELL: OnceLock<DeviceProfile> = OnceLock::new();
    builtin(&CELL, V100_CLASS_TOML)
}

/// A small edge-inference NPU: sparse 4-point ladder, low power floor,
/// weak cooling.
#[must_use]
pub fn edge_npu() -> &'static DeviceProfile {
    static CELL: OnceLock<DeviceProfile> = OnceLock::new();
    builtin(&CELL, EDGE_NPU_TOML)
}

/// All shipped profiles, in a stable order.
#[must_use]
pub fn builtins() -> [&'static DeviceProfile; 3] {
    [ascend_910(), v100_class(), edge_npu()]
}

/// Looks a shipped profile up by its `[device] name`.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static DeviceProfile> {
    builtins().into_iter().find(|p| p.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NpuConfigBuilder;

    /// The historical hardcoded Ascend literal, preserved verbatim from
    /// the pre-profile `NpuConfigBuilder::new()`. The embedded
    /// `ascend-910.toml` must reproduce every field bit-exactly.
    fn legacy_ascend_literal() -> NpuConfig {
        NpuConfig {
            core_num: 24,
            ld_bytes_per_cycle_per_core: 128.0,
            st_bytes_per_cycle_per_core: 64.0,
            l2_bw_bytes_per_us: 6.0e6,
            hbm_bw_bytes_per_us: 1.4e6,
            mem_overhead_us: 0.2,
            freq_table: match FrequencyTable::new(
                (10..=18).map(|k| FreqMhz::new(k * 100)).collect(),
            ) {
                Ok(t) => t,
                Err(e) => unreachable!("literal ladder rejected: {e}"),
            },
            voltage_curve: VoltageCurve::new(0.78, FreqMhz::new(1300), 0.0004),
            beta_w_per_ghz_v2: 16.0,
            theta_w_per_v: 6.0,
            gamma_aicore_w_per_k_v: 0.25,
            gamma_soc_w_per_k_v: 0.9,
            uncore_idle_w: 130.0,
            uncore_theta_w_per_v: 46.0,
            uncore_dynamic_fraction: 0.45,
            uncore_min_scale: 0.6,
            hbm_pj_per_byte: 40.0,
            ambient_c: 40.0,
            k_c_per_w: 0.11,
            thermal_tau_us: 2.0e6,
            setfreq_latency_us: 1_000.0,
            exec_noise_sd: 0.01,
            power_noise_sd: 0.012,
            temp_noise_sd_c: 0.25,
            profile_fp: 0,
        }
    }

    fn assert_bits_eq(a: &NpuConfig, b: &NpuConfig) {
        let fields = |c: &NpuConfig| {
            [
                c.ld_bytes_per_cycle_per_core,
                c.st_bytes_per_cycle_per_core,
                c.l2_bw_bytes_per_us,
                c.hbm_bw_bytes_per_us,
                c.mem_overhead_us,
                c.beta_w_per_ghz_v2,
                c.theta_w_per_v,
                c.gamma_aicore_w_per_k_v,
                c.gamma_soc_w_per_k_v,
                c.uncore_idle_w,
                c.uncore_theta_w_per_v,
                c.uncore_dynamic_fraction,
                c.uncore_min_scale,
                c.hbm_pj_per_byte,
                c.ambient_c,
                c.k_c_per_w,
                c.thermal_tau_us,
                c.setfreq_latency_us,
                c.exec_noise_sd,
                c.power_noise_sd,
                c.temp_noise_sd_c,
                c.voltage_curve.base_volts(),
                c.voltage_curve.slope_v_per_mhz(),
            ]
            .map(f64::to_bits)
        };
        assert_eq!(a.core_num, b.core_num);
        assert_eq!(a.freq_table, b.freq_table);
        assert_eq!(a.voltage_curve.knee(), b.voltage_curve.knee());
        assert_eq!(fields(a), fields(b));
    }

    #[test]
    fn embedded_ascend_matches_legacy_literal_bit_exactly() {
        assert_bits_eq(ascend_910().config(), &legacy_ascend_literal());
    }

    #[test]
    fn ascend_like_and_builder_route_through_profile() {
        let via_wrapper = NpuConfig::ascend_like();
        assert_bits_eq(&via_wrapper, &legacy_ascend_literal());
        assert_eq!(via_wrapper.profile_fp, ascend_910().fingerprint());
        // Builder output is hand-built: physics identical, fp zeroed.
        let built = match NpuConfigBuilder::new().build() {
            Ok(c) => c,
            Err(e) => unreachable!("default build rejected: {e}"),
        };
        assert_bits_eq(&built, &legacy_ascend_literal());
        assert_eq!(built.profile_fp, 0);
    }

    #[test]
    fn all_builtins_parse_and_are_distinct() {
        let names: Vec<&str> = builtins().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["ascend-910", "v100-class", "edge-npu"]);
        let fps: Vec<u64> = builtins().iter().map(|p| p.fingerprint()).collect();
        assert!(fps.iter().all(|&f| f != 0));
        assert!(fps[0] != fps[1] && fps[1] != fps[2] && fps[0] != fps[2]);
        for p in builtins() {
            assert_eq!(p.config().profile_fp, p.fingerprint());
            assert_eq!(by_name(p.name()), Some(p));
        }
        assert_eq!(by_name("no-such-device"), None);
    }

    #[test]
    fn builtin_shapes() {
        assert_eq!(v100_class().config().setfreq_latency_us, 15_000.0);
        assert_eq!(v100_class().config().freq_table.len(), 8);
        assert_eq!(edge_npu().config().freq_table.len(), 4);
        assert_eq!(edge_npu().config().core_num, 4);
        assert!(edge_npu()
            .pipelines()
            .iter()
            .all(|p| KNOWN_PIPELINES.contains(&p.as_str())));
    }

    #[test]
    fn round_trip_is_bit_exact_and_fixed_point() {
        for p in builtins() {
            let text = p.to_toml();
            let again = match DeviceProfile::parse(&text) {
                Ok(q) => q,
                Err(e) => unreachable!("canonical text rejected: {e}"),
            };
            assert_eq!(&again, p, "round trip differs for {}", p.name());
            assert_eq!(again.to_toml(), text, "serialization not a fixed point");
            assert_eq!(again.fingerprint(), p.fingerprint());
        }
    }

    #[test]
    fn fingerprint_ignores_comments_and_spacing() {
        let spaced = ASCEND_910_TOML.replace(" = ", "   =   ");
        let p = match DeviceProfile::parse(&spaced) {
            Ok(p) => p,
            Err(e) => unreachable!("respaced profile rejected: {e}"),
        };
        assert_eq!(p.fingerprint(), ascend_910().fingerprint());
    }

    fn parse_err(text: &str) -> ProfileError {
        match DeviceProfile::parse(text) {
            Ok(_) => unreachable!("expected a parse error"),
            Err(e) => e,
        }
    }

    fn mutate_ascend(from: &str, to: &str) -> String {
        let text = ASCEND_910_TOML.replace(from, to);
        assert_ne!(text, ASCEND_910_TOML, "mutation `{from}` did not apply");
        text
    }

    #[test]
    fn rejects_non_monotone_ladder() {
        let text = mutate_ascend("points_mhz = [1000, 1100", "points_mhz = [1100, 1000");
        assert!(matches!(parse_err(&text), ProfileError::Ladder { .. }));
    }

    #[test]
    fn rejects_non_positive_coefficients() {
        let text = mutate_ascend("beta_w_per_ghz_v2 = 16.0", "beta_w_per_ghz_v2 = 0.0");
        match parse_err(&text) {
            ProfileError::NonPositive { line, key } => {
                assert_eq!(key, "beta_w_per_ghz_v2");
                assert!(line > 0);
            }
            other => unreachable!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejects_a_thermal_coupling_without_steady_state() {
        let text = mutate_ascend("k_c_per_w = 0.11", "k_c_per_w = 1.5");
        let line = text
            .lines()
            .position(|l| l.starts_with("k_c_per_w"))
            .unwrap()
            + 1;
        assert_eq!(parse_err(&text), ProfileError::ThermalRunaway { line });
        assert!(parse_err(&text)
            .to_string()
            .starts_with(&format!("line {line}: ")));
        let text = mutate_ascend("k_c_per_w = 0.11", "k_c_per_w = 1.1");
        assert!(DeviceProfile::parse(&text).is_ok());
    }

    #[test]
    fn rejects_uncovered_voltage_knee() {
        let text = mutate_ascend("knee_mhz = 1300", "knee_mhz = 2000");
        match parse_err(&text) {
            ProfileError::VoltageCoverage { freq_mhz, .. } => assert_eq!(freq_mhz, 1800),
            other => unreachable!("wrong error: {other}"),
        }
        let text = mutate_ascend("knee_mhz = 1300", "knee_mhz = 900");
        match parse_err(&text) {
            ProfileError::VoltageCoverage { freq_mhz, .. } => assert_eq!(freq_mhz, 1000),
            other => unreachable!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejects_unknown_and_duplicate_keys_with_lines() {
        let text = mutate_ascend("k_c_per_w = 0.11", "k_c_per_w = 0.11\nwat = 1.0");
        match parse_err(&text) {
            ProfileError::UnknownKey { line, section, key } => {
                assert_eq!(section, "thermal");
                assert_eq!(key, "wat");
                assert!(line > 0);
            }
            other => unreachable!("wrong error: {other}"),
        }
        let text = mutate_ascend("k_c_per_w = 0.11", "k_c_per_w = 0.11\nk_c_per_w = 0.2");
        assert!(matches!(
            parse_err(&text),
            ProfileError::DuplicateKey { .. }
        ));
    }

    #[test]
    fn rejects_missing_section_and_key() {
        let text = ASCEND_910_TOML.replace("[noise]", "[power]");
        match parse_err(&text) {
            // Replacing the header makes [power] appear twice before the
            // missing-[noise] check can fire.
            ProfileError::Syntax { message, .. } => assert!(message.contains("twice")),
            other => unreachable!("wrong error: {other}"),
        }
        let mut lines: Vec<&str> = ASCEND_910_TOML.lines().collect();
        lines.retain(|l| !l.starts_with("temp_sd_c"));
        match parse_err(&lines.join("\n")) {
            ProfileError::MissingKey { section, key } => {
                assert_eq!(section, "noise");
                assert_eq!(key, "temp_sd_c");
            }
            other => unreachable!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejects_bad_schema_and_syntax() {
        let text = mutate_ascend("schema = 1", "schema = 7");
        assert!(matches!(
            parse_err(&text),
            ProfileError::Schema { found: 7, .. }
        ));
        let text = mutate_ascend("schema = 1", "schema = 1\nthis is not toml");
        assert!(matches!(parse_err(&text), ProfileError::Syntax { .. }));
    }

    #[test]
    fn rejects_non_finite_spellings() {
        // The numeric token grammar cannot spell inf/nan: bare words are
        // syntax errors, so non-finite values are unrepresentable.
        for bad in ["inf", "nan", "-inf", "NaN"] {
            let text = mutate_ascend("theta_w_per_v = 6.0", &format!("theta_w_per_v = {bad}"));
            assert!(
                matches!(parse_err(&text), ProfileError::Syntax { .. }),
                "`{bad}` should be a syntax error"
            );
        }
    }

    #[test]
    fn rejects_pipeline_problems() {
        let text = mutate_ascend("\"cube\"", "\"warp\"");
        assert!(matches!(
            parse_err(&text),
            ProfileError::UnknownPipeline { .. }
        ));
        let text = mutate_ascend("\"cube\"", "\"cube\", \"cube\"");
        assert!(matches!(
            parse_err(&text),
            ProfileError::DuplicatePipeline { .. }
        ));
        let text = mutate_ascend(", \"mte3\"]", "]");
        assert!(matches!(
            parse_err(&text),
            ProfileError::MissingPipeline { name: "mte3" }
        ));
    }

    #[test]
    fn comments_and_underscores_are_tolerated() {
        let text = mutate_ascend(
            "setfreq_latency_us = 1000.0",
            "setfreq_latency_us = 1_000.0 # one millisecond",
        );
        let p = match DeviceProfile::parse(&text) {
            Ok(p) => p,
            Err(e) => unreachable!("underscored number rejected: {e}"),
        };
        assert_eq!(p.config().setfreq_latency_us, 1000.0);
        assert_eq!(p.fingerprint(), ascend_910().fingerprint());
    }

    #[test]
    fn error_display_carries_line_numbers() {
        let text = mutate_ascend("beta_w_per_ghz_v2 = 16.0", "beta_w_per_ghz_v2 = -1.0");
        let msg = parse_err(&text).to_string();
        assert!(msg.starts_with("line "), "no span in: {msg}");
        assert!(msg.contains("beta_w_per_ghz_v2"), "no key in: {msg}");
    }

    #[test]
    fn from_file_reads_the_checked_in_profiles() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../profiles");
        for (file, expect) in [
            ("ascend-910.toml", ascend_910()),
            ("v100-class.toml", v100_class()),
            ("edge-npu.toml", edge_npu()),
        ] {
            let p = match DeviceProfile::from_file(format!("{dir}/{file}")) {
                Ok(p) => p,
                Err(e) => unreachable!("{file} rejected: {e}"),
            };
            assert_eq!(&p, expect);
        }
        assert!(matches!(
            DeviceProfile::from_file(format!("{dir}/no-such.toml")),
            Err(ProfileError::Io { .. })
        ));
    }
}
