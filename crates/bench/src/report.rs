//! The flat JSON report behind every `BENCH_<bench>.json`: one object of
//! `"key": value` fields, one per line, in the order the bench added
//! them. Benches build one with [`Report::new`] and [`Report::write`] it;
//! `bench_gate` reads the files back with [`Report::parse`]. A non-finite
//! float is written as `null`, so every file is valid JSON.

use std::fmt;

/// True when `CRITERION_SMOKE=1`: benches shrink to a quick run and
/// write `BENCH_<bench>.smoke.json`, leaving the checked-in full run
/// untouched.
#[must_use]
pub fn smoke() -> bool {
    std::env::var("CRITERION_SMOKE").is_ok_and(|v| v == "1")
}

/// `BENCH_<bench>.json`, or `BENCH_<bench>.smoke.json` for a smoke run.
#[must_use]
pub fn file_name(bench: &str, smoke: bool) -> String {
    format!("BENCH_{bench}{}.json", if smoke { ".smoke" } else { "" })
}

/// One field's value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A float printed with this many decimals.
    Fixed(f64, usize),
    /// A float printed in its shortest round-trip form, so no rounding
    /// can hide a difference from an exact expectation.
    Exact(f64),
    /// A flag.
    Bool(bool),
    /// A string, such as a hex digest, written without escapes.
    Str(String),
}

impl Value {
    /// The value as a number: counts and floats (`null` reads as NaN).
    #[must_use]
    pub fn number(&self) -> Option<f64> {
        match *self {
            Value::Int(v) => Some(v as f64),
            Value::Fixed(v, _) | Value::Exact(v) => Some(v),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }

    /// Reads one value as [`Value`]'s `Display` writes it.
    fn parse(text: &str) -> Option<Self> {
        match text {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            "null" => Some(Value::Exact(f64::NAN)),
            _ if text.starts_with('"') => unquote(text).map(|s| Value::Str(s.to_owned())),
            _ => number(text),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Fixed(v, decimals) if v.is_finite() => write!(f, "{v:.decimals$}"),
            Value::Exact(v) if v.is_finite() => write!(f, "{v:?}"),
            Value::Fixed(..) | Value::Exact(_) => f.write_str("null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

/// Whether `s` can stand between quotes in JSON without an escape.
fn plain(s: &str) -> bool {
    !s.contains(|c: char| c == '"' || c == '\\' || c.is_control())
}

fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"')?.strip_suffix('"').filter(|s| plain(s))
}

/// Reads a finite number that starts like JSON's (a digit or `-`):
/// integers as counts when they fit, other numbers as floats that print
/// back as written.
fn number(token: &str) -> Option<Value> {
    let v = token.parse::<f64>().ok().filter(|v| v.is_finite())?;
    if !token.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        None
    } else if let Ok(count) = token.parse() {
        Some(Value::Int(count))
    } else if token.contains(['e', 'E']) {
        Some(Value::Exact(v))
    } else {
        Some(Value::Fixed(
            v,
            token.split_once('.').map_or(0, |(_, f)| f.len()),
        ))
    }
}

/// An ordered list of `(key, value)` fields; its `Display` is the JSON
/// text [`Report::write`] puts on disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    fields: Vec<(String, Value)>,
}

impl Report {
    /// A report whose first field is `"bench": <bench>`.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        let mut report = Self::default();
        report.field("bench", bench.to_owned());
        report
    }

    /// Appends a field, chainable.
    ///
    /// # Panics
    ///
    /// Panics if the key or a string value holds `"`, `\` or a control
    /// character: the report writes strings unescaped.
    pub fn field(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        let (key, value) = (key.into(), value.into());
        let plain_value = !matches!(&value, Value::Str(s) if !plain(s));
        assert!(plain(&key) && plain_value, "{key}: string needs escapes");
        self.fields.push((key, value));
        self
    }

    /// Appends a float printed with `decimals` decimals, chainable.
    pub fn fixed(&mut self, key: impl Into<String>, value: f64, decimals: usize) -> &mut Self {
        self.field(key, Value::Fixed(value, decimals))
    }

    /// The value of `key`, if the report has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// Writes the report to `BENCH_<bench>[.smoke].json` at the
    /// workspace root and prints it.
    ///
    /// # Panics
    ///
    /// Panics if the report was not started by [`Report::new`].
    pub fn write(&self, smoke: bool) {
        let Some(Value::Str(bench)) = self.get("bench") else {
            panic!("a written report starts with Report::new(bench)");
        };
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let path = format!("{root}/{}", file_name(bench, smoke));
        let json = self.to_string();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("warning: could not write {path}: {e}");
        }
        print!("{json}");
    }

    /// Reads a report back from the text [`Report::write`] writes: `{`
    /// and `}` on lines of their own, one `"key": value` field per line
    /// between them, each but the last followed by a comma.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for the first line that breaks that form
    /// or repeats a key.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let error = |line, key: Option<&str>, expected| ParseError {
            line,
            key: key.map(str::to_owned),
            expected,
        };
        let ["{", body @ .., "}"] = lines.as_slice() else {
            return Err(error(
                1,
                None,
                "'{' first and '}' last, each on its own line",
            ));
        };
        let mut report = Report::default();
        for (i, &line) in body.iter().enumerate() {
            let n = i + 2;
            let field = if i + 1 < body.len() {
                line.strip_suffix(',')
            } else {
                Some(line)
            };
            let (key, value) = field
                .and_then(|f| f.split_once(": "))
                .and_then(|(k, v)| Some((unquote(k)?, v)))
                .ok_or_else(|| error(n, None, "\"key\": value, and a ',' unless last"))?;
            if report.get(key).is_some() {
                return Err(error(n, Some(key), "a key not seen before"));
            }
            let value = Value::parse(value)
                .ok_or_else(|| error(n, Some(key), "a number, true, false, null or a string"))?;
            report.fields.push((key.to_owned(), value));
        }
        Ok(report)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let comma = if i + 1 < self.fields.len() { "," } else { "" };
            writeln!(f, "  \"{key}\": {value}{comma}")?;
        }
        writeln!(f, "}}")
    }
}

/// The first line [`Report::parse`] could not read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The 1-based line.
    pub line: usize,
    /// The key of the field on it, if the line got that far.
    pub key: Option<String>,
    /// What the line should have held.
    pub expected: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)?;
        if let Some(key) = &self.key {
            write!(f, ", key {key:?}")?;
        }
        write!(f, ": expected {}", self.expected)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Report {
        let mut r = Report::new("demo");
        r.field("smoke", true)
            .field("devices", 64usize)
            .field("allocs", 0u64)
            .fixed("warm_secs", 0.183, 3)
            .fixed("tiny", 0.0024, 4)
            .fixed("speedup", 2.0, 2)
            .field("gap", Value::Exact(0.0))
            .field("small_gap", Value::Exact(-3.5e-9))
            .fixed("p99_us", f64::NAN, 1)
            .fixed("inf", f64::INFINITY, 1)
            .field("digest", format!("{:016x}", 0x9d08_ebb4_ea36_f427_u64))
            .field("bit_identical", false);
        r
    }

    #[test]
    fn write_then_parse_round_trips() {
        let r = every_kind();
        let text = r.to_string();
        assert!(text.starts_with("{\n  \"bench\": \"demo\",\n  \"smoke\": true,\n"));
        assert!(text.contains("\n  \"warm_secs\": 0.183,\n"));
        assert!(text.contains("\n  \"tiny\": 0.0024,\n"));
        assert!(text.contains("\n  \"speedup\": 2.00,\n"));
        assert!(text.contains("\n  \"gap\": 0.0,\n"));
        assert!(text.contains("\n  \"small_gap\": -3.5e-9,\n"));
        assert!(text.contains("\n  \"digest\": \"9d08ebb4ea36f427\",\n"));
        assert!(text.ends_with("\n  \"bit_identical\": false\n}\n"));
        let back = Report::parse(&text).expect("a written report parses");
        assert_eq!(back.to_string(), text, "parse then write is a fixed point");
        assert!(back.keys().eq(r.keys()));
        for (key, value) in &r.fields {
            let got = back.get(key).expect("every key survives");
            match (value.number(), got.number()) {
                (Some(a), Some(b)) if a.is_finite() => assert_eq!(a.to_bits(), b.to_bits()),
                (Some(_), Some(b)) => assert!(b.is_nan(), "{key}: non-finite reads back as null"),
                _ => assert_eq!(value, got),
            }
        }
        assert_eq!(back.get("devices"), Some(&Value::Int(64)));
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let text = every_kind().to_string();
        assert!(text.contains("\"p99_us\": null,"));
        assert!(text.contains("\"inf\": null,"));
        assert!(!text.contains("NaN") && !text.contains(": inf"));
    }

    #[test]
    #[should_panic(expected = "string needs escapes")]
    fn strings_that_need_escapes_are_refused() {
        Report::new("demo").field("name", "a \"b\"".to_owned());
    }

    #[test]
    fn parse_errors_name_the_line_and_key() {
        let err = |text: &str| Report::parse(text).expect_err("malformed");
        let e = err("{\n  \"a\": 1,\n  \"p99\": NaN\n}\n");
        assert_eq!((e.line, e.key.as_deref()), (3, Some("p99")));
        assert_eq!(
            e.to_string(),
            "line 3, key \"p99\": expected a number, true, false, null or a string"
        );
        let e = err("{\n  \"a\": 1x\n}");
        assert_eq!((e.line, e.key.as_deref()), (2, Some("a")));
        for bad in [
            "-", "1e", ".5", "1.2.3", "--1", "inf", "-inf", "NaN", "+1", "1e999",
        ] {
            assert!(number(bad).is_none(), "{bad}");
        }
        let e = err("{\n  \"a\": 1,\n  \"a\": 2\n}");
        assert_eq!((e.line, e.expected), (3, "a key not seen before"));
        let missing_comma = "\"key\": value, and a ',' unless last";
        let e = err("{\n  \"a\": 1\n  \"b\": 2\n}");
        assert_eq!((e.line, e.expected), (2, missing_comma));
        let e = err("{\n  \"a\": true,\n}");
        assert_eq!(
            (e.line, e.key.as_deref()),
            (2, Some("a")),
            "no comma after the last"
        );
        assert_eq!(err("{\n  a: 1\n}").expected, missing_comma);
        let outline = "'{' first and '}' last, each on its own line";
        assert_eq!(err("").expected, outline);
        assert_eq!(err("{\n  \"a\": 1\n").expected, outline);
    }

    #[test]
    fn file_names_follow_the_bench() {
        assert_eq!(file_name("fleet", false), "BENCH_fleet.json");
        assert_eq!(file_name("fleet", true), "BENCH_fleet.smoke.json");
    }
}
