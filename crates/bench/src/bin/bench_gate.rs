//! Gates the `BENCH_<bench>.json` files the in-workspace benches write.
//! Run `bench_gate <bench>` from the workspace root after a
//! `CRITERION_SMOKE=1` run of the bench (`scripts/check.sh` does both).
//!
//! It reads the smoke report that run just wrote and the checked-in full
//! run. The checked-in file must carry exactly the smoke report's keys,
//! in order, so the required keys come from the code. Then each of the
//! bench's [`GATES`] rows checks its fields: [`Scope::Both`] rows on both
//! files, [`Scope::FullRun`] rows on the full run alone, since a smoke run
//! is too small for stable timing or volume. A missing, mistyped or
//! unparsable field fails its gate. Prints every failure; exits 1 if any.

use npu_bench::report::{file_name, Report, Value};
use std::fmt;
use std::process::ExitCode;
use Check::{Above, AtLeast, AtMostField, Equals, Finite, IsTrue};
use Scope::{Both, FullRun};

/// What a gated field must hold. A numeric check fails on a value that
/// is not a number, and `null` (a non-finite float) is not finite.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Check {
    IsTrue,
    Equals(f64),
    Above(f64),
    AtLeast(f64),
    Finite,
    /// At most the named field's number.
    AtMostField(&'static str),
}

/// Which of a bench's two files a row checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// The smoke report and the checked-in full run.
    Both,
    /// The checked-in full run only.
    FullRun,
}

/// One row: the bench, the fields it checks (each on its own), the
/// check, the files it applies to, and what a failure means.
type Gate = (
    &'static str,
    &'static [&'static str],
    Check,
    Scope,
    &'static str,
);

/// Every value check on the bench files. The `ga_eval` rows do not depend
/// on timing, so they hold on every machine. The fleet's two passes run
/// one identical saturated swap schedule (the bench asserts equal swap
/// counts), so the warm pass must beat the cold one outright.
#[rustfmt::skip]
const GATES: &[Gate] = &[
    ("ga_eval", &["pool_bit_identical"], IsTrue, Both, "pool scores diverged from full evaluation"),
    ("ga_eval", &["pool_score_allocs"], Equals(0.0), Both, "warm pool-scoring pass allocated on the heap"),
    ("ga_eval", &["optimality_gap"], Equals(0.0), Both, "GA missed the certified optimum (gap != 0.0)"),
    ("ga_eval", &["oracle_certified"], IsTrue, Both, "exact oracle failed to certify the small schedule"),
    ("pipeline", &["warm_second_pass_misses"], Equals(0.0), Both, "warm-cache pass re-ran profiling (miss counter != 0)"),
    ("pipeline", &["bit_identical"], IsTrue, Both, "parallel/warm reports diverged from cold-serial"),
    ("pipeline", &["speedup_end_to_end"], AtLeast(2.0), FullRun, "end-to-end speedup below 2x"),
    ("fleet", &["transfer_hit_rate"], Above(0.0), Both, "no transfer hits"),
    ("fleet", &["bit_identical"], IsTrue, Both, "fleet digest diverged across worker counts"),
    ("fleet", &["reopt_speedup"], AtLeast(2.0), FullRun, "warm re-optimization speedup below 2x"),
    ("fleet", &["warm_secs"], AtMostField("cold_secs"), FullRun, "warm fleet pass slower than cold"),
    ("chaos", &["completed"], IsTrue, Both, "faulted fleet did not complete its epochs"),
    ("chaos", &["quarantines"], Above(0.0), Both, "faults drew no quarantines"),
    ("chaos", &["healthy_digest_stable"], IsTrue, Both, "a healthy device diverged from the fault-free run"),
    ("chaos", &["bit_identical"], IsTrue, Both, "chaos digest diverged across worker counts"),
    ("service", &["coalesce_rate_dup_heavy"], Above(0.0), Both, "duplicate-heavy stream never coalesced"),
    ("service", &["bit_identical"], IsTrue, Both, "service digest diverged across worker counts"),
    ("service", &["completed_dup_heavy"], AtLeast(10_000.0), FullRun, "fewer than 10000 duplicate-heavy completions"),
    ("service", &["p50_us_light", "p99_us_light", "p50_us_steady", "p99_us_steady", "p50_us_dup_heavy", "p99_us_dup_heavy"],
        Finite, FullRun, "latency percentile not finite"),
    ("service", &["coalesce_speedup"], AtLeast(5.0), FullRun, "coalescing speedup below 5x"),
];

/// Why a field fails its gate.
#[derive(Debug, Clone, PartialEq)]
enum GateError {
    /// The report lacks the field.
    Missing(&'static str),
    /// The field's value fails the check.
    Fails(&'static str, Value, Check),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Missing(field) => write!(f, "{field} is missing"),
            GateError::Fails(field, value, check) => write!(f, "{field} = {value} fails {check:?}"),
        }
    }
}

impl Check {
    fn holds(self, report: &Report, field: &'static str) -> Result<(), GateError> {
        let get = |field| report.get(field).ok_or(GateError::Missing(field));
        let number = |value: &Value| value.number().unwrap_or(f64::NAN);
        let value = get(field)?;
        let ok = match self {
            IsTrue => *value == Value::Bool(true),
            Equals(x) => number(value) == x,
            Above(x) => number(value) > x,
            AtLeast(x) => number(value) >= x,
            Finite => number(value).is_finite(),
            AtMostField(other) => number(value) <= number(get(other)?),
        };
        if ok {
            Ok(())
        } else {
            Err(GateError::Fails(field, value.clone(), self))
        }
    }
}

/// Where the checked-in report's keys first part from the smoke
/// report's, if they do.
fn key_mismatch(smoke: &Report, full: &Report) -> Option<String> {
    let (want, got): (Vec<&str>, Vec<&str>) = (smoke.keys().collect(), full.keys().collect());
    let at = want.iter().zip(&got).take_while(|(w, g)| w == g).count();
    let name = |keys: &[&str]| {
        keys.get(at)
            .map_or("no key".to_owned(), |k| format!("{k:?}"))
    };
    (want != got).then(|| format!("key {} is {}, not {}", at + 1, name(&got), name(&want)))
}

/// Every failure of `bench`'s smoke and checked-in reports.
fn gate(bench: &str, smoke: &Report, full: &Report) -> Vec<String> {
    let (smoke_file, full_file) = (file_name(bench, true), file_name(bench, false));
    let mismatch = key_mismatch(smoke, full);
    let mut failures: Vec<String> = mismatch
        .map(|m| format!("{full_file}: {m} as in {smoke_file}"))
        .into_iter()
        .collect();
    for (file, report, is_smoke) in [(&smoke_file, smoke, true), (&full_file, full, false)] {
        let rows = GATES
            .iter()
            .filter(|&&(b, _, _, scope, _)| b == bench && (scope == Both || !is_smoke));
        for &(_, fields, check, _, message) in rows {
            for field in fields {
                if let Err(e) = check.holds(report, field) {
                    failures.push(format!("{file}: {e}: {message}"));
                }
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match args.as_slice() {
        [bench] if GATES.iter().any(|g| g.0 == bench) => bench,
        _ => {
            eprintln!("usage: bench_gate <ga_eval|pipeline|fleet|chaos|service>");
            return ExitCode::from(2);
        }
    };
    let load = |smoke| {
        let file = file_name(bench, smoke);
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
        Report::parse(&text).map_err(|e| format!("{file}: {e}"))
    };
    let failures = match (load(true), load(false)) {
        (Ok(smoke), Ok(full)) => gate(bench, &smoke, &full),
        (smoke, full) => smoke.err().into_iter().chain(full.err()).collect(),
    };
    for failure in &failures {
        eprintln!("FAIL {failure}");
    }
    println!("bench_gate {bench}: {} failing", failures.len());
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLEET: &str = r#"{
  "bench": "fleet",
  "warm_secs": 0.183,
  "cold_secs": 0.238,
  "transfer_hit_rate": 0.667,
  "reopt_speedup": 2.00,
  "bit_identical": true
}
"#;

    fn report(text: &str) -> Report {
        Report::parse(text).expect("test report parses")
    }

    #[test]
    fn each_check_passes_on_its_boundary_and_fails_just_past_it() {
        let cases = [
            (IsTrue, Value::Bool(true), Value::Bool(false)),
            (Equals(0.0), Value::Int(0), Value::Exact(0.0_f64.next_up())),
            (
                Above(0.0),
                Value::Exact(0.0_f64.next_up()),
                Value::Fixed(0.0, 3),
            ),
            (
                AtLeast(2.0),
                Value::Fixed(2.0, 2),
                Value::Exact(2.0_f64.next_down()),
            ),
            (AtLeast(10_000.0), Value::Int(10_000), Value::Int(9_999)),
            (Finite, Value::Exact(f64::MAX), Value::Exact(f64::INFINITY)),
            (
                AtMostField("bound"),
                Value::Exact(2.0),
                Value::Exact(2.0_f64.next_up()),
            ),
        ];
        let with = |v: Value| {
            let mut r = Report::default();
            r.field("x", v).fixed("bound", 2.0, 2);
            r
        };
        for (check, pass, fail) in cases {
            assert_eq!(check.holds(&with(pass), "x"), Ok(()), "{check:?}");
            let err = check.holds(&with(fail.clone()), "x");
            assert_eq!(err, Err(GateError::Fails("x", fail, check)), "{check:?}");
        }
        let null = report("{\n  \"p99_us_light\": null\n}");
        assert!(
            Finite.holds(&null, "p99_us_light").is_err(),
            "null is not finite"
        );
    }

    #[test]
    fn a_missing_or_mistyped_field_fails() {
        let full = report(&FLEET.replace("  \"warm_secs\": 0.183,\n", ""));
        let check = AtMostField("cold_secs");
        assert_eq!(
            check.holds(&full, "warm_secs"),
            Err(GateError::Missing("warm_secs"))
        );
        let failures = gate("fleet", &report(FLEET), &full);
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("BENCH_fleet.json: warm_secs is missing")),
            "{failures:?}"
        );
        let no_cold = report(&FLEET.replace("  \"cold_secs\": 0.238,\n", ""));
        assert_eq!(
            check.holds(&no_cold, "warm_secs"),
            Err(GateError::Missing("cold_secs"))
        );
        let mistyped = report(&FLEET.replace("true", "\"true\""));
        let err = IsTrue.holds(&mistyped, "bit_identical");
        assert_eq!(
            err.expect_err("a string is not true").to_string(),
            "bit_identical = \"true\" fails IsTrue"
        );
    }

    #[test]
    fn gates_read_fields_in_any_order_and_position() {
        let fields: Vec<&str> = FLEET.lines().filter(|l| l.contains(':')).collect();
        for rotation in 0..fields.len() {
            let mut rotated = fields.clone();
            rotated.rotate_left(rotation);
            let body: Vec<&str> = rotated.iter().map(|l| l.trim_end_matches(',')).collect();
            let r = report(&format!("{{\n{}\n}}\n", body.join(",\n")));
            assert_eq!(gate("fleet", &r, &r), Vec::<String>::new());
        }
    }

    #[test]
    fn a_checked_in_file_must_carry_the_smoke_reports_keys_in_order() {
        let smoke = report(FLEET);
        assert_eq!(gate("fleet", &smoke, &smoke), Vec::<String>::new());
        let extra = FLEET.replace("  \"bit_identical\"", "  \"note\": 1,\n  \"bit_identical\"");
        let missing = FLEET.replace("  \"transfer_hit_rate\": 0.667,\n", "");
        let swapped = FLEET.replace(
            "  \"warm_secs\": 0.183,\n  \"cold_secs\": 0.238,\n",
            "  \"cold_secs\": 0.238,\n  \"warm_secs\": 0.183,\n",
        );
        for full in [extra, missing, swapped] {
            let full = report(&full);
            assert!(key_mismatch(&smoke, &full).is_some());
            let failures = gate("fleet", &smoke, &full);
            assert!(
                failures[0].starts_with("BENCH_fleet.json: "),
                "{failures:?}"
            );
        }
    }
}
