//! Hostile-token robustness of the four hand-written text parsers: the
//! TOML device profile, the profile and search cache artifacts, and the
//! strategy file.
//!
//! Every whitespace-separated token of a real input is replaced, one at
//! a time, by each hostile token, and the result is parsed. Nothing may
//! panic, every rejection must be the parser's typed error, and an
//! accepted input must serialize to a fixed point after one round.

use dvfs_repro::core::cache::{ProfileArtifact, SearchArtifact};
use dvfs_repro::dvfs::{read_strategy, write_strategy};
use dvfs_repro::prelude::*;
use dvfs_repro::sim::profile::ASCEND_910_TOML;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Each replaces one token in turn: zero, a negative, nothing, the
/// spellings of non-finite floats, a float that overflows `f64`, and an
/// integer one past `u64::MAX`.
const HOSTILE: [&str; 7] = ["0", "-1", "", "NaN", "inf", "1e400", "18446744073709551616"];

/// One parse-then-serialize round: the canonical text of what the
/// parser accepted, or its typed error rendered.
type Round = fn(&str) -> Result<String, String>;

fn round<T, E: Display>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, E>,
    serialize: impl Fn(&T) -> String,
) -> Result<String, String> {
    parse(text)
        .map(|value| serialize(&value))
        .map_err(|e| e.to_string())
}

fn profile_round(text: &str) -> Result<String, String> {
    round(text, DeviceProfile::parse, DeviceProfile::to_toml)
}

fn profile_artifact_round(text: &str) -> Result<String, String> {
    round(text, ProfileArtifact::from_text, ProfileArtifact::to_text)
}

fn search_artifact_round(text: &str) -> Result<String, String> {
    round(text, SearchArtifact::from_text, SearchArtifact::to_text)
}

fn strategy_round(text: &str) -> Result<String, String> {
    round(
        text,
        |t| read_strategy(t.as_bytes()),
        |s| {
            let mut out = Vec::new();
            write_strategy(s, &mut out).expect("writing to a Vec cannot fail");
            String::from_utf8(out).expect("the strategy format is ASCII")
        },
    )
}

/// The byte spans of the whitespace-separated tokens of `text`.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        match (c.is_whitespace(), start) {
            (true, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    spans
}

/// Cases run, accepted and rejected for one input.
fn mutate(name: &str, text: &str, round: Round) -> (usize, usize, usize) {
    assert!(
        round(text).is_ok(),
        "{name}: the unmutated input must parse"
    );
    let (mut cases, mut accepted, mut rejected) = (0, 0, 0);
    for (start, end) in token_spans(text) {
        for hostile in HOSTILE {
            let input = format!("{}{hostile}{}", &text[..start], &text[end..]);
            let token = &text[start..end];
            let at = format!("{name}: token `{token}` at byte {start} -> `{hostile}`");
            let Ok(outcome) = catch_unwind(AssertUnwindSafe(|| round(&input))) else {
                panic!("{at}: the parser panicked");
            };
            cases += 1;
            match outcome {
                Ok(once) => {
                    accepted += 1;
                    // Canonical input is its own serialization: nothing
                    // left to check.
                    if once != input {
                        let twice = round(&once).unwrap_or_else(|e| {
                            panic!("{at}: its serialization is rejected: {e}\n{once}")
                        });
                        assert_eq!(twice, once, "{at}: serialization is not a fixed point");
                    }
                }
                Err(message) => {
                    rejected += 1;
                    assert!(!message.is_empty(), "{at}: an error without a message");
                }
            }
        }
    }
    (cases, accepted, rejected)
}

#[test]
fn hostile_tokens_never_panic_and_accepted_inputs_reach_a_fixed_point() {
    // A 30 µs SetFreq latency lets the 100 µs FAI split `tiny` into
    // several stages, so stage ranges meet their contiguity check.
    let cfg = NpuConfig::builder()
        .setfreq_latency_us(30.0)
        .build()
        .unwrap();
    let workload = models::tiny(&cfg);
    let mut optimizer = EnergyOptimizer::new(
        Device::new(cfg.clone()),
        dvfs_repro::power_model::HardwareCalibration::ground_truth(&cfg),
    );
    let opts = OptimizerConfig::for_device(&cfg).with_fai_us(100.0);
    let mut session = optimizer.session(&workload, &opts);
    session.search().unwrap();
    let profile = ProfileArtifact {
        profiles: session.profiles().unwrap().to_vec(),
        baseline: *session.baseline().unwrap(),
    };
    let search = SearchArtifact {
        outcome: session.ga_outcome().unwrap().clone(),
    };
    let mut strategy = Vec::new();
    write_strategy(&search.outcome.strategy, &mut strategy).unwrap();
    assert!(search.outcome.strategy.len() > 1, "several stages");

    let inputs: [(&str, String, Round); 4] = [
        (
            "ascend-910 profile",
            ASCEND_910_TOML.to_owned(),
            profile_round,
        ),
        (
            "profile artifact",
            profile.to_text(),
            profile_artifact_round,
        ),
        ("search artifact", search.to_text(), search_artifact_round),
        (
            "strategy file",
            String::from_utf8(strategy).unwrap(),
            strategy_round,
        ),
    ];
    let mut total = 0;
    for (name, text, round) in inputs {
        let (cases, accepted, rejected) = mutate(name, &text, round);
        eprintln!("{name}: {cases} cases, {accepted} accepted, {rejected} rejected");
        assert!(
            accepted > 0 && rejected > 0,
            "{name}: the mutations reach both outcomes"
        );
        total += cases;
    }
    eprintln!("{total} cases in all");
}
