//! Integration: the observability layer end to end — a staged
//! [`OptimizationSession`] streaming JSON-lines events that cover every
//! pipeline phase, without perturbing the optimization itself.

use dvfs_repro::obs::Tee;
use dvfs_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A minimal JSON value — just enough structure to validate the event
/// stream without a JSON dependency.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Recursive-descent parser over one line; rejects trailing garbage.
fn parse_json(line: &str) -> Result<Json, String> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at {pos} in {line:?}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at {}", ch as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                    }
                    other => return Err(format!("bad escape {:?}", other as char)),
                }
            }
            Some(&c) => {
                if c < 0x20 {
                    return Err(format!("raw control byte {c:#x} in string"));
                }
                // Multi-byte UTF-8 sequences pass through untouched.
                let ch_len = line_char_len(b, *pos)?;
                out.push_str(std::str::from_utf8(&b[*pos..*pos + ch_len]).unwrap());
                *pos += ch_len;
            }
        }
    }
}

fn line_char_len(b: &[u8], pos: usize) -> Result<usize, String> {
    let c = b[pos];
    let len = match c {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => return Err(format!("bad UTF-8 lead byte {c:#x}")),
    };
    if pos + len > b.len() {
        return Err("truncated UTF-8 sequence".into());
    }
    Ok(len)
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at {pos}")),
        }
    }
}

fn small_opts() -> OptimizerConfig {
    OptimizerConfig::default().with_fai_us(30.0)
}

#[test]
fn staged_session_streams_valid_json_for_every_phase() {
    // Fast fine-grained DVFS (the effective FAI is clamped to the
    // SetFreq apply latency): AlexNet's per-op stages survive
    // preprocessing and keep their LFC/HFC identity, so the
    // score-optimal strategy genuinely mixes frequencies and the
    // executed run switches (SetFreqIssued events appear). Under the
    // default 1 ms latency the merged stages blend together and the
    // optimum is a uniform frequency — no switches to observe.
    let cfg = NpuConfig::builder()
        .setfreq_latency_us(30.0)
        .build()
        .unwrap();
    let workload = models::alexnet(&cfg);

    // Legacy one-call path on a silent, identically-seeded optimizer.
    let mut silent = EnergyOptimizer::calibrated(cfg.clone()).unwrap();
    let legacy_report = silent.optimize(&workload, &small_opts()).unwrap();

    let sink = Arc::new(JsonLinesSink::new(Vec::new()));
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = ObserverHandle::new(Tee::new(vec![
        ObserverHandle::from_arc(sink.clone()),
        ObserverHandle::from_arc(metrics.clone()),
    ]));
    let mut observed = EnergyOptimizer::calibrated(cfg).unwrap().with_observer(obs);

    // Drive the stages one by one, checking artifacts appear as each runs.
    let mut session = observed.session(&workload, &small_opts());
    assert!(session.profiles().is_none());
    assert_eq!(session.profile().unwrap().len(), 2);
    assert!(session.baseline().is_some());
    session.build_models().unwrap();
    assert!(session.perf_model().is_some() && session.power_model().is_some());
    let best_score = session.search().unwrap().best_score;
    assert!(best_score > 0.0);
    assert!(session.stage_table().is_some());
    let setfreq_count = session.execute().unwrap().setfreq_count;
    assert!(setfreq_count > 0, "multi-stage strategy must switch");
    let staged_report = session.report().unwrap();

    // Observation must not perturb the pipeline: the observed staged run
    // reproduces the silent legacy report exactly.
    assert_eq!(staged_report, legacy_report);

    drop(session);
    drop(observed);
    let text = String::from_utf8(
        Arc::try_unwrap(sink)
            .expect("all pipeline handles dropped")
            .into_inner(),
    )
    .unwrap();

    // Every line is a standalone JSON object tagged with an event name.
    let mut census: BTreeMap<String, usize> = BTreeMap::new();
    let mut phases_started = Vec::new();
    let mut phases_finished = Vec::new();
    for line in text.lines() {
        let value = parse_json(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
        let event = value
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line without event tag: {line:?}"))
            .to_owned();
        match event.as_str() {
            "PhaseStarted" => {
                phases_started.push(
                    value
                        .get("phase")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                );
            }
            "PhaseFinished" => {
                phases_finished.push(
                    value
                        .get("phase")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                );
                assert!(
                    matches!(value.get("wall_us"), Some(Json::Num(us)) if *us >= 0.0),
                    "finished phase carries a wall time: {line:?}"
                );
            }
            "SearchSolved" => {
                // The event carries the score the search returned.
                assert!(matches!(value.get("best_score"), Some(Json::Num(s)) if *s == best_score));
                assert!(matches!(value.get("stages"), Some(Json::Num(n)) if *n >= 1.0));
                // No warm seeds: the solver's answer is the only candidate.
                assert!(matches!(value.get("candidates"), Some(Json::Num(n)) if *n == 1.0));
                assert!(matches!(value.get("certified"), Some(Json::Bool(_))));
            }
            "SetFreqIssued" => {
                assert!(matches!(value.get("freq_mhz"), Some(Json::Num(f)) if *f >= 1000.0));
            }
            _ => {}
        }
        *census.entry(event).or_insert(0) += 1;
    }

    // All five pipeline phases opened and closed, in order.
    let expected = ["profile", "model-build", "search", "execute", "report"];
    assert_eq!(phases_started, expected, "phase open order");
    assert_eq!(phases_finished, expected, "phase close order");

    // One SearchSolved per search-stage run, and sessions run no GA.
    let searches = phases_finished.iter().filter(|p| *p == "search").count();
    assert_eq!(searches, 1);
    assert_eq!(
        census.get("SearchSolved"),
        Some(&searches),
        "census: {census:?}"
    );
    assert!(!census.contains_key("GaGeneration"), "census: {census:?}");
    assert!(census["SetFreqIssued"] >= 1, "census: {census:?}");
    assert_eq!(census["SetFreqIssued"], setfreq_count);
    assert_eq!(census["ProfileRun"], 2);
    assert_eq!(census["IterationMeasured"], 2); // baseline + optimized

    // The metrics registry saw the same stream.
    for (event, count) in &census {
        assert_eq!(
            metrics.counter(&format!("event.{event}")),
            *count as u64,
            "metrics counter for {event}"
        );
    }
    assert_eq!(
        metrics.counter("device.setfreq_applied"),
        setfreq_count as u64
    );
}

#[test]
fn null_observer_stays_silent_and_reports_identically() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::tiny(&cfg);
    let run = |obs: Option<ObserverHandle>| {
        let mut optimizer = EnergyOptimizer::calibrated(cfg.clone()).unwrap();
        if let Some(obs) = obs {
            optimizer.set_observer(obs);
        }
        optimizer.optimize(&workload, &small_opts()).unwrap()
    };
    let default_obs = run(None);
    let explicit_null = run(Some(ObserverHandle::new(NullObserver)));
    assert_eq!(default_obs, explicit_null);
}
