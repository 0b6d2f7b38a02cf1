//! Observe the full optimization pipeline as a JSON-lines event stream.
//!
//! ```sh
//! cargo run --release --example observe_pipeline > events.jsonl
//! ```
//!
//! Structured events go to **stdout** (one JSON object per line); the
//! human-readable phase summary and metrics go to **stderr**, so the two
//! streams can be separated with ordinary shell redirection. Useful `jq`
//! recipes:
//!
//! ```sh
//! jq -r .event events.jsonl | sort | uniq -c          # event census
//! jq 'select(.event == "SearchSolved") | .best_score' events.jsonl
//! jq 'select(.event == "SetFreqIssued")' events.jsonl # the SetFreq stream
//! jq 'select(.event == "PhaseFinished")' events.jsonl # phase wall times
//! jq -s 'map(select(.event == "ProfileRun")) | length' events.jsonl
//! ```

use dvfs_repro::obs::Tee;
use dvfs_repro::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three observers share one event stream: machine-readable JSON lines
    // on stdout, a phase/count summary, and a metrics registry.
    let summary = Arc::new(SummarySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = ObserverHandle::new(Tee::new(vec![
        ObserverHandle::new(JsonLinesSink::stdout()),
        ObserverHandle::from_arc(summary.clone()),
        ObserverHandle::from_arc(metrics.clone()),
    ]));

    let cfg = NpuConfig::ascend_like();
    // AlexNet preprocesses into ~9 heterogeneous stages, so the searched
    // strategy carries real frequency transitions — the executed run then
    // emits SetFreqIssued events, not just a uniform clock.
    let workload = models::alexnet(&cfg);

    // Calibrate first, then attach the observer: the offline calibration
    // phase is one-time noise, the optimization loop is what we watch.
    let mut optimizer = EnergyOptimizer::calibrated(cfg)?.with_observer(obs);

    let opts = OptimizerConfig::default().with_fai_us(30.0);

    // Drive the staged API explicitly; each stage emits PhaseStarted /
    // PhaseFinished plus its own typed events, and exposes its artifact.
    let mut session = optimizer.session(&workload, &opts);
    let n_profiles = session.profile()?.len();
    session.build_models()?;
    let fit_err = session
        .perf_model()
        .expect("build_models ran")
        .max_fit_error(session.profiles().expect("profile ran"));
    eprintln!("profiled {n_profiles} frequencies; perf model worst-case fit error {fit_err:.4}");
    let outcome = session.search()?;
    eprintln!(
        "search: best score {:.4} over {} candidates",
        outcome.best_score, outcome.evaluations
    );
    let report = session.report()?;

    eprintln!("{report}");
    eprintln!("{}", summary.render());
    eprintln!("{}", metrics.render());
    Ok(())
}
