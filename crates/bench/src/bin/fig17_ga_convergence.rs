//! Fig. 17 regeneration: best-individual score during the GA search on
//! GPT-3, under performance lower bounds from 2 % to 10 % (population 200,
//! mutation 0.15, 600 iterations, 5 ms FAI — the paper's settings).
//!
//! Expected shape: stricter targets converge faster; everything converges
//! well within 500 iterations; at the 2 % target the LFC/HFC prior
//! individual is already near-optimal. Also runs the prior-less ablation.
//!
//! Exits non-zero when, at any target, the returned strategy misses the
//! [`LossBudget`] bound `T ≤ B/(1−ℓ)` or scores below generation 0.

use npu_bench::{build_models, split_profiles, steady_profiles};
use npu_dvfs::{preprocess::preprocess, search, GaConfig, LossBudget, StageTable};
use npu_perf_model::FitFunction;
use npu_sim::{Device, NpuConfig};
use npu_workloads::models;
use std::time::Instant;

fn main() {
    let cfg = NpuConfig::ascend_like();
    let workload = models::gpt3(&cfg);
    let mut dev = Device::new(cfg.clone());
    let profiles = steady_profiles(&mut dev, &workload, &[1800, 1000]);
    let (build, _) = split_profiles(&profiles, &[1000, 1800]);
    let (perf, power) = build_models(&cfg, &build, FitFunction::Quadratic);
    let pre = preprocess(&profiles[0].records, 5_000.0);
    let table = StageTable::build(&pre, &perf, &power, &cfg.freq_table).expect("table");
    println!(
        "# Fig 17: GA convergence on GPT-3 ({} stages, {} frequency points)",
        table.n_stages(),
        table.n_freqs()
    );

    // Generation 0 carries 8 rungs of the Lagrangian ladder, as the GA
    // has seeded schedules of this size since the oracle seeding landed.
    let seeded = GaConfig::default().with_oracle_seeds(8);
    let targets = [0.02, 0.04, 0.06, 0.08, 0.10];
    let mut traces = Vec::new();
    let mut failures = Vec::new();
    for &t in &targets {
        let ga = seeded.clone().with_loss_target(t);
        let start = Instant::now();
        let out = search(&table, &ga);
        let wall = start.elapsed();
        // Iteration at which the search reached 99.9% of its final score.
        let goal = out.best_score * 0.999;
        let conv = out
            .score_trace
            .iter()
            .position(|&s| s >= goal)
            .unwrap_or(out.score_trace.len());
        println!(
            "# target {:>4.0}%: best score {:.5e}, converged @ iter {conv}, \
             {} evals in {wall:?}",
            100.0 * t,
            out.best_score,
            out.evaluations,
        );
        if !LossBudget(t).meets(table.baseline().time_us, out.best_eval.time_us) {
            failures.push(format!("target {t}: strategy misses the loss budget"));
        }
        if out.best_score < out.score_trace[0] {
            failures.push(format!("target {t}: final score below generation 0"));
        }
        traces.push(out.score_trace);
    }

    println!(
        "\n{:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "iter", "2%", "4%", "6%", "8%", "10%"
    );
    for i in (0..600).step_by(25) {
        print!("{i:>6}");
        for tr in &traces {
            print!(" {:>12.5e}", tr[i]);
        }
        println!();
    }

    // Prior-individual ablation at the 2 % target.
    let with_prior = search(&table, &seeded);
    let no_prior = GaConfig {
        include_prior: false,
        ..seeded
    };
    let without = search(&table, &no_prior);
    println!("\n# prior-individual ablation (2% target):");
    println!(
        "#   with prior:    first-gen best {:.5e}, final {:.5e}",
        with_prior.score_trace[0], with_prior.best_score
    );
    println!(
        "#   without prior: first-gen best {:.5e}, final {:.5e}",
        without.score_trace[0], without.best_score
    );
    println!("# paper: at the 2% target the introduced prior individuals are already optimal");
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("{failure}");
        }
        std::process::exit(1);
    }
}
