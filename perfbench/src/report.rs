//! Metric assembly and output: the per-layer reduction of a traced run,
//! the simulator probe, process memory, and the result lines.

use crate::stats::{median, percentile};
use crate::trace::{self, Span, SESSION};
use crate::workloads::{Bench, CallRecord};
use npu_sim::{Device, RunOptions};
use std::collections::HashMap;
use std::fs;
use std::io::BufWriter;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (an empty sample) reads as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// A run's verdict and numbers.
#[derive(Debug)]
pub struct Outcome {
    /// Work items attempted by the measured calls.
    pub attempted: u64,
    /// Items that failed or did not pass a check.
    pub failed: u64,
    /// Reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Context fields (already JSON-encoded values).
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints a readable table and the failures to stderr, then the
    /// context line and the result line to stdout.
    pub fn print(&self) {
        for m in &self.metrics {
            eprintln!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for e in &self.errors {
            eprintln!("CHECK FAILED: {e}");
        }
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"context\": {{{}}}}}", context.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON array of numbers (non-finite values as 0).
pub fn json_list(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values
        .map(|v| {
            if v.is_finite() {
                v.to_string()
            } else {
                "0".to_owned()
            }
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The commit of the repository the benchmark was built in, read from
/// its `.git` directory; `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = manifest_dir().join("../.git");
    let read = |p: PathBuf| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .split_whitespace()
                    .next()
                    .map(str::to_owned)
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The process's resident-set high-water mark, MB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulator throughput: operators per host second of back-to-back
/// `Device::run` calls over the workload's own schedules at the top
/// frequency, about a quarter second per schedule.
///
/// # Errors
///
/// A failing device run.
pub fn sim_ops_per_s(bench: &dyn Bench, seed: u64) -> Result<f64, String> {
    let (mut ops, mut secs) = (0usize, 0.0);
    for (cfg, schedule) in bench.schedules() {
        let opts = RunOptions::at(cfg.freq_table.max());
        let mut dev = Device::with_seed(cfg, seed);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < 0.25 {
            let run = dev
                .run(&schedule, &opts)
                .map_err(|e| format!("simulator probe failed: {e}"))?;
            std::hint::black_box(run);
            ops += schedule.len();
        }
        secs += start.elapsed().as_secs_f64();
    }
    Ok(ops as f64 / secs)
}

/// The per-layer reduction of one traced run.
#[derive(Debug)]
pub struct Layers<'a> {
    /// Every recorded span (set-up spans carry call id 0).
    pub spans: Vec<Span>,
    /// Root span of each traced call, in call order.
    pub roots: Vec<usize>,
    /// Untraced calls.
    pub plain: &'a [CallRecord],
    /// Traced calls, matching `roots`.
    pub traced: &'a [CallRecord],
    /// Pool workers.
    pub workers: usize,
    /// GA population per generation.
    pub population: usize,
}

fn layer(rec: &CallRecord, name: &str) -> Option<f64> {
    rec.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

impl Layers<'_> {
    /// Total duration of spans named `name` in each traced call, ms.
    fn per_call_ms(&self, name: &str) -> Vec<f64> {
        let mut per: HashMap<u32, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per.entry(s.call).or_default() += s.dur_ns();
        }
        self.call_ids()
            .map(|c| per.get(&c).copied().unwrap_or(0) as f64 / 1e6)
            .collect()
    }

    fn call_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.roots.iter().map(|&r| self.spans[r].call)
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.call > 0 && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    fn setup_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.call == 0 && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Median over untraced calls of a wrapper-measured layer value.
    fn plain_median(&self, f: impl Fn(&CallRecord) -> Option<f64>) -> f64 {
        let v: Vec<f64> = self.plain.iter().filter_map(f).collect();
        median(&v)
    }

    /// An exact layer count (identical on every call).
    fn exact(&self, name: &str) -> f64 {
        self.traced
            .first()
            .and_then(|r| layer(r, name))
            .unwrap_or(0.0)
    }

    /// Every per-layer metric, in catalogue order. Layers a workload
    /// does not exercise read 0.
    pub fn metrics(&self, sim_ops_per_s: f64) -> Vec<Metric> {
        let search = self.per_call_ms("core.session.search");
        let ga_setup = self.per_call_ms("dvfs.ga_setup");
        let ga_refine = self.per_call_ms("dvfs.ga_refine");
        let gens_us: Vec<f64> = self
            .durations_ms("dvfs.ga_gen")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();

        // GA evaluations from the generation events: population per
        // generation (set-up closes generation 0), memo hits as reported.
        let mut gens: HashMap<u32, (u64, u64)> = HashMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == "dvfs.ga_setup" || s.name == "dvfs.ga_gen")
        {
            let e = gens.entry(s.call).or_default();
            e.0 += 1;
            e.1 += s.value;
        }
        let pop = self.population as f64;
        let (mut evals_per_s, mut unique_frac) = (Vec::new(), Vec::new());
        for (i, c) in self.call_ids().enumerate() {
            if let Some(&(g, hits)) = gens.get(&c) {
                let evals = g as f64 * pop;
                evals_per_s.push(evals / (search[i] / 1e3));
                unique_frac.push(1.0 - hits as f64 / evals);
            }
        }

        let sessions = self.durations_ms(SESSION);
        let session_sum = self.per_call_ms(SESSION);
        let busy: Vec<f64> = self
            .traced
            .iter()
            .zip(&session_sum)
            .filter_map(|(r, &busy_ms)| {
                let pool_ms = layer(r, "core.service.pool_wall_ms")?;
                Some(busy_ms / (self.workers as f64 * pool_ms))
            })
            .collect();
        let unattributed: Vec<f64> = self
            .roots
            .iter()
            .map(|&r| trace::unattributed_frac(&self.spans, r))
            .collect();
        let plain_wall: Vec<f64> = self.plain.iter().map(|r| r.wall_s).collect();
        let traced_wall: Vec<f64> = self.traced.iter().map(|r| r.wall_s).collect();
        let workers = self.workers as f64;

        vec![
            Metric::new(
                "power_model.calibrate_ms",
                self.setup_ms("power_model.calibrate"),
                "ms",
            ),
            Metric::new(
                "workloads.generate_ms",
                self.setup_ms("workloads.generate"),
                "ms",
            ),
            Metric::new(
                "core.session.profile_ms",
                median(&self.per_call_ms("core.session.profile")),
                "ms",
            ),
            Metric::new("sim.ops_per_s", sim_ops_per_s, "1/s"),
            Metric::new(
                "core.session.build_models_ms",
                median(&self.per_call_ms("core.session.build_models")),
                "ms",
            ),
            Metric::new("core.session.search_ms", median(&search), "ms"),
            Metric::new("dvfs.ga_setup_ms", median(&ga_setup), "ms"),
            Metric::new("dvfs.ga_gen_us_p50", percentile(&gens_us, 0.5), "us"),
            Metric::new("dvfs.ga_gen_us_p90", percentile(&gens_us, 0.9), "us"),
            Metric::new("dvfs.ga_refine_ms", median(&ga_refine), "ms"),
            Metric::new("dvfs.evals_per_s", median(&evals_per_s), "1/s"),
            Metric::new("dvfs.unique_eval_frac", median(&unique_frac), "1"),
            Metric::new(
                "core.session.execute_ms",
                median(&self.per_call_ms("core.session.execute")),
                "ms",
            ),
            Metric::new(
                "exec.setfreq_count",
                self.exact("exec.setfreq_count"),
                "count",
            ),
            Metric::new(
                "core.cache.hit_frac",
                self.exact("core.cache.hit_frac"),
                "1",
            ),
            Metric::new(
                "core.cache.misses",
                self.exact("core.cache.misses"),
                "count",
            ),
            Metric::new(
                "core.cache.flight_coalesced",
                self.exact("core.cache.flight_coalesced"),
                "count",
            ),
            Metric::new(
                "core.service.admission_ms",
                self.plain_median(|r| layer(r, "core.service.admission_ms")),
                "ms",
            ),
            Metric::new("core.service.pool_busy_frac", median(&busy), "1"),
            Metric::new(
                "core.service.session_ms_p50",
                percentile(&sessions, 0.5),
                "ms",
            ),
            Metric::new(
                "core.service.session_ms_p90",
                percentile(&sessions, 0.9),
                "ms",
            ),
            Metric::new(
                "core.service.coalesced_frac",
                self.exact("core.service.coalesced_frac"),
                "1",
            ),
            Metric::new(
                "core.service.warm_frac",
                self.exact("core.service.warm_frac"),
                "1",
            ),
            Metric::new(
                "core.service.rejected_frac",
                self.exact("core.service.rejected_frac"),
                "1",
            ),
            Metric::new(
                "core.service.sim_latency_ms_p99",
                self.exact("core.service.sim_latency_ms_p99"),
                "ms",
            ),
            Metric::new(
                "core.fleet.reopt_per_swap_ms",
                self.plain_median(|r| layer(r, "core.fleet.reopt_per_swap_ms")),
                "ms",
            ),
            Metric::new(
                "core.fleet.warm_reopt_per_swap_ms",
                self.plain_median(|r| layer(r, "core.fleet.warm_reopt_per_swap_ms")),
                "ms",
            ),
            Metric::new(
                "core.fleet.reopt_share",
                self.plain_median(|r| {
                    Some(layer(r, "core.fleet.reopt_wall_ms")? / (workers * r.wall_s * 1e3))
                }),
                "1",
            ),
            Metric::new("core.fleet.swaps", self.exact("core.fleet.swaps"), "count"),
            Metric::new(
                "core.fleet.transfer_hit_frac",
                self.exact("core.fleet.transfer_hit_frac"),
                "1",
            ),
            Metric::new("trace.unattributed_frac", median(&unattributed), "1"),
            Metric::new(
                "obs.trace_overhead_frac",
                median(&traced_wall) / median(&plain_wall) - 1.0,
                "1",
            ),
        ]
    }

    /// Writes the set-up spans and the median traced call as Chrome-trace
    /// JSON under `perfbench/out/`, returning the path.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write_median_trace(&self, workload: &str, seed: u64) -> Result<String, String> {
        let mut by_dur: Vec<usize> = self.roots.clone();
        by_dur.sort_by_key(|&r| self.spans[r].dur_ns());
        let call = by_dur
            .get(by_dur.len().saturating_sub(1) / 2)
            .map_or(0, |&r| self.spans[r].call);
        let picked: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.call == 0 || s.call == call)
            .collect();
        let dir = manifest_dir().join("out");
        let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
        let write = || -> std::io::Result<()> {
            fs::create_dir_all(&dir)?;
            let mut out = BufWriter::new(fs::File::create(&path)?);
            trace::write_chrome_trace(&picked, &mut out)?;
            out.flush()
        };
        write().map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}
