#!/usr/bin/env bash
# Full local CI gate: formatting, lints, tests, and a bench smoke run.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy panic-freedom gate (npu-sim, npu-exec, npu-dvfs, npu-obs, npu-perf-model, npu-power-model, npu-fault, npu-workloads library code)"
cargo clippy -p npu-sim -p npu-exec -p npu-dvfs -p npu-obs -p npu-perf-model \
  -p npu-power-model -p npu-fault -p npu-workloads --lib -- \
  -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> cargo test (single-threaded test runner)"
# The suite must not depend on test-execution order or on tests running
# concurrently (env-var hygiene, shared temp dirs, global state).
cargo test --workspace --quiet -- --test-threads=1

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> profile lint (parse + validate + fixed-point check for profiles/*.toml)"
# The example is self-checking: it exits non-zero if any checked-in
# device profile fails to parse, fails validation, is not a canonical
# serialization fixed point, or if a required profile is missing.
cargo run --quiet --release --example profile_lint > /dev/null

echo "==> quickstart smoke on every built-in device profile (ascend default, v100-class, edge-npu)"
# The full Fig. 1 loop, measured calibration included, must complete on
# more than the Ascend regression pin: the coarse-ladder 15 ms-SetFreq
# V100-class profile and the sparse 4-point edge-npu ladder exercise the
# ladder-derived calibration/build-frequency defaults end to end.
cargo run --quiet --release --example quickstart > /dev/null
NPU_PROFILE=v100-class cargo run --quiet --release --example quickstart > /dev/null
NPU_PROFILE=edge-npu cargo run --quiet --release --example quickstart > /dev/null

echo "==> paper bins (steady-state warm-up, the paper-scale GA, the loss budget)"
# fig10_thermal is self-checking: it exits non-zero unless its pooled
# fit recovers the profile's T0 within 0.25 °C and k within 1 %.
# table3_end_to_end exits non-zero when a row's planned strategy misses
# the loss budget T <= B/(1-l) (npu_dvfs::LossBudget; its measured loss
# is reported, not gated). fig17_ga_convergence runs the GA at paper
# scale and exits non-zero unless every target's strategy meets the
# budget and ends at or above its generation-0 score;
# ablation_granularity exits non-zero unless every strategy's predicted
# time meets the budget.
for bin in fig10_thermal table2_power_error sect84_inference table3_end_to_end \
  fig17_ga_convergence ablation_granularity; do
  cargo run --quiet --release -p npu-bench --bin "$bin" > /dev/null
done

echo "==> observability example smoke (events to /dev/null)"
cargo run --quiet --example observe_pipeline > /dev/null

echo "==> fault-matrix smoke (resilient executor vs injected faults, 3 seeds)"
for seed in 1 2 3; do
  FAULT_SEED=$seed cargo run --quiet --example fault_injection > /dev/null
done

echo "==> batch smoke (one session per workload over a shared cache, warm pass fully cached)"
# The example is self-checking: it exits non-zero unless the warm pass
# has zero cache misses and reports bit-identical to the cold pass.
cargo run --quiet --release --example batch_fleet > /dev/null

echo "==> serve-loop smoke (drift detection, one swap, energy + EDP win, 1/2/8-thread digests)"
# The example is self-checking: it exits non-zero unless exactly one
# strategy swap fires under drift, the refreshed strategy beats the
# stale one on both raw AICore energy and energy-delay product, and the
# serve outcome digests are bit-identical at 1, 2 and 8 worker threads.
cargo run --quiet --release --example serve_drift > /dev/null

echo "==> bench smoke (CRITERION_SMOKE=1, one iteration per bench)"
# `gate <bench>` runs bench_gate (crates/bench/src/bin/bench_gate.rs) on
# the BENCH_<bench>.smoke.json the bench just wrote and the checked-in
# BENCH_<bench>.json. A failing gate does not stop the script: it exits
# non-zero at its end, naming every failure.
cargo build --quiet --release -p npu-bench --bin bench_gate
gate_failures=()
gate() {
  local out
  out=$(cargo run --quiet --release -p npu-bench --bin bench_gate -- "$1" 2>&1) \
    || gate_failures+=("$out")
  echo "$out"
  rm -f "BENCH_$1.smoke.json"
}
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench fitting
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench ga_eval
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench simulator
gate ga_eval

echo "==> pipeline bench smoke (cold-serial vs cold-parallel vs warm cache)"
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench pipeline
gate pipeline

echo "==> fleet-serve smoke (sharded epochs, strategy transfer, 1/2/auto-worker digests, 2 seeds)"
# The example is self-checking: it exits non-zero unless drift forces
# strategy swaps, at least one re-optimization warm-starts from a
# transferred neighbor strategy, and the fleet digest is bit-identical
# at 1, 2 and auto workers.
for seed in 1 2; do
  FLEET_SEED=$seed cargo run --quiet --release --example fleet_serve > /dev/null
done

echo "==> fleet bench smoke (warm transfer vs cold re-optimization, 8 devices)"
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench fleet
gate fleet

echo "==> chaos bench smoke (fault injection, quarantine/recovery, 2 fault seeds)"
# The bench is self-checking: it exits non-zero unless the faulted
# fleet completes its epochs, draws quarantines, keeps every healthy
# device's digest bit-identical to the fault-free run, and stays
# bit-identical at 2/8 workers. Run it across two fault seeds so the
# health machinery is exercised on more than one fault interleaving.
for seed in 7 805381; do
  CRITERION_SMOKE=1 CHAOS_SEED=$seed cargo bench -p npu-bench --bench chaos > /dev/null
  gate chaos
done

echo "==> service front-end smoke (2k requests, coalescing, 2-worker digest)"
# The example is self-checking: it exits non-zero unless most of the
# stream completes, duplicates share work, sessions collapse >= 10x and
# the response digest is worker-count-independent.
cargo run --quiet --release --example service_front_end > /dev/null

echo "==> service bench smoke (bounded admission + coalescing, 2 load seeds)"
# The bench is self-checking: it exits non-zero unless the
# duplicate-heavy stream coalesces, p99 stays finite and the full
# response digest is bit-identical at 1/2/8 workers. Run two generator
# seeds so admission/shedding is exercised on more than one arrival
# pattern.
for seed in 9 31; do
  CRITERION_SMOKE=1 SERVICE_SEED=$seed cargo bench -p npu-bench --bench service > /dev/null
  gate service
done

echo "==> repository benchmark (perfbench): build, unit tests, 1 s run per workload, heap ceilings"
# perfbench is a standalone package over the public entry points, so
# nothing else in this script compiles it. Build it with the command
# BENCHMARK.json declares, run its own tests, and run every workload
# once briefly: a run exits non-zero when its correctness check fails
# ("correct": false).
#
# Each run must also keep its peak_heap_mb (the last stdout line's
# metric) under a fixed ceiling. Peak heap counts allocated bytes, not
# time, and repeats to 0.1 % across runs, so the gate cannot flip on
# host noise; it catches any per-call cost that stops scaling with the
# work. (A 2^20-slot GA memo written per search read 33, 49 and 64 MB;
# a session copying its cached profile and models put gpt3_optimize at
# 9.1 MB, where sharing them reads 5.4.)
perfbench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
cargo test --quiet --offline --manifest-path perfbench/Cargo.toml
declare -A heap_ceiling_mb=([gpt3_optimize]=12 [service_stream]=8 [fleet_drift]=32)
for workload in gpt3_optimize service_stream fleet_drift; do
  result=$("${perfbench[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  heap=$(sed -n 's/.*"peak_heap_mb": {"value": \([0-9.]*\),.*/\1/p' <<< "$result")
  ceiling=${heap_ceiling_mb[$workload]}
  [ -n "$heap" ] || { echo "$workload: perfbench printed no peak_heap_mb" >&2; exit 1; }
  awk -v h="$heap" -v c="$ceiling" 'BEGIN { exit !(h <= c) }' \
    || { echo "$workload: peak_heap_mb $heap above its $ceiling MB ceiling" >&2; exit 1; }
  echo "    $workload: peak_heap_mb $heap (ceiling $ceiling)"
done

if ((${#gate_failures[@]})); then
  echo "==> failing bench gates:" >&2
  printf '%s\n' "${gate_failures[@]}" >&2
  exit 1
fi
echo "==> all checks passed"
