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

echo "==> quickstart smoke on two device profiles (ascend default + v100-class)"
# The full Fig. 1 loop must complete on more than the Ascend regression
# pin: the coarse-ladder 15 ms-SetFreq V100-class profile exercises the
# ladder-derived calibration/build-frequency defaults end to end.
cargo run --quiet --release --example quickstart > /dev/null
NPU_PROFILE=v100-class cargo run --quiet --release --example quickstart > /dev/null

echo "==> paper bins that warm the device to its thermal steady state"
# fig10_thermal is self-checking: it exits non-zero unless its pooled
# fit recovers the profile's T0 within 0.25 °C and k within 1 %.
# table3_end_to_end exits non-zero when a row's planned loss T/B - 1
# exceeds the search's own budget 1/(1-l) - 1 (its measured loss is
# reported, not gated).
for bin in fig10_thermal table2_power_error sect84_inference table3_end_to_end; do
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
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench fitting
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench ga_eval
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench simulator

# Validate the ga_eval smoke JSON: the pool path's correctness artifacts
# are timing-independent and must hold on every machine — pool scores
# bit-identical to full evaluation on both the clone-chain stream and
# the GA-lineage replay, zero heap allocations on a warm pool-scoring
# pass, and the exact Pareto-DP oracle certifying the GA result with a
# gap of exactly 0.0.
ga_fields="full_policies_per_sec incremental_policies_per_sec \
pool_policies_per_sec pool_bit_identical pool_score_allocs \
optimality_gap oracle_certified"
for f in $ga_fields; do
  grep -q "\"$f\"" BENCH_ga_eval.smoke.json \
    || { echo "BENCH_ga_eval.smoke.json: missing field $f" >&2; exit 1; }
done
grep -q '"pool_bit_identical": true' BENCH_ga_eval.smoke.json \
  || { echo "pool scores diverged from full evaluation" >&2; exit 1; }
grep -q '"pool_score_allocs": 0,' BENCH_ga_eval.smoke.json \
  || { echo "warm pool-scoring pass allocated on the heap" >&2; exit 1; }
grep -q '"optimality_gap": 0.0,' BENCH_ga_eval.smoke.json \
  || { echo "GA missed the certified optimum (gap != 0.0)" >&2; exit 1; }
grep -q '"oracle_certified": true' BENCH_ga_eval.smoke.json \
  || { echo "exact oracle failed to certify the small schedule" >&2; exit 1; }
rm -f BENCH_ga_eval.smoke.json

# The checked-in full-run measurement must carry the same fields and
# the same correctness artifacts (full runs: cargo bench -p npu-bench
# --bench ga_eval, no CRITERION_SMOKE).
for f in $ga_fields; do
  grep -q "\"$f\"" BENCH_ga_eval.json \
    || { echo "BENCH_ga_eval.json: missing field $f" >&2; exit 1; }
done
grep -q '"pool_bit_identical": true' BENCH_ga_eval.json \
  || { echo "BENCH_ga_eval.json: pool scores not bit-identical" >&2; exit 1; }
grep -q '"optimality_gap": 0.0,' BENCH_ga_eval.json \
  || { echo "BENCH_ga_eval.json: optimality gap != 0.0" >&2; exit 1; }

echo "==> pipeline bench smoke (cold-serial vs cold-parallel vs warm cache)"
CRITERION_SMOKE=1 cargo bench -p npu-bench --bench pipeline

# Validate the smoke run's JSON: every field present, the warm-cache
# pass must not have re-run a single cached stage, and all paths must
# have produced bit-identical reports.
bench_fields="cold_serial_sessions_per_sec cold_parallel_sessions_per_sec \
warm_cache_sessions_per_sec speedup_cold_parallel speedup_warm_cache \
speedup_end_to_end warm_second_pass_misses bit_identical"
for f in $bench_fields; do
  grep -q "\"$f\"" BENCH_pipeline.smoke.json \
    || { echo "BENCH_pipeline.smoke.json: missing field $f" >&2; exit 1; }
done
grep -q '"warm_second_pass_misses": 0,' BENCH_pipeline.smoke.json \
  || { echo "warm-cache pass re-ran profiling (miss counter != 0)" >&2; exit 1; }
grep -q '"bit_identical": true' BENCH_pipeline.smoke.json \
  || { echo "parallel/warm reports diverged from cold-serial" >&2; exit 1; }
rm -f BENCH_pipeline.smoke.json

# The checked-in full-run measurement must carry the same fields and
# show the >= 2x end-to-end speedup (full runs: cargo bench -p
# npu-bench --bench pipeline, no CRITERION_SMOKE).
for f in $bench_fields; do
  grep -q "\"$f\"" BENCH_pipeline.json \
    || { echo "BENCH_pipeline.json: missing field $f" >&2; exit 1; }
done
awk -F': ' '/"speedup_end_to_end"/ { if ($2 + 0 < 2.0) exit 1 }' BENCH_pipeline.json \
  || { echo "BENCH_pipeline.json: end-to-end speedup below 2x" >&2; exit 1; }

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

# Validate the smoke JSON: every field present, transfer hits observed,
# and the fleet digest bit-identical at 1/2/8 workers. The speedup gate
# applies to the checked-in full run only — an 8-device smoke is too
# small for stable timing.
fleet_fields="devices epochs clusters devices_per_sec fleet_swaps \
cold_swaps transfer_hits transfer_misses transfer_hit_rate \
cache_hit_rate warm_reopt_wall_s cold_reopt_wall_s \
warm_reopt_per_swap_ms cold_reopt_per_swap_ms reopt_speedup digest \
bit_identical"
for f in $fleet_fields; do
  grep -q "\"$f\"" BENCH_fleet.smoke.json \
    || { echo "BENCH_fleet.smoke.json: missing field $f" >&2; exit 1; }
done
awk -F': ' '/"transfer_hit_rate"/ { if ($2 + 0 <= 0.0) exit 1 }' BENCH_fleet.smoke.json \
  || { echo "BENCH_fleet.smoke.json: no transfer hits" >&2; exit 1; }
grep -q '"bit_identical": true' BENCH_fleet.smoke.json \
  || { echo "fleet digest diverged across worker counts" >&2; exit 1; }
rm -f BENCH_fleet.smoke.json

# The checked-in full-run measurement (64 devices: cargo bench -p
# npu-bench --bench fleet, no CRITERION_SMOKE) must carry the same
# fields, warm-start a positive share of re-optimizations, run a
# transfer-warm re-optimization >= 2x faster than a cold one, and stay
# bit-identical across worker counts.
for f in $fleet_fields; do
  grep -q "\"$f\"" BENCH_fleet.json \
    || { echo "BENCH_fleet.json: missing field $f" >&2; exit 1; }
done
awk -F': ' '/"transfer_hit_rate"/ { if ($2 + 0 <= 0.0) exit 1 }' BENCH_fleet.json \
  || { echo "BENCH_fleet.json: no transfer hits" >&2; exit 1; }
awk -F': ' '/"reopt_speedup"/ { if ($2 + 0 < 2.0) exit 1 }' BENCH_fleet.json \
  || { echo "BENCH_fleet.json: warm re-optimization speedup below 2x" >&2; exit 1; }
# Regression pin: both passes run one identical saturated swap schedule
# (the bench asserts warm swaps == cold swaps), so the end-to-end warm
# wall must beat cold outright. The historical recording inverted
# (warm 1.819 s > cold 1.541 s) because the warm pass's residual drift
# kept the detector firing and tripled its swap count.
awk -F': ' '/"warm_secs"/ { w = $2 + 0 } /"cold_secs"/ { c = $2 + 0 }
  END { if (w > c) exit 1 }' BENCH_fleet.json \
  || { echo "BENCH_fleet.json: warm fleet pass slower than cold" >&2; exit 1; }
grep -q '"bit_identical": true' BENCH_fleet.json \
  || { echo "BENCH_fleet.json: fleet digest diverged across worker counts" >&2; exit 1; }

echo "==> chaos bench smoke (fault injection, quarantine/recovery, 2 fault seeds)"
# The bench is self-checking: it exits non-zero unless the faulted
# fleet completes its epochs, draws quarantines, keeps every healthy
# device's digest bit-identical to the fault-free run, and stays
# bit-identical at 2/8 workers. Run it across two fault seeds so the
# health machinery is exercised on more than one fault interleaving.
chaos_fields="seed devices epochs faulted_devices completed quarantines \
recoveries evictions transfer_rejections survival_rate quarantine_rate \
recovery_rate healthy_stable healthy_digest_stable digest clean_digest \
bit_identical"
for seed in 7 805381; do
  CRITERION_SMOKE=1 CHAOS_SEED=$seed cargo bench -p npu-bench --bench chaos > /dev/null
  for f in $chaos_fields; do
    grep -q "\"$f\"" BENCH_chaos.smoke.json \
      || { echo "BENCH_chaos.smoke.json (seed $seed): missing field $f" >&2; exit 1; }
  done
  grep -q '"completed": true' BENCH_chaos.smoke.json \
    || { echo "seed $seed: faulted fleet did not complete its epochs" >&2; exit 1; }
  awk -F': ' '/"quarantines"/ { if ($2 + 0 <= 0) exit 1 }' BENCH_chaos.smoke.json \
    || { echo "seed $seed: faults drew no quarantines" >&2; exit 1; }
  grep -q '"healthy_digest_stable": true' BENCH_chaos.smoke.json \
    || { echo "seed $seed: a healthy device diverged from the fault-free run" >&2; exit 1; }
  grep -q '"bit_identical": true' BENCH_chaos.smoke.json \
    || { echo "seed $seed: chaos digest diverged across worker counts" >&2; exit 1; }
  rm -f BENCH_chaos.smoke.json
done

# The checked-in full-run measurement (16 devices: cargo bench -p
# npu-bench --bench chaos, no CRITERION_SMOKE) must carry the same
# fields and the same invariants.
for f in $chaos_fields; do
  grep -q "\"$f\"" BENCH_chaos.json \
    || { echo "BENCH_chaos.json: missing field $f" >&2; exit 1; }
done
grep -q '"completed": true' BENCH_chaos.json \
  || { echo "BENCH_chaos.json: faulted fleet did not complete" >&2; exit 1; }
awk -F': ' '/"quarantines"/ { if ($2 + 0 <= 0) exit 1 }' BENCH_chaos.json \
  || { echo "BENCH_chaos.json: faults drew no quarantines" >&2; exit 1; }
grep -q '"healthy_digest_stable": true' BENCH_chaos.json \
  || { echo "BENCH_chaos.json: a healthy device diverged" >&2; exit 1; }
grep -q '"bit_identical": true' BENCH_chaos.json \
  || { echo "BENCH_chaos.json: digest diverged across worker counts" >&2; exit 1; }

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
# pattern. The completed >= 10000 and >= 5x speedup gates apply to the
# checked-in full run only — smoke streams are too short.
service_fields="seed workers submitted_light completed_light \
coalesce_rate_light shed_rate_light p50_us_light p99_us_light \
sessions_light sessions_per_sec_light submitted_steady completed_steady \
coalesce_rate_steady shed_rate_steady p50_us_steady p99_us_steady \
sessions_steady sessions_per_sec_steady submitted_dup_heavy \
completed_dup_heavy coalesce_rate_dup_heavy shed_rate_dup_heavy \
p50_us_dup_heavy p99_us_dup_heavy sessions_dup_heavy \
sessions_per_sec_dup_heavy baseline_requests baseline_sessions_per_sec \
coalesce_speedup digest bit_identical"
for seed in 9 31; do
  CRITERION_SMOKE=1 SERVICE_SEED=$seed cargo bench -p npu-bench --bench service > /dev/null
  for f in $service_fields; do
    grep -q "\"$f\"" BENCH_service.smoke.json \
      || { echo "seed $seed: BENCH_service.smoke.json missing field $f" >&2; exit 1; }
  done
  awk -F': ' '/"coalesce_rate_dup_heavy"/ { if ($2 + 0 <= 0.0) exit 1 }' BENCH_service.smoke.json \
    || { echo "seed $seed: duplicate-heavy stream never coalesced" >&2; exit 1; }
  grep -q '"bit_identical": true' BENCH_service.smoke.json \
    || { echo "seed $seed: service digest diverged across worker counts" >&2; exit 1; }
  rm -f BENCH_service.smoke.json
done

# The checked-in full-run measurement (10k+ requests per level: cargo
# bench -p npu-bench --bench service, no CRITERION_SMOKE) must carry the
# same fields, complete >= 10000 duplicate-heavy requests, coalesce,
# keep p99 finite, beat the coalescing-disabled isolated baseline by
# >= 5x served/sec, and stay bit-identical across worker counts.
for f in $service_fields; do
  grep -q "\"$f\"" BENCH_service.json \
    || { echo "BENCH_service.json: missing field $f" >&2; exit 1; }
done
awk -F': ' '/"completed_dup_heavy"/ { if ($2 + 0 < 10000) exit 1 }' BENCH_service.json \
  || { echo "BENCH_service.json: fewer than 10000 duplicate-heavy completions" >&2; exit 1; }
awk -F': ' '/"coalesce_rate_dup_heavy"/ { if ($2 + 0 <= 0.0) exit 1 }' BENCH_service.json \
  || { echo "BENCH_service.json: duplicate-heavy stream never coalesced" >&2; exit 1; }
if grep -qE '"p(50|99)_us_(light|steady|dup_heavy)": (NaN|-?inf)' BENCH_service.json; then
  echo "BENCH_service.json: latency percentile not finite" >&2
  exit 1
fi
awk -F': ' '/"coalesce_speedup"/ { if ($2 + 0 < 5.0) exit 1 }' BENCH_service.json \
  || { echo "BENCH_service.json: coalescing speedup below 5x" >&2; exit 1; }
grep -q '"bit_identical": true' BENCH_service.json \
  || { echo "BENCH_service.json: service digest diverged across worker counts" >&2; exit 1; }

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
# work. (A 2^20-slot GA memo written per search read 33, 49 and 64 MB.)
perfbench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
cargo test --quiet --offline --manifest-path perfbench/Cargo.toml
declare -A heap_ceiling_mb=([gpt3_optimize]=24 [service_stream]=8 [fleet_drift]=32)
for workload in gpt3_optimize service_stream fleet_drift; do
  result=$("${perfbench[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  heap=$(sed -n 's/.*"peak_heap_mb": {"value": \([0-9.]*\),.*/\1/p' <<< "$result")
  ceiling=${heap_ceiling_mb[$workload]}
  [ -n "$heap" ] || { echo "$workload: perfbench printed no peak_heap_mb" >&2; exit 1; }
  awk -v h="$heap" -v c="$ceiling" 'BEGIN { exit !(h <= c) }' \
    || { echo "$workload: peak_heap_mb $heap above its $ceiling MB ceiling" >&2; exit 1; }
  echo "    $workload: peak_heap_mb $heap (ceiling $ceiling)"
done

echo "==> all checks passed"
