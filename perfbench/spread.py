#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    # ten distinct seeds (how a regression check samples the benchmark)
    python3 perfbench/spread.py --workload all --seeds 1-10 --log a.jsonl
    # ten repeats of one seed (host noise only, the input held fixed)
    python3 perfbench/spread.py --workload fleet_drift --seeds 1x10 --log b.jsonl
    # compare the medians (and spreads) of two logged batches
    python3 perfbench/spread.py --compare a.jsonl b.jsonl

For every end-to-end metric it prints the median of the per-run
values, and the inter-quartile distance (statistics.quantiles(n=4)) as
a share of the median, next to the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged, and one above the bound
is flagged louder. --compare prints, per metric, how much worse the
second batch's median is than the first's (negative: better), against
the same bound. Each run's result line is appended to --log (JSON
lines) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    """'1-10' is a range, '1x10' repeats seed 1 ten times, ',' joins."""
    seeds = []
    for part in text.split(","):
        if "x" in part:
            seed, times = part.split("x")
            seeds.extend([int(seed)] * int(times))
        elif "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, trace):
    args = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if len(lines) >= 2 and lines[-2].startswith('{"context"'):
        result["context"] = json.loads(lines[-2])["context"]
    return result, elapsed


def spread(values):
    """Median and inter-quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, (q3 - q1) / med if med else 0.0


def flag(share, bound):
    if bound is None:
        return ""
    if share > bound:
        return "  <-- ABOVE BOUND"
    if share > bound / 3:
        return "  <-- above bound/3"
    return ""


def read_log(path):
    """Per-workload lists of result lines, in logged order."""
    batches = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                batches.setdefault(r["workload"], []).append(r)
    return batches


def values_of(results):
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def summarize(workload, results, bounds):
    seeds = sorted({r["seed"] for r in results})
    print(f"\n{workload}: {len(results)} runs, seeds {seeds}")
    for name, vals in values_of(results).items():
        med, share = spread(vals)
        bound = bounds.get(name)
        bound_text = "" if bound is None else f" bound {bound:.3f}"
        print(f"  {name:<34} median {med:<16.6g} iqr/median {share:.4f}"
              f"{bound_text}{flag(share, bound)}")


def compare(path_a, path_b, bounds, better):
    a, b = read_log(path_a), read_log(path_b)
    for workload in [w for w in a if w in b]:
        va, vb = values_of(a[workload]), values_of(b[workload])
        print(f"\n{workload}: {len(a[workload])} vs {len(b[workload])} runs")
        for name in [n for n in va if n in vb]:
            (ma, sa), (mb, sb) = spread(va[name]), spread(vb[name])
            sign = -1.0 if better.get(name) == "higher" else 1.0
            worse = sign * (mb - ma) / ma if ma else 0.0
            bound = bounds.get(name)
            mark = "  <-- ABOVE BOUND" if bound is not None and worse > bound else ""
            print(f"  {name:<24} median {ma:<12.6g} -> {mb:<12.6g} worse by {worse:+.4f}"
                  f" (bound {bound}); iqr/median {sa:.4f} / {sb:.4f}{mark}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload name or 'all'")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log", help="append each result line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("LOG_A", "LOG_B"),
                    help="compare the medians of two logged batches")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if opts.compare:
        compare(*opts.compare, bounds, better)
        return
    if not opts.workload:
        ap.error("--workload is required unless --compare is given")

    names = [w["name"] for w in bench["workloads"]]
    workloads = names if opts.workload == "all" else [opts.workload]
    seeds = parse_seeds(opts.seeds)
    for workload in workloads:
        results, walls = [], []
        for seed in seeds:
            result, elapsed = run_once(bench, workload, seed, opts.trace)
            walls.append(elapsed)
            results.append({"workload": workload, "seed": seed,
                            "elapsed_s": elapsed, **result})
            if opts.log:
                with open(opts.log, "a") as log:
                    log.write(json.dumps(results[-1]) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
        summarize(workload, results, bounds)
        print(f"  ({min(walls):.1f}-{max(walls):.1f} s per run)")


if __name__ == "__main__":
    main()
