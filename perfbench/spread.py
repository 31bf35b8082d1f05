#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload hot_window --seeds 1 2 3 4 5 \
        [--trace 0] [--json this.json] [--against earlier.json]

Runs perfbench/run.py once per seed and prints, for every metric, the
median and the distance between the first and third quartile as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json. --json writes the raw values too. --against
reads such a file from an earlier set and prints by how much this set's
median is worse than that set's, as a share of the earlier median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def medians(runs):
    """Median of every metric over a set's per-run values."""
    names = runs[0]["result"]["metrics"]
    return {name: statistics.median(r["result"]["metrics"][name]["value"]
                                    for r in runs)
            for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--json", help="write the per-run values here")
    parser.add_argument("--against", help="per-run values of an earlier set")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = medians(json.load(f))
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run failed ({done.returncode})")
            return 1
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
        runs.append({"seed": seed, "result": result, "meta": meta})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} "
              f"probe={meta.get('spin_probe_s')} "
              f"steal={meta.get('steal_ticks')}", flush=True)

    names = sorted(runs[0]["result"]["metrics"])
    print(f"{'metric':40s} {'median':>12s} {'iqr/med':>8s} {'worse':>7s} "
          f"{'bound':>6s}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
        worse = None
        if earlier.get(name):
            worse = (median - earlier[name]) / abs(earlier[name])
            if better.get(name) == "higher":
                worse = -worse
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- spread above a third of the bound"
        if bound is not None and worse is not None and worse > bound:
            flag += "  <-- median worse than the earlier set's beyond the bound"
        shown = "" if worse is None else f"{worse:.3f}"
        print(f"{name:40s} {median:12.6g} {spread:8.3f} {shown:>7s} "
              f"{'' if bound is None else bound:>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
