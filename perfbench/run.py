#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
sampwh libraries and the benchmark binary into .bench_build/ (Release);
later calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is always the binary's result object. Stores, manifests and
span files go under .bench_work/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("scatter_union", "hot_window", "ingest_rollup")
RUN_TIMEOUT_S = 175
# Tail percentiles need at least ten samples beyond them, which a tiny run
# does not have, so the binary omits them there.
TAILS = {"coordinator.query_p99_ms", "coordinator.rollin_p90_ms"}


def build():
    """Configures (once) and builds the binary; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(step)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def source_digest():
    """SHA-256 over the files the binary is built from (the checkout is
    not a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_binary(args):
    """Runs the binary; returns (exit code, stdout lines)."""
    env = dict(os.environ, PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [BINARY, "--work-dir", WORK_DIR] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark binary timed out", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Tiny-size checks of the benchmark itself; True when all pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(f"self-test: {'ok  ' if ok else 'FAIL'} {what}", file=sys.stderr)
        if not ok:
            failures.append(what)

    rpcs = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run_binary(["--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", trace,
                                      "--tiny"])
            result = result_of(lines)
            expect(code == 0 and result and result["correct"]
                   and result["failed"] == 0,
                   f"{workload} trace {trace}: correct, no failed operation")
            if not result:
                continue
            names = set(result["metrics"])
            if trace == "0":
                expect(names == end_to_end,
                       f"{workload}: every end-to-end metric emitted")
            else:
                expect(names == per_layer - TAILS,
                       f"{workload}: every per-layer metric but the tails "
                       f"emitted")
                rpcs[workload] = result["metrics"][
                    "coordinator.rpcs_per_query"]["value"]

    for workload in WORKLOADS:
        _, lines = run_binary(["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", "1", "--tiny"])
        result = result_of(lines)
        again = result and result["metrics"]["coordinator.rpcs_per_query"][
            "value"]
        expect(again == rpcs.get(workload),
               f"{workload}: coordinator.rpcs_per_query repeats exactly "
               f"({rpcs.get(workload)} and {again})")
    expect(rpcs.get("hot_window") == 1.0,
           "hot_window: exactly 1 RPC per query")
    expect((rpcs.get("scatter_union") or 0) > 4,
           "scatter_union: well above 1 RPC per query")

    code, lines = run_binary(["--workload", "scatter_union", "--seed", "7",
                              "--seconds", "1", "--trace", "0", "--tiny",
                              "--corrupt-reference"])
    result = result_of(lines)
    expect(code != 0 and result and not result["correct"],
           "one flipped byte in a reference answer fails the gate")
    return not failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    code, lines = run_binary(["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", args.trace])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
