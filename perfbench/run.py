#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the Go benchmark in perfbench/ (a module of its own that imports the
repository's packages through a `replace` of the parent directory) into
.bench_build/ at the repository root, then runs it with the same arguments.
Everything the build writes (Go build cache, module cache, binary) stays in
.bench_build/.

    python3 perfbench/run.py spread --workload <name> [--runs 5] [--seconds 20]
        [--trace 0] [--first-seed 1]

runs the benchmark repeatedly, one process per run with seeds first-seed,
first-seed+1, ..., and prints for every metric its median, quartiles,
(Q3-Q1)/median and (max-min)/median: the figures the bounds in
BENCHMARK.json are set from.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT = 850  # a cold build compiles the standard library too
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
    })
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE,
                          env=go_env(), timeout=BUILD_TIMEOUT)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args):
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    return proc.returncode


def spread(argv):
    import argparse
    ap = argparse.ArgumentParser(prog="run.py spread")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    opts = ap.parse_args(argv)
    values = {}
    units = {}
    for k in range(opts.runs):
        seed = opts.first_seed + k
        out = subprocess.run(
            [BINARY, "--workload", opts.workload, "--seed", str(seed),
             "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
            cwd=ROOT, timeout=RUN_TIMEOUT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"perfbench: run with seed {seed} failed:\n{out.stdout}{out.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"perfbench: seed {seed} reported failures: {lines[-1]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
    print(f"\n{opts.workload}: {opts.runs} runs of {opts.seconds}s")
    print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'rng/med':>8s} unit")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        rel = (lambda x: x / abs(med) if med else float("nan"))
        print(f"{name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{rel(q3 - q1):8.4f} {rel(max(v) - min(v)):8.4f} {units[name]}")


def main():
    build()
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        spread(sys.argv[2:])
        return
    sys.exit(run_once(sys.argv[1:]))


if __name__ == "__main__":
    main()
