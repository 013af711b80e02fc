#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

Runs one workload once per seed through run.py and prints, per metric, the
median and the interquartile distance (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload mesh --seeds 1-5 [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed %d: failed (exit %d)\n%s" % (seed, proc.returncode,
                                                      proc.stderr))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-34s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-34s %14.6g %8.3f %8s  %s" % (
            name, med, spread, "" if bound is None else bound,
            " ".join("%.4g" % x for x in v)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
