#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt: libssp from this
checkout's sources plus ssp_perfbench) into the build directory, then runs one
workload and passes its output through. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the checkout root. Build output goes to stderr. Exit status is
ssp_perfbench's (0 = every output check passed), or 2 when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--parallel", "4", "--target"]
                 + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out


def out_dir():
    return os.path.join(build_dir(), "out")


def selftest(bin_dir):
    """Self-test binary plus agreement of BENCHMARK.json with ssp_perfbench --list."""
    status = subprocess.run(
        [os.path.join(bin_dir, "perfbench_selftest"), "--out-dir", out_dir()]
    ).returncode
    listing = subprocess.run([os.path.join(bin_dir, "ssp_perfbench"), "--list"],
                             capture_output=True, text=True, check=True).stdout
    lists = {}
    for line in listing.splitlines():
        key, *items = line.split()
        lists[key] = items
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [m["name"] + ":" + m["unit"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] + ":" + m["unit"] for m in spec["per_layer"]],
    }
    for key, names in expected.items():
        only_json = sorted(set(names) - set(lists.get(key, [])))
        only_binary = sorted(set(lists.get(key, [])) - set(names))
        if only_json or only_binary:
            print("perfbench: %s: only in BENCHMARK.json %s, only in ssp_perfbench %s"
                  % (key, only_json, only_binary), file=sys.stderr)
            status = 1
    print("perfbench: selftest " + ("passed" if status == 0 else "FAILED"))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    bin_dir = build(["ssp_perfbench", "perfbench_selftest"])
    if bin_dir is None:
        return 2
    os.makedirs(out_dir(), exist_ok=True)
    if args.selftest:
        return selftest(bin_dir)
    # Relative to the checkout root (the directory it runs from), so the
    # serve workload's unix socket path stays short wherever the checkout is.
    cmd = [os.path.join(bin_dir, "ssp_perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
           "--out-dir", os.path.relpath(out_dir(), ROOT)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
