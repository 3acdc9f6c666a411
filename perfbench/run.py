#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper-gpu --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The first call configures and builds
`perfbench/` (which compiles the library from `src/`) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`); later calls
only re-check the build.  Build output goes to stderr; the last line of
stdout is the benchmark's JSON result.  See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-gpu", "bulk-dram", "serve-skew")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "moments.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
            fail("build failed: " + " ".join(cmd))
    if os.path.getmtime(binary) != before:
        # Flush the build's dirty pages now rather than during the measurement.
        os.sync()
        time.sleep(5)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--perturb", type=int, help="flip one output bit (negative control)")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "traces")]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb is not None:
        cmd += ["--perturb", str(args.perturb)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=120 + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")


if __name__ == "__main__":
    main()
