#!/usr/bin/env python3
"""Self-test of the benchmark, in its tiny-size mode.

    python3 perfbench/tests/selftest.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs one untraced and one traced tiny run and checks that
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed, with its unit, and nothing else;
  * every output check passed (correct, failed == 0, attempted >= 1);
  * end-to-end metrics are positive;
and then that a seeded one-bit perturbation of one op's output is reported
as a failure (correct false, failed >= 1).  Exits nonzero on any failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            printed = {name: m.get("unit") for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: output checks failed: {result['failed']} of "
                                f"{result['attempted']}")
            if trace == 0:
                problems += [f"{label}: {name} is not positive"
                             for name, m in result["metrics"].items() if not m["value"] > 0]
            print(f"ok   {label}: {result['attempted']} attempted")
        perturbed = run(workload, 0, "--perturb", "12345")
        if perturbed["correct"] or perturbed["failed"] < 1:
            problems.append(f"{workload}: one-bit perturbation was not reported")
        else:
            print(f"ok   {workload} --perturb: {perturbed['failed']} failed")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
