#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (about a minute after the
build). Run from the repository root:

    python3 flashbench/smoke_test.py

For every workload it checks that
  * a run exits 0 and its last line has exactly the keys correct, attempted,
    failed and metrics;
  * --trace 0 prints every end_to_end metric of BENCHMARK.json and --trace 1
    every per_layer metric, each with the unit BENCHMARK.json gives;
  * the traced run reproduces the untraced run's virtual-time figures exactly;
  * a deliberately corrupted comparison (--inject-fault) makes the run fail
    with correct=false and a nonzero exit code.
Exits 1 on the first violated check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pdl-update", "pdl-read-mostly", "opu-tpcc")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")),
                None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, info, result, proc.stderr


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in WORKLOADS:
        vt = {}
        for trace in (0, 1):
            code, info, result, err = run(workload, trace)
            check(code == 0 and result is not None,
                  f"{workload} trace={trace} runs clean" +
                  ("" if code == 0 else f" (exit {code}): {err[-800:]}"))
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace} result keys and verdict")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} trace={trace} prints every metric with its unit")
            check(info["failed_op_share"] == 0 and info["vt_samples"] > 0,
                  f"{workload} trace={trace} info line")
            vt[trace] = info["vt"]
        check(vt[0] == vt[1],
              f"{workload} traced run reproduces the vt_* figures exactly")
        code, _, result, _ = run(workload, 0, "--inject-fault")
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{workload} corrupted comparison fails the run")
    print("smoke test passed")


if __name__ == "__main__":
    main()
