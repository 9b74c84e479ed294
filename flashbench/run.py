#!/usr/bin/env python3
"""Builds flashbench from the current source tree and runs one workload.

Usage (from the repository root):

    python3 flashbench/run.py --workload pdl-update --seed 1 --seconds 5 --trace 0

Workloads: pdl-update, pdl-read-mostly, opu-tpcc. With --trace 0 the result
carries the end-to-end metrics, with --trace 1 the per-layer metrics.

Every run first configures and builds flashbench/CMakeLists.txt (the library
sources under src/ plus the benchmark) into $CARGO_TARGET_DIR/flashbench, or
.bench_build/flashbench when that variable is unset. The build is incremental,
and the binary carries a digest of the sources it was built from, which must
match the tree on disk, so a stale binary is never what gets timed. A `stamp`
line names the digest, the commit and dirty flag (when the tree is a git
checkout) and the build type.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every
correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pdl-update", "pdl-read-mostly", "opu-tpcc")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"flashbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over every file the binary is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_stamp():
    """(commit, dirty) of the tree, or (None, None) outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "flashbench"], capture_output=True, text=True, check=True,
            timeout=30).stdout
    except (subprocess.SubprocessError, OSError):
        return None, None
    return commit, bool(status.strip())


def build(build_dir, digest):
    """Configures and builds the benchmark; returns the binary's path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another tree
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch in the checkout
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DFLASHBENCH_SOURCE_DIGEST={digest}"]
    if not os.path.exists(cache) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd[:3])}")
    return os.path.join(build_dir, "flashbench")


def check_result(line):
    """Parses and shape-checks the binary's result line."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"malformed metric {name}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes and one set-up (smoke self-test only)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the correctness comparison (smoke self-test)")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "flashbench"))
    try:
        digest = source_digest()
        binary = build(build_dir, digest)
        stamp = json.loads(subprocess.run(
            [binary, "--stamp"], capture_output=True, text=True, check=True,
            timeout=30).stdout)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"cannot build the benchmark: {e}")
        return 1
    if stamp["source_digest"] != digest:
        log(f"binary built from {stamp['source_digest']}, tree is {digest}")
        return 1
    commit, dirty = git_stamp()
    stamp.update(commit=commit, dirty=dirty)
    print("stamp " + json.dumps(stamp), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no output (exit code {proc.returncode})")
        return 1
    try:
        result = check_result(lines[-1])
    except ValueError as e:
        log(f"bad result line: {e}")
        return 1
    print("\n".join(lines), flush=True)
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        log("correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
