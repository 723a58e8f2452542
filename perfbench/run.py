#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <b4_churn|te_solve|b4_forward> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the repository root. It configures perfbench/ with CMake
into .bench_build/ (RelWithDebInfo, the repository's default build
type), builds the `perfbench` target, runs it, and passes its stdout
through: a metadata line, a detail line with the workload's named
numbers, and last the result object. Build output goes to stderr. The
result's metric names must match BENCHMARK.json (end_to_end for
--trace 0, per_layer for --trace 1), or the run fails. Traced runs also
write every span to .bench_build/traces/.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_BUILD, "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Configure when there is no complete earlier configuration.
    if not os.path.exists(os.path.join(CMAKE_BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", CMAKE_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["b4_churn", "te_solve", "b4_forward"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="Abilene-scale inputs (self-test)")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    # b4_churn may measure up to 3x --seconds; set-up adds seconds more.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=4 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: exit code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    want = expected_metrics(args.trace)
    if names != want:
        print(f"perfbench: metrics {sorted(names ^ want)} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            print(f"perfbench: metric {name} is not finite", file=sys.stderr)
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
