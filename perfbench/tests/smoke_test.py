#!/usr/bin/env python3
"""Smoke self-test of the repository benchmark at Abilene scale.

    python3 perfbench/tests/smoke_test.py

Builds the benchmark (first run only) and runs every workload for two
seconds on Abilene-sized inputs, untraced and traced. Each run must exit
0, end with the result object, report every metric BENCHMARK.json names
for that mode with a finite value and its unit, and have an error rate of
zero.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("b4_churn", "te_solve", "b4_forward")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        meta, detail, result = (json.loads(l) for l in lines[-3:])
        self.assertEqual(meta["meta"]["workload"], workload)
        for key in ("nproc", "cpu_model", "compiler", "cxx_flags",
                    "build_type", "commit", "seed", "timed_operations"):
            self.assertIn(key, meta["meta"])
        self.assertEqual(detail["detail"]["error_rate"], 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])


def make_test(workload, trace):
    return lambda self: self.check(workload, trace)


for _w in WORKLOADS:
    for _t in (0, 1):
        setattr(SmokeTest, f"test_{_w}_trace{_t}", make_test(_w, _t))


if __name__ == "__main__":
    unittest.main()
