#!/usr/bin/env python3
"""Tests of the benchmark itself: builds it, runs the C++ unit tests, then a
tiny-size run of every workload, traced and untraced, checking that each
metric BENCHMARK.json names prints with its unit and that the run passes
its correctness checks.

Run from the repository root:  python3 perfbench/tests/test_perfbench.py
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

BUILD = run.build()


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=False)
    return done


class BenchmarkTest(unittest.TestCase):
    def test_build(self):
        self.assertIsNotNone(BUILD)

    def test_unit_tests(self):
        binary = os.path.join(BUILD, "perfbench_tests")
        if not os.path.exists(binary):
            self.skipTest("GTest not available; C++ unit tests not built")
        done = subprocess.run([binary], capture_output=True, text=True, timeout=120, check=False)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def check_result(self, workload, trace, defs):
        done = run_tiny(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = result["metrics"]
        self.assertEqual(set(printed), {d["name"] for d in defs})
        for d in defs:
            self.assertEqual(printed[d["name"]]["unit"], d["unit"], d["name"])
            self.assertIsInstance(printed[d["name"]]["value"], (int, float), d["name"])
        return result

    def test_every_workload_prints_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for d in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][d["name"]]["value"], 0, d["name"])

    def test_every_workload_prints_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(w["name"], 1, SPEC["per_layer"])

    def test_digest_repeats_for_a_seed(self):
        lines = [l for l in run_tiny("clone_burst", 0).stdout.splitlines()
                 if l.startswith("digest:")]
        again = [l for l in run_tiny("clone_burst", 0).stdout.splitlines()
                 if l.startswith("digest:")]
        self.assertEqual(len(lines), 1)
        self.assertEqual(lines, again)

    def test_bad_arguments_fail(self):
        done = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
