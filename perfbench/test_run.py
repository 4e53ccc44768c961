#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at miniature scale.

    python3 perfbench/test_run.py

Every workload runs through run.py at --scale mini, untraced and traced; the
tests check that each metric BENCHMARK.json names is emitted with its unit,
that an injected invariant violation trips the correctness gate, that a
traced/untraced disagreement is named, and that the command fails without a
result in a directory holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=600)


class MiniScale(unittest.TestCase):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    def check_emits(self, trace, wanted):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                r = bench("--workload", workload, "--trace", str(trace),
                          "--scale", "mini")
                self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                result = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                for m in wanted:
                    self.assertIn(m["name"], result["metrics"])
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"])

    def test_end_to_end_metrics_emitted(self):
        self.check_emits(0, self.spec["end_to_end"])

    def test_per_layer_metrics_emitted(self):
        self.check_emits(1, self.spec["per_layer"])

    def test_injected_violation_trips_gate(self):
        r = bench("--workload", "steady_lan", "--scale", "mini",
                  "--inject", "violation")
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("testing.violations", r.stderr)
        self.assertFalse(json.loads(r.stdout.strip().splitlines()[-1])["correct"])

    def test_trace_mismatch_is_named(self):
        untraced = {"attempted": 3, "failed": 0, "metrics": {
            "a": {"value": 1.0, "exact": True},
            "b": {"value": 2.0, "exact": False}}}
        traced = {"attempted": 3, "failed": 1, "metrics": {
            "a": {"value": 1.5, "exact": True},
            "b": {"value": 9.0, "exact": False}}}
        self.assertEqual(run.trace_mismatches(untraced, traced), ["a", "failed"])
        self.assertEqual(run.trace_mismatches(untraced, untraced), [])

    def test_fails_without_result_outside_a_checkout(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        # The bare copy must configure its own build: an inherited
        # CARGO_TARGET_DIR could name a build that already finds the sources.
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        r = bench("--workload", "steady_lan", cwd=bare, env=env)
        shutil.rmtree(bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
