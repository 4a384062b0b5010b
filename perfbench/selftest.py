#!/usr/bin/env python3
"""Self-test of the wire-to-store benchmark.

Runs a smoke size of every workload (the scored ones in BENCHMARK.json and
the non-scored tenant-mix) through run.py, untraced and traced, and checks
that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics;
  * every end-to-end (trace 0) or per-layer (trace 1) metric named in
    BENCHMARK.json is printed with its unit, and nothing else;
  * the oracle passes and nothing failed;
  * a deliberately perturbed read-back (--perturb) is reported as
    correct: false;
  * bad arguments exit non-zero without printing a result.

Usage, from the repository root:  python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# tenant-mix is not scored (perfbench/README.md, "Workloads") but is still
# built, traced and checked.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["tenant-mix"]


def run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr[-2000:]}"
    return json.loads(lines[-1])


def smoke(workload, trace, *extra):
    return run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke", *extra)


class BenchmarkSelfTest(unittest.TestCase):
    def check_result(self, proc, metric_specs):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stdout[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in metric_specs}
        printed = result["metrics"]
        self.assertEqual(set(printed), set(expected))
        for name, unit in expected.items():
            self.assertEqual(printed[name]["unit"], unit, name)
            self.assertIsInstance(printed[name]["value"], (int, float), name)

    def test_end_to_end_metrics_and_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(smoke(workload, 0),
                                  SPEC["end_to_end"])

    def test_per_layer_metrics_and_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(smoke(workload, 1),
                                  SPEC["per_layer"])

    def test_perturbed_readback_is_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = smoke(workload, 0, "--perturb")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertIs(result_of(proc)["correct"], False)
                self.assertIn("oracle mismatch", proc.stdout)

    def test_bad_arguments_print_no_result(self):
        proc = run("--workload", "no-such-workload", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
