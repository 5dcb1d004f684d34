#!/usr/bin/env python3
"""Smoke tests of the advisor benchmark: every workload at a tiny size,
untraced and traced, reports exactly the metrics BENCHMARK.json declares with
no failed op; a deliberately corrupted layout or cost is counted as a failed
op instead of passing silently.

    python3 advbench/smoke_test.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def invoke(*args):
    proc = subprocess.run([BINARY, "--seed", "3", "--seconds", "0.2", "--tiny",
                           *args], stdout=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stdout


def result(*args):
    code, out = invoke(*args)
    if code != 0:
        raise AssertionError(f"exit {code}:\n{out}")
    return json.loads(out.strip().splitlines()[-1])


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_reports_its_declared_metrics(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = result("--workload", workload, "--trace", str(trace))
                    self.assertTrue(r["correct"], r)
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(set(r["metrics"]), declared(kind))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                r = result("--workload", workload, "--trace", "0")
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_bad_arguments_exit_2(self):
        self.assertEqual(invoke("--workload", "nope", "--trace", "0")[0], 2)
        self.assertEqual(invoke("--workload", "apb800-m32")[0], 2)


class InjectedFaults(unittest.TestCase):
    def assert_counted(self, workload, fault):
        r = result("--workload", workload, "--trace", "0", "--inject-fault", fault)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)

    def test_corrupted_layout_is_a_failed_op(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_counted(workload, "layout")

    def test_corrupted_cost_is_a_failed_op(self):
        for workload in ("apb800-m32", "sales45-m32"):
            with self.subTest(workload=workload):
                self.assert_counted(workload, "cost")


if __name__ == "__main__":
    unittest.main()
