#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/tests/run_tests.py

Builds the benchmark with its C++ tests (perfbench_test: the tracing
decorator, traced-vs-untraced and 1-vs-4-worker fingerprints), runs
them, then runs every workload at reduced size in both modes and checks
that every metric name the program prints is declared in BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ["kv_ycsb_a", "graph_pagerank", "kv_sharded_churn"]
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)$")


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build = run.build(["-DPERFBENCH_TESTS=ON"], target="all")
        cls.binary = os.path.join(build, "perfbench")
        cls.test_binary = os.path.join(build, "perfbench_test")
        cls.bench = declared()

    def test_cpp_suite(self):
        subprocess.run([self.test_binary], check=True)

    def run_small(self, workload, trace):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "5",
             "--seconds", "0", "--trace", str(trace), "--small"],
            capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        return out.stdout.splitlines()

    def test_printed_names_are_declared(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in self.bench[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines = self.run_small(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], units[name], name)
                    for line in lines[:-1]:
                        match = METRIC_LINE.match(line)
                        if match:
                            self.assertIn(match.group(1), units)
                            self.assertEqual(match.group(3),
                                             units[match.group(1)])

    def test_bad_arguments_exit_nonzero(self):
        for args in (["--workload", "nope", "--trace", "0"],
                     ["--workload", "kv_ycsb_a"],
                     ["--workload", "kv_ycsb_a", "--trace", "2"]):
            out = subprocess.run([self.binary, *args], capture_output=True)
            self.assertEqual(out.returncode, 2, args)


if __name__ == "__main__":
    unittest.main()
