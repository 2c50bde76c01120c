#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/selftest.py

Run from the repository root. Short runs of every workload, untraced and
traced, must print exactly the metrics BENCHMARK.json names for that
mode, with their units; a run against a deliberately corrupted reference
must fail its correctness gate and exit non-zero.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT_SECONDS = "2"


def run_bench(workload, trace, *extra):
    """Runs the benchmark command; returns (exit code, stdout lines)."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "5", "--seconds", SHORT_SECONDS,
        "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


class BenchmarkSelfTest(unittest.TestCase):

    def check_result_line(self, workload, trace):
        code, lines = run_bench(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, metric["name"])
        # The human-readable table names every metric with its unit too.
        table = "\n".join(lines[:-1])
        for metric in declared:
            self.assertRegex(table, rf"(?m)^{re.escape(metric['name'])}\s+"
                                    rf"\S+\s+{re.escape(metric['unit'])}\s")

    def test_every_workload_prints_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_result_line(workload["name"], trace)

    def test_corrupted_reference_fails_the_run(self):
        workload = SPEC["workloads"][0]["name"]
        code, lines = run_bench(workload, 0, "--corrupt-reference")
        self.assertNotEqual(code, 0)
        self.assertIs(json.loads(lines[-1])["correct"], False)
        self.assertTrue(any(line.startswith("MISMATCH:") for line in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
