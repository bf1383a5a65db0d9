#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload in BENCHMARK.json, runs
`run.py --smoke` untraced and traced, and checks that the result line
names exactly the catalogued metrics with their units, that the
human-readable lines print every one of them with its unit, and that every
output check passed. Also checks that README.md documents every metric.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0, done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        catalogue = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in catalogue})
        human = lines[:-1]
        for m in catalogue:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            printed = [l.split() for l in human if l.split()[:1] == [m["name"]]]
            self.assertTrue(printed, f"{m['name']} not printed")
            self.assertEqual(printed[0][2], m["unit"], m["name"])
        for m in BENCH["end_to_end"]:
            if not trace:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_workloads(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_readme_documents_every_metric(self):
        with open(os.path.join(HERE, "README.md")) as f:
            readme = f.read()
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertIn(f"`{m['name']}`", readme)


if __name__ == "__main__":
    sys.exit(unittest.main())
