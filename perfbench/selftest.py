#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs perfbench/run.py at the workloads' own sizes for one second each
(every erosion run also computes its serial reference pair; the whole
self-test takes about a minute on 4 cores) and checks that:
  * every printed metric name and unit matches BENCHMARK.json, untraced and
    traced, and a traced run writes a readable Chrome trace;
  * the correctness oracle fires: a reference drawn from another seed makes
    every operation fail (error_rate 1) and the command exit non-zero;
  * a directory holding only BENCHMARK.json and the benchmark exits
    non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SELFTEST_DIR = ROOT / ".bench_build" / "selftest"


def run(workload, *extra, cwd=ROOT, trace="0", seed="5"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", seed, "--seconds", "1", "--trace", trace, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchmarkSelfTest(unittest.TestCase):
    def assert_result_shape(self, result, section):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, declared(section))
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_metrics_match_and_outputs_are_correct(self):
        for workload in ("erosion_pool4", "erosion_ranks4", "serve_mixed"):
            with self.subTest(workload=workload):
                proc = run(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assert_result_shape(result, "end_to_end")
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertIn("stamp: ", proc.stdout)

    def test_traced_metrics_match_and_trace_is_written(self):
        for workload in ("erosion_ranks4", "serve_mixed"):
            with self.subTest(workload=workload):
                proc = run(workload, trace="1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assert_result_shape(result, "per_layer")
                self.assertTrue(result["correct"])
                trace_file = (ROOT / ".bench_build" / "traces" /
                              f"{workload}-seed5.json")
                trace = json.loads(trace_file.read_text())
                spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                self.assertTrue(spans)
                self.assertTrue(all("parent" in e["args"] for e in spans))
                self.assertIn("compiler", trace["otherData"])

    def test_perturbed_reference_is_caught(self):
        for workload in ("erosion_pool4", "erosion_ranks4", "serve_mixed"):
            with self.subTest(workload=workload):
                proc = run(workload, "--reference-seed", "6")
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(proc)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_without_source_tree_exits_nonzero_without_result(self):
        bare = SELFTEST_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("erosion_pool4", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result_of(proc))
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
