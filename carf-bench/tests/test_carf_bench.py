#!/usr/bin/env python3
"""Self-check of carf-bench on a tiny instruction budget.

    python3 carf-bench/tests/test_carf_bench.py

Runs every workload named in BENCHMARK.json untraced and traced and
asserts that each end-to-end and per-layer metric is printed with its
declared unit, that no operation failed, that the model counts agree
between the untraced and the traced run, that a deliberately corrupted
result is counted as failed, and that the benchmark refuses to run
without the simulator sources.
"""

import json
import os
import shutil
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "carf-bench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "selfcheck")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

TINY = ["--seconds", "0.2", "--scale", "0.02"]


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        ["python3", RUN, "--workload", workload, "--seed", "7",
         "--trace", str(trace), *TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


class CarfBench(unittest.TestCase):
    def result(self, lines):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        return result

    def check_metrics(self, result, declared):
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"],
                             m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                proc, lines = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = self.result(lines)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)  # failed_frac == 0
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertNotEqual(result["metrics"][m["name"]]["value"],
                                        0, m["name"])
                report = json.loads(lines[-2])["carf_bench"]
                self.assertEqual(report["seed"], 7)

                proc, traced_lines = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                traced = self.result(traced_lines)
                self.assertEqual(traced["failed"], 0)
                self.check_metrics(traced, SPEC["per_layer"])
                # Model counts are identical with and without tracing.
                for name, metric in report["model"].items():
                    self.assertEqual(traced["metrics"][name]["value"],
                                     metric["value"], name)

    def test_corrupted_result_is_counted_as_failed(self):
        proc, lines = run("solo-int", 0, "--corrupt", "1")
        self.assertNotEqual(proc.returncode, 0)
        result = self.result(lines)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_sources(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(SCRATCH, path))
        try:
            proc = subprocess.run(
                ["python3", os.path.join(SCRATCH, "carf-bench", "run.py"),
                 "--workload", "solo-int", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=SCRATCH, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
