#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at its smoke size (a few seconds each, untraced and
traced) through run.py, so the correctness gates, the span accounting and
the result format are exercised without the full load. The first test
builds the benchmark under .bench_build/ if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, env=None, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    return proc


def expected(trace):
    """Metric names every workload must report in this mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec()[key]}


class WorkloadSmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        self.assertGreaterEqual(len(lines), 3)
        host = json.loads(lines[0])["host"]
        for key in ("cpu", "nproc", "simd_backend", "compiler", "build_type",
                    "pool_threads", "seed", "unseen_seed"):
            self.assertIn(key, host)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], lines[-2])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), expected(trace))
        units = {m["name"]: m["unit"]
                 for m in spec()["end_to_end"] + spec()["per_layer"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_fit_walk8d(self):
        self.check("fit_walk8d", 0)
        self.check("fit_walk8d", 1)

    def test_fit_blobs2d_noisy(self):
        self.check("fit_blobs2d_noisy", 0)
        self.check("fit_blobs2d_noisy", 1)

    def test_serve_point_json(self):
        self.check("serve_point_json", 0)
        self.check("serve_point_json", 1)

    def test_serve_batch_refresh(self):
        self.check("serve_batch_refresh", 0)
        self.check("serve_batch_refresh", 1)


class EnvironmentTest(unittest.TestCase):
    def test_refuses_armed_failpoints(self):
        env = dict(os.environ, DBSVEC_FAILPOINTS="index.build=error")
        proc = run("fit_walk8d", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = run("fit_walk8d", 0, env=env, cwd=tmp,
                       script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
