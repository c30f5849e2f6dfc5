#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke compositions.

    python3 perfbench/test_perfbench.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, that the output checks pass, that a deliberately corrupted answer
is counted as a failed operation, and that the benchmark refuses to run
without the sources it builds.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload, *extra, trace=0):
    p = bench("--workload", workload, "--seed", "1", "--seconds", "1",
              "--trace", str(trace), "--smoke", *extra)
    if p.returncode != 0:
        raise AssertionError(f"{workload}: exit {p.returncode}\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def assert_metrics(self, res, declared):
        self.assertEqual(set(res),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_declared_metrics_match_the_runner(self):
        self.assertEqual([m["name"] for m in BENCH["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in BENCH["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(run.WORKLOADS))

    def test_every_workload_emits_every_metric_and_passes_its_checks(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                res = result(w)
                self.assert_metrics(res, BENCH["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_runs_emit_every_layer_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                res = result(w, trace=1)
                self.assert_metrics(res, BENCH["per_layer"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                layers = {k: v["value"] for k, v in res["metrics"].items()}
                grid = w != "query_mix"
                busy, idle = (("campaign.rows", "store.ingest_rows")
                              if grid else
                              ("store.ingest_rows", "campaign.rows"))
                self.assertGreater(layers[busy], 0)
                self.assertEqual(layers[idle], 0)
                self.assertEqual(layers["query.rows_parsed"] > 0, not grid)
                self.assertEqual(layers["pool.campaign_2t_s"] > 0, grid)

    def test_a_corrupted_answer_counts_as_failed(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                res = result(w, "--inject-fault")
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)

    def test_refuses_to_run_without_the_sources(self):
        bare = run.build_dir() / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        try:
            p = bench("--workload", "paper_grid", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=bare,
                      script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
