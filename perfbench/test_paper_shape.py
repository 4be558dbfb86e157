#!/usr/bin/env python3
"""Paper-shape self-checks on the benchmark's own numbers.

    python3 perfbench/test_paper_shape.py

Runs one --trace 1 iteration of every workload through run.py (each run
also checks its outputs and that the layer pass reproduces the job's
intermediate bytes) and asserts the directions the paper reports.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def layer_metrics(workload, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload} run failed:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


class PaperShapeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.m = {w: layer_metrics(w) for w in
                 ("walk_xform", "grid_random_xform", "median_simple_null", "median_agg_null")}

    def test_walk_shrinks_below_one_percent_of_raw(self):
        walk = self.m["walk_xform"]
        raw = walk["scikey.key_bytes"] + walk["scikey.value_bytes"]
        self.assertLess(walk["hadoop.segment_bytes"], 0.01 * raw)

    def test_aggregate_keys_halve_intermediate_bytes(self):
        self.assertLess(self.m["median_agg_null"]["hadoop.segment_bytes"],
                        0.5 * self.m["median_simple_null"]["hadoop.segment_bytes"])

    def test_transform_predicts_walk_better_than_random_grid(self):
        self.assertGreater(self.m["walk_xform"]["transform.predicted_frac"],
                           self.m["grid_random_xform"]["transform.predicted_frac"])


if __name__ == "__main__":
    unittest.main()
