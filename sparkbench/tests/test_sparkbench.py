"""Self-test of the Spark end-to-end benchmark, on tiny inputs.

    python3 -m unittest discover -s sparkbench/tests -v     # from the repo root

Checks that every workload prints every metric BENCHMARK.json declares,
with its unit, in both modes; that a perturbed result row is counted as a
failure; and that the engine counters repeat exactly across runs.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().parents[1] / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0, perturb=0, seed=None):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", "--perturb", str(perturb)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def assertMetrics(self, res, declared):
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for k, v in res["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = run(w["name"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertMetrics(res, SPEC["end_to_end"])
                traced = run(w["name"], trace=1)
                self.assertTrue(traced["correct"])
                self.assertMetrics(traced, SPEC["per_layer"])
                self.assertEqual(traced["metrics"]["check.failed"]["value"], 0)

    def test_perturbed_row_is_counted_as_failed(self):
        for w in ("stock-batch", "rideshare-stream"):
            with self.subTest(workload=w):
                res = run(w, perturb=1)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)

    def test_engine_counters_repeat_across_runs(self):
        def counts(res):
            return {k: v["value"] for k, v in res["metrics"].items()
                    if k.startswith("hamlet.") and v["unit"] in ("count", "bytes")}
        a, b = run("stock-batch", trace=1, seed=3), run("stock-batch", trace=1, seed=3)
        self.assertTrue(counts(a))
        self.assertEqual(counts(a), counts(b))


if __name__ == "__main__":
    unittest.main()
