"""The benchmark's own tests: smoke sizes of every workload, one negative
case per output oracle, and runs on a second seed.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout; the first test builds the program.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Each oracle a workload checks, by the name --flip corrupts.
ORACLES = {
    "batch_srel": ["repeat"],
    "replay_shard4": ["batch", "restart"],
    "serve_ingest": ["truth", "answers"],
    "serve_mixed": ["truth", "answers"],
}


def run(workload, seed=1, trace=0, flip=""):
    args = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    if flip:
        args += ["--flip", flip]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(args), proc.returncode, proc.stderr[-3000:]))
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])
    return result, details


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result.keys()),
                         {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)

    def test_end_to_end_metrics_and_oracles(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, details = run(workload)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"], details)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                shape = details["machine_shape"]
                self.assertEqual(shape["build_type"], "Release")
                for key in ("nproc", "cpu_model", "compiler", "kernel"):
                    self.assertIn(key, shape)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, details = run(workload, trace=1)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"], details)

    def test_second_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, details = run(workload, seed=2)
                self.assertTrue(result["correct"], details)
                self.assertEqual(result["failed"], 0)


class OracleTest(unittest.TestCase):
    def test_one_flipped_label_fails_each_oracle(self):
        for workload, oracles in ORACLES.items():
            for oracle in oracles:
                with self.subTest(workload=workload, oracle=oracle):
                    result, details = run(workload, flip=oracle)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertTrue(details["details"]["oracle_failures"])


if __name__ == "__main__":
    unittest.main()
