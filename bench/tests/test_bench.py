"""Tests of the benchmark runner itself (stdlib unittest).

    python3 -m unittest discover -s bench/tests -v

They run the runner for a fraction of a second per workload, so they
take about a minute, most of it in the per-layer probes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# ROADMAP item 3: the quadrature of this config divides by zero.
ITEM3_POINT = ("fixed", 97.0, 5.1, 1.0, 1718.0, 0.1, 0.1, 0.1)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170,
                          check=False)


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(cls(7).inputs, cls(7).inputs)
                self.assertNotEqual(cls(7).inputs, cls(8).inputs)

    def test_oracle_timed_inputs_are_design_region_only(self):
        wl = workloads.OracleCheck(3)
        self.assertEqual({cfg[0] for cfg in wl.inputs}, {"design"})
        self.assertEqual(len(wl.inputs), wl.n_design)

    def test_oracle_off_region_holds_the_fixed_points(self):
        off_region = workloads.OracleCheck(3).off_region
        for point in workloads.ORACLE_FIXED:
            self.assertIn(point, off_region)
        regions = [cfg[0] for cfg in off_region]
        self.assertEqual(regions.count("wide"), workloads.OracleCheck.n_wide)


class FailureAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.api = run.load_spdcfc()

    def test_item3_point_counts_as_raw_exception_and_pass_completes(self):
        wl = workloads.OracleCheck(1)
        wl.off_region = [ITEM3_POINT, wl.inputs[0]]
        wl.prepare(self.api, ROOT)
        outcomes = wl.off_region_pass()
        self.assertEqual(len(outcomes), 2)
        first, second = outcomes
        self.assertEqual(first.failure, "raw_exception")
        self.assertEqual(first.error_type, "ZeroDivisionError")
        self.assertIsNone(second.failure)
        failed, by_type, _ = run.summarize(outcomes)
        self.assertEqual(failed, 1)
        self.assertEqual(by_type["raw_exception:ZeroDivisionError"], 1)

    def test_design_region_ops_do_not_fail(self):
        wl = workloads.OracleCheck(2)
        wl.prepare(self.api, ROOT)
        outcomes = run.measure(wl, 0.5).outcomes
        self.assertGreaterEqual(len(outcomes), 1)
        self.assertEqual(run.summarize(outcomes)[0], 0)


class SpeedScaling(unittest.TestCase):
    def test_scaled_times_are_measured_times_times_the_factor(self):
        measured = run.Measured(
            outcomes=[workloads.Outcome("check", 2.0),
                      workloads.Outcome("check", 4.0)],
            factors=[0.5, 2.0], n_inputs=1, elapsed=1.0,
            reference=speed.Reference("unit", 1.0, lambda: 1.0, 0.0),
            reference_ms=[1.0])
        self.assertEqual(measured.op_times(scaled=False), {0: [2.0, 4.0]})
        self.assertEqual(measured.op_times(), {0: [1.0, 8.0]})
        self.assertEqual(measured.input_times(), [4.5])


class EmittedMetrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.doc = doc
        cls.declared = {
            0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
            1: {m["name"]: m["unit"] for m in doc["per_layer"]},
        }

    def test_runner_tables_match_benchmark_json(self):
        self.assertEqual(run.END_TO_END, self.declared[0])
        self.assertEqual(run.PER_LAYER, self.declared[1])
        self.assertEqual([w["name"] for w in self.doc["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_emitted_metric_is_declared(self):
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    proc = run_bench("--workload", name, "--seed", "5",
                                     "--seconds", "0.5", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, self.declared[trace])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package(self):
        scratch = BENCH_DIR / "out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "design_scan", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
