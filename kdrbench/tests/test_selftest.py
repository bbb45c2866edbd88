#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from anywhere:  python3 kdrbench/tests/test_selftest.py

Builds the driver through run.py, then checks, for every workload:
  * every metric BENCHMARK.json names is emitted, with its unit;
  * critical-path categories sum to each profiled window's total;
  * virtual metrics are bitwise identical across two runs with the same
    seed, and between the profiled and unprofiled runs;
  * the profiler dropped no events;
and that unknown flags and workload names are rejected.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BINARY = REPO / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "kdrbench"


def run_py(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, cwd=REPO)


def driver(workload, seed, trace):
    """The driver's full JSON (every metric, solves, critical-path windows)."""
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def virtual(result):
    """Every virtual-clock number of a run: metrics and per-solve values."""
    metrics = {k: v["value"] for k, v in result["metrics"].items()
               if v["clock"] == "virtual" and not k.startswith("cp_")
               and k not in ("petsc_us_per_it", "trilinos_us_per_it",
                             "speedup_vs_petsc", "speedup_vs_trilinos")}
    return metrics, result["solves"]


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the driver and checks the contract line of every workload.
        cls.lines = {}
        for trace in ("0", "1"):
            proc = run_py("--workload", "all", "--seed", "7", "--seconds", "1",
                          "--trace", trace, "--tiny")
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr)
            cls.lines[trace] = json.loads(proc.stdout.splitlines()[-1])
        cls.runs = {}
        for w in WORKLOADS:
            cls.runs[w] = [driver(w, 7, 0), driver(w, 7, 0), driver(w, 7, 1)]

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            line = self.lines[trace]
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            for w in WORKLOADS:
                for m in SPEC[group]:
                    got = line["metrics"][f"{w}/{m['name']}"]
                    self.assertEqual(got["unit"], m["unit"], (w, m["name"]))
                    self.assertIsInstance(got["value"], (int, float))

    def test_critical_path_sums_to_total(self):
        for w in WORKLOADS:
            windows = self.runs[w][2]["cp_windows"]
            self.assertTrue(windows, w)
            for win in windows:
                self.assertAlmostEqual(win["cp_sum_s"], win["cp_total_s"], delta=1e-9)
                self.assertAlmostEqual(win["cp_total_s"], win["virtual_s"], delta=1e-9)

    def test_virtual_numbers_repeat_bitwise(self):
        for w in WORKLOADS:
            first, second, profiled = self.runs[w]
            self.assertEqual(virtual(first), virtual(second), w)
            # The profiled run's unprofiled pass gives the same numbers, and
            # its internal profiled-vs-unprofiled comparison found no change.
            self.assertEqual(virtual(first), virtual(profiled), w)
            self.assertEqual(profiled["failed"], 0, w)

    def test_seed_changes_inputs(self):
        for w in WORKLOADS:
            other = driver(w, 8, 0)
            self.assertNotEqual(virtual(self.runs[w][0])[1], virtual(other)[1], w)

    def test_profiler_drops_no_events(self):
        for w in WORKLOADS:
            self.assertEqual(self.runs[w][2]["metrics"]["events_dropped"]["value"], 0, w)

    def test_rejects_unknown_flags_and_workloads(self):
        base = ["--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"]
        self.assertNotEqual(run_py("--workload", "fig8", *base).returncode, 0)
        self.assertNotEqual(run_py("--workload", "fig8_16n", "--sed", "1", "--seconds", "1",
                                   "--trace", "0").returncode, 0)
        self.assertNotEqual(run_py("--workload", "fig8_16n", "--trace", "2", "--seed", "1",
                                   "--seconds", "1").returncode, 0)
        for bad in (["--workload", "nope"], ["--workload", "fig8_16n", "--bogus", "1"]):
            proc = subprocess.run([str(BINARY), *bad, "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, bad)
            self.assertEqual(proc.stdout, "", bad)


if __name__ == "__main__":
    unittest.main()
