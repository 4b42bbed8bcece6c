"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test builds the perfbench binary (first time only) and makes a
short run of every workload in both modes.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class RatioTest(unittest.TestCase):
    def test_plain(self):
        self.assertEqual(run.ratio(1, 4), 0.25)

    def test_nothing_attempted_is_zero(self):
        self.assertEqual(run.ratio(0, 0), 0.0)

    def test_failures_without_attempts_are_an_error(self):
        with self.assertRaises(ValueError):
            run.ratio(3, 0)


class TailPercentileTest(unittest.TestCase):
    def test_p99_with_exactly_ten_samples_beyond(self):
        values = list(range(1, 1001))
        percentile, value = run.tail_percentile(values)
        self.assertEqual(percentile, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_p99_withheld_below_a_thousand_samples(self):
        values = list(range(1, 1000))
        percentile, value = run.tail_percentile(values)
        self.assertLess(percentile, 99.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_small_sample_falls_back(self):
        values = [float(v) for v in range(100, 0, -1)]  # order must not matter
        percentile, value = run.tail_percentile(values)
        self.assertAlmostEqual(percentile, 90.0)
        self.assertEqual(value, 90.0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail_percentile(list(range(19)))
        self.assertEqual(run.tail_percentile(list(range(20)))[0], 50.0)


class NamesTest(unittest.TestCase):
    def test_declared_names_are_valid(self):
        run.check_names([n for n, _, _ in run.END_TO_END + run.PER_LAYER])

    def test_bad_names(self):
        for bad in ["", "_lead", ".lead", "has space", "slash/", "x" * 65,
                    "colon:"]:
            with self.assertRaises(ValueError, msg=bad):
                run.check_names([bad])
        with self.assertRaises(ValueError):
            run.check_names(["a", "a"])

    def test_benchmark_json_matches_the_declared_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         run.WORKLOADS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            run.PER_LAYER)


class ShortRunTest(unittest.TestCase):
    """Every workload, both modes, emits every named metric."""

    def run_once(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", "5", "--seconds", "1",
             "--trace", str(trace)],
            cwd=run.ROOT, stdout=subprocess.PIPE, check=True, timeout=900)
        return json.loads(done.stdout.decode().splitlines()[-1])

    def test_short_runs(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_once(workload, trace)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: u for n, u, _ in declared},
                        {n: m["unit"] for n, m in result["metrics"].items()})
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)


if __name__ == "__main__":
    unittest.main()
