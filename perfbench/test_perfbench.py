#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_perfbench.py

Covers the median/quartile aggregation, failed_frac counting on a seeded
failing solve, the seed argument, the environment refusal, and the
agreement between BENCHMARK.json and the metrics run.py prints.  The tests
that execute perfbench_solve build it first (as run.py does) and use the
tiny-spmd2 self-test workload, so they take seconds.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def run_cli(*args, env=None):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, check=False)


def raw_record(**overrides):
    record = {"workload": "tall-spmd4", "seed": 1, "trace": 0, "attempted": 10,
              "failed": 0, "failures": [], "setup_s": [2.0, 3.0, 2.5],
              "solve_s": [1.0, 1.4, 1.1, 1.2, 5.0], "solve_steal": [0.0] * 5,
              "rel_err": [1e-4, 3e-4],
              "peak_rss_mb": 100.0}
    record.update(overrides)
    return record


class Aggregation(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, 4.0)
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_interquartile_share_of_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / med)

    def test_trimmed_mean_drops_a_tenth_at_each_end(self):
        self.assertEqual(run.trimmed_mean([3.0, 1.0, 2.0]), 2.0)
        values = [1.0] * 8 + [0.1, 50.0]
        self.assertEqual(run.trimmed_mean(values), 1.0)
        self.assertEqual(run.trimmed_mean(values, share=0.0), statistics.fmean(values))

    def test_end_to_end_metrics(self):
        record = raw_record(setup_s=[2.0, 3.0, 2.2],
                            solve_s=[1.0, 1.4, 1.1, 1.2, 1.3, 1.0, 1.4, 1.1, 1.2, 9.0],
                            solve_steal=[0.0] * 10)
        metrics = run.end_to_end_metrics(record)
        self.assertEqual(metrics["setup_s"][0], 2.2)  # median, not mean
        self.assertAlmostEqual(metrics["solve_s"][0], 1.2125)  # 1.0 and 9.0 trimmed
        self.assertAlmostEqual(metrics["rel_err"][0], 2e-4)
        self.assertEqual(metrics["peak_rss_mb"][0], 100.0)

    def test_solves_slowed_by_steal_are_dropped(self):
        solve_s = [1.0, 2.0, 1.2, 1.6, 1.1, 1.9]
        steal = [0.0, 8.0, 0.0, 4.0, 0.0, 6.0]
        self.assertEqual(run.least_stolen(solve_s, steal), [1.0, 1.2, 1.1])
        # Ties at the median rate are kept: with no steal, every sample.
        self.assertEqual(run.least_stolen(solve_s, [0.0] * 6), solve_s)
        metrics = run.end_to_end_metrics(raw_record(solve_s=solve_s, solve_steal=steal))
        self.assertAlmostEqual(metrics["solve_s"][0], 1.1)

    def test_result_record_shape(self):
        lines, result = run.summarize(raw_record())
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for metric, unit in run.END_TO_END.items():
            self.assertEqual(result["metrics"][metric]["unit"], unit)
            self.assertTrue(any(l.startswith("tall-spmd4 %s = " % metric) for l in lines))
        self.assertIn("tall-spmd4 total_s = 4.44 s (setup_s + solve_s)", lines)
        self.assertIn("tall-spmd4 failed_frac = 0 1 (0 failed of 10 attempted)", lines)

    def test_failures_are_counted_against_attempted(self):
        lines, result = run.summarize(raw_record(failed=2, failures=["a", "b"]))
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (10, 2))
        self.assertIn("tall-spmd4 failed_frac = 0.2 1 (2 failed of 10 attempted)", lines)

    def test_traced_record_checks_phase_additivity(self):
        layers = {name: 0.0 for name in run.PER_LAYER}
        layers.update({"core.traced_solve_s": 1.0, "core.phase.gram_s": 0.6,
                       "core.phase.sampling_s": 0.3, "core.solve_unattributed_s": 0.1})
        record = raw_record(trace=1, layers=layers)
        self.assertTrue(run.summarize(record)[1]["correct"])
        layers["core.solve_unattributed_s"] = 0.2
        _, result = run.summarize(record)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))

    def test_benchmark_json_names_every_metric(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)


class Cli(unittest.TestCase):
    def test_seed_argument_sets_the_inputs(self):
        def inputs(seed):
            proc = run_cli("--workload", "tiny-spmd2", "--seed", str(seed),
                           "--seconds", "1", "--inputs-only")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return json.loads(proc.stdout.strip().splitlines()[-1])

        def rel_err(seed):
            proc = run_cli("--workload", "tiny-spmd2", "--seed", str(seed),
                           "--seconds", "0.2")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["rel_err"]["value"]

        self.assertEqual(inputs(3), inputs(3))
        # The seed picks the sampling streams; the dataset is the workload's.
        self.assertNotEqual(inputs(3)["solver_seeds"], inputs(4)["solver_seeds"])
        self.assertEqual(inputs(3)["fingerprint"], inputs(4)["fingerprint"])
        self.assertEqual(rel_err(3), rel_err(3))
        self.assertNotEqual(rel_err(3), rel_err(4))

    def test_seeded_failing_solve_counts_in_failed_frac(self):
        proc = run_cli("--workload", "tiny-spmd2", "--seed", "1", "--seconds", "0.2",
                       "--trace", "0", "--inject-failure")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)
        self.assertIn("failed_frac = %.6g 1" % (1 / result["attempted"]), proc.stdout)
        self.assertIn("injected abort", proc.stdout)

    def test_clean_run_passes_every_gate(self):
        for trace in ("0", "1"):
            proc = run_cli("--workload", "tiny-spmd2", "--seed", "2", "--seconds", "0.2",
                           "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        # tiny-spmd2 runs W=1, where the pooled Gram takes the sequential
        # path: the paired ratio must read about 1, whichever side ran first.
        speedup = result["metrics"]["exec.gram_pool_speedup"]["value"]
        self.assertGreater(speedup, 0.8)
        self.assertLess(speedup, 1.25)

    def test_perturbing_environment_is_refused(self):
        env = dict(os.environ, RCF_THREADS="2")
        proc = run_cli("--workload", "tiny-spmd2", "--seed", "1", "--seconds", "0.2",
                       env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("RCF_THREADS", proc.stderr)


if __name__ == "__main__":
    unittest.main()
