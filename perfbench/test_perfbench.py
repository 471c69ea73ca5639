"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Pure arithmetic (statistics, the null-ratio rule, the pair rule, closure)
runs instantly; LedgerSelfTest builds the ledger binary through run.py and
checks that a deliberately wrong reference counts as a failed fit.
"""

import contextlib
import io
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SampleStatistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(stats.median(values), 4.0)
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_sample_has_zero_spread(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(stats.iqr_share([2.5]), 0.0)

    def test_iqr_share_is_spread_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values), (q3 - q1) / q2)

    def test_iqr_share_of_zero_median_is_null(self):
        self.assertIsNone(stats.iqr_share([0.0, 0.0, 0.0]))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(5))))
        self.assertIsNone(stats.tail_percentile(list(range(19))))
        self.assertEqual(stats.tail_percentile(list(range(1, 21))), (50, 10))
        self.assertEqual(stats.tail_percentile(list(range(1, 101))), (90, 90))
        self.assertEqual(stats.tail_percentile(list(range(1, 1001))),
                         (99, 990))


class NullRatios(unittest.TestCase):
    def test_undefined_ratios_are_none(self):
        self.assertIsNone(stats.ratio(1.0, 0))
        self.assertIsNone(stats.ratio(0.0, 0.0))
        self.assertIsNone(stats.ratio(None, 1.0))
        self.assertIsNone(stats.ratio(1.0, None))
        self.assertIsNone(stats.ratio(math.nan, 1.0))
        self.assertIsNone(stats.ratio(1.0, math.inf))

    def test_defined_ratio(self):
        self.assertEqual(stats.ratio(3.0, 4.0), 0.75)
        self.assertEqual(stats.ratio(0.0, 4.0), 0.0)

    def test_null_prints_as_null_never_zero(self):
        self.assertEqual(stats.fmt(stats.ratio(0.0, 0.0), "x"), "null")
        self.assertEqual(stats.fmt(2.0, "s"), "2 s")
        self.assertEqual(stats.fmt(7, "count"), "7 count")


class Closure(unittest.TestCase):
    SPANS = [
        # iteration, rank, name, seconds
        [0, 0, "assign", 1.0], [0, 0, "update", 0.2],
        [0, 1, "assign", 1.5], [0, 1, "update", 0.1],
        [1, 0, "assign", 2.0], [1, 0, "update", 0.3],
        [1, 1, "assign", 1.0], [1, 1, "update", 0.3],
    ]

    def test_gating_rank_is_slowest_per_iteration(self):
        g = stats.gating_spans(self.SPANS)
        # iteration 0: rank 1 (1.6 s) gates; iteration 1: rank 0 (2.3 s).
        self.assertEqual(g["iterations"], 2)
        self.assertAlmostEqual(g["assign_s"], (1.5 + 2.0) / 2)
        self.assertAlmostEqual(g["update_s"], (0.1 + 0.3) / 2)
        self.assertAlmostEqual(g["span_total_s"], 1.6 + 2.3)

    def test_update_imbalance_is_max_over_mean(self):
        g = stats.gating_spans(self.SPANS)
        self.assertAlmostEqual(g["update_imbalance"], 0.5 / 0.45)

    def test_no_spans_gives_nulls(self):
        g = stats.gating_spans([])
        self.assertIsNone(g["assign_s"])
        self.assertIsNone(g["update_imbalance"])

    def test_unattributed_share(self):
        self.assertAlmostEqual(stats.unattributed_share(10.0, 0.5, 9.0), 0.05)
        self.assertAlmostEqual(stats.unattributed_share(10.0, 0.5, 9.7), -0.02)
        self.assertIsNone(stats.unattributed_share(0.0, 0.0, 0.0))
        self.assertIsNone(stats.unattributed_share(None, 0.1, 1.0))


class PairRule(unittest.TestCase):
    PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        change = [p - 1.0 for p in self.PARENT]
        change[3] = 11.0  # one loss still leaves 9/10
        rule = stats.pair_rule(self.PARENT, change)
        self.assertEqual((rule["wins"], rule["pairs"]), (9, 10))
        self.assertTrue(rule["gain"])

    def test_eight_wins_is_not_a_gain(self):
        change = [p - 1.0 for p in self.PARENT]
        change[3] = change[4] = 11.0
        self.assertFalse(stats.pair_rule(self.PARENT, change)["gain"])

    def test_ties_count_for_neither_side(self):
        change = list(self.PARENT)
        rule = stats.pair_rule(self.PARENT, change)
        self.assertEqual(rule["wins"], 0)
        self.assertFalse(rule["gain"])

    def test_fewer_than_ten_pairs_is_not_a_gain(self):
        parent = self.PARENT[:9]
        change = [p - 1.0 for p in parent]
        self.assertFalse(stats.pair_rule(parent, change)["gain"])

    def test_gap_within_parent_iqr_is_not_a_gain(self):
        change = [p - 0.01 for p in self.PARENT]
        rule = stats.pair_rule(self.PARENT, change)
        self.assertEqual(rule["wins"], 10)
        self.assertFalse(rule["gain"])

    def test_higher_is_better_direction(self):
        change = [p + 1.0 for p in self.PARENT]
        self.assertTrue(stats.pair_rule(self.PARENT, change, "higher")["gain"])
        self.assertFalse(stats.pair_rule(self.PARENT, change, "lower")["gain"])

    def test_verdicts(self):
        slower = [p * 1.3 for p in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, slower, 0.1), "regression")
        same = [p * 1.01 for p in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, same, 0.1), "ok")
        faster = [p - 1.0 for p in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, faster, 0.1), "improved")
        noisy = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
        self.assertEqual(stats.verdict(noisy, [2.1] * 10, 0.1), "unresolved")


def fake_raw_e2e():
    return {
        "workload": "w", "seed": 1, "ranks": 4,
        "setup_s": [0.1, 0.3, 0.2], "solve_s": [2.0, 2.2, 2.1],
        "iterations": 10, "model": {"total_s": 0.5},
        "peak_rss_mib": 12.5, "attempted": 4, "failed": 0,
    }


def fake_raw_trace():
    model = {f: 1.0 for f in stats.MODEL_FIELDS}
    model["total_s"] = 6.0
    return {
        "workload": "w", "seed": 1, "ranks": 4, "setup_s": [0.5],
        "iterations": 2, "recovery_legs": 2,
        "lloyd_serial_s": 3.0, "untraced_s": 9.5, "traced_s": 10.0,
        "recovery_fit_s": 11.0, "plain_fit_s": 10.0, "stall_s": 4.0,
        "model": model,
        "gate": {"prune_rate": 0.5, "distance_evals": 100,
                 "lloyd_equivalent": 200},
        "spans": Closure.SPANS,
        "kernel": {"tile": 256, "k_slice": 64, "d": 8,
                   "gemm_tile_s": [1e-4], "chain_tile_s": [2e-4],
                   "gate_tile_s": [1e-6]},
        "plan_s": [1e-6], "init_s": [1e-5], "checkpoint_save_s": [1e-3],
        "checkpoint_load_s": [1e-3], "checkpoint_bytes": 1000,
        "spawn_s": [1e-4], "allreduce_minloc_s": [1e-4],
        "reduce_and_update_s": [1e-4], "fma_gflops": [30.0],
        "stream_gbs": [15.0], "stream_array_bytes": 4 << 20,
        "llc_bytes": 1 << 20, "attempted": 4, "failed": 0,
    }


class MetricAssembly(unittest.TestCase):
    def test_end_to_end_arithmetic(self):
        m = stats.end_to_end(fake_raw_e2e())
        self.assertEqual(m["solve_s"], 2.1)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["iter_s"], (2.1 - 0.2) / 10)
        self.assertAlmostEqual(m["modeled_iter_s"], 0.05)

    def test_per_layer_arithmetic(self):
        m = stats.per_layer(fake_raw_trace())
        flops, nbytes = stats.gemm_traffic(256, 64, 8)
        self.assertEqual(flops, 2 * 256 * 64 * 8)
        self.assertAlmostEqual(m["kernel.gemm.flops_per_byte"], flops / nbytes)
        self.assertAlmostEqual(m["kernel.gemm.gflops"], flops / 1e-4 / 1e9)
        bound = min(30.0, 15.0 * flops / nbytes)
        self.assertAlmostEqual(m["kernel.gemm.roofline_frac"],
                               m["kernel.gemm.gflops"] / bound)
        chain_flops, chain_bytes = stats.chain_traffic(256, 64, 8)
        self.assertEqual(chain_flops, 3 * 256 * 64 * 8)
        self.assertAlmostEqual(m["kernel.chain.gflops"],
                               chain_flops / 2e-4 / 1e9)
        self.assertAlmostEqual(m["kernel.chain.flops_per_byte"],
                               chain_flops / chain_bytes)
        self.assertAlmostEqual(m["closure.unattributed_share"],
                               (10.0 - 0.5 - 3.9) / 10.0)
        self.assertAlmostEqual(m["recovery.leg_overhead_s"], 0.5)
        self.assertAlmostEqual(m["swmpi.stall_share"], 4.0 / 40.0)
        self.assertAlmostEqual(m["telemetry.overhead_share"], 10.0 / 9.5 - 1)
        self.assertEqual(m["model.flops"], 0.5)
        self.assertEqual(m["host.stream_array_mib"], 4.0)

    def test_metric_sets_match_benchmark_json(self):
        self.assertEqual(set(stats.end_to_end(fake_raw_e2e())),
                         {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(set(stats.per_layer(fake_raw_trace())),
                         {m["name"] for m in SPEC["per_layer"]})

    def test_failed_fit_gives_incorrect_result_and_nonzero_exit(self):
        raw = fake_raw_e2e()
        raw["failed"] = 1
        out = io.StringIO()
        with mock.patch.object(run, "build", return_value=Path("ledger")), \
                mock.patch.object(run, "run_ledger", return_value=raw), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", SPEC["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))


class BenchmarkSpec(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertRegex(m["unit"], self.UNIT)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], self.UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


@unittest.skipUnless(shutil.which("cmake"), "cmake is not installed")
class LedgerSelfTest(unittest.TestCase):
    def test_wrong_reference_counts_as_failed_fit(self):
        exe = run.build()
        proc = subprocess.run([str(exe), "--selftest", "--scratch",
                               str(run.BUILD_DIR / "scratch")], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=120, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(result["good_failed"], 0)
        self.assertEqual(result["wrong_centroid_failed"], 1)
        self.assertEqual(result["wrong_label_failed"], 1)
        self.assertEqual(result["throwing_failed"], 1)
        self.assertEqual(result["recovery_legs"], 4)
        self.assertEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
