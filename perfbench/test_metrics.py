"""Self-tests for the benchmark's metric arithmetic, on synthetic inputs.

Run from the checkout root with either of

    python3 perfbench/test_metrics.py
    python3 -m pytest -q perfbench/test_metrics.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import (  # noqa: E402
    covered_length, interquartile_mean, median, nearest_rank, self_times, share, tail_latency, tail_percentile,
)
from reference import REFERENCE_S, probe, speed_factors  # noqa: E402
from tracing import layer_metrics  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_ten_beyond_picks_the_highest_rung(self):
        # 100 samples: p90 leaves exactly 10 above its rank, p95 only 5
        self.assertEqual(tail_percentile(100), (90.0, 10))
        # 216 samples: p95 sits at rank 206, leaving 10
        self.assertEqual(tail_percentile(216), (95.0, 10))
        self.assertEqual(tail_percentile(1000), (99.0, 10))
        self.assertEqual(tail_percentile(20), (50.0, 10))

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(tail_percentile(19), (None, 0))
        values = [5.0, 1.0, 3.0]
        self.assertEqual(tail_latency(values), (5.0, 100.0, 0))

    def test_tail_value_has_ten_samples_above_it(self):
        values = [float(v) for v in range(1, 101)]
        value, p, beyond = tail_latency(list(reversed(values)))
        self.assertEqual((value, p, beyond), (90.0, 90.0, 10))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_nearest_rank(self):
        s = [10.0, 20.0, 30.0, 40.0]
        self.assertEqual(nearest_rank(s, 50), 20.0)
        self.assertEqual(nearest_rank(s, 75), 30.0)
        self.assertEqual(nearest_rank(s, 100), 40.0)
        self.assertEqual(nearest_rank(s, 1), 10.0)

    def test_median(self):
        self.assertEqual(median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_interquartile_mean(self):
        # 7 samples: one dropped from each end, the slow outlier among them
        self.assertAlmostEqual(interquartile_mean([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 90.0]), 4.6)
        self.assertEqual(interquartile_mean([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(interquartile_mean([1.0, 2.0, 3.0, 10.0]), 2.5)


class Shares(unittest.TestCase):
    def test_share(self):
        self.assertEqual(share(3, 12), 0.25)
        self.assertEqual(share(0, 5), 0.0)
        self.assertEqual(share(2, 0), 0.0)


class SelfTime(unittest.TestCase):
    def test_span_time_minus_children(self):
        spans = [
            (1, None, 0.0, 10.0),
            (2, 1, 1.0, 3.0),
            (3, 1, 5.0, 6.0),
            (4, 2, 1.5, 2.0),
        ]
        st = self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - 2.0 - 1.0)
        self.assertAlmostEqual(st[2], 2.0 - 0.5)
        self.assertAlmostEqual(st[3], 1.0)
        self.assertAlmostEqual(st[4], 0.5)

    def test_concurrent_children_are_merged(self):
        # two worker threads overlapping inside one parent
        spans = [(1, None, 0.0, 10.0), (2, 1, 2.0, 6.0), (3, 1, 4.0, 8.0)]
        self.assertAlmostEqual(self_times(spans)[1], 10.0 - 6.0)
        self.assertAlmostEqual(covered_length([(2.0, 6.0), (4.0, 8.0), (9.0, 12.0)], 0.0, 10.0), 7.0)


class ReferenceSpeed(unittest.TestCase):
    def test_factor_is_reference_over_mean_of_neighbouring_probes(self):
        probes = [REFERENCE_S, 3.0 * REFERENCE_S, 0.5 * REFERENCE_S]
        factors = speed_factors(probes)
        self.assertEqual(len(factors), 2)
        self.assertAlmostEqual(factors[0], 0.5)
        self.assertAlmostEqual(factors[1], 1.0 / 1.75)

    def test_probe_times_itself(self):
        self.assertGreater(probe(), 0.0)


class LayerMetrics(unittest.TestCase):
    def test_counts_ratios_and_self_times(self):
        conv = {"levels": 2, "status": "converged", "graded": False}
        inc = {"levels": 3, "status": "inconclusive", "graded": True}
        spans = [
            # id, parent, name, start, end, op, info
            (1, None, "transforms", 0.0, 10.0, 0, {"status": "converged"}),
            (2, 1, "quadrature", 1.0, 9.0, 0, conv),
            (3, 2, "core", 1.0, 2.0, 0, {"points": 17}),
            (4, 2, "kernels", 2.0, 3.0, 0, {"points": 16}),
            (5, 2, "kernels", 3.0, 4.0, 0, {"points": 16}),
            (6, None, "limits", 20.0, 30.0, 1, {}),
            (7, 6, "transforms", 21.0, 25.0, 1, {"status": "inconclusive"}),
            (8, 7, "quadrature", 21.0, 25.0, 1, inc),
            (9, 6, "singular", 26.0, 29.0, 1, {}),
            (10, 9, "quadrature", 26.0, 28.0, 1, conv),
        ]
        m = {k: v for k, (v, _unit) in layer_metrics(spans, certified_ops=2, overhead_s=0.5).items()}
        self.assertEqual(m["quadrature.calls"], 3)
        self.assertEqual(m["quadrature.levels"], 7)
        self.assertAlmostEqual(m["quadrature.levels_per_call"], 7 / 3)
        self.assertAlmostEqual(m["quadrature.certified_ratio"], 2 / 3)
        self.assertAlmostEqual(m["quadrature.graded_share"], 1 / 3)
        self.assertAlmostEqual(m["quadrature.self_s"], (8.0 - 3.0) + 4.0 + 2.0)
        self.assertEqual(m["kernels.calls"], 2)
        self.assertEqual(m["kernels.points"], 32)
        self.assertAlmostEqual(m["kernels.calls_per_level"], 2 / 7)
        self.assertAlmostEqual(m["kernels.points_per_certified"], 16.0)
        self.assertEqual(m["core.f_calls"], 1)
        self.assertEqual(m["core.f_points"], 17)
        self.assertEqual(m["transforms.calls"], 2)
        self.assertEqual(m["transforms.uncertified"], 1)
        self.assertAlmostEqual(m["transforms.self_s"], 2.0 + 0.0)
        self.assertEqual(m["limits.checks"], 1)
        self.assertEqual(m["limits.field_calls"], 1)
        self.assertEqual(m["limits.field_uncertified"], 1)
        self.assertEqual(m["limits.pv_calls"], 1)
        self.assertAlmostEqual(m["limits.self_s"], 10.0 - 4.0 - 3.0)
        self.assertEqual(m["singular.calls"], 1)
        self.assertEqual(m["singular.window_runs"], 1)
        self.assertAlmostEqual(m["singular.self_s"], 1.0)
        self.assertEqual(m["cli.calls"], 0)
        self.assertEqual(m["cli.pool_busy_ratio"], 0.0)
        self.assertEqual(m["trace.overhead_s"], 0.5)

    def test_pool_busy_ratio(self):
        spans = [
            (1, None, "cli", 0.0, 4.0, 0, {"jobs": 2}),
            (2, 1, "transforms", 0.0, 3.0, 0, {"status": "converged"}),
            (3, 1, "transforms", 1.0, 4.0, 0, {"status": "converged"}),
        ]
        m = layer_metrics(spans, certified_ops=1, overhead_s=0.0)
        self.assertAlmostEqual(m["cli.pool_busy_ratio"][0], 6.0 / 8.0)
        self.assertAlmostEqual(m["cli.self_s"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
