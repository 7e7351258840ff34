"""Unit tests for the benchmark's statistics.

    python3 perfbench/test_stats.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class TailRuleTest(unittest.TestCase):
    def test_samples_needed(self):
        self.assertEqual(stats.samples_needed(99), 1000)
        self.assertEqual(stats.samples_needed(95), 200)
        self.assertEqual(stats.samples_needed(90), 100)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertAlmostEqual(stats.tail(list(range(1000)), 99), 989.01)
        with self.assertRaises(ValueError):
            stats.tail(list(range(900)), 99)

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        # 200 samples, but only 5 lie above the p95 value.
        values = [1.0] * 195 + [2.0] * 5
        with self.assertRaises(ValueError):
            stats.tail(values, 95)

    def test_p95_with_enough_samples(self):
        values = [float(v) for v in range(200)]
        self.assertAlmostEqual(stats.tail(values, 95), 189.05)


class GeomeanMinTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 4, 16]), 4)
        self.assertAlmostEqual(stats.geomean([2.5]), 2.5)

    def test_geomean_hides_what_min_shows(self):
        rates = [100.0] * 11 + [1.0]
        self.assertGreater(stats.geomean(rates), 60)
        self.assertEqual(stats.minimum(rates), 1.0)

    def test_geomean_rejects_nonpositive_and_empty(self):
        for bad in ([], [1, 0], [2, -1]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)

    def test_minimum_rejects_empty(self):
        with self.assertRaises(ValueError):
            stats.minimum([])


class FailFracTest(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(stats.fail_frac(0, 10), 0)
        self.assertEqual(stats.fail_frac(3, 12), 0.25)
        self.assertTrue(math.isclose(stats.fail_frac(1, 3), 1 / 3))

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_frac(5, 4)
        with self.assertRaises(ValueError):
            stats.fail_frac(-1, 4)


if __name__ == "__main__":
    unittest.main()
