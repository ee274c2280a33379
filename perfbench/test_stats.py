"""Tests of the benchmark's statistics helpers.

Run with `python3 -m unittest discover -s perfbench -p 'test_*.py'`
from the repository root.
"""

import statistics
import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        # statistics.quantiles' default "exclusive" method on 1..9.
        self.assertEqual(stats.quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 5.0 / 5.0)
        self.assertEqual(stats.spread([4.0, 4.0, 4.0, 4.0]), 0.0)

    def test_one_value_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(stats.percentile(list(range(1, 1000)), 0.99))
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 0.99), 990)
        # exactly ten samples (991..1000) lie beyond the reported value
        self.assertEqual(sum(v > 990 for v in values), 10)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(stats.percentile(list(range(19)), 0.5))
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)

    def test_order_does_not_matter(self):
        values = list(range(2000))
        self.assertEqual(stats.percentile(values[::-1], 0.99), stats.percentile(values, 0.99))

    def test_empty_and_bad_levels(self):
        self.assertIsNone(stats.percentile([], 0.5))
        with self.assertRaises(ValueError):
            stats.percentile([1, 2, 3], 1.0)


if __name__ == "__main__":
    unittest.main()
