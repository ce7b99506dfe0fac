"""Tests for the comparison tool's decision rule.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from compare import decide  # noqa: E402


def side(values):
    return {seed: v for seed, v in enumerate(values)}


class DecideTest(unittest.TestCase):
    def test_equal_medians_are_no_change(self):
        base = side([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        verdict, d = decide(base, dict(base), "lower", 0.1)
        self.assertEqual(verdict, "no change")
        self.assertEqual(d["change"], 0.0)
        self.assertEqual(d["win_rate"], 0.0)  # ties count for neither side

    def test_regression_beyond_bound(self):
        base = side([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        new = side([v * 1.2 for v in base.values()])
        verdict, d = decide(base, new, "lower", 0.1)
        self.assertEqual(verdict, "regression")
        self.assertAlmostEqual(d["change"], 0.2)

    def test_worsening_within_bound_is_no_change(self):
        base = side([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        new = side([v * 1.05 for v in base.values()])
        self.assertEqual(decide(base, new, "lower", 0.1)[0], "no change")

    def test_spread_wider_than_bound_is_unresolved(self):
        base = side([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
        new = side([65, 150, 85, 125, 105, 75, 135, 95, 115, 105])
        verdict, d = decide(base, new, "lower", 0.1)
        self.assertEqual(verdict, "unresolved")
        self.assertGreater(d["spread"], 0.1)

    def test_wide_spread_resolves_when_every_run_is_better(self):
        base = side([200, 260, 220, 280, 240, 210, 270, 230, 250, 240])
        new = side([100, 130, 110, 140, 120, 105, 135, 115, 125, 120])
        self.assertEqual(decide(base, new, "lower", 0.1)[0], "improved")

    def test_clear_improvement(self):
        base = side([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        new = side([v * 0.8 for v in base.values()])
        verdict, d = decide(base, new, "lower", 0.1)
        self.assertEqual(verdict, "improved")
        self.assertEqual(d["win_rate"], 1.0)

    def test_small_win_inside_base_spread_is_no_change(self):
        base = side([100, 104, 96, 100, 103, 97, 100, 102, 98, 100])
        new = side([v - 1 for v in base.values()])
        self.assertEqual(decide(base, new, "lower", 0.1)[0], "no change")

    def test_higher_is_better_direction(self):
        base = side([0.90, 0.91, 0.89, 0.90, 0.90, 0.91, 0.89, 0.90, 0.90, 0.90])
        lower = side([v * 0.8 for v in base.values()])
        self.assertEqual(decide(base, lower, "higher", 0.1)[0], "regression")
        self.assertEqual(decide(lower, base, "higher", 0.1)[0], "improved")


if __name__ == "__main__":
    unittest.main()
