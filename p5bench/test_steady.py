#!/usr/bin/env python3
"""Self-test of steady.py's statistics and verdicts.

    python3 -m unittest discover -s p5bench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import steady  # noqa: E402

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}
IPS = {"name": "ips", "better": "higher", "bound": 0.25}


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 10.4, 9.8, 10.1, 10.9, 9.7, 10.2, 10.0, 10.3, 9.9]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(steady.spread(values), (med, q1, q3, (q3 - q1) / med))


class VerdictTest(unittest.TestCase):
    def test_tight_sets_are_steady(self):
        sets = [[10.0, 10.1, 9.9, 10.0], [10.05, 10.0, 9.95, 10.1]]
        self.assertEqual(steady.verdict(*sets, WALL)[2], "steady")

    def test_spread_between_third_of_bound_and_bound_is_ok(self):
        sets = [[10.0, 11.0, 9.0, 10.0], [10.0, 11.0, 9.0, 10.0]]
        self.assertEqual(steady.verdict(*sets, WALL)[2], "ok")

    def test_spread_over_bound_is_unsteady(self):
        sets = [[10.0, 14.0, 7.0, 10.0], [10.0, 10.0, 10.0, 10.0]]
        self.assertEqual(steady.verdict(*sets, WALL)[2], "UNSTEADY")

    def test_setup_spread_is_exempt_but_its_drift_is_not(self):
        wide = [1.0, 2.0, 0.5, 1.0]
        self.assertEqual(steady.verdict(wide, wide, SETUP)[2], "steady")
        slower = [x * 1.5 for x in wide]
        self.assertEqual(steady.verdict(wide, slower, SETUP)[2], "DRIFT")

    def test_drift_direction_follows_better(self):
        base = [10.0, 10.0, 10.0, 10.0]
        lower = [7.0, 7.0, 7.0, 7.0]
        # Lower is better for a time, worse for a throughput.
        self.assertEqual(steady.verdict(base, lower, WALL)[2], "steady")
        self.assertEqual(steady.verdict(base, lower, IPS)[2], "DRIFT")


if __name__ == "__main__":
    unittest.main()
