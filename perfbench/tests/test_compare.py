"""Tests of perfbench/compare.py: parsing, quartiles, verdicts and flags.

    python3 perfbench/run.py --selftest
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer.ns", "unit": "ns", "better": "lower"}],
}


def run_text(seed, metrics, correct=True, attempted=100, failed=0,
             workload="w"):
    prov = {"workload": workload, "seed": str(seed), "trace": "0"}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    return (f"metric value unit\nprovenance: {json.dumps(prov)}\n"
            f"{json.dumps(result)}\n")


def runs(values, name="rate", **kw):
    text = "".join(run_text(i, {name: v}, **kw) for i, v in enumerate(values))
    return compare.parse_runs(text)


class ParseTest(unittest.TestCase):
    def test_each_result_joins_the_provenance_before_it(self):
        text = run_text(3, {"rate": 5.0}) + '{"correct": true}\n' + \
            run_text(4, {"rate": 6.0}, failed=2)
        got = compare.parse_runs(text)
        self.assertEqual([r["seed"] for r in got], ["3", "4"])
        self.assertEqual(got[1]["metrics"], {"rate": 6.0})
        self.assertEqual(got[1]["failed"], 2)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        self.assertEqual(compare.quartiles(v), (q1, q2, q3))

    def test_one_value_is_its_own_spread(self):
        self.assertEqual(compare.quartiles([2.0]), (2.0, 2.0, 2.0))


def pairs(values):
    return list(enumerate(values))


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_clear_gain_wins_the_pairs(self):
        change = [v * 1.05 for v in self.parent]
        v, wins, n = compare.verdict(pairs(self.parent), pairs(change),
                                     True, 0.1)
        self.assertEqual((v, wins, n), ("better", 10, 10))

    def test_noise_is_the_same(self):
        change = list(reversed(self.parent))
        v, _, _ = compare.verdict(pairs(self.parent), pairs(change), True,
                                  0.1)
        self.assertEqual(v, "same")

    def test_a_drop_past_the_bound_is_worse(self):
        change = [v * 0.8 for v in self.parent]
        v, wins, _ = compare.verdict(pairs(self.parent), pairs(change), True,
                                     0.1)
        self.assertEqual((v, wins), ("worse", 0))

    def test_direction_follows_the_metric(self):
        change = [v * 1.2 for v in self.parent]
        v, _, _ = compare.verdict(pairs(self.parent), pairs(change), False,
                                  0.1)
        self.assertEqual(v, "worse")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0]
        v, _, _ = compare.verdict(pairs(wide), pairs([v * 0.95 for v in wide]),
                                  True, 0.1)
        self.assertEqual(v, "unresolved")

    def test_wide_spread_still_resolves_when_every_run_is_better(self):
        wide = [50.0, 150.0, 80.0, 120.0]
        v, _, _ = compare.verdict(pairs(wide), pairs([400.0] * 4), True, 0.1)
        self.assertEqual(v, "better")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(compare.pair_wins([(1, 5.0), (2, 5.0)],
                                           [(1, 5.0), (2, 6.0)], True),
                         (1, 2))

    def test_unpaired_seeds_are_skipped(self):
        self.assertEqual(compare.pair_wins([(1, 5.0)], [(2, 6.0)], True),
                         (0, 0))

    def test_per_layer_metrics_get_no_verdict(self):
        v, _, _ = compare.verdict(pairs([1.0, 2.0]), pairs([1.0, 2.0]),
                                  False, None)
        self.assertIsNone(v)


class CompareTest(unittest.TestCase):
    def test_rising_failed_ops_is_flagged(self):
        parent = runs([100.0, 101.0])
        change = runs([100.0, 101.0], failed=1)
        lines, bad = compare.compare(parent, change, SPEC)
        self.assertTrue(bad)
        self.assertIn("  FLAG: failed_ops_ratio rose", lines)

    def test_a_failed_gate_is_flagged(self):
        lines, bad = compare.compare(runs([100.0]),
                                     runs([100.0], correct=False), SPEC)
        self.assertTrue(bad)
        self.assertTrue(any("correctness gate" in l for l in lines))

    def test_equal_sides_pass(self):
        lines, bad = compare.compare(runs([100.0, 101.0, 99.0]),
                                     runs([100.0, 101.0, 99.0]), SPEC)
        self.assertFalse(bad)
        self.assertTrue(any(l.strip().startswith("rate") and "same" in l
                            for l in lines))


if __name__ == "__main__":
    unittest.main()
