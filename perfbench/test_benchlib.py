"""Tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import benchlib

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertEqual(benchlib.tail_percentile(99), 50)
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(999), 90)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(benchlib.percentile(v, 50), 50)
        self.assertEqual(benchlib.percentile(v, 90), 90)
        self.assertEqual(benchlib.percentile([5.0], 90), 5.0)

    def test_timing_reports_count_and_only_supported_tails(self):
        t = benchlib.timing([float(i) for i in range(50)])
        self.assertEqual(t["n"], 50)
        self.assertNotIn("tail", t)
        t = benchlib.timing([float(i) for i in range(1, 201)])
        self.assertEqual((t["n"], t["p"], t["tail"]), (200, 90, 180.0))


class ServePlan(unittest.TestCase):
    def test_same_seed_same_plan(self):
        for scale in ("full", "small"):
            self.assertEqual(benchlib.serve_plan(7, scale), benchlib.serve_plan(7, scale))
        self.assertNotEqual(benchlib.serve_plan(7), benchlib.serve_plan(8))

    def test_plan_is_executable_as_planned(self):
        for seed in range(20):
            plan = benchlib.serve_plan(seed)
            self.assertEqual(tuple(plan["budgets"]), benchlib.SERVE_BUDGETS)
            keys = [tuple(k.values()) for k in plan["keys"]]
            self.assertEqual(len(keys), len(set(keys)))
            # Most fresh simulations run the default budget, so the
            # fresh median is a timing-core latency.
            long = [k["limit"] == benchlib.SERVE_BUDGETS[1] for k in plan["keys"]]
            self.assertGreater(sum(long), len(long) / 2)
            # Walk both connections segment by segment, pair step to
            # pair step, as the executor does.
            firsts, done = set(), set()
            pos = [0, 0]
            conns = plan["conns"]
            while pos[0] < len(conns[0]) or pos[1] < len(conns[1]):
                seen = [set(), set()]
                for c in (0, 1):
                    while pos[c] < len(conns[c]) and conns[c][pos[c]]["class"] in ("fresh", "hit"):
                        step = conns[c][pos[c]]
                        if step["class"] == "fresh":
                            self.assertNotIn(step["key"], firsts)
                            firsts.add(step["key"])
                            seen[c].add(step["key"])
                        else:
                            self.assertIn(step["key"], done | seen[c])
                        pos[c] += 1
                done |= seen[0] | seen[1]
                if pos[0] < len(conns[0]):
                    a, b = conns[0][pos[0]], conns[1][pos[1]]
                    self.assertEqual(a["key"], b["key"])
                    self.assertEqual({a["class"], b["class"]}, {"lead", "attach"})
                    self.assertNotIn(a["key"], firsts)
                    firsts.add(a["key"])
                    done.add(a["key"])
                    pos = [pos[0] + 1, pos[1] + 1]
            self.assertEqual(firsts, set(range(len(keys))))
            counts = benchlib.plan_classes(plan)
            self.assertEqual(counts["fresh"] + counts["lead"], len(keys))
            self.assertEqual(counts["lead"], counts["attach"])
            self.assertGreaterEqual(counts["hit"], 100)

    def test_class_shares_follow_the_seed(self):
        shares = {tuple(benchlib.plan_classes(benchlib.serve_plan(s)).values()) for s in range(10)}
        self.assertGreater(len(shares), 1)


class MetricNames(unittest.TestCase):
    def test_declared_names_are_valid_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for n in names:
            self.assertTrue(benchlib.valid_metric_name(n), n)
        metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(metric_names), len(set(metric_names)))

    def test_rule_rejects_bad_names(self):
        for bad in ("", "-lead", "has space", "a" * 65, "ünï"):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)


class FailureAccounting(unittest.TestCase):
    def test_failed_ratio(self):
        self.assertEqual(benchlib.failed_ratio(10, 0), 0.0)
        self.assertEqual(benchlib.failed_ratio(10, 3), 0.3)
        self.assertEqual(benchlib.failed_ratio(0, 0), 1.0)

    def test_aggregate(self):
        passes = [
            {"setup_s": [0.1, 0.3], "wall_s": 2.0, "ops": 10, "waits_ms": [5.0, 7.0]},
            {"setup_s": [0.2], "wall_s": 3.0, "ops": 15, "waits_ms": [6.0]},
        ]
        m = benchlib.aggregate(passes, [(1.0, 2048), (3.0, 4096)])
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["cpu_s"], 2.0)
        self.assertEqual(m["peak_rss_mb"], 3.0)
        self.assertEqual(m["ops_per_s"], 5.0)  # median of 5/s and 5/s
        self.assertEqual(m["wait_ms_p50"], 6.0)


if __name__ == "__main__":
    unittest.main()
