"""Self-tests of the benchmark's own arithmetic.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchmath as bm  # noqa: E402
import run  # noqa: E402

EXPECTED = {"small": {"fmi": 20000, "chain": 1000},
            "tiny": {"fmi": 200, "chain": 20}}


class PercentileRule(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        self.assertEqual(bm.min_samples_for(0.95), 200)
        self.assertEqual(bm.min_samples_for(0.50), 20)
        self.assertTrue(bm.tail_ok(list(range(200)), 0.95))
        self.assertFalse(bm.tail_ok(list(range(199)), 0.95))

    def test_enough_samples_lie_beyond(self):
        values = [float(v) for v in range(1, 201)]
        self.assertGreaterEqual(bm.samples_beyond(values, 0.95),
                                bm.MIN_TAIL_SAMPLES)
        self.assertLess(bm.samples_beyond(values[:150], 0.95),
                        bm.MIN_TAIL_SAMPLES)

    def test_quantile_interpolates_between_ranks(self):
        self.assertEqual(bm.quantile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertEqual(bm.quantile([1, 2], 0.5), 1.5)
        self.assertEqual(bm.quantile([7], 0.95), 7)
        self.assertAlmostEqual(bm.quantile(list(range(101)), 0.95), 95.0)
        with self.assertRaises(ValueError):
            bm.quantile([], 0.5)


class Dispatch(unittest.TestCase):
    # A job sent 5 ms late that spent 19 ms queued, 30 ms in prepare and
    # 40 ms in run within its 100 ms from send to done.
    JOB = {"due_s": 1.000, "sent_s": 1.005, "done_s": 1.105,
           "queue_s": 0.019, "prepare_s": 0.030, "run_s": 0.040}

    def test_dispatch_is_what_the_stages_leave(self):
        self.assertAlmostEqual(bm.dispatch_s(self.JOB), 0.011)

    def test_generator_lateness_counts_in_e2e_not_dispatch(self):
        self.assertAlmostEqual(bm.e2e_s(self.JOB), 0.105)
        later = dict(self.JOB, sent_s=1.050, done_s=1.150)
        self.assertAlmostEqual(bm.dispatch_s(later), 0.011)
        self.assertAlmostEqual(bm.e2e_s(later), 0.150)


class HostSpeed(unittest.TestCase):
    def test_speed_is_reference_over_median_probe(self):
        slow = [bm.PROBE_REF_S * f for f in (1.25, 1.20, 9.0)]
        self.assertAlmostEqual(bm.host_speed(slow), 1 / 1.25)

    def test_times_and_rates_scale_the_rest_stays(self):
        units = (("wall_s", "s"), ("p50_ms", "ms"), ("rate", "1/s"),
                 ("rss", "MiB"), ("ok", "ratio"))
        measured = {"wall_s": 10.0, "p50_ms": 20.0, "rate": 4.0,
                    "rss": 300.0, "ok": 1.0}
        got = bm.at_reference_speed(measured, units, 0.8)
        self.assertEqual(got, {"wall_s": 8.0, "p50_ms": 16.0, "rate": 5.0,
                               "rss": 300.0, "ok": 1.0})
        kept = bm.at_reference_speed(measured, units, 0.8, ("wall_s", "rate"))
        self.assertEqual(kept, {"wall_s": 10.0, "p50_ms": 16.0, "rate": 4.0,
                                "rss": 300.0, "ok": 1.0})


class FailureCounting(unittest.TestCase):
    def test_all_good(self):
        runs = [{"name": "fmi", "size": "small", "tasks": 20000, "error": ""}]
        jobs = [{"kernel": "chain", "size": "tiny", "status": "done",
                 "tasks": 20}]
        oracles = [{"name": "bsw", "cases": 96, "mismatches": 0}]
        self.assertEqual(bm.count_failures(runs, jobs, oracles, EXPECTED),
                         (3, 0))

    def test_each_kind_of_failure_counts_once(self):
        runs = [
            {"name": "fmi", "size": "small", "tasks": 20000, "error": "x"},
            {"name": "fmi", "size": "small", "tasks": 19999, "error": ""},
            {"name": "chain", "size": "small", "tasks": 1000, "error": ""},
        ]
        jobs = [{"kernel": "chain", "size": "tiny", "status": s, "tasks": t}
                for s, t in (("done", 20), ("done", 0), ("rejected", 0),
                             ("failed", 0), ("cancelled", 0))]
        oracles = [{"name": "bsw", "cases": 96, "mismatches": 1},
                   {"name": "fmi", "cases": 0, "mismatches": 0},
                   {"name": "chain", "cases": 48, "mismatches": 0}]
        attempted, failed = bm.count_failures(runs, jobs, oracles, EXPECTED)
        self.assertEqual(attempted, 11)
        self.assertEqual(failed, 2 + 4 + 2)


class OpenLoop(unittest.TestCase):
    def test_backlog_growth(self):
        self.assertFalse(bm.backlog_grows([0, 1, 3, 0, 2, 1, 0, 4, 1]))
        self.assertTrue(bm.backlog_grows(list(range(0, 30))))
        self.assertFalse(bm.backlog_grows([9, 9]))



class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json names exactly what run.py prints."""

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_metric_names_and_units_match(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)

    def test_expected_tasks_cover_every_kernel(self):
        with open(os.path.join(HERE, "expected_tasks.json")) as f:
            expected = json.load(f)
        for size in ("small", "tiny"):
            self.assertEqual(sorted(expected[size]), sorted(run.KERNELS))


if __name__ == "__main__":
    unittest.main()
