"""Tests for run.py's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import run


def rep(slices, setup=1.0, kernel=run.REF_KERNEL_S):
    return {"host": {"slice_wall_s": slices, "setup_s": setup,
                     "ref_kernel_s": kernel, "peak_rss_mb": 8.0}}


def sim(requests=10, attempted=10, failed=0, runs=((100, 10),), recovery_ns=(),
        crashes=0):
    return {
        "latency_runs": [list(r) for r in runs],
        "window_s": 0.1,
        "requests": requests,
        "bytes": requests * 20,
        "attempted": attempted,
        "failed": failed,
        "recovery_ns": list(recovery_ns),
        "crashes_injected": crashes,
        "crashes_seen": crashes,
        "handoffs": crashes,
    }


class Quantiles(unittest.TestCase):
    def test_bucket_width_follows_the_histogram_layout(self):
        self.assertEqual(run.bucket_width(0), 1)
        self.assertEqual(run.bucket_width(15), 1)
        self.assertEqual(run.bucket_width(16), 1)
        self.assertEqual(run.bucket_width(31), 1)
        self.assertEqual(run.bucket_width(32), 2)
        self.assertEqual(run.bucket_width(64), 4)
        self.assertEqual(run.bucket_width(589824), 32768)  # 18 × 2^15
        self.assertEqual(run.bucket_width(622592), 32768)

    def test_quantile_picks_the_histogram_sample_and_places_it_in_its_bucket(self):
        runs = [(64, 1), (32, 2), (48, 7)]  # 32,32, 48×7, 64: ten samples
        self.assertEqual(run.quantile(runs, 0.0), 32 + 2 * 0.5 / 2)  # sample 1
        self.assertEqual(run.quantile(runs, 0.2), 32 + 2 * 1.5 / 2)  # sample 2
        self.assertEqual(run.quantile(runs, 0.21), 48 + 2 * 0.5 / 7)  # sample 3
        self.assertEqual(run.quantile(runs, 0.9), 48 + 2 * 6.5 / 7)  # sample 9
        self.assertEqual(run.quantile(runs, 0.99), 64 + 4 * 0.5)  # sample 10
        self.assertEqual(run.quantile([], 0.5), 0)
        # Each value stays inside its sample's bucket.
        for q in (0.0, 0.2, 0.21, 0.9, 0.99):
            v = run.quantile(runs, q)
            lo = max(b for b, _ in runs if b <= v)
            self.assertLess(v, lo + run.bucket_width(lo))

    def test_highest_quantile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.highest_quantile(0))
        self.assertIsNone(run.highest_quantile(19))
        self.assertEqual(run.highest_quantile(20), 0.5)
        self.assertEqual(run.highest_quantile(999), 0.9)
        self.assertEqual(run.highest_quantile(1000), 0.99)
        self.assertEqual(run.highest_quantile(10000), 0.999)
        self.assertEqual(run.highest_quantile(10**9), 0.9999)


class HostTime(unittest.TestCase):
    def test_best_wall_takes_the_fastest_repetition_per_slice(self):
        reps = [(1, rep([3.0, 1.0, 2.0])), (1, rep([1.0, 4.0, 2.5])),
                (2, rep([2.0, 2.0, 0.5]))]
        self.assertEqual(run.best_wall_s(reps), 1.0 + 1.0 + 0.5)
        self.assertEqual(run.best_wall_s(reps[:1]), 6.0)

    def test_host_times_scale_to_the_reference_machine(self):
        ref = run.REF_KERNEL_S
        # The fastest kernel of the run sets the speed: here twice as
        # slow as the reference machine, so host times halve.
        reps = [(1, rep([2.0, 2.0], setup=3.0, kernel=3 * ref)),
                (1, rep([4.0, 1.0], setup=1.0, kernel=2 * ref))]
        self.assertEqual(run.speed(reps), 0.5)
        m = run.end_to_end(reps, run.pool([sim(requests=3000)]), 1)
        self.assertEqual(m["wall_s"], (2.0 + 1.0) * 0.5)
        self.assertEqual(m["setup_s"], 1.0 * 0.5)
        self.assertAlmostEqual(m["host_krps"], 3000 / 1.5 / 1e3)


class Pooling(unittest.TestCase):
    def test_error_pct_is_failed_over_attempted(self):
        p = run.pool([sim(attempted=1000, failed=15), sim(attempted=1000, failed=5)])
        self.assertEqual(p["attempted"], 2000)
        self.assertEqual(p["failed"], 20)
        self.assertAlmostEqual(p["error_pct"], 1.0)
        self.assertEqual(run.pool([sim(attempted=0)])["error_pct"], 0.0)

    def test_latency_pools_every_testbeds_samples(self):
        p = run.pool([sim(runs=((100, 990),)), sim(runs=((5000, 10),))])
        self.assertEqual(p["latency_samples"], 1000)
        self.assertEqual(p["highest_quantile"], 0.99)
        # 100 ns buckets are 4 ns wide; sample 500 of the 990 there.
        self.assertAlmostEqual(p["sim_p50_us"], (100 + 4 * 499.5 / 990) / 1e3)
        self.assertAlmostEqual(p["sim_p99_us"], (100 + 4 * 989.5 / 990) / 1e3)
        self.assertAlmostEqual(p["sim_krps"], 20 / 0.2 / 1e3)

    def test_recovery_is_the_median_over_all_crashes(self):
        p = run.pool([sim(recovery_ns=(5e6, 7e6), crashes=2),
                      sim(recovery_ns=(6e6,), crashes=1)])
        self.assertEqual(p["recovery_ms"], 6.0)
        self.assertEqual(p["recoveries"], 3)
        self.assertEqual(run.pool([sim()])["recovery_ms"], 0.0)

    def test_sub_seeds_are_distinct(self):
        seeds = {run.sub_seed(s, j) for s in range(50) for j in range(64)}
        self.assertEqual(len(seeds), 50 * 64)


class MetricNames(unittest.TestCase):
    def test_benchmark_names_use_the_allowed_alphabet(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.SUB_SEEDS))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m)


if __name__ == "__main__":
    unittest.main()
