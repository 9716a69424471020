"""Unit tests of the benchmark's own metric logic.

    python3 perfbench/test_metrics.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as m  # noqa: E402


class PaperGap(unittest.TestCase):
    def test_exact_match_is_zero(self):
        self.assertEqual(m.paper_gap(1509.0, 1509.0), 0.0)

    def test_tenfold_gap_is_one_either_way(self):
        self.assertAlmostEqual(m.paper_gap(150.9, 1509.0), 1.0)
        self.assertAlmostEqual(m.paper_gap(65.0, 6.5), 1.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            m.paper_gap(0.0, 10.0)

    def test_uses_fig10_fig11_averaging(self):
        def call(case, platform, seconds, joules):
            return {"case": case, "platform": platform,
                    "seconds": seconds, "joules": joules}

        calls = [
            call("A", "hygcn", 1.0, 1.0), call("A", "pyg-cpu-part", 100.0, 1000.0),
            call("A", "pyg-gpu", 4.0, 5.0),
            call("B", "hygcn", 1.0, 1.0), call("B", "pyg-cpu-part", 300.0, 4000.0),
            # B's GPU cell is OoM: it leaves the GPU averages.
        ]
        points = m.fig10_fig11_points(calls)
        self.assertNotIn("vs_gpu", points["B"])
        gaps = m.paper_gaps(points)
        # Speedups average arithmetically: (100 + 300) / 2 = 200.
        self.assertAlmostEqual(gaps["paper_gap.cpu_speedup"],
                               abs(math.log10(200.0 / 1509.0)))
        self.assertAlmostEqual(gaps["paper_gap.gpu_speedup"],
                               abs(math.log10(4.0 / 6.5)))
        # Energy: mean percentage (0.1% and 0.025%) -> reduction 100/mean.
        self.assertAlmostEqual(gaps["paper_gap.cpu_energy"],
                               abs(math.log10((100.0 / 0.0625) / 2500.0)))
        self.assertAlmostEqual(gaps["paper_gap.gpu_energy"],
                               abs(math.log10(5.0 / 10.0)))

    def test_baseline_checks_compare_at_9_digits(self):
        points = {"A": {"vs_cpu": 1.0 / 3.0, "vs_cpu_pct": 2.0}}
        fig10 = {"bench": "fig10", "hygcn": [{"case": "A", "vs_cpu": 0.333333333}]}
        fig11 = {"bench": "fig11", "hygcn": [{"case": "A", "vs_cpu_pct": 2.0000001}]}
        checks = dict(m.baseline_checks(points, fig10, fig11))
        self.assertTrue(checks["fig10 A vs_cpu"])
        self.assertFalse(checks["fig11 A vs_cpu_pct"])
        self.assertTrue(checks["fig10 case set"])

    def test_baseline_checks_flag_missing_fields_and_cases(self):
        points = {"A": {"vs_cpu": 1.0, "vs_gpu": 2.0, "vs_cpu_pct": 1.0}}
        fig10 = {"bench": "fig10", "hygcn": [{"case": "A", "vs_cpu": 1.0},
                                             {"case": "B", "vs_cpu": 1.0}]}
        fig11 = {"bench": "fig11", "hygcn": []}
        checks = dict(m.baseline_checks(points, fig10, fig11))
        self.assertFalse(checks["fig10 case set"])
        self.assertFalse(checks["fig10 A vs_gpu"])  # run has it, baseline not
        self.assertFalse(checks["fig10 B vs_cpu"])
        self.assertFalse(checks["fig11 case set"])


def rung(rate, p99, throughput=None):
    return {"offered_rps": rate, "interactive_p99_cycles": p99,
            "throughput_rps": rate if throughput is None else throughput}


class Ladder(unittest.TestCase):
    def test_highest_rung_meeting_slo(self):
        rungs = [rung(100, 5), rung(200, 9), rung(300, 11)]
        self.assertEqual(m.max_rate_under_slo(rungs, 10), 200)

    def test_order_independent(self):
        rungs = [rung(300, 11), rung(100, 5), rung(200, 9)]
        self.assertEqual(m.max_rate_under_slo(rungs, 10), 200)

    def test_growing_backlog_fails_a_rung(self):
        rungs = [rung(100, 5), rung(200, 5, throughput=150)]
        self.assertEqual(m.max_rate_under_slo(rungs, 10), 100)

    def test_stops_at_first_failure(self):
        rungs = [rung(100, 5), rung(200, 20), rung(300, 5)]
        self.assertEqual(m.max_rate_under_slo(rungs, 10), 100)

    def test_zero_when_lowest_rung_fails(self):
        self.assertEqual(m.max_rate_under_slo([rung(100, 50)], 10), 0.0)


def span(start, end, parent=-1):
    return {"start": start, "end": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_subtracts_direct_children_only(self):
        spans = {0: span(0.0, 10.0), 1: span(1.0, 4.0, 0),
                 2: span(5.0, 9.0, 0), 3: span(5.5, 6.5, 2)}
        own = m.self_times(spans)
        self.assertAlmostEqual(own[0], 3.0)
        self.assertAlmostEqual(own[1], 3.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.0)

    def test_overlapping_children_count_once(self):
        spans = {0: span(0.0, 10.0), 1: span(1.0, 5.0, 0), 2: span(3.0, 7.0, 0)}
        self.assertAlmostEqual(m.self_times(spans)[0], 4.0)

    def test_child_clipped_to_parent(self):
        spans = {0: span(0.0, 2.0), 1: span(1.0, 3.0, 0)}
        self.assertAlmostEqual(m.self_times(spans)[0], 1.0)


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(m.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(m.percentile([5], 99), 5)

    def test_tail_keeps_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 100 samples
        pct, value = m.tail_percentile(samples)
        self.assertEqual(pct, 90.0)  # 10 beyond; p95 leaves only 5
        self.assertAlmostEqual(value, m.percentile(samples, 90.0))
        self.assertEqual(m.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(m.tail_percentile(list(range(59)))[0], 75.0)

    def test_few_samples_fall_back_to_median(self):
        self.assertEqual(m.tail_percentile([3.0, 1.0, 2.0]), (50.0, 2.0))

    def test_call_stats(self):
        stats = m.call_stats([0.001 * i for i in range(1, 21)])
        self.assertEqual(stats["count"], 20)
        self.assertEqual(stats["tail_pct"], 50.0)
        self.assertAlmostEqual(stats["p50"], 10.5)
        self.assertEqual(m.call_stats([])["count"], 0)


class Names(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "paper_gap.cpu_speedup", "serve.util.pyg-gpu",
                     "9lives", "a" * 64):
            self.assertTrue(m.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "a/b", "a" * 65, "é"):
            self.assertFalse(m.valid_name(bad), bad)

    def test_units(self):
        for good in ("s", "ms", "1/s", "count", "%", "MiB"):
            self.assertTrue(m.valid_unit(good), good)
        for bad in ("", "x" * 17, "a b"):
            self.assertFalse(m.valid_unit(bad), bad)

    def test_benchmark_json_names_match_emitted_metrics(self):
        import json
        import run
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        declared = bench["end_to_end"] + bench["per_layer"]
        for metric in declared:
            self.assertTrue(m.valid_name(metric["name"]), metric)
            self.assertTrue(m.valid_unit(metric["unit"]), metric)
        self.assertEqual(len({d["name"] for d in declared}), len(declared))

        stats = {"requests": 4.0, "batches": 2.0, "mean_batch_size": 2.0,
                 "mean_queue_wait_cycles": 1.0, "joules_per_request": 1.0,
                 "p99_latency_cycles": 1.0, "slo_violations": 0.0,
                 "classes": {c: {"busy_cycles": 1.0, "joules": 1.0,
                                 "utilization": 0.5}
                             for c in ("hygcn", "pyg-gpu")}}
        raw = {"workload": "serve-hetero", "setup_s": [1.0, 2.0],
               "setup_traced": [0, 1], "pass_s": [1.0], "peak_rss_mib": 1.0,
               "cpu_s": 1.0, "probe_s": 1.0,
               "serve": {"stream": stats, "priced_runs": 40.0,
                         "stream_requests": 4.0}}
        e2e = {k: unit for k, (_, unit) in run.end_to_end(raw).items()}
        layers = {k: unit for k, (_, unit) in run.per_layer(raw, {}).items()}
        self.assertEqual(e2e, {d["name"]: d["unit"] for d in bench["end_to_end"]})
        self.assertEqual(layers, {d["name"]: d["unit"] for d in bench["per_layer"]})

if __name__ == "__main__":
    unittest.main()
