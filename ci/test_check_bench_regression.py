#!/usr/bin/env python3
"""Tests of ci/check_bench_regression.py (stdlib only), on copies of
the checked-in BENCH_scale.json with edited metrics.

    python3 ci/test_check_bench_regression.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_bench_regression  # noqa: E402

BASELINE = os.path.join(HERE, "..", "bench", "baselines", "BENCH_scale.json")


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        with open(BASELINE, encoding="utf-8") as fh:
            self.baseline = json.load(fh)

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, current, baseline=None):
        """Exit code of the checker on two documents at the 25% bound."""
        paths = []
        for name, doc in (("current", current),
                          ("baseline", baseline or self.baseline)):
            path = os.path.join(self.tmp.name, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths.append(path)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return check_bench_regression.main(["check"] + paths + ["0.25"])

    def scaled(self, factor):
        """The baseline with every sim_rps multiplied by factor."""
        doc = copy.deepcopy(self.baseline)
        for entry in doc["series"]:
            entry["sim_rps"] *= factor
        return doc

    def test_drop_within_bound_passes(self):
        self.assertEqual(self.check(self.scaled(0.8)), 0)

    def test_drop_over_bound_fails(self):
        self.assertEqual(self.check(self.scaled(0.7)), 1)

    def test_missing_entry_fails(self):
        current = copy.deepcopy(self.baseline)
        del current["series"][-1]
        self.assertEqual(self.check(current), 1)

    def test_retired_ids_are_unknown(self):
        # Documents of simulated numbers are byte-pinned by ctest, so a
        # stale CI step gating one must fail loudly.
        for bench in ("fig10_speedup", "serve_latency"):
            doc = copy.deepcopy(self.baseline)
            doc["bench"] = bench
            self.assertEqual(self.check(doc, doc), 2, bench)


if __name__ == "__main__":
    unittest.main()
