#!/usr/bin/env python3
"""Tests of ci/ab_time.py (stdlib only): its statistics, its verdict
and its byte-compare, with synthetic commands and no build.

    python3 ci/test_ab_time.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ab_time  # noqa: E402

# Prints a perfbench-style result whose metric is read from value.txt
# in the working directory, writes out.txt unless payload.txt is
# missing, and appends the tree's name to the log file named by AB_LOG.
EMIT = """
import json, os
with open("value.txt") as f:
    value = float(f.read())
if os.path.exists("payload.txt"):
    with open("out.txt", "w") as f:
        f.write(open("payload.txt").read())
with open(os.environ["AB_LOG"], "a") as f:
    f.write(open("name.txt").read() + "\\n")
print("report line")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"x_s": {"value": value, "unit": "s"},
                              "count": {"value": 7, "unit": "count"},
                              "rate": {"value": value, "unit": "1/s"}}}))
"""


def write_tree(path, name, value, payload="same"):
    os.makedirs(path, exist_ok=True)
    for file, text in (("emit.py", EMIT), ("name.txt", name),
                       ("value.txt", str(value)), ("payload.txt", payload)):
        with open(os.path.join(path, file), "w") as f:
            f.write(text)


class Statistics(unittest.TestCase):
    def test_quartiles_inclusive(self):
        self.assertEqual(ab_time.quartiles([float(x) for x in range(1, 11)]),
                         (3.25, 5.5, 7.75))
        self.assertEqual(ab_time.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_gain_needs_wins_and_more_than_the_iqr(self):
        parent = [float(x) for x in range(1, 11)]  # IQR 4.5
        s = ab_time.summarize(parent, [p - 5 for p in parent])
        self.assertEqual((s["wins"], s["parent_iqr"]), (10, 4.5))
        self.assertEqual(s["verdict"], "gain")
        self.assertAlmostEqual(s["delta"], -5 / 5.5)
        # Every pair won, but the medians differ by less than the IQR.
        s = ab_time.summarize(parent, [p - 4 for p in parent])
        self.assertEqual((s["wins"], s["verdict"]),
                         (10, "no clear difference"))

    def test_nine_of_ten_wins_is_enough_eight_is_not(self):
        parent = [10.0] * 10
        nine = [1.0] * 9 + [11.0]
        self.assertEqual(ab_time.summarize(parent, nine)["verdict"], "gain")
        eight = [1.0] * 8 + [11.0] * 2
        s = ab_time.summarize(parent, eight)
        self.assertEqual((s["wins"], s["verdict"]),
                         (8, "no clear difference"))

    def test_ties_are_not_wins(self):
        s = ab_time.summarize([1.0] * 10, [1.0] * 10)
        self.assertEqual((s["wins"], s["verdict"]),
                         (0, "no clear difference"))

    def test_loss_and_higher_is_better(self):
        parent = [10.0] * 10
        worse = [20.0] * 10
        self.assertEqual(ab_time.summarize(parent, worse)["verdict"], "loss")
        s = ab_time.summarize(parent, worse, higher_better=True)
        self.assertEqual((s["wins"], s["verdict"]), (10, "gain"))

    def test_rates_are_better_higher(self):
        for unit in ("1/s", "B/s"):
            self.assertTrue(ab_time.higher_is_better(unit), unit)
        for unit in ("s", "MiB", "count", "cycles", "J"):
            self.assertFalse(ab_time.higher_is_better(unit), unit)

    def test_table_names_every_metric(self):
        s = {"wall_s": ab_time.summarize([2.0, 2.0], [1.0, 1.0])}
        table = ab_time.format_table(s)
        self.assertIn("wall_s", table)
        self.assertIn("2/2", table)
        self.assertIn("-50.0%", table)


class Compare(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = os.path.join(self.tmp.name, "parent")
        self.change = os.path.join(self.tmp.name, "change")
        self.log = os.path.join(self.tmp.name, "order.log")
        os.environ["AB_LOG"] = self.log

    def tearDown(self):
        self.tmp.cleanup()

    def args(self, *extra):
        return ab_time.parse_args(
            ["--parent", "unused", "--pairs", "4", "--source", "json",
             "--ignore-stdout", "--output", "out.txt"] + list(extra)
            + ["--", sys.executable, "emit.py"])

    def test_pairs_alternate_and_equal_trees_match(self):
        write_tree(self.parent, "parent", 2.0)
        write_tree(self.change, "change", 2.0)
        with contextlib.redirect_stderr(io.StringIO()):
            summaries, mismatches = ab_time.compare(
                self.parent, self.change, self.args())
        self.assertEqual(mismatches, [])
        self.assertEqual(summaries["x_s"]["verdict"], "no clear difference")
        self.assertEqual(summaries["x_s"]["wins"], 0)
        with open(self.log) as f:
            order = f.read().split()
        self.assertEqual(order, ["parent", "change", "change", "parent"] * 2)

    def test_faster_change_is_a_gain(self):
        write_tree(self.parent, "parent", 2.0)
        write_tree(self.change, "change", 1.0)
        with contextlib.redirect_stderr(io.StringIO()):
            summaries, mismatches = ab_time.compare(
                self.parent, self.change, self.args())
        self.assertEqual(sorted(summaries),
                         ["attempted", "count", "failed", "rate", "x_s"])
        self.assertEqual(summaries["x_s"]["verdict"], "gain")
        # The rate fell with x_s, and a lower rate is worse.
        self.assertEqual(summaries["rate"]["verdict"], "loss")
        self.assertEqual(mismatches, [])

    def test_output_file_difference_is_caught(self):
        write_tree(self.parent, "parent", 1.0)
        write_tree(self.change, "change", 1.0, payload="other")
        with contextlib.redirect_stderr(io.StringIO()):
            _, mismatches = ab_time.compare(self.parent, self.change,
                                            self.args())
        self.assertTrue(any("out.txt differs" in m for m in mismatches))
        self.assertTrue(any("+other" in m for m in mismatches))

    def test_stale_output_file_is_not_compared(self):
        # The change no longer writes out.txt, but an earlier run left
        # an identical copy in its tree.
        write_tree(self.parent, "parent", 1.0)
        write_tree(self.change, "change", 1.0)
        os.remove(os.path.join(self.change, "payload.txt"))
        with open(os.path.join(self.change, "out.txt"), "w") as f:
            f.write("same")
        with contextlib.redirect_stderr(io.StringIO()):
            _, mismatches = ab_time.compare(self.parent, self.change,
                                            self.args())
        self.assertTrue(any("out.txt: missing" in m for m in mismatches),
                        mismatches)

    def test_stdout_difference_is_caught_unless_ignored(self):
        # value.txt differs, so the JSON line on stdout differs.
        write_tree(self.parent, "parent", 1.0)
        write_tree(self.change, "change", 3.0)
        args = self.args()
        args.ignore_stdout = False
        with contextlib.redirect_stderr(io.StringIO()):
            _, mismatches = ab_time.compare(self.parent, self.change, args)
        self.assertTrue(any("stdout differs" in m for m in mismatches))

    def test_same_metric_must_not_move(self):
        write_tree(self.parent, "parent", 1.0)
        write_tree(self.change, "change", 3.0)
        with contextlib.redirect_stderr(io.StringIO()):
            _, mismatches = ab_time.compare(
                self.parent, self.change, self.args("--same", "x_s"))
        self.assertTrue(any("x_s: 3.0" in m for m in mismatches))

    def test_failing_command_raises(self):
        write_tree(self.parent, "parent", 1.0)
        write_tree(self.change, "change", 1.0)
        os.remove(os.path.join(self.change, "value.txt"))
        with contextlib.redirect_stderr(io.StringIO()), \
                self.assertRaises(ab_time.RunError):
            ab_time.compare(self.parent, self.change, self.args())


class EndToEnd(unittest.TestCase):
    """main() against a throwaway git repository."""

    def git(self, *argv):
        subprocess.run(["git", "-C", self.repo, "-c", "user.name=ab",
                        "-c", "user.email=ab@example.com"] + list(argv),
                       check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.repo = os.path.join(self.tmp.name, "repo")
        write_tree(self.repo, "tree", 1.0)
        os.environ["AB_LOG"] = os.path.join(self.tmp.name, "order.log")
        self.git("init", "-q")
        self.git("add", "-A")
        self.git("commit", "-q", "-m", "base")
        self.cwd = os.getcwd()
        os.chdir(self.repo)

    def tearDown(self):
        os.chdir(self.cwd)
        self.tmp.cleanup()

    def main(self):
        argv = ["--parent", "HEAD", "--pairs", "2", "--source", "json",
                "--output", "out.txt", "--build", "true",
                "--", sys.executable, "emit.py"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = ab_time.main(argv)
        return code, out.getvalue()

    def test_revision_against_itself_is_identical(self):
        code, out = self.main()
        self.assertEqual(code, 0, out)
        self.assertIn("identical in all 4 runs", out)
        self.assertIn("no clear difference", out)

    def test_injected_output_change_fails(self):
        with open("payload.txt", "w") as f:
            f.write("changed")
        code, out = self.main()
        self.assertEqual(code, 1)
        self.assertIn("OUTPUTS DIFFER", out)
        self.assertIn("+changed", out)

    def test_worktree_is_removed(self):
        self.main()
        listing = subprocess.run(["git", "worktree", "list"], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
        self.assertEqual(len(listing.strip().splitlines()), 1)


if __name__ == "__main__":
    unittest.main()
