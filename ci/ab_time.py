#!/usr/bin/env python3
"""A/B timing of a parent revision against the working tree (stdlib only).

Usage (from anywhere inside the repository):

    ci/ab_time.py --parent REV [options] -- COMMAND [ARG...]

The tool checks REV out with `git worktree` into a temporary directory,
runs the --build command in that checkout and in the working tree, and
then runs COMMAND --pairs times on each side, in alternating order
(parent first in even pairs, change first in odd ones). Each run has
MALLOC_MMAP_THRESHOLD_ pinned, so glibc's heap layout does not drift
between runs, and runs under `taskset -c CPUS` when --cpus is given.
COMMAND runs with the tree's root as its working directory.

Every build and run starts in a process group of its own. On the way
out, including on SIGTERM, the tool kills the group of a child still
running and removes the worktree and its temporary directory.

Metrics come from --source:

- wall: the command's wall time, as the metric wall_s;
- json: the last stdout line, read as perfbench's result object
  ({"correct", "attempted", "failed", "metrics": {name: {"value"}}}).
  A result that is not correct counts as a failed run.

For each metric it prints the median [q1, q3] of each side, how many
pairs the change won, the parent's interquartile range (IQR), and the
verdict of the 9-in-10 rule: the change wins at least 9 of every 10
pairs and its median beats the parent's by more than the parent's IQR.
Lower is better, except for rates: a metric whose unit ends in "/s"
is better higher.

Every run's stdout and every --output file must equal, byte for byte,
those of the first parent run. Each --output file is deleted before
every run, so a run that does not write it fails the compare. --ignore-stdout skips stdout for
commands that print host timings; --same METRIC then requires a json
metric (a simulated count, say) to be equal instead.

Examples:

    # paper_figures: wall time, stdout and the three figure JSONs.
    ci/ab_time.py --parent HEAD~1 --pairs 10 \\
        --build 'cmake -S . -B build-ab -G Ninja && \\
                 cmake --build build-ab --target paper_figures' \\
        --output BENCH_fig10.json --output BENCH_fig11.json \\
        --output BENCH_fig12.json \\
        -- build-ab/bench/paper_figures --json-dir .

    # A perfbench workload; run.py builds on its first run.
    ci/ab_time.py --parent HEAD~1 --pairs 10 --source json \\
        --ignore-stdout --same hygcn_cycles --same hygcn_joules \\
        -- python3 perfbench/run.py --workload paper-grid --seed 1

Exit codes: 0 every output matched; 1 an output differed or a run or
build failed; 2 bad usage or git failure; 143 stopped by SIGTERM.
"""

import argparse
import contextlib
import difflib
import json
import math
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# glibc's mmap threshold, pinned in every run. Left dynamic, it moves
# with the process's allocation history, and the heap layout with it.
MMAP_THRESHOLD = 1 << 20


class RunError(Exception):
    """A command or a build failed."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---- statistics ----------------------------------------------------

def quartiles(xs):
    """(q1, median, q3) of xs, inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def higher_is_better(unit):
    """Rates (1/s, B/s) improve upward; times, sizes and counts down."""
    return unit.endswith("/s")


def summarize(parent, change, higher_better=False):
    """Compare paired samples; parent[i] and change[i] ran as pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of samples")
    sign = 1 if higher_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    iqr = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    need = math.ceil(0.9 * len(parent))
    if wins >= need and gain > iqr:
        verdict = "gain"
    elif losses >= need and -gain > iqr:
        verdict = "loss"
    else:
        verdict = "no clear difference"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "wins": wins, "pairs": len(parent), "parent_iqr": iqr,
        "delta": (c_med - p_med) / p_med if p_med else float("nan"),
        "verdict": verdict,
    }


def format_table(summaries):
    head = ("%-24s %-30s %-30s %8s %6s %11s  %s"
            % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "delta", "wins", "parent IQR", "9-in-10"))
    lines = [head]
    for name, s in summaries.items():
        side = ["%.4g [%.4g, %.4g]" % s[k] for k in ("parent", "change")]
        delta = ("%+7.1f%%" % (100 * s["delta"])
                 if not math.isnan(s["delta"]) else "n/a")
        lines.append("%-24s %-30s %-30s %8s %6s %11.4g  %s"
                     % (name, side[0], side[1], delta,
                        "%d/%d" % (s["wins"], s["pairs"]),
                        s["parent_iqr"], s["verdict"]))
    return "\n".join(lines)


# ---- running -------------------------------------------------------

def run_child(command, **kwargs):
    """subprocess.run(command, **kwargs), with the child in a process
    group of its own that is killed whole if this process leaves before
    the child is done, so its own children are not left running."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout)


def exit_on_sigterm(signum, _frame):
    """Leave through SystemExit, so every `finally` clean-up runs."""
    sys.exit(128 + signum)


def run_once(command, cwd, env, source, outputs):
    """Run command once. Returns ({metric: (value, unit)}, stdout bytes,
    {file: bytes, or None if the run did not write it})."""
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cwd, path))
    start = time.perf_counter()
    proc = run_child(command, cwd=cwd, env=env, stdout=subprocess.PIPE)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RunError("%s exited with %d in %s"
                       % (shlex.join(command), proc.returncode, cwd))
    if source == "wall":
        metrics = {"wall_s": (wall, "s")}
    else:
        lines = proc.stdout.decode(errors="replace").strip().splitlines()
        try:
            result = json.loads(lines[-1])
            metrics = {k: (v["value"], v["unit"])
                        for k, v in result["metrics"].items()}
            metrics["attempted"] = (result["attempted"], "count")
            metrics["failed"] = (result["failed"], "count")
            correct = result["correct"]
        except (IndexError, ValueError, KeyError, TypeError) as err:
            raise RunError("no result object on stdout (%s)" % err)
        if not correct:
            raise RunError("result not correct in %s" % cwd)
    files = {}
    for path in outputs:
        try:
            with open(os.path.join(cwd, path), "rb") as f:
                files[path] = f.read()
        except OSError:
            files[path] = None
    return metrics, proc.stdout, files


def describe_diff(label, want, got):
    if want is None or got is None:
        return ["%s: %s" % (label, "missing in the first parent run"
                            if want is None else "missing")]
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        "first parent run", "this run", lineterm="", n=1)
    return ["%s differs:" % label] + ["  " + d for d in list(diff)[:20]]


class Mismatches:
    """Collects how runs differ from the first parent run."""

    def __init__(self, ignore_stdout, same):
        self.ignore_stdout = ignore_stdout
        self.same = same
        self.reference = None
        self.found = []

    def check(self, tag, metrics, stdout, files):
        if self.reference is None:
            self.reference = (metrics, stdout, files)
            return
        want_metrics, want_stdout, want_files = self.reference
        if not self.ignore_stdout and stdout != want_stdout:
            self.found += describe_diff(tag + " stdout", want_stdout, stdout)
        for path, data in files.items():
            if data != want_files[path] or data is None:
                self.found += describe_diff(tag + " " + path,
                                            want_files[path], data)
        for name in self.same:
            got = metrics.get(name, (None, ""))[0]
            want = want_metrics.get(name, (None, ""))[0]
            if got != want:
                self.found.append("%s %s: %r, first parent run %r"
                                  % (tag, name, got, want))


def compare(parent_dir, change_dir, args):
    """Alternate the pairs. Returns (summaries, mismatch lines)."""
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD))
    command = list(args.command)
    if args.cpus:
        command = ["taskset", "-c", args.cpus] + command
    same = list(args.same) + (["attempted", "failed"]
                              if args.source == "json" else [])
    mismatches = Mismatches(args.ignore_stdout, same)
    samples = {"parent": [], "change": []}
    sides = (("parent", parent_dir), ("change", change_dir))
    for i in range(args.pairs):
        for side, cwd in (sides if i % 2 == 0 else sides[::-1]):
            metrics, stdout, files = run_once(command, cwd, env,
                                              args.source, args.output)
            mismatches.check("%s run %d" % (side, i + 1), metrics, stdout,
                             files)
            samples[side].append(metrics)
        log("pair %d/%d: %s" % (i + 1, args.pairs, "  ".join(
            "%s %s" % (side, " ".join(
                "%s=%.4g" % (k, v)
                for k, (v, _) in sorted(samples[side][-1].items())))
            for side in ("parent", "change"))))
    summaries = {}
    for name, (_, unit) in sorted(samples["parent"][0].items()):
        summaries[name] = summarize(
            [m[name][0] for m in samples["parent"]],
            [m[name][0] for m in samples["change"]],
            higher_better=higher_is_better(unit))
    return summaries, mismatches.found


def build(command, cwd):
    if not command:
        return
    log("build in %s: %s" % (cwd, command))
    proc = run_child(command, shell=True, cwd=cwd, text=True,
                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        log(proc.stdout)
        raise RunError("build failed in %s" % cwd)


def git(root, *argv):
    return subprocess.run(["git", "-C", root] + list(argv), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="See the module docstring for the full description.")
    parser.add_argument("--parent", required=True,
                        help="revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--build", default="",
                        help="shell command run in each tree's root first")
    parser.add_argument("--source", choices=("wall", "json"), default="wall")
    parser.add_argument("--output", action="append", default=[],
                        help="file (relative to the tree root) that must "
                             "match byte for byte")
    parser.add_argument("--ignore-stdout", action="store_true")
    parser.add_argument("--same", action="append", default=[],
                        help="json metric that must be equal in every run")
    parser.add_argument("--cpus", default="",
                        help="CPU list for taskset -c")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command[:1] == ["--"]:
        args.command = args.command[1:]
    if not args.command:
        parser.error("no command given after --")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    try:
        root = git(os.getcwd(), "rev-parse", "--show-toplevel")
        rev = git(root, "rev-parse", "--verify", args.parent + "^{commit}")
    except (subprocess.CalledProcessError, OSError) as err:
        log("ab_time: %s" % err)
        return 2
    tmp = tempfile.mkdtemp(prefix="ab_time.")
    parent_dir = os.path.join(tmp, "parent")
    try:
        git(root, "worktree", "add", "--detach", parent_dir, rev)
        build(args.build, parent_dir)
        build(args.build, root)
        summaries, mismatches = compare(parent_dir, root, args)
    except subprocess.CalledProcessError as err:
        log("ab_time: %s" % err)
        return 2
    except (RunError, OSError) as err:
        log("ab_time: %s" % err)
        return 1
    finally:
        subprocess.run(["git", "-C", root, "worktree", "remove", "--force",
                        parent_dir], stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)

    print("parent %s vs working tree, %d pairs: %s"
          % (rev[:12], args.pairs, shlex.join(args.command)))
    print(format_table(summaries))
    if mismatches:
        print("OUTPUTS DIFFER:")
        print("\n".join(mismatches))
        return 1
    print("outputs: identical in all %d runs" % (2 * args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
