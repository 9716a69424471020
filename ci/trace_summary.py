#!/usr/bin/env python3
"""Summarize trace-driven workload artifacts (stdlib only).

Usage: trace_summary.py FILE [FILE...]

Two file kinds, auto-detected:

- A seed-aggregated sweep JSON (ServeSweep::runAggregated() via
  toJson): prints one line per sweep point with the p99 and
  SLO-violation error bars, so a CI log shows the bars without
  downloading the artifact.
- A "# hygcn-trace v1" CSV (workload/trace.hpp): prints the request
  count, span, mean interarrival gap, and per-tenant/per-scenario
  request counts — a quick sanity check of a recorded trace.

Exit codes: 0 ok, 2 unreadable/unrecognized input.
"""

import collections
import json
import sys

TRACE_HEADER = "# hygcn-trace v1"


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def summarize_sweep(path, aggregates):
    print(f"{path}: {len(aggregates)} sweep point(s)")
    for agg in aggregates:
        try:
            config = agg["config"]
            label = (
                f"{config['policy']}/b{config['max_batch']}"
                f" [{config['arrival']['process']}]"
            )
            p99 = agg["p99_latency_cycles"]
            slo = agg["slo_violations"]
            print(
                f"  {label}: seeds={len(agg['seeds'])}"
                f" p99={p99['mean']:.0f}+/-{p99['stddev']:.0f}cyc"
                f" slo_miss={slo['mean']:.1f}+/-{slo['stddev']:.1f}"
            )
        except (KeyError, TypeError) as exc:
            fail(f"{path}: sweep point lacks {exc}")


def summarize_trace(path, lines):
    arrivals = []
    tenants = collections.Counter()
    scenarios = collections.Counter()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            fail(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        try:
            arrival = int(fields[0])
        except ValueError:
            fail(f"{path}:{lineno}: bad arrival cycle {fields[0]!r}")
        if arrivals and arrival < arrivals[-1]:
            fail(f"{path}:{lineno}: arrivals go backwards")
        arrivals.append(arrival)
        tenants[fields[1]] += 1
        scenarios[fields[2]] += 1
    if not arrivals:
        print(f"{path}: empty trace")
        return
    span = arrivals[-1] - arrivals[0]
    mean_gap = span / (len(arrivals) - 1) if len(arrivals) > 1 else 0.0
    print(
        f"{path}: {len(arrivals)} request(s), span {span} cycles,"
        f" mean gap {mean_gap:.0f} cycles"
    )
    for name, count in sorted(tenants.items()):
        print(f"  tenant {name}: {count}")
    for name, count in sorted(scenarios.items()):
        print(f"  scenario {name}: {count}")


def main(argv):
    if len(argv) < 2:
        fail("usage: trace_summary.py FILE [FILE...]")
    for path in argv[1:]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            fail(f"cannot read {path}: {exc}")
        if text.splitlines() and text.splitlines()[0] == TRACE_HEADER:
            summarize_trace(path, text.splitlines())
            continue
        try:
            doc = json.loads(text)
        except ValueError as exc:
            fail(f"{path}: neither a hygcn trace nor JSON: {exc}")
        if not isinstance(doc, list):
            fail(f"{path}: expected an aggregated-sweep JSON array")
        summarize_sweep(path, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
