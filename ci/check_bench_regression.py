#!/usr/bin/env python3
"""Gate host-timed bench metrics against a checked-in baseline.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [MAX_REL]

The bench schema is selected by the documents' "bench" field:

- serve_scale: compares the simulated-requests-per-wallclock-second
  of every series case (higher is better). The checked-in baseline is
  recorded derated 8x (serve_scale --baseline), so the gate trips on
  order-of-magnitude simulator-throughput regressions, not host
  noise.
- spmm_kernels: compares the single-thread vectorized speedup of the
  functional-core kernels over the scalar reference loops per case
  (higher is better). A within-process wallclock ratio, recorded
  derated 2x (spmm_kernels --baseline), so the gate catches the
  kernels regressing toward scalar-grade code, not host noise.

Only host-timed documents have a tolerance. Every document that holds
only simulated numbers (the paper and serving figures) is byte-pinned
by ctest's pin_* tests instead, so its id is unknown here.

Exit codes: 0 ok, 1 regression, 2 malformed input or unknown bench id.
"""

import json
import sys

# (section, key field, metric field, better) per bench id. A "higher"
# metric regresses when it shrinks.
SCHEMAS = {
    "serve_scale": ("series", "case", "sim_rps", "higher"),
    # Thread-scaling columns are reported but not gated: CI runners
    # are often single-core.
    "spmm_kernels": ("cases", "case", "speedup_vec", "higher"),
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def malformed(message):
    print(f"error: malformed bench document: {message}", file=sys.stderr)
    sys.exit(2)


def index(doc, section, key):
    out = {}
    for entry in doc.get(section, []):
        if not isinstance(entry, dict) or key not in entry:
            malformed(f"{section} entry {entry!r} has no {key!r}")
        out[entry[key]] = entry
    return out


def number(entry, metric):
    try:
        return float(entry[metric])
    except (KeyError, TypeError, ValueError):
        malformed(f"{metric} of {entry!r} is not a number")


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    current = load(argv[1])
    baseline = load(argv[2])
    max_rel = float(argv[3]) if len(argv) > 3 else 0.25

    bench = baseline.get("bench")
    if bench not in SCHEMAS:
        print(f"error: unknown bench id {bench!r}", file=sys.stderr)
        return 2
    section, key, metric, better = SCHEMAS[bench]
    cur = index(current, section, key)
    base = index(baseline, section, key)

    failures = []
    missing = sorted(set(base) - set(cur), key=str)
    if missing:
        failures.append(f"{section}: missing entries {missing}")
    checked = 0
    for name, base_entry in sorted(base.items(), key=lambda kv: str(kv[0])):
        if name not in cur:
            continue
        if metric not in cur[name]:
            failures.append(
                f"{section}[{name}]: baseline has {metric} but the "
                f"current run does not"
            )
            continue
        base_val = number(base_entry, metric)
        cur_val = number(cur[name], metric)
        checked += 1
        if base_val <= 0.0:
            continue
        # Positive rel always means "got worse", whatever the
        # metric's direction.
        rel = cur_val / base_val - 1.0
        if better == "higher":
            rel = -rel
        tag = (
            f"{section}[{name}] {metric} {base_val:.6g} -> "
            f"{cur_val:.6g} ({rel:+.1%} worse)"
        )
        if rel > max_rel:
            failures.append(f"REGRESSION {tag} exceeds +{max_rel:.0%}")
        else:
            print(f"ok {tag}")
            if rel < -max_rel:
                print(
                    f"  note: large improvement; consider refreshing "
                    f"bench/baselines with the new numbers"
                )

    if checked == 0:
        failures.append("no comparable metric entries found")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
