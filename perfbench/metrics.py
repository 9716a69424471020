"""Pure metric logic of the end-to-end benchmark.

Everything here is a function of the driver's raw measurements, so it
is unit-tested in test_metrics.py without building the simulator:
the paper-gap formula, the load ladder's max-rate selection, span
self time, per-call percentile selection, the metric-name grammar,
and the assembly of the end-to-end and per-layer metric sets.
"""

import math
import re
import statistics

# The paper's headline averages (HyGCN, HPCA 2020, fig10(c) and fig11):
# speedup over PyG-CPU / PyG-GPU and energy reduction over the same.
PAPER_CPU_SPEEDUP = 1509.0
PAPER_GPU_SPEEDUP = 6.5
PAPER_CPU_ENERGY = 2500.0
PAPER_GPU_ENERGY = 10.0

# Percentiles considered for a per-call tail, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A reported tail percentile must leave at least this many samples
# beyond it.
MIN_SAMPLES_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """Metric/workload names: a letter or digit, then at most 63 of
    letters, digits, '_', '.' and '-'."""
    return bool(_NAME.fullmatch(name))


def valid_unit(unit):
    return bool(_UNIT.fullmatch(unit))


def paper_gap(reproduced, paper):
    """|log10(reproduced / paper)|: 0 is a perfect match, 1 a 10x gap."""
    if reproduced <= 0 or paper <= 0:
        raise ValueError("paper gap needs positive averages")
    return abs(math.log10(reproduced / paper))


def fig10_fig11_points(calls):
    """Per-case fig10(c) speedups and fig11 normalized energies (%)
    from the grid's raw calls, exactly as the fig10/fig11 harnesses
    compute them. GPU entries are absent for OoM cells."""
    by_case = {}
    for call in calls:
        by_case.setdefault(call["case"], {})[call["platform"]] = call
    points = {}
    for case, runs in by_case.items():
        h, cpu, gpu = runs["hygcn"], runs["pyg-cpu-part"], runs.get("pyg-gpu")
        point = {
            "vs_cpu": cpu["seconds"] / h["seconds"],
            "vs_cpu_pct": h["joules"] / cpu["joules"] * 100.0,
        }
        if gpu is not None:
            point["vs_gpu"] = gpu["seconds"] / h["seconds"]
            point["vs_gpu_pct"] = h["joules"] / gpu["joules"] * 100.0
        points[case] = point
    return points


def paper_gaps(points):
    """The four accuracy figures, using fig10/fig11's arithmetic
    averaging over cases (GPU averages skip OoM cells)."""

    def mean(key):
        return statistics.fmean(p[key] for p in points.values() if key in p)

    return {
        "paper_gap.cpu_speedup": paper_gap(mean("vs_cpu"), PAPER_CPU_SPEEDUP),
        "paper_gap.gpu_speedup": paper_gap(mean("vs_gpu"), PAPER_GPU_SPEEDUP),
        "paper_gap.cpu_energy": paper_gap(100.0 / mean("vs_cpu_pct"),
                                          PAPER_CPU_ENERGY),
        "paper_gap.gpu_energy": paper_gap(100.0 / mean("vs_gpu_pct"),
                                          PAPER_GPU_ENERGY),
    }


def baseline_checks(points, fig10, fig11):
    """One (name, ok) check per baseline value: each fig10(c) and fig11
    number must equal the checked-in baseline at %.9g, and the case
    sets must agree."""
    checks = []
    for doc, fields in ((fig10, ("vs_cpu", "vs_gpu")),
                        (fig11, ("vs_cpu_pct", "vs_gpu_pct"))):
        expected = {entry["case"]: entry for entry in doc["hygcn"]}
        checks.append((doc["bench"] + " case set", set(expected) == set(points)))
        for case, entry in expected.items():
            got = points.get(case, {})
            for field in fields:
                if field in entry or field in got:
                    ok = (field in entry and field in got and
                          "%.9g" % got[field] == "%.9g" % entry[field])
                    checks.append(("%s %s %s" % (doc["bench"], case, field), ok))
    return checks


def max_rate_under_slo(rungs, slo_cycles, keep_up=0.95):
    """Highest offered rate of the load ladder that meets the SLO.

    A rung passes when the interactive tenant's p99 latency is within
    @slo_cycles and served throughput keeps up with the offered rate
    (>= keep_up of it, i.e. no growing backlog). Rungs are taken in
    increasing offered rate and the climb stops at the first failure,
    so a lucky rung above a failing one never counts. Returns 0.0 when
    the lowest rung already fails.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r["offered_rps"]):
        meets = rung["interactive_p99_cycles"] <= slo_cycles
        keeps_up = rung["throughput_rps"] >= keep_up * rung["offered_rps"]
        if not (meets and keeps_up):
            break
        best = rung["offered_rps"]
    return best


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children. @spans maps id ->
    {"start", "end", "parent"}; returns id -> seconds."""
    children = {}
    for sid, span in spans.items():
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for sid, span in spans.items():
        covered, cursor = 0.0, span["start"]
        for child in sorted(children.get(sid, []), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (span["end"] - span["start"]) - covered
    return out


def percentile(samples, pct):
    """Linear-interpolation percentile (numpy's default convention)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(samples, ladder=PERCENTILE_LADDER,
                    min_beyond=MIN_SAMPLES_BEYOND):
    """(pct, value) of the highest ladder percentile that leaves at
    least @min_beyond samples beyond it. With too few samples for any
    ladder rung this is the median, labelled 50."""
    chosen = ladder[0]
    for pct in ladder:
        value = percentile(samples, pct)
        if sum(1 for s in samples if s > value) >= min_beyond:
            chosen = pct
    return chosen, percentile(samples, chosen)


def call_stats(durations_s):
    """Per-call host time summary: median, tail, tail percentile, count
    (all zero when the call kind never ran on this workload)."""
    if not durations_s:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "count": 0}
    ms = [d * 1e3 for d in durations_s]
    pct, tail = tail_percentile(ms)
    return {"p50": percentile(ms, 50.0), "tail": tail, "tail_pct": pct,
            "count": len(ms)}


def ratio(numerator, denominator):
    """numerator / denominator, 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0
