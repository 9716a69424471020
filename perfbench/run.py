#!/usr/bin/env python3
"""End-to-end benchmark of the HyGCN simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the simulator library plus the measurement driver)
into .bench_build/perfbench, runs one workload in a single-threaded
driver process, checks its outputs, prints a readable report, and
prints as the last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end set; with --trace 1 the driver records
spans around its calls into the library, writes them as Chrome
trace-event JSON under .bench_build/perfbench/traces/, and the metrics
are the per-layer set. Exits non-zero, printing no result, when the
build or the driver fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

WORKLOADS = ("paper-grid", "serve-hetero", "functional")
# A run must end within 180 s; leave room for the build check and the
# analysis after the driver returns.
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root):
    """Configure once, then build incrementally. Returns the driver path."""
    out = os.path.join(root, ".bench_build", "perfbench")
    exe = os.path.join(out, "perfbench_driver")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return exe, out


def run_driver(exe, out, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_path = os.path.join(out, "traces",
                                  "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = {}
    if trace_path:
        with open(trace_path) as f:
            for event in json.load(f)["traceEvents"]:
                a = event["args"]
                spans[a["id"]] = {"name": event["name"], "args": a,
                                  "parent": a["parent"],
                                  "start": event["ts"] * 1e-6,
                                  "end": (event["ts"] + event["dur"]) * 1e-6}
    return raw, spans, trace_path


def median(values):
    return float(statistics.median(values)) if values else 0.0


def hygcn_calls(raw):
    return [c for c in raw.get("calls", []) if c["platform"] == "hygcn"]


def total(calls, key):
    return float(sum(c[key] for c in calls))


# ---- checks and end-to-end metrics ---------------------------------

def checks_for(raw, root):
    checks = [(c["name"], c["ok"]) for c in raw["checks"]]
    if raw["workload"] == "paper-grid":
        points = m.fig10_fig11_points(raw["calls"])
        baselines = []
        for name in ("BENCH_fig10.json", "BENCH_fig11.json"):
            with open(os.path.join(root, "bench", "baselines", name)) as f:
                baselines.append(json.load(f))
        checks += m.baseline_checks(points, *baselines)
    return checks


def serve_summary(raw):
    """The serving figures of the nominal-load stream and the ladder."""
    s = raw["serve"]
    stream = s["stream"]
    rungs = [{"offered_rps": r["offered_rps"],
              "throughput_rps": r["throughput_rps"],
              "interactive_p99_cycles":
                  r["tenants"]["interactive"]["p99_latency_cycles"]}
             for r in s["ladder"]]
    return {
        "sim_rps": s["stream_requests"] * len(raw["pass_s"]) / s["loop_s"],
        "p99_latency_cycles": stream["p99_latency_cycles"],
        "slo_miss_frac": stream["slo_violations"] / stream["requests"],
        "joules_per_request": stream["joules_per_request"],
        "max_rps_under_slo": m.max_rate_under_slo(
            rungs, s["interactive_slo_cycles"]),
    }


def end_to_end(raw):
    """The end-to-end set: host set-up and timed seconds, peak memory,
    and the simulated HyGCN cycles and joules of the timed work. Every
    workload reports every one of them."""
    if raw["workload"] == "serve-hetero":
        hygcn = raw["serve"]["stream"]["classes"]["hygcn"]
        cycles, joules = hygcn["busy_cycles"], hygcn["joules"]
    else:
        calls = hygcn_calls(raw)
        cycles, joules = total(calls, "cycles"), total(calls, "joules")
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "wall_s": (median(raw["pass_s"]), "s"),
        "peak_rss_mib": (raw["peak_rss_mib"], "MiB"),
        "hygcn_cycles": (cycles, "cycles"),
        "hygcn_joules": (joules, "J"),
    }


def report_figures(raw):
    """Workload-specific figures printed in the readable report: the
    paper gap on the grid, DRAM bytes on the HyGCN workloads, and the
    serving figures on the serving cluster."""
    wl = raw["workload"]
    out = {}
    if wl in ("paper-grid", "functional"):
        out["dram_bytes"] = (total(hygcn_calls(raw), "dram_bytes"), "B")
    if wl == "paper-grid":
        for k, v in m.paper_gaps(m.fig10_fig11_points(raw["calls"])).items():
            out[k] = (v, "log10")
    if wl == "serve-hetero":
        units = {"sim_rps": "1/s", "p99_latency_cycles": "cycles",
                 "slo_miss_frac": "frac", "joules_per_request": "J",
                 "max_rps_under_slo": "1/s"}
        for k, v in serve_summary(raw).items():
            out[k] = (v, units[k])
    return out


# ---- per-layer metrics ---------------------------------------------

class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for sid, span in spans.items():
            self.children.setdefault(span["parent"], []).append(sid)

    def descendants(self, sid):
        stack = list(self.children.get(sid, []))
        while stack:
            child = stack.pop()
            yield self.spans[child]
            stack.extend(self.children.get(child, []))

    def per_top(self, top_name, pred):
        """Summed seconds of matching spans under each top-level span
        named @top_name (one value per set-up repetition or pass)."""
        return [sum(s["end"] - s["start"] for s in self.descendants(sid)
                    if pred(s))
                for sid in self.children.get(-1, [])
                if self.spans[sid]["name"] == top_name]


def is_call(name, **args):
    def pred(span):
        return span["name"] == name and all(
            span["args"].get(k) == v for k, v in args.items())
    return pred


def per_layer(raw, spans):
    """Per-layer host seconds (from spans), simulated counters (from
    the reports the driver read), and host figures. A layer that does
    no work on a workload reads 0."""
    idx = SpanIndex(spans)
    run = "Platform::run"
    hygcn_timing = median(idx.per_top("timed.pass", is_call(run, platform="hygcn", functional=0)))
    twins = median(idx.per_top("twins", is_call(run, platform="hygcn", functional=0)))
    functional_s = median(idx.per_top("timed.pass", is_call(run, platform="hygcn", functional=1)))
    cpu_s = median(idx.per_top("timed.pass", is_call(run, platform="pyg-cpu-part")))
    core_s = hygcn_timing + twins

    hy = hygcn_calls(raw)
    cpu = [c for c in raw.get("calls", []) if c["platform"] == "pyg-cpu-part"]
    dram_requests = total(hy, "dram.requests")
    row_hits = total(hy, "dram.row_hits")
    instructions = total(cpu, "cpu.agg_instructions") + total(cpu, "cpu.comb_instructions")

    def mpki(level):
        """Per-phase MPKI weighted by each phase's instructions."""
        return m.ratio(sum(c["cpu.%s_%s_mpki" % (phase, level)] *
                           c["cpu.%s_instructions" % phase]
                           for c in cpu for phase in ("agg", "comb")),
                       instructions)

    out = {
        "graph.synth_s": (median(idx.per_top("setup", is_call("DatasetCache::get"))), "s"),
        "graph.synth_s.rd": (median(idx.per_top("setup", is_call("DatasetCache::get", dataset="RD"))), "s"),
        "graph.windows_total": (total(hy, "plan.windows_total"), "count"),
        "baseline.cpu_s": (cpu_s, "s"),
        "baseline.gpu_s": (median(idx.per_top("timed.pass", is_call(run, platform="pyg-gpu"))), "s"),
        "baseline.instructions": (instructions, "count"),
        "baseline.ns_per_instruction": (m.ratio(cpu_s * 1e9, instructions), "ns"),
        "baseline.l2_mpki": (mpki("l2"), "mpki"),
        "baseline.l3_mpki": (mpki("l3"), "mpki"),
        "core.hygcn_s": (core_s, "s"),
        "core.ns_per_dram_request": (m.ratio(core_s * 1e9, dram_requests), "ns"),
        "core.agg_busy_cycles": (total(hy, "agg.busy_cycles"), "cycles"),
        "core.comb_busy_cycles": (total(hy, "comb.busy_cycles"), "cycles"),
        "mem.dram_requests": (dram_requests, "count"),
        "mem.row_hit_frac": (m.ratio(row_hits, row_hits + total(hy, "dram.row_misses")), "frac"),
        "model.functional_s": (functional_s, "s"),
        "model.kernel_extra_s": (functional_s - twins if functional_s else 0.0, "s"),
        "model.reference_s": (median(idx.per_top("check", is_call("ReferenceExecutor::run"))), "s"),
    }

    serve = raw.get("serve", {})
    stream = serve.get("stream", {})
    classes = stream.get("classes", {})
    loop_s = median(idx.per_top("timed.pass", is_call("serve::runServe", phase="stream")))
    out.update({
        "serve.price_s": (median(idx.per_top("setup", is_call("serve::runServe", phase="warmup"))), "s"),
        "serve.priced_runs": (float(serve.get("priced_runs", 0.0)), "count"),
        "serve.loop_s": (loop_s, "s"),
        "serve.ns_per_request": (m.ratio(loop_s * 1e9, serve.get("stream_requests", 0.0)), "ns"),
        "serve.ladder_s": (median(idx.per_top("timed.pass", is_call("serve::runServe", phase="ladder"))), "s"),
        "serve.batches": (float(stream.get("batches", 0.0)), "count"),
        "serve.mean_batch_size": (float(stream.get("mean_batch_size", 0.0)), "count"),
        "serve.mean_queue_wait_cycles": (float(stream.get("mean_queue_wait_cycles", 0.0)), "cycles"),
    })
    for cls in ("hygcn", "pyg-gpu"):
        out["serve.util." + cls] = (
            float(classes.get(cls, {}).get("utilization", 0.0)), "frac")

    calls = m.call_stats([s["end"] - s["start"] for s in spans.values()
                          if s["name"] == run])
    out.update({
        "platform.run_ms.p50": (calls["p50"], "ms"),
        "platform.run_ms.tail": (calls["tail"], "ms"),
        "platform.run_ms.tail_pct": (calls["tail_pct"], "pct"),
        "platform.runs": (float(calls["count"]), "count"),
    })

    # The benchmark's own time: driver spans minus the library calls
    # inside them.
    own = m.self_times(spans)
    driver_spans = ("setup", "timed.pass", "twins", "check")
    # The first set-up repetition runs cold; compare only warm ones.
    warm = list(zip(raw["setup_s"], raw["setup_traced"]))[1:]
    traced = [t for t, flag in warm if flag]
    untraced = [t for t, flag in warm if not flag]
    out.update({
        "bench.self_s": (sum(own[sid] for sid, s in spans.items()
                             if s["name"] in driver_spans), "s"),
        "host.cpu_s": (raw["cpu_s"], "s"),
        "host.probe_s": (raw["probe_s"], "s"),
        "trace.overhead_frac": (m.ratio(median(traced) - median(untraced),
                                        median(untraced)), "frac"),
    })
    return out


# ---- entry point ---------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20200222)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        exe, out = build(root)
        raw, spans, trace_path = run_driver(exe, out, args)
        checks = checks_for(raw, root)
        figures = end_to_end(raw) if args.trace == 0 else per_layer(raw, spans)
        report = report_figures(raw)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log("perfbench: %s" % err)
        return 1

    for name, (_, unit) in {**figures, **report}.items():
        if not (m.valid_name(name) and m.valid_unit(unit)):
            log("perfbench: malformed metric %r [%r]" % (name, unit))
            return 1

    failed = [name for name, ok in checks if not ok]
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for name, (value, unit) in list(figures.items()) + list(report.items()):
        print("  %-30s %18.6g %s" % (name, value, unit))
    print("  checks: %d attempted, %d failed" % (len(checks), len(failed)))
    for name in failed:
        print("  FAILED: " + name)
    if trace_path:
        print("  trace: " + os.path.relpath(trace_path, root))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
