/**
 * @file
 * Simulator-throughput harness: how many *simulated* requests per
 * wallclock second the serving core sustains, the metric the
 * million-user north star actually stresses. One seeded heavy-tail
 * request stream (scaled Cora + Citeseer GCN inferences) runs
 * through fifo and edf on a 4-instance cluster with the streaming
 * stats sink, so memory stays bounded while the O(log n) event loop
 * does the work; the default run pushes one million requests per
 * policy and reports sim-requests/s plus peak RSS (Linux VmHWM).
 *
 * With --json PATH the harness writes the machine-readable
 * BENCH_scale.json consumed by the CI bench-regression gate —
 * sim_rps is wallclock-derived (unlike the cycle-exact fig gates),
 * so the checked-in baseline is recorded conservatively: --baseline
 * PATH writes the same JSON with sim_rps derated 8x, giving slower
 * CI hosts headroom while the 25% gate still catches
 * order-of-magnitude regressions (per-request records creeping back,
 * a scan reappearing in the event loop).
 *
 * With --smoke the harness runs 100k requests per policy against a
 * hard time budget and exits nonzero on overrun or on inconsistent
 * streamed stats — the tier-1 ctest entry keeping the scale path
 * honest.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "api/serve_session.hpp"
#include "bench/common.hpp"
#include "serve/scheduler.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

/** Per-policy time budget for --smoke, generous for 1-core CI. */
constexpr double kSmokeBudgetSeconds = 30.0;

serve::ServeConfig
scaleWorkload(const std::string &policy, std::uint64_t requests)
{
    // Heavy-tail arrivals at a load the 4-instance cluster clears
    // (queues stay short, so the run measures the event loop, not
    // a saturated backlog), with SLO'd tenants so edf has deadlines
    // to order by and the sink's per-tenant accounting is exercised.
    serve::ServeConfig config =
        api::ServeSession()
            .platform("hygcn")
            .datasetScale(0.25)
            .scenario("cora", "gcn")
            .scenario("citeseer", "gcn")
            .tenant("interactive", 0.7, {3.0, 1.0}, 2000000, 0.0)
            .tenant("analytics", 0.3, {1.0, 3.0}, 0, 1.0)
            .requests(requests)
            .meanInterarrival(30000.0)
            .seed(kSeed)
            .batching({.maxBatch = 8, .timeoutCycles = 500000})
            .instances(4)
            .policy(policy)
            .arrival({.process = "heavy-tail"})
            .stats({.streaming = true})
            .config();
    return config;
}

/** Peak resident set in MiB (Linux VmHWM), or 0 when unavailable. */
double
peakRssMiB()
{
#ifdef __linux__
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) {
            const double kib = std::atof(line.c_str() + 6);
            return kib / 1024.0;
        }
#endif
    return 0.0;
}

struct ScalePoint
{
    std::string label;
    std::uint64_t requests = 0;
    double wallSeconds = 0.0;
    double simRps = 0.0;
    serve::ServeStats stats;
};

ScalePoint
runCase(const std::string &policy, std::uint64_t requests)
{
    const serve::ServeConfig config = scaleWorkload(policy, requests);
    const auto start = std::chrono::steady_clock::now();
    const serve::ServeResult result = serve::runServe(config);
    const auto stop = std::chrono::steady_clock::now();

    ScalePoint point;
    point.label = policy + "/heavy-tail";
    point.requests = requests;
    point.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    point.simRps = point.wallSeconds > 0.0
                       ? static_cast<double>(requests) / point.wallSeconds
                       : 0.0;
    point.stats = result.stats;
    return point;
}

/** Consistency checks on a streamed run; prints and counts failures. */
int
checkStreamedStats(const ScalePoint &point)
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "FAIL %s: %s\n", point.label.c_str(),
                         what);
            ++failures;
        }
    };
    expect(point.stats.requests == point.requests,
           "streamed stats lost requests");
    expect(point.stats.batches > 0, "no batches dispatched");
    expect(point.stats.makespanCycles > 0, "zero makespan");
    expect(point.stats.p99LatencyCycles >=
               point.stats.p50LatencyCycles,
           "p99 below p50");
    expect(point.stats.meanLatencyCycles > 0.0, "zero mean latency");
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bool smoke = false;
    double derate = 1.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--baseline") == 0 &&
                 i + 1 < argc) {
            json_path = argv[++i];
            derate = 8.0;
        } else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    const std::uint64_t requests = smoke ? 100000 : 1000000;

    banner("serve_scale",
           "simulator throughput: streamed heavy-tail serving at "
           "scale (sim requests per wallclock second)");

    // Scenario pricing warms the process-wide cache outside the
    // timed region (one small materialized run), so every timed case
    // measures the event loop, not the accelerator model.
    serve::ServeConfig warm = scaleWorkload("fifo", 256);
    warm.stats.streaming = false;
    serve::runServe(warm);

    std::printf("\nstream: heavy-tail, mean interarrival 30 kcycles, "
                "4 instances, max batch 8, streaming sink\n");
    header("case", {"req x1k", "wall s", "sim rps", "p99 kcyc",
                    "util %", "rss MiB"});

    std::vector<ScalePoint> series;
    int failures = 0;
    for (const char *policy : {"fifo", "edf"}) {
        const ScalePoint point = runCase(policy, requests);
        double util_sum = 0.0;
        for (double u : point.stats.instanceUtilization)
            util_sum += u;
        const double util =
            point.stats.instanceUtilization.empty()
                ? 0.0
                : util_sum / static_cast<double>(
                                 point.stats.instanceUtilization.size());
        row(point.label,
            {static_cast<double>(point.requests) / 1e3,
             point.wallSeconds, point.simRps,
             point.stats.p99LatencyCycles / 1e3, util * 100.0,
             peakRssMiB()});
        failures += checkStreamedStats(point);
        if (smoke && point.wallSeconds > kSmokeBudgetSeconds) {
            std::fprintf(stderr,
                         "FAIL %s: %.1f s exceeds the %.0f s smoke "
                         "budget\n",
                         point.label.c_str(), point.wallSeconds,
                         kSmokeBudgetSeconds);
            ++failures;
        }
        series.push_back(point);
    }

    std::printf("\npeak RSS %.1f MiB across %llu simulated requests "
                "per case (streaming sink: no per-request records)\n",
                peakRssMiB(),
                static_cast<unsigned long long>(requests));

    if (!json_path.empty()) {
        std::string out = "{\"bench\":\"serve_scale\",\"series\":[";
        for (std::size_t i = 0; i < series.size(); ++i) {
            const ScalePoint &p = series[i];
            if (i)
                out += ",";
            out += "{\"case\":\"" + p.label +
                   "\",\"requests\":" + std::to_string(p.requests) +
                   ",\"wall_seconds\":" + jsonNumber(p.wallSeconds) +
                   ",\"sim_rps\":" + jsonNumber(p.simRps / derate) +
                   ",\"p99_latency_cycles\":" +
                   jsonNumber(p.stats.p99LatencyCycles) +
                   ",\"peak_rss_mib\":" + jsonNumber(peakRssMiB()) +
                   "}";
        }
        out += "]";
        if (derate != 1.0)
            out += ",\"baseline_derate\":" + jsonNumber(derate);
        out += "}";
        if (!writeJson(json_path, out))
            return 1;
    }

    if (failures > 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    return 0;
}
