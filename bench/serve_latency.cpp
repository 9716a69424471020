/**
 * @file
 * Serving-scale companion to the Figure 18 scalability study: one
 * seeded open-loop request stream (full-size Cora + Citeseer GCN
 * inferences) replayed against clusters of 1..8 replicated HyGCN
 * instances, plus the three scheduling policies head-to-head on the
 * 4-instance cluster. Reports throughput, per-instance utilization,
 * and p50/p95/p99 latency per configuration, and checks that tail
 * latency is monotonically non-increasing in the replica count (or
 * reports the saturation point past which adding instances stops
 * helping). Scenario pricing is shared across every configuration
 * through the process-wide PricedScenarioCache, so the accelerator
 * simulates each scenario exactly once.
 *
 * With --json PATH the harness also writes the machine-readable
 * BENCH_serve.json consumed by the CI bench-regression gate; latency
 * metrics are in cycles, which are deterministic in the config and
 * therefore portable across CI hosts.
 *
 * With --sweep-json PATH the harness additionally runs the
 * "serve-flashcrowd" preset across three seed replicates under fifo
 * and edf, and writes the seed-aggregated error-bar JSON
 * (ServeSweep::runAggregated()) — the artifact CI uploads so tail
 * metrics under an adversarial arrival process come with stddev
 * bars, not single-seed point estimates.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "api/serve_session.hpp"
#include "api/serve_sweep.hpp"
#include "bench/common.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

serve::ServeConfig
scalingWorkload(std::uint32_t instances)
{
    // The stream is generated from (seed, arrival process, mix)
    // only, so every cluster size replays identical traffic.
    serve::ServeConfig config =
        api::ServeSession()
            .platform("hygcn")
            .scenario("cora", "gcn")
            .scenario("citeseer", "gcn")
            .requests(512)
            .meanInterarrival(250000.0)
            .seed(kSeed)
            .batching({.maxBatch = 8, .timeoutCycles = 500000})
            .instances(instances)
            .config();
    return config;
}

/** The same stream under a named policy, with SLO'd tenants so EDF
 *  and fair share have something to act on. */
serve::ServeConfig
policyWorkload(const std::string &policy)
{
    serve::ServeConfig config = scalingWorkload(4);
    config.policy = policy;
    config.tenants = {
        serve::TenantMix{"interactive", 0.7, {3.0, 1.0}, 2000000, 0.0},
        serve::TenantMix{"analytics", 0.3, {1.0, 3.0}, 0, 1.0}};
    return config;
}

struct SeriesPoint
{
    std::uint32_t instances = 0;
    serve::ServeStats stats;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string sweep_json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--sweep-json") == 0 &&
                 i + 1 < argc)
            sweep_json_path = argv[++i];
    }

    banner("serve_latency",
           "request-serving scalability, 1..8 HyGCN instances "
           "(GCN on full CR+CS, 512 seeded requests)");

    std::printf("\nstream: open loop, mean interarrival 250 kcycles, "
                "max batch 8, batch timeout 500 kcycles\n");
    header("instances", {"thru rps", "p50 kcyc", "p95 kcyc",
                         "p99 kcyc", "util %", "min ut %"});

    std::vector<SeriesPoint> series;
    for (std::uint32_t instances = 1; instances <= 8; instances *= 2) {
        const serve::ServeResult result =
            serve::runServe(scalingWorkload(instances));
        const serve::ServeStats &stats = result.stats;
        double util_sum = 0.0, util_min = 1.0;
        for (double u : stats.instanceUtilization) {
            util_sum += u;
            util_min = std::min(util_min, u);
        }
        row(std::to_string(instances),
            {stats.throughputRps, stats.p50LatencyCycles / 1e3,
             stats.p95LatencyCycles / 1e3, stats.p99LatencyCycles / 1e3,
             util_sum / static_cast<double>(instances) * 100.0,
             util_min * 100.0});
        series.push_back({instances, stats});
    }

    // Policies head-to-head on the 4-instance cluster: identical
    // traffic, different dispatch order.
    std::printf("\nscheduling policies, 4 instances, two tenants "
                "(interactive SLO 2 Mcycles / analytics best-effort)\n");
    header("policy", {"thru rps", "p99 kcyc", "int p99", "slo miss"});
    std::vector<std::pair<std::string, serve::ServeStats>> policies;
    for (const char *policy : {"fifo", "edf", "fair-share"}) {
        const serve::ServeResult result =
            serve::runServe(policyWorkload(policy));
        const serve::ServeStats &stats = result.stats;
        row(policy,
            {stats.throughputRps, stats.p99LatencyCycles / 1e3,
             stats.tenantStats.at(0).p99LatencyCycles / 1e3,
             static_cast<double>(stats.tenantStats.at(0).sloViolations)});
        policies.emplace_back(policy, stats);
    }

    // Tail-latency scaling verdict: non-increasing p99, or the
    // saturation point past which more replicas stop helping.
    std::size_t saturation = series.size();
    for (std::size_t i = 1; i < series.size(); ++i)
        if (series[i].stats.p99LatencyCycles >
            series[i - 1].stats.p99LatencyCycles * (1.0 + 1e-9)) {
            saturation = i;
            break;
        }
    if (saturation == series.size()) {
        std::printf("\np99 latency is monotonically non-increasing in "
                    "the instance count\n");
    } else {
        std::printf("\np99 saturates at %u instances (further replicas "
                    "leave the tail to the arrival process)\n",
                    series[saturation - 1].instances);
    }
    std::printf("paper trend (Fig 18 spirit): replicas first collapse "
                "queueing delay, then saturate once arrivals dominate\n");

    if (!json_path.empty()) {
        std::string out = "{\"bench\":\"serve_latency\",\"series\":[";
        for (std::size_t i = 0; i < series.size(); ++i) {
            const serve::ServeStats &s = series[i].stats;
            if (i)
                out += ",";
            out += "{\"instances\":" +
                   std::to_string(series[i].instances) +
                   ",\"throughput_rps\":" + jsonNumber(s.throughputRps) +
                   ",\"p50_latency_cycles\":" +
                   jsonNumber(s.p50LatencyCycles) +
                   ",\"p95_latency_cycles\":" +
                   jsonNumber(s.p95LatencyCycles) +
                   ",\"p99_latency_cycles\":" +
                   jsonNumber(s.p99LatencyCycles) +
                   ",\"makespan_cycles\":" +
                   std::to_string(s.makespanCycles) + "}";
        }
        out += "],\"policies\":[";
        for (std::size_t i = 0; i < policies.size(); ++i) {
            const serve::ServeStats &s = policies[i].second;
            if (i)
                out += ",";
            out += "{\"policy\":\"" + policies[i].first +
                   "\",\"throughput_rps\":" + jsonNumber(s.throughputRps) +
                   ",\"p99_latency_cycles\":" +
                   jsonNumber(s.p99LatencyCycles) +
                   ",\"interactive_p99_cycles\":" +
                   jsonNumber(s.tenantStats.at(0).p99LatencyCycles) +
                   ",\"interactive_slo_violations\":" +
                   std::to_string(s.tenantStats.at(0).sloViolations) +
                   "}";
        }
        out += "]}";
        std::ofstream file(json_path,
                           std::ios::binary | std::ios::trunc);
        if (!file.good()) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        file << out << "\n";
        std::printf("wrote %s (%zu bytes)\n", json_path.c_str(),
                    out.size() + 1);
    }

    if (!sweep_json_path.empty()) {
        // Flash-crowd preset, three seeds, fifo vs edf: small enough
        // for CI, adversarial enough that the error bars say
        // something about tail stability.
        const std::vector<api::ServeAggregate> aggregates =
            api::ServeSweep::workload("serve-flashcrowd")
                .policies({"fifo", "edf"})
                .seeds({1, 2, 3})
                .runAggregated();
        std::printf("\nflash-crowd sweep: %zu points x %zu seeds\n",
                    aggregates.size(),
                    aggregates.empty() ? 0
                                       : aggregates.front().seeds.size());
        for (const api::ServeAggregate &agg : aggregates)
            std::printf("  %-12s p99 %.0f +/- %.0f kcyc, slo miss "
                        "%.1f +/- %.1f\n",
                        agg.config.policy.c_str(),
                        agg.p99LatencyCycles.mean / 1e3,
                        agg.p99LatencyCycles.stddev / 1e3,
                        agg.sloViolations.mean,
                        agg.sloViolations.stddev);
        std::ofstream file(sweep_json_path,
                           std::ios::binary | std::ios::trunc);
        if (!file.good()) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         sweep_json_path.c_str());
            return 1;
        }
        const std::string out = toJson(aggregates);
        file << out << "\n";
        std::printf("wrote %s (%zu bytes)\n", sweep_json_path.c_str(),
                    out.size() + 1);
    }
    return 0;
}
