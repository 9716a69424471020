/**
 * @file
 * Serving-layer quickstart: simulate a two-tenant request stream
 * against a small cluster of HyGCN instances with the ServeSession
 * fluent API, print the aggregate serving report, compare the three
 * scheduling policies, route the same traffic over a mixed
 * hygcn+pyg-cpu cluster, replay a recorded trace through the "trace"
 * arrival process, and emit the machine-readable JSON for one of the
 * runs.
 *
 * Build & run (from the repo root, so the smoke trace resolves; an
 * explicit trace path can be passed as argv[1]):
 *   cmake -B build && cmake --build build -j
 *   ./build/examples/serving
 */

#include <cstdio>
#include <fstream>

#include "api/serve_session.hpp"
#include "sim/json.hpp"

using namespace hygcn;

int
main(int argc, char **argv)
{
    // An interactive tenant dominated by small Cora inferences plus
    // an analytics tenant favoring Citeseer, served on scaled
    // datasets so the example finishes instantly.
    const auto configure = [](std::uint32_t instances) {
        return api::ServeSession()
            .platform("hygcn")
            .datasetScale(0.2)
            .scenario("cora", "gcn")
            .scenario("citeseer", "gcn")
            .tenant("interactive", 0.8, {4.0, 1.0})
            .tenant("analytics", 0.2, {1.0, 3.0})
            .requests(192)
            .meanInterarrival(60000.0)
            .seed(7)
            .batching({.maxBatch = 4, .timeoutCycles = 120000})
            .instances(instances);
    };

    std::printf("%10s %12s %12s %12s %12s %12s\n", "instances",
                "thru req/s", "p50 kcyc", "p99 kcyc", "mean batch",
                "mean util %");
    serve::ServeResult two_instances;
    for (std::uint32_t instances : {1u, 2u, 4u}) {
        serve::ServeResult result = configure(instances).run();
        const serve::ServeStats &stats = result.stats;
        double util = 0.0;
        for (double u : stats.instanceUtilization)
            util += u;
        std::printf("%10u %12.0f %12.1f %12.1f %12.2f %12.1f\n",
                    instances, stats.throughputRps,
                    stats.p50LatencyCycles / 1e3,
                    stats.p99LatencyCycles / 1e3, stats.meanBatchSize,
                    util / instances * 100.0);
        if (instances == 2)
            two_instances = std::move(result);
    }

    // The same traffic under each scheduling policy. The interactive
    // tenant carries a 500 kcycle SLO (drives "edf" ordering and
    // violation accounting); the analytics tenant gets a half-rate
    // fair-share quota.
    std::printf("\n%12s %12s %14s %10s\n", "policy", "p99 kcyc",
                "int p99 kcyc", "slo miss");
    for (const char *policy : {"fifo", "edf", "fair-share"}) {
        const serve::ServeResult result =
            api::ServeSession()
                .platform("hygcn")
                .datasetScale(0.2)
                .scenario("cora", "gcn")
                .scenario("citeseer", "gcn")
                .tenant("interactive", 0.8, {4.0, 1.0}, 500000)
                .tenant("analytics", 0.2, {1.0, 3.0}, 0, 0.5)
                .requests(192)
                .meanInterarrival(30000.0)
                .seed(7)
                .batching({.maxBatch = 4, .timeoutCycles = 120000})
                .instances(2)
                .policy(policy)
                .run();
        const serve::TenantStats &interactive =
            result.stats.tenantStats.at(0);
        std::printf("%12s %12.1f %14.1f %10llu\n", policy,
                    result.stats.p99LatencyCycles / 1e3,
                    interactive.p99LatencyCycles / 1e3,
                    static_cast<unsigned long long>(
                        interactive.sloViolations));
    }

    // A heterogeneous cluster: two HyGCN instances backed by one
    // PyG-CPU baseline instance. Routing prices each scenario per
    // class (unit cycles, normalized to a common clock) and lands
    // batches on the cheapest free class.
    const serve::ServeResult mixed =
        api::ServeSession()
            .datasetScale(0.2)
            .scenario("cora", "gcn")
            .scenario("citeseer", "gcn")
            .instanceClass("hygcn", 2)
            .instanceClass("pyg-cpu", 1)
            .requests(192)
            .meanInterarrival(30000.0)
            .seed(7)
            .run();
    std::printf("\nmixed cluster (2x hygcn + 1x pyg-cpu):\n");
    for (const serve::ClassStats &cls : mixed.stats.classStats)
        std::printf("  %-8s %u instances, %llu batches, util %.1f%%\n",
                    cls.label.c_str(), cls.instances,
                    static_cast<unsigned long long>(cls.batches),
                    cls.utilization * 100.0);

    // The same mixed cluster routed by energy instead of cycles:
    // dispatches score free classes on the priced joules(B) twins,
    // and the stats gain per-run/per-class joules.
    const serve::ServeResult frugal = api::ServeSession()
                                          .datasetScale(0.2)
                                          .scenario("cora", "gcn")
                                          .scenario("citeseer", "gcn")
                                          .instanceClass("hygcn", 2)
                                          .instanceClass("pyg-cpu", 1)
                                          .routing({.objective = "energy"})
                                          .requests(192)
                                          .meanInterarrival(30000.0)
                                          .seed(7)
                                          .run();
    std::printf("\nsame cluster, energy-aware routing: %.3g J total, "
                "%.3g J/request\n",
                frugal.stats.totalJoules,
                frugal.stats.meanJoulesPerRequest);
    for (const serve::ClassStats &cls : frugal.stats.classStats)
        std::printf("  %-8s %llu batches, %.3g J\n", cls.label.c_str(),
                    static_cast<unsigned long long>(cls.batches),
                    cls.joules);

    // Trace replay: the "trace" arrival process replays a recorded
    // (or hand-written) request stream against this cluster — tenant
    // and scenario resolve by name, deadlines re-derive from the
    // tenants' SLOs. Any run can record its own stream through
    // ArrivalSpec::recordPath for later replay. Skipped gracefully
    // when the trace is not where we expect it (e.g. running outside
    // the repo root).
    const std::string trace_path =
        argc > 1 ? argv[1] : "examples/traces/smoke.csv";
    if (std::ifstream(trace_path).good()) {
        const serve::ServeResult replayed =
            api::ServeSession()
                .platform("hygcn")
                .datasetScale(0.2)
                .scenario("cora", "gcn")
                .scenario("citeseer", "gcn")
                .tenant("interactive", 0.8, {4.0, 1.0}, 500000)
                .tenant("analytics", 0.2, {1.0, 3.0})
                .requests(12) // the smoke trace's record count
                .instances(2)
                .batching({.maxBatch = 4, .timeoutCycles = 120000})
                .arrival({.process = "trace", .traceFile = trace_path})
                .run();
        std::printf("\nreplayed %s: %llu requests, %llu batches, "
                    "p99 %.1f kcyc\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(
                        replayed.stats.requests),
                    static_cast<unsigned long long>(
                        replayed.stats.batches),
                    replayed.stats.p99LatencyCycles / 1e3);
    } else {
        std::printf("\n(trace %s not found; run from the repo root "
                    "or pass a trace path)\n",
                    trace_path.c_str());
    }

    // Aggregate JSON of the 2-instance run; pass per_request=true to
    // toJson for the full per-request/per-batch trace instead.
    std::printf("\ncompact JSON (no per-request trace):\n%s\n",
                toJson(two_instances, false).c_str());
    return 0;
}
