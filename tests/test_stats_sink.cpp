/**
 * The streaming stats sink: deterministic reservoir sampling
 * (exactness below capacity, determinism and bounds beyond it) and
 * the core property that a streamed run's ServeStats matches the
 * materialized run's on the same seed — exactly for
 * order-independent fields (counts, percentiles below reservoir
 * capacity, makespan, max latency), to 1e-9 relative for running
 * sums whose accumulation order differs — across policies and
 * arrival processes, plus the off-default-only JSON emission of the
 * streaming knobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats_sink.hpp"
#include "sim/json.hpp"
#include "sim/stats.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/** Deterministic stub accelerator (fixed cycles/joules per copy) so
 *  the property sweep prices instantly. */
class StubPlatform : public api::Platform
{
  public:
    StubPlatform(std::string name, Cycle cycles, double joules)
        : name_(std::move(name)), cycles_(cycles), joules_(joules)
    {
    }

    std::string name() const override { return name_; }

    api::RunResult run(const api::RunSpec &spec) const override
    {
        api::RunResult out;
        out.spec = spec;
        out.report.platform = name_;
        out.report.cycles = cycles_ * spec.batchCopies;
        out.report.clockHz = 1e9;
        out.report.energy.charge(
            Energy::Stub, joules_ * 1e12 *
                              static_cast<double>(spec.batchCopies));
        return out;
    }

  private:
    std::string name_;
    Cycle cycles_;
    double joules_;
};

/**
 * Two-class stub cluster, two scenarios, two tenants (one SLO'd, one
 * best-effort with a fair-share quota), arrivals fast enough that
 * queues form: every aggregate the sink computes has something
 * nontrivial to chew on.
 */
ServeConfig
sinkClusterConfig()
{
    api::Registry &registry = api::Registry::global();
    if (!registry.platforms.has("stub-sink-fast")) {
        registry.platforms.add("stub-sink-fast", [] {
            return std::make_unique<StubPlatform>("stub-sink-fast",
                                                  800000, 4.0);
        });
        registry.platforms.add("stub-sink-slow", [] {
            return std::make_unique<StubPlatform>("stub-sink-slow",
                                                  1300000, 1.5);
        });
    }

    ServeConfig config;
    config.cluster.classes = {{"stub-sink-fast", 2, {}, "fast"},
                              {"stub-sink-slow", 1, {}, "slow"}};
    config.scenarios = {{"stub/gcn", {}}, {"stub/gin", {}}};
    config.tenants = {
        TenantMix{"interactive", 0.7, {3.0, 1.0}, 3000000, 0.0},
        TenantMix{"analytics", 0.3, {1.0, 3.0}, 0, 1.0}};
    config.numRequests = 600;
    config.meanInterarrivalCycles = 400000.0;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 100000;
    config.seed = 7;
    return config;
}

/** Relative 1e-9 comparison for sums whose accumulation order
 *  differs between the streamed and materialized paths. */
void
expectNearRel(double expected, double actual, const std::string &what)
{
    const double tol =
        1e-9 * std::max(1.0, std::max(std::fabs(expected),
                                      std::fabs(actual)));
    EXPECT_NEAR(expected, actual, tol) << what;
}

void
expectStatsMatch(const ServeStats &mat, const ServeStats &str)
{
    EXPECT_EQ(mat.requests, str.requests);
    EXPECT_EQ(mat.batches, str.batches);
    EXPECT_DOUBLE_EQ(mat.meanBatchSize, str.meanBatchSize);
    EXPECT_EQ(mat.makespanCycles, str.makespanCycles);
    EXPECT_DOUBLE_EQ(mat.throughputRps, str.throughputRps);
    expectNearRel(mat.meanQueueWaitCycles, str.meanQueueWaitCycles,
                  "meanQueueWaitCycles");
    expectNearRel(mat.meanLatencyCycles, str.meanLatencyCycles,
                  "meanLatencyCycles");
    // Below reservoir capacity the sink holds every latency, so the
    // percentiles are the same percentileSorted() over the same
    // multiset — bit-identical, not merely close.
    EXPECT_DOUBLE_EQ(mat.p50LatencyCycles, str.p50LatencyCycles);
    EXPECT_DOUBLE_EQ(mat.p95LatencyCycles, str.p95LatencyCycles);
    EXPECT_DOUBLE_EQ(mat.p99LatencyCycles, str.p99LatencyCycles);
    EXPECT_DOUBLE_EQ(mat.maxLatencyCycles, str.maxLatencyCycles);
    ASSERT_EQ(mat.instanceUtilization.size(),
              str.instanceUtilization.size());
    for (std::size_t i = 0; i < mat.instanceUtilization.size(); ++i)
        EXPECT_DOUBLE_EQ(mat.instanceUtilization[i],
                         str.instanceUtilization[i]);
    EXPECT_DOUBLE_EQ(mat.totalJoules, str.totalJoules);
    EXPECT_DOUBLE_EQ(mat.meanJoulesPerRequest,
                     str.meanJoulesPerRequest);
    EXPECT_EQ(mat.deadlineCapsAvoided, str.deadlineCapsAvoided);

    ASSERT_EQ(mat.tenantStats.size(), str.tenantStats.size());
    for (std::size_t t = 0; t < mat.tenantStats.size(); ++t) {
        const TenantStats &m = mat.tenantStats[t];
        const TenantStats &s = str.tenantStats[t];
        EXPECT_EQ(m.name, s.name);
        EXPECT_EQ(m.requests, s.requests);
        expectNearRel(m.meanLatencyCycles, s.meanLatencyCycles,
                      m.name + ".meanLatencyCycles");
        EXPECT_DOUBLE_EQ(m.p99LatencyCycles, s.p99LatencyCycles)
            << m.name;
        EXPECT_EQ(m.sloViolations, s.sloViolations) << m.name;
        expectNearRel(m.servedShare, s.servedShare,
                      m.name + ".servedShare");
        expectNearRel(m.joules, s.joules, m.name + ".joules");
    }

    ASSERT_EQ(mat.classStats.size(), str.classStats.size());
    for (std::size_t c = 0; c < mat.classStats.size(); ++c) {
        const ClassStats &m = mat.classStats[c];
        const ClassStats &s = str.classStats[c];
        EXPECT_EQ(m.label, s.label);
        EXPECT_EQ(m.instances, s.instances);
        EXPECT_EQ(m.batches, s.batches);
        EXPECT_EQ(m.requests, s.requests);
        EXPECT_EQ(m.busyCycles, s.busyCycles);
        EXPECT_DOUBLE_EQ(m.utilization, s.utilization) << m.label;
        EXPECT_DOUBLE_EQ(m.joules, s.joules) << m.label;
    }
}

} // namespace

// ---- reservoir -----------------------------------------------------

TEST(LatencyReservoir, HoldsEverySampleBelowCapacity)
{
    LatencyReservoir reservoir(16, 42);
    std::vector<double> fed;
    for (int i = 0; i < 16; ++i) {
        const double sample = static_cast<double>((i * 37) % 100);
        reservoir.add(sample);
        fed.push_back(sample);
    }
    EXPECT_TRUE(reservoir.exact());
    EXPECT_EQ(reservoir.seen(), 16u);
    std::sort(fed.begin(), fed.end());
    EXPECT_EQ(reservoir.sorted(), fed);
    EXPECT_DOUBLE_EQ(reservoir.percentile(50.0),
                     percentileSorted(fed, 50.0));
}

TEST(LatencyReservoir, OverflowKeepsCapacityAndStaysInRange)
{
    LatencyReservoir reservoir(8, 42);
    for (int i = 0; i < 200; ++i)
        reservoir.add(static_cast<double>(i));
    EXPECT_FALSE(reservoir.exact());
    EXPECT_EQ(reservoir.seen(), 200u);
    const std::vector<double> kept = reservoir.sorted();
    ASSERT_EQ(kept.size(), 8u);
    for (double v : kept) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 199.0);
    }
}

TEST(LatencyReservoir, ReplacementStreamIsSeedDeterministic)
{
    LatencyReservoir a(8, 7), b(8, 7), c(8, 8);
    for (int i = 0; i < 500; ++i) {
        const double sample = static_cast<double>((i * 13) % 977);
        a.add(sample);
        b.add(sample);
        c.add(sample);
    }
    EXPECT_EQ(a.sorted(), b.sorted());
    // A different seed keeps a different sample of the same stream
    // (overwhelmingly likely at 500 draws over capacity 8).
    EXPECT_NE(a.sorted(), c.sorted());
}

// ---- streamed == materialized --------------------------------------

TEST(StreamingStats, MatchesMaterializedAcrossPoliciesAndArrivals)
{
    for (const char *policy : {"fifo", "edf", "fair-share"}) {
        for (const char *process : {"poisson", "heavy-tail"}) {
            ServeConfig config = sinkClusterConfig();
            config.policy = policy;
            config.arrival.process = process;

            ServeConfig streamed = config;
            streamed.stats.streaming = true;

            const ServeResult mat = Scheduler(config).run();
            const ServeResult str = Scheduler(streamed).run();
            SCOPED_TRACE(std::string(policy) + "/" + process);
            expectStatsMatch(mat.stats, str.stats);
        }
    }
}

TEST(StreamingStats, StreamingRunMaterializesNoRecords)
{
    ServeConfig config = sinkClusterConfig();
    config.stats.streaming = true;
    const ServeResult result = Scheduler(config).run();
    EXPECT_TRUE(result.requests.empty());
    EXPECT_TRUE(result.batches.empty());
    EXPECT_EQ(result.stats.requests, config.numRequests);
    EXPECT_FALSE(result.instances.empty());
}

TEST(StreamingStats, TinyReservoirStillBoundsPercentiles)
{
    ServeConfig config = sinkClusterConfig();
    config.stats.streaming = true;
    config.stats.reservoirCapacity = 32; // far below 600 requests
    const ServeResult result = Scheduler(config).run();
    EXPECT_GT(result.stats.p99LatencyCycles, 0.0);
    EXPECT_LE(result.stats.p50LatencyCycles,
              result.stats.p99LatencyCycles);
    EXPECT_LE(result.stats.p99LatencyCycles,
              result.stats.maxLatencyCycles);
}

TEST(StreamingStats, ConfigRejectsZeroCapacityReservoir)
{
    ServeConfig config = sinkClusterConfig();
    config.stats.streaming = true;
    config.stats.reservoirCapacity = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---- JSON emission -------------------------------------------------

TEST(StreamingStats, JsonEchoesStreamingKnobs)
{
    ServeConfig config = sinkClusterConfig();
    const std::string defaults = toJson(config);
    EXPECT_NE(defaults.find("\"streaming_stats\":false,"
                            "\"stats_reservoir_capacity\":65536,"
                            "\"stats_flush_every_requests\":0"),
              std::string::npos);

    config.stats.streaming = true;
    const std::string streaming = toJson(config);
    EXPECT_NE(streaming.find("\"streaming_stats\":true"),
              std::string::npos);

    config.stats.reservoirCapacity = 1024;
    config.stats.flushEveryRequests = 100;
    const std::string tuned = toJson(config);
    EXPECT_NE(tuned.find("\"stats_reservoir_capacity\":1024"),
              std::string::npos);
    EXPECT_NE(tuned.find("\"stats_flush_every_requests\":100"),
              std::string::npos);
}
