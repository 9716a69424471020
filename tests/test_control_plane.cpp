/**
 * Control-plane invariants: autoscaled replica counts honor their
 * bounds, the modeled cluster draw never exceeds the power cap while
 * the cap binds, preemption neither loses nor duplicates requests,
 * an engaged-but-never-binding control plane reproduces the legacy
 * schedule exactly, and the "correlated" arrival process is a pure
 * function of (config, seed). Plus registry coverage for the
 * ScalingPolicy factory hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "api/serve_sweep.hpp"
#include "serve/control_plane.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/** Small dataset scale so the property runs stay fast. */
constexpr double kScale = 0.2;

ServeConfig
makeConfig(std::uint32_t instances, std::uint64_t seed)
{
    ServeConfig config;
    config.platform = "hygcn-agg";
    config.scenarios = {{"cora/gcn", {}}, {"citeseer/gcn", {}}};
    config.scenarios[0].spec.dataset = DatasetId::CR;
    config.scenarios[1].spec.dataset = DatasetId::CS;
    for (ServeScenario &s : config.scenarios)
        s.spec.datasetScale = kScale;
    config.numRequests = 128;
    config.meanInterarrivalCycles = 12000.0;
    config.instances = instances;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 30000;
    config.seed = seed;
    return config;
}

/** Dispatch/completion/placement equality, record by record. */
void
expectSameSchedule(const ServeResult &a, const ServeResult &b)
{
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (std::size_t i = 0; i < a.batches.size(); ++i) {
        EXPECT_EQ(a.batches[i].scenario, b.batches[i].scenario);
        EXPECT_EQ(a.batches[i].instance, b.batches[i].instance);
        EXPECT_EQ(a.batches[i].dispatch, b.batches[i].dispatch);
        EXPECT_EQ(a.batches[i].completion, b.batches[i].completion);
        EXPECT_EQ(a.batches[i].requestIds, b.batches[i].requestIds);
    }
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].dispatch, b.requests[i].dispatch);
        EXPECT_EQ(a.requests[i].completion, b.requests[i].completion);
        EXPECT_EQ(a.requests[i].instance, b.requests[i].instance);
    }
    EXPECT_EQ(a.makespan, b.makespan);
}

/**
 * The cluster draw as a step function reconstructed from the batch
 * records: each batch draws joules * clock / service watts from
 * dispatch to completion (a preempted batch's scaled joules over its
 * truncated interval give exactly the same draw). Returns the peak
 * of the summed function across all events.
 */
double
reconstructedPeakWatts(const ServeResult &result)
{
    std::map<Cycle, double> deltas;
    for (const BatchRecord &batch : result.batches) {
        const Cycle service = batch.completion - batch.dispatch;
        if (service == 0)
            continue;
        const double watts = batch.joules * result.clockHz /
                             static_cast<double>(service);
        deltas[batch.dispatch] += watts;
        deltas[batch.completion] -= watts;
    }
    double current = 0.0;
    double peak = 0.0;
    for (const auto &[cycle, delta] : deltas) {
        current += delta;
        peak = std::max(peak, current);
    }
    return peak;
}

} // namespace

// ---- registry hooks ------------------------------------------------

TEST(ScalingRegistry, BuiltinsResolveAndUnknownThrows)
{
    const api::Registry &registry = api::Registry::global();
    const ServeConfig config = makeConfig(2, 1);
    for (const char *name :
         {"static", "queue-depth", "slo-burn", "scheduled"}) {
        EXPECT_TRUE(registry.scalingPolicies.has(name));
        EXPECT_EQ(registry.scalingPolicies.make(name, config)->name(), name);
    }
    EXPECT_FALSE(registry.scalingPolicies.has("pid"));
    EXPECT_THROW(registry.scalingPolicies.make("pid", config),
                 std::out_of_range);
    const std::vector<std::string> names = registry.scalingPolicies.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "queue-depth"),
              names.end());
}

// ---- static scaling / engaged-but-idle control ---------------------

TEST(ControlPlane, StaticPolicyLeavesConfigDisabled)
{
    ServeConfig config = makeConfig(2, 7);
    EXPECT_FALSE(config.control.enabled());
    config.control.scalingPolicy = "static";
    EXPECT_FALSE(config.control.enabled());
    config.control.powerCapWatts = 5.0;
    EXPECT_TRUE(config.control.enabled());
}

TEST(ControlPlane, NonBindingCapReproducesLegacySchedule)
{
    const ServeConfig baseline = makeConfig(3, 11);
    const ServeResult legacy = runServe(baseline);

    // A cap far above the whole cluster's draw engages the control
    // plane without ever refusing a placement: the event sequence
    // must be the legacy one, batch for batch.
    ServeConfig capped = baseline;
    capped.control.powerCapWatts = 1e12;
    const ServeResult result = runServe(capped);

    expectSameSchedule(legacy, result);
    EXPECT_EQ(result.stats.powerDeferredBatches, 0u);
    EXPECT_GT(result.stats.peakClusterWatts, 0.0);
}

// ---- autoscaling ---------------------------------------------------

TEST(ControlPlane, ReplicaCountsStayWithinBounds)
{
    ServeConfig config = makeConfig(2, 23);
    config.numRequests = 256;
    config.meanInterarrivalCycles = 4000.0;
    config.arrival.process = "flash-crowd";
    config.arrival.burstAmplitude = 6.0;
    config.control.scalingPolicy = "queue-depth";
    config.control.minInstances = 1;
    config.control.maxInstances = 6;
    const ServeResult result = runServe(config);

    ASSERT_EQ(result.stats.replicaTimelines.size(), 1u);
    const auto &timeline = result.stats.replicaTimelines[0];
    ASSERT_FALSE(timeline.empty());
    EXPECT_EQ(timeline.front().cycle, 0u);
    EXPECT_EQ(timeline.front().replicas, 2u);
    Cycle prev = 0;
    for (const ServeStats::ReplicaSample &sample : timeline) {
        EXPECT_GE(sample.replicas, 1u);
        EXPECT_LE(sample.replicas, 6u);
        EXPECT_GE(sample.cycle, prev);
        prev = sample.cycle;
    }
    // The burst actually moved the dial.
    EXPECT_GT(result.stats.scaleUpEvents, 0u);

    // Every request still served exactly once.
    std::set<std::uint64_t> seen;
    for (const BatchRecord &batch : result.batches)
        for (std::uint64_t id : batch.requestIds)
            EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(seen.size(), config.numRequests);
}

TEST(ControlPlane, SloBurnScalingRunsAndScalesUp)
{
    ServeConfig config = makeConfig(1, 29);
    config.numRequests = 192;
    config.meanInterarrivalCycles = 3000.0;
    config.tenants = {{"interactive", 1.0, {}, 400000, 0.0}};
    config.control.scalingPolicy = "slo-burn";
    config.control.minInstances = 1;
    config.control.maxInstances = 4;
    const ServeResult result = runServe(config);
    EXPECT_GT(result.stats.scaleUpEvents, 0u);
    for (const ServeStats::ReplicaSample &sample :
         result.stats.replicaTimelines[0])
        EXPECT_LE(sample.replicas, 4u);
}

// ---- power cap -----------------------------------------------------

TEST(ControlPlane, ClusterWattsNeverExceedBindingCap)
{
    ServeConfig config = makeConfig(4, 41);
    config.numRequests = 192;
    config.meanInterarrivalCycles = 3000.0;

    // Probe uncapped to size a cap that binds (below the uncapped
    // peak) but still admits any single batch (above the largest
    // one-batch draw, so the progress guarantee never fires above
    // the cap).
    const ServeResult uncapped = runServe(config);
    double max_single = 0.0;
    for (const BatchRecord &batch : uncapped.batches) {
        const Cycle service = batch.completion - batch.dispatch;
        max_single = std::max(max_single,
                              batch.joules * uncapped.clockHz /
                                  static_cast<double>(service));
    }
    const double uncapped_peak = reconstructedPeakWatts(uncapped);
    ASSERT_GT(uncapped_peak, max_single); // batches did overlap

    const double cap = max_single + (uncapped_peak - max_single) / 2.0;
    config.control.powerCapWatts = cap;
    const ServeResult capped = runServe(config);

    // The property the PR promises: at no event time does the summed
    // modeled draw exceed the cap.
    EXPECT_LE(reconstructedPeakWatts(capped), cap * (1.0 + 1e-9));
    EXPECT_LE(capped.stats.peakClusterWatts, cap * (1.0 + 1e-9));
    EXPECT_GT(capped.stats.peakClusterWatts, 0.0);
    EXPECT_GT(capped.stats.meanClusterWatts, 0.0);
    // It bound: the uncapped run exceeded it, so placements deferred.
    EXPECT_GT(capped.stats.powerDeferredBatches, 0u);

    // Deferral delays work but loses none of it.
    std::set<std::uint64_t> seen;
    for (const BatchRecord &batch : capped.batches)
        for (std::uint64_t id : batch.requestIds)
            EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(seen.size(), config.numRequests);
    EXPECT_GE(capped.makespan, uncapped.makespan);
}

// ---- preemption ----------------------------------------------------

TEST(ControlPlane, PreemptionConservesRequestsAndCausalOrder)
{
    ServeConfig config = makeConfig(2, 53);
    config.numRequests = 160;
    config.meanInterarrivalCycles = 10000.0;
    config.policy = "edf";
    // A tight-SLO interactive tenant (biased to the cheap scenario)
    // sharing the cluster with bulk analytics traffic biased to the
    // expensive one: exactly the mix preemption exists for.
    config.tenants = {{"interactive", 0.5, {4.0, 1.0}, 60000, 0.0},
                      {"analytics", 0.5, {1.0, 4.0}, 0, 0.0}};
    config.batching.maxBatch = 6;
    config.control.preemption = true;
    const ServeResult result = runServe(config);

    EXPECT_GT(result.stats.preemptions, 0u)
        << "mix never triggered a preemption; property vacuous";
    EXPECT_GT(result.stats.preemptedCycles, 0u);

    // Conservation: every request has a final record, served by a
    // non-preempted batch, with a causal lifecycle.
    std::set<std::uint64_t> final_ids;
    std::uint64_t preempted_batches = 0;
    for (const BatchRecord &batch : result.batches) {
        EXPECT_LT(batch.dispatch, batch.completion);
        if (batch.preempted) {
            ++preempted_batches;
            continue;
        }
        for (std::uint64_t id : batch.requestIds)
            EXPECT_TRUE(final_ids.insert(id).second)
                << "request " << id
                << " served by two non-preempted batches";
    }
    EXPECT_EQ(preempted_batches, result.stats.preemptions);
    EXPECT_EQ(final_ids.size(), config.numRequests);
    for (const RequestRecord &record : result.requests) {
        EXPECT_LE(record.arrival, record.dispatch);
        EXPECT_LT(record.dispatch, record.completion);
        // The record points at the batch that finally served it.
        const BatchRecord &batch = result.batches[record.batch];
        EXPECT_FALSE(batch.preempted);
        EXPECT_EQ(batch.dispatch, record.dispatch);
    }

    // A preempted batch's members all reappear in later batches.
    for (const BatchRecord &batch : result.batches) {
        if (!batch.preempted)
            continue;
        for (std::uint64_t id : batch.requestIds) {
            const RequestRecord &record = result.requests[id];
            EXPECT_GT(record.dispatch, batch.dispatch)
                << "redispatch precedes the preempted dispatch";
            EXPECT_TRUE(final_ids.count(id));
        }
    }

    // Stats accounting: a preempted batch still counts as a batch
    // and its truncated joules were really spent, but it charges no
    // member — its members are charged by the batch that finally
    // served them.
    const ServeStats &stats = result.stats;
    EXPECT_EQ(stats.batches, result.batches.size());
    double batch_joules = 0.0;
    for (const BatchRecord &batch : result.batches)
        batch_joules += batch.joules;
    EXPECT_DOUBLE_EQ(stats.totalJoules, batch_joules);
    double class_joules = 0.0;
    for (const ClassStats &cs : stats.classStats)
        class_joules += cs.joules;
    EXPECT_DOUBLE_EQ(class_joules, stats.totalJoules);
    double share = 0.0;
    for (const TenantStats &ts : stats.tenantStats)
        share += ts.servedShare;
    EXPECT_NEAR(share, 1.0, 1e-12);
}

TEST(ControlPlane, PreemptionRejectsStreamingStats)
{
    ServeConfig config = makeConfig(2, 3);
    config.control.preemption = true;
    config.stats.streaming = true;
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---- spec-grouped session API --------------------------------------

TEST(ServeSessionSpecs, GroupedSettersMatchGranularOnes)
{
    api::ServeSession grouped;
    grouped
        .batching({.maxBatch = 16,
                   .timeoutCycles = 50000,
                   .marginalFraction = 0.4,
                   .costModel = "analytic",
                   .deadlineAware = false})
        .stats({.streaming = true, .reservoirCapacity = 1024})
        .control({.scalingPolicy = "queue-depth", .powerCapWatts = 12.5});

    // Single fields edited through config() land exactly where the
    // whole-spec setters put them.
    api::ServeSession granular;
    ServeConfig &config = granular.config();
    config.batching.maxBatch = 16;
    config.batching.timeoutCycles = 50000;
    config.batching.marginalFraction = 0.4;
    config.batching.costModel = "analytic";
    config.batching.deadlineAware = false;
    config.stats.streaming = true;
    config.stats.reservoirCapacity = 1024;
    config.control.scalingPolicy = "queue-depth";
    config.control.powerCapWatts = 12.5;

    EXPECT_EQ(toJson(grouped.config()), toJson(granular.config()));
    EXPECT_TRUE(grouped.config().control.enabled());
}

TEST(ServeSessionSpecs, InstanceClassCarriesScalingBounds)
{
    api::ServeSession session;
    session.instanceClass("hygcn-agg", 2, 1, 6);
    const ClusterSpec::InstanceClass &cls =
        session.config().cluster.classes.front();
    EXPECT_EQ(cls.count, 2u);
    EXPECT_EQ(cls.minCount, 1u);
    EXPECT_EQ(cls.maxCount, 6u);
}

// ---- sweep axes ----------------------------------------------------

TEST(ServeSweepControl, ScalingAndCapAxesExpand)
{
    api::ServeSweep sweep(makeConfig(2, 5));
    sweep.scalingPolicies({"static", "queue-depth"})
        .powerCapsWatts({0.0, 25.0});
    EXPECT_EQ(sweep.size(), 4u);
    const std::vector<ServeConfig> configs = sweep.expand();
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(configs[0].control.scalingPolicy, "static");
    EXPECT_EQ(configs[0].control.powerCapWatts, 0.0);
    EXPECT_EQ(configs[1].control.powerCapWatts, 25.0);
    EXPECT_EQ(configs[2].control.scalingPolicy, "queue-depth");
    EXPECT_EQ(configs[3].control.scalingPolicy, "queue-depth");
    EXPECT_EQ(configs[3].control.powerCapWatts, 25.0);
}

// ---- correlated arrivals -------------------------------------------

TEST(CorrelatedArrivals, SameSeedReproducesSameStream)
{
    ServeConfig config = makeConfig(2, 77);
    config.arrival.process = "correlated";
    config.tenants = {{"a", 1.0, {}, 0, 0.0},
                      {"b", 1.0, {}, 0, 0.0},
                      {"c", 1.0, {}, 0, 0.0}};
    RequestGenerator g1(config);
    RequestGenerator g2(config);
    const std::vector<ServeRequest> s1 = g1.generate();
    const std::vector<ServeRequest> s2 = g2.generate();
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1[i].arrival, s2[i].arrival);
        EXPECT_EQ(s1[i].tenant, s2[i].tenant);
        EXPECT_EQ(s1[i].scenario, s2[i].scenario);
    }

    ServeConfig reseeded = config;
    reseeded.seed = 78;
    RequestGenerator g3(reseeded);
    const std::vector<ServeRequest> s3 = g3.generate();
    bool differs = false;
    for (std::size_t i = 0; i < s1.size() && !differs; ++i)
        differs = s1[i].arrival != s3[i].arrival ||
                  s1[i].tenant != s3[i].tenant;
    EXPECT_TRUE(differs);
}

TEST(CorrelatedArrivals, BurstsConcentrateOnHotTenant)
{
    ServeConfig config = makeConfig(2, 99);
    config.numRequests = 512;
    config.arrival.process = "correlated";
    config.arrival.correlation = 1.0;
    config.arrival.correlatedBurstMultiplier = 8.0;
    config.tenants = {{"a", 1.0, {}, 0, 0.0},
                      {"b", 1.0, {}, 0, 0.0},
                      {"c", 1.0, {}, 0, 0.0},
                      {"d", 1.0, {}, 0, 0.0}};
    RequestGenerator generator(config);
    std::vector<std::uint64_t> per_tenant(4, 0);
    for (const ServeRequest &request : generator.generate())
        ++per_tenant[request.tenant];
    // With every in-burst arrival pinned to one hot tenant and the
    // burst rate 8x the calm rate, most of the stream lands on hot
    // tenants: the top tenant must sit clearly above the uniform 25%
    // share (deterministic for the pinned seed).
    const std::uint64_t top =
        *std::max_element(per_tenant.begin(), per_tenant.end());
    EXPECT_GT(top, config.numRequests * 35 / 100);
}

TEST(CorrelatedArrivals, ValidationRejectsBadKnobs)
{
    ServeConfig config = makeConfig(2, 1);
    config.arrival.process = "correlated";
    config.arrival.correlatedBurstMultiplier = 0.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.arrival.correlatedBurstMultiplier = 4.0;
    config.arrival.correlation = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);
}
