/**
 * SLO-aware scheduling policies, heterogeneous clusters, and the
 * priced-scenario cache: EDF never inverts deadlines within the
 * cluster, fair share divides service by quota, routing lands
 * batches on the cheapest instance class deterministically, and
 * pricing runs once per (platform, config, scenario) process-wide.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "serve/policy.hpp"
#include "serve/priced_cache.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/** Small dataset scale so policy tests stay fast. */
constexpr double kScale = 0.2;

/** Two-scenario config on the cheap Aggregation-Engine-only mode. */
ServeConfig
aggConfig()
{
    ServeConfig config;
    config.platform = "hygcn-agg";
    config.scenarios = {{"cora/gcn", {}}, {"citeseer/gcn", {}}};
    config.scenarios[0].spec.dataset = DatasetId::CR;
    config.scenarios[1].spec.dataset = DatasetId::CS;
    for (ServeScenario &s : config.scenarios)
        s.spec.datasetScale = kScale;
    config.numRequests = 64;
    config.meanInterarrivalCycles = 20000.0;
    config.instances = 2;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 50000;
    return config;
}

ServeRequest
request(std::uint64_t id, std::uint32_t tenant, std::uint32_t scenario,
        Cycle arrival, Cycle deadline = kNeverCycle)
{
    ServeRequest r;
    r.id = id;
    r.tenant = tenant;
    r.scenario = scenario;
    r.arrival = arrival;
    r.deadline = deadline;
    return r;
}

/** Structural sanity of any finished run, for every policy. */
void
checkConservation(const ServeConfig &config, const ServeResult &result)
{
    ASSERT_EQ(result.requests.size(), config.numRequests);
    std::set<std::uint64_t> seen;
    std::uint64_t batched = 0;
    for (const BatchRecord &batch : result.batches) {
        ASSERT_FALSE(batch.requestIds.empty());
        EXPECT_LE(batch.requestIds.size(), config.batching.maxBatch);
        // Same-scenario co-batching only.
        for (std::uint64_t id : batch.requestIds) {
            EXPECT_TRUE(seen.insert(id).second);
            ++batched;
            EXPECT_EQ(result.requests.at(id).scenario, batch.scenario);
        }
        EXPECT_LT(batch.instance, config.totalInstances());
    }
    EXPECT_EQ(batched, config.numRequests);
    for (const RequestRecord &record : result.requests) {
        EXPECT_LE(record.arrival, record.dispatch);
        EXPECT_LT(record.dispatch, record.completion);
    }
    // Per-instance service intervals never overlap (batches are in
    // dispatch order).
    std::vector<Cycle> last(config.totalInstances(), 0);
    for (const BatchRecord &batch : result.batches) {
        EXPECT_LE(last[batch.instance], batch.dispatch);
        last[batch.instance] = batch.completion;
    }
}

} // namespace

// ---- policy registry -----------------------------------------------

TEST(PolicyRegistry, BuiltinPoliciesRegisteredAndConstructible)
{
    api::Registry &registry = api::Registry::global();
    const ServeConfig config = aggConfig();
    for (const char *name : {"fifo", "edf", "fair-share"}) {
        ASSERT_TRUE(registry.policies.has(name)) << name;
        const auto policy = registry.policies.make(name, config);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), name);
        EXPECT_TRUE(policy->empty());
    }
    EXPECT_EQ(registry.policies.names().size(), 3u);
    EXPECT_THROW(registry.policies.make("lifo", config), std::out_of_range);
    try {
        registry.policies.make("lifo", config);
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("fair-share"),
                  std::string::npos);
    }
}

TEST(PolicyRegistry, UnknownPolicyFailsAtRun)
{
    ServeConfig config = aggConfig();
    config.policy = "lifo";
    // The policy name is resolved at run(), like platform keys.
    EXPECT_THROW(Scheduler(config).run(), std::out_of_range);
}

TEST(PolicyRegistry, AllPoliciesServeEveryWorkloadPreset)
{
    for (const char *workload :
         {"serve-smoke", "serve-steady", "serve-bursty"}) {
        for (const char *policy : {"fifo", "edf", "fair-share"}) {
            ServeConfig config =
                api::Registry::global().workloads.make(workload);
            // Scaled down so the grid stays fast; the arrival
            // process and mixes are the preset's own.
            for (ServeScenario &s : config.scenarios)
                s.spec.datasetScale = kScale;
            config.platform = "hygcn-agg";
            for (ServeScenario &s : config.scenarios)
                s.spec.model = ModelId::GCN;
            config.numRequests = 48;
            config.policy = policy;
            const ServeResult result = runServe(config);
            checkConservation(config, result);
            EXPECT_GT(result.stats.throughputRps, 0.0)
                << workload << "/" << policy;
        }
    }
}

// ---- EDF -----------------------------------------------------------

TEST(EdfPolicy, NeverInvertsDeadlinesAcrossDispatches)
{
    // maxBatch 1 + zero timeout make every queued request immediately
    // dispatchable, so EDF's pick at each dispatch must be a global
    // earliest-deadline choice: a request dispatched later, but
    // already arrived, can never have a strictly earlier deadline.
    ServeConfig config = aggConfig();
    config.policy = "edf";
    config.batching.maxBatch = 1;
    config.batching.timeoutCycles = 0;
    config.numRequests = 96;
    config.meanInterarrivalCycles = 15000.0;
    config.tenants = {TenantMix{"interactive", 1.0, {}, 60000, 0.0},
                      TenantMix{"analytics", 1.0, {}, 0, 0.0}};
    const ServeResult result = runServe(config);
    checkConservation(config, result);

    for (const RequestRecord &r : result.requests) {
        if (r.tenant == 0)
            EXPECT_EQ(r.deadline, r.arrival + 60000);
        else
            EXPECT_EQ(r.deadline, kNeverCycle);
    }

    for (std::size_t a = 0; a < result.batches.size(); ++a) {
        const RequestRecord &first =
            result.requests.at(result.batches[a].requestIds.front());
        for (std::size_t b = a + 1; b < result.batches.size(); ++b) {
            const RequestRecord &later =
                result.requests.at(result.batches[b].requestIds.front());
            if (later.arrival <= result.batches[a].dispatch)
                EXPECT_LE(first.deadline, later.deadline)
                    << "batch " << a << " inverted against " << b;
        }
    }
}

TEST(EdfPolicy, SloTenantSeesFewerViolationsThanFifo)
{
    // Under contention, prioritizing the tight-SLO tenant must not
    // serve it worse than FIFO does.
    ServeConfig config = aggConfig();
    config.instances = 1;
    config.numRequests = 96;
    config.meanInterarrivalCycles = 10000.0;
    config.tenants = {TenantMix{"interactive", 1.0, {}, 150000, 0.0},
                      TenantMix{"analytics", 1.0, {}, 0, 0.0}};

    config.policy = "fifo";
    const ServeResult fifo = runServe(config);
    config.policy = "edf";
    const ServeResult edf = runServe(config);

    ASSERT_EQ(fifo.stats.tenantStats.size(), 2u);
    ASSERT_EQ(edf.stats.tenantStats.size(), 2u);
    EXPECT_LE(edf.stats.tenantStats[0].sloViolations,
              fifo.stats.tenantStats[0].sloViolations);
    // Violation accounting only applies to SLO-carrying tenants.
    EXPECT_EQ(edf.stats.tenantStats[1].sloViolations, 0u);
}

// ---- fair share ----------------------------------------------------

TEST(FairSharePolicy, DividesServiceByQuotaWhileBacklogged)
{
    // Unit-level drive: two tenants, one scenario, both fully
    // backlogged at cycle 0 with quotas 3:1. Equal-cost dispatches
    // must interleave 3:1 by virtual time.
    ServeConfig config = aggConfig();
    config.scenarios.resize(1);
    config.batching.maxBatch = 1;
    config.batching.timeoutCycles = 0;
    config.tenants = {TenantMix{"heavy", 1.0, {}, 0, 3.0},
                      TenantMix{"light", 1.0, {}, 0, 1.0}};
    FairSharePolicy policy(config);

    for (std::uint64_t i = 0; i < 32; ++i)
        policy.admit(request(i, i % 2, 0, 0));

    constexpr Cycle kUnit = 1000;
    std::uint64_t served[2] = {0, 0};
    for (int step = 0; step < 32; ++step) {
        ASSERT_TRUE(policy.ready(0, false));
        const std::vector<ServeRequest> batch = policy.pop(0, false);
        ASSERT_EQ(batch.size(), 1u);
        policy.onDispatch(batch, kUnit);
        ++served[batch.front().tenant];
        if (served[0] < 16 && served[1] < 16) {
            // Bounded unfairness: the charged-cycle gap normalized by
            // quota never exceeds one service quantum.
            EXPECT_LE(std::abs(policy.virtualTime(0) -
                               policy.virtualTime(1)),
                      static_cast<double>(kUnit) + 1e-9);
        }
    }
    EXPECT_EQ(policy.chargedCycles(0), 16 * kUnit);
    EXPECT_EQ(policy.chargedCycles(1), 16 * kUnit);
    // The 3:1 interleave shows up in the early prefix: after 8
    // dispatches, heavy has 6 of them.
    FairSharePolicy replay(config);
    for (std::uint64_t i = 0; i < 32; ++i)
        replay.admit(request(i, i % 2, 0, 0));
    std::uint64_t heavy_prefix = 0;
    for (int step = 0; step < 8; ++step) {
        const std::vector<ServeRequest> batch = replay.pop(0, false);
        replay.onDispatch(batch, kUnit);
        heavy_prefix += batch.front().tenant == 0;
    }
    EXPECT_EQ(heavy_prefix, 6u);
}

TEST(FairSharePolicy, BatchesNeverMixTenants)
{
    ServeConfig config = aggConfig();
    config.policy = "fair-share";
    config.numRequests = 96;
    config.meanInterarrivalCycles = 8000.0; // hot: real batches form
    config.tenants = {TenantMix{"a", 2.0, {}, 0, 0.0},
                      TenantMix{"b", 1.0, {}, 0, 0.0}};
    const ServeResult result = runServe(config);
    checkConservation(config, result);
    bool multi = false;
    for (const BatchRecord &batch : result.batches) {
        multi = multi || batch.requestIds.size() > 1;
        const std::uint32_t tenant =
            result.requests.at(batch.requestIds.front()).tenant;
        for (std::uint64_t id : batch.requestIds)
            EXPECT_EQ(result.requests.at(id).tenant, tenant);
    }
    EXPECT_TRUE(multi) << "load too light to form any real batch";
}

// ---- heterogeneous clusters ----------------------------------------

TEST(Cluster, RoutesToCheapestClassUnderLightLoad)
{
    // One instance per class, arrivals far apart: every batch finds
    // all instances free, so routing must always land on the class
    // pricing its scenario cheapest.
    ServeConfig config = aggConfig();
    config.cluster.classes = {{"hygcn", 1, {}, ""},
                              {"pyg-cpu", 1, {}, ""}};
    config.batching.maxBatch = 1;
    config.batching.timeoutCycles = 0;
    config.numRequests = 24;
    config.meanInterarrivalCycles = 5e7; // far beyond any unit cost
    const ServeResult result = runServe(config);
    checkConservation(config, result);

    ASSERT_EQ(result.unitCyclesByClass.size(), 2u);
    for (const BatchRecord &batch : result.batches) {
        const std::uint32_t cls =
            result.instances.at(batch.instance).classIndex;
        const Cycle chosen = result.unitCyclesByClass[cls][batch.scenario];
        for (const auto &row : result.unitCyclesByClass)
            EXPECT_LE(chosen, row[batch.scenario]);
    }
    // The per-class breakdown accounts every batch.
    ASSERT_EQ(result.stats.classStats.size(), 2u);
    std::uint64_t class_batches = 0;
    for (const ClassStats &cs : result.stats.classStats)
        class_batches += cs.batches;
    EXPECT_EQ(class_batches, result.batches.size());
}

TEST(Cluster, MixedClusterIsDeterministicUnderFixedSeed)
{
    ServeConfig config = aggConfig();
    config.cluster.classes = {{"hygcn", 2, {}, "acc"},
                              {"pyg-cpu", 1, {}, "cpu"}};
    config.numRequests = 48;
    const std::string a = toJson(runServe(config));
    const std::string b = toJson(runServe(config));
    EXPECT_EQ(a, b);
    // Cluster and per-class breakdowns are echoed for explicit specs.
    EXPECT_NE(a.find("\"cluster\""), std::string::npos);
    EXPECT_NE(a.find("\"classes\""), std::string::npos);
    EXPECT_NE(a.find("\"unit_cycles_by_class\""), std::string::npos);
    EXPECT_NE(a.find("\"cpu\""), std::string::npos);
}

TEST(Cluster, WorkloadPresetsServeOnMixedCluster)
{
    // Each registry preset (scaled down), lifted onto a mixed
    // hygcn + pyg-cpu cluster.
    for (const char *workload :
         {"serve-smoke", "serve-steady", "serve-bursty"}) {
        ServeConfig config = api::Registry::global().workloads.make(workload);
        for (ServeScenario &s : config.scenarios)
            s.spec.datasetScale = kScale;
        config.numRequests = 48;
        config.cluster.classes = {{"hygcn", 2, {}, ""},
                                  {"pyg-cpu", 1, {}, ""}};
        const ServeResult result = runServe(config);
        checkConservation(config, result);
        ASSERT_EQ(result.stats.classStats.size(), 2u) << workload;
        EXPECT_EQ(result.stats.classStats[0].instances, 2u);
        EXPECT_EQ(result.stats.classStats[1].instances, 1u);
    }
}

TEST(Cluster, EveryPolicyServesTheMixedCluster)
{
    for (const char *policy : {"fifo", "edf", "fair-share"}) {
        ServeConfig config = aggConfig();
        config.policy = policy;
        config.cluster.classes = {{"hygcn", 2, {}, ""},
                                  {"pyg-cpu", 1, {}, ""}};
        config.numRequests = 48;
        config.tenants = {TenantMix{"t0", 1.0, {}, 200000, 0.0},
                          TenantMix{"t1", 1.0, {}, 0, 2.0}};
        const ServeResult result = runServe(config);
        checkConservation(config, result);
        EXPECT_EQ(result.instances.size(), 3u);
    }
}

TEST(Cluster, ExplicitPlatformRunRejectsClusterSpecs)
{
    class StubPlatform : public api::Platform
    {
      public:
        std::string name() const override { return "stub"; }
        api::RunResult run(const api::RunSpec &spec) const override
        {
            api::RunResult out;
            out.spec = spec;
            out.report.cycles = 1000;
            return out;
        }
    };
    ServeConfig config = aggConfig();
    config.cluster.classes = {{"hygcn", 1, {}, ""}};
    EXPECT_THROW(Scheduler(config).run(StubPlatform{}),
                 std::invalid_argument);
}

TEST(Cluster, ValidationRejectsMalformedClasses)
{
    ServeConfig config = aggConfig();
    config.cluster.classes = {{"", 1, {}, ""}};
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = aggConfig();
    config.cluster.classes = {{"hygcn", 0, {}, ""}};
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = aggConfig();
    config.policy = "";
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---- priced-scenario cache -----------------------------------------

TEST(PricedScenarioCache, PricesEachScenarioOnceProcessWide)
{
    PricedScenarioCache &cache = PricedScenarioCache::global();
    cache.clear();

    ServeConfig config = aggConfig();
    config.seed = 404; // distinct stream; pricing ignores the seed
    runServe(config);
    // Each scenario creates one curve entry plus the shared unit
    // entry its curve is assembled from; only the unit entries run
    // the Platform.
    const std::uint64_t misses_first = cache.misses();
    EXPECT_EQ(misses_first, 2 * config.scenarios.size());
    EXPECT_EQ(cache.size(), 2 * config.scenarios.size());

    // A second run — different arrivals, same scenarios — prices
    // nothing new: the curve entries hit directly.
    config.seed = 405;
    runServe(config);
    EXPECT_EQ(cache.misses(), misses_first);
    EXPECT_EQ(cache.hits(), config.scenarios.size());
    EXPECT_EQ(cache.size(), 2 * config.scenarios.size());

    // A different platform keys separately.
    config.platform = "pyg-cpu";
    runServe(config);
    EXPECT_EQ(cache.misses(), 2 * misses_first);
}

TEST(PricedScenarioCache, ConcurrentRunsCountOnlyTheirOwnLookups)
{
    // Two runs pricing disjoint scenarios at the same time from a
    // cleared cache: each reports exactly the lookups its own pricing
    // made (a curve entry plus the nested unit entry it assembles
    // from), however their pricing interleaves.
    ServeConfig cora = aggConfig();
    cora.scenarios.resize(1);
    ServeConfig citeseer = cora;
    citeseer.scenarios[0] = aggConfig().scenarios[1];

    PricedScenarioCache &cache = PricedScenarioCache::global();
    cache.clear();
    ServeResult a, b;
    std::thread ta([&] { a = runServe(cora); });
    std::thread tb([&] { b = runServe(citeseer); });
    ta.join();
    tb.join();
    EXPECT_EQ(a.stats.pricedCacheMisses, 2u);
    EXPECT_EQ(a.stats.pricedCacheHits, 0u);
    EXPECT_EQ(b.stats.pricedCacheMisses, 2u);
    EXPECT_EQ(b.stats.pricedCacheHits, 0u);
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(PricedScenarioCache, KeysSeparatePerClassConfigs)
{
    PricedScenarioCache &cache = PricedScenarioCache::global();
    cache.clear();

    ServeConfig config = aggConfig();
    config.scenarios.resize(1);
    HyGCNConfig fat;
    fat.aggBufBytes = 4u << 20;
    config.cluster.classes = {{"hygcn-agg", 1, {}, "base"},
                              {"hygcn-agg", 1, fat, "fat"}};
    const ServeResult result = runServe(config);
    // Same platform, different per-class config: two pricing runs
    // (each a curve entry over its own unit entry).
    EXPECT_EQ(cache.misses(), 4u);
    ASSERT_EQ(result.unitCyclesByClass.size(), 2u);
    EXPECT_NE(result.unitCyclesByClass[0][0],
              result.unitCyclesByClass[1][0]);
}

TEST(PricedScenarioCache, FailedPricingIsCachedAndRethrown)
{
    PricedScenarioCache &cache = PricedScenarioCache::global();
    cache.clear();
    api::RunSpec bad;
    bad.dataset = DatasetId::CR;
    bad.model = ModelId::GIN; // hygcn-agg runs the GCN layer only
    bad.datasetScale = kScale;
    EXPECT_THROW(cache.price("hygcn-agg", bad), std::invalid_argument);
    // The failure is cached, not a wedged slot: rethrows, never hangs.
    EXPECT_THROW(cache.price("hygcn-agg", bad), std::invalid_argument);
    // Unknown platforms fail fast without creating slots.
    EXPECT_THROW(cache.price("not-a-platform", bad), std::out_of_range);
    api::RunSpec good = bad;
    good.model = ModelId::GCN;
    EXPECT_GT(cache.price("hygcn-agg", good).unitCycles(), 0u);
}

TEST(PricedScenarioCache, ConcurrentServeRunsAgree)
{
    PricedScenarioCache::global().clear();
    const ServeConfig config = aggConfig();
    const std::string expected = toJson(runServe(config));

    std::vector<std::string> got(4);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < got.size(); ++t)
        workers.emplace_back(
            [&, t] { got[t] = toJson(runServe(config)); });
    for (std::thread &worker : workers)
        worker.join();
    for (const std::string &json : got)
        EXPECT_EQ(json, expected);
}

// ---- config echo ---------------------------------------------------

TEST(ServeJson, ConfigEchoesEveryField)
{
    const ServeConfig fifo_config = aggConfig();
    const std::string fifo_json = toJson(fifo_config);
    EXPECT_NE(fifo_json.find("\"policy\":\"fifo\""), std::string::npos);
    EXPECT_NE(fifo_json.find("\"cluster\":[]"), std::string::npos);

    ServeConfig config = aggConfig();
    config.policy = "edf";
    config.tenants = {TenantMix{"t", 1.0, {}, 123456, 2.5}};
    const std::string json = toJson(config);
    EXPECT_NE(json.find("\"policy\":\"edf\""), std::string::npos);
    EXPECT_NE(json.find("\"slo_cycles\":123456"), std::string::npos);
    EXPECT_NE(json.find("\"share_quota\":2.5"), std::string::npos);

    // An SLO tenant's requests carry their deadline; requests without
    // one echo null.
    const ServeResult result = runServe(config);
    const std::string slo_json = toJson(result);
    ASSERT_FALSE(result.requests.empty());
    const RequestRecord &first = result.requests.front();
    EXPECT_EQ(first.deadline, first.arrival + 123456);
    EXPECT_NE(slo_json.find("\"deadline\":" +
                            std::to_string(first.deadline)),
              std::string::npos);
    EXPECT_EQ(slo_json.find("\"deadline\":null"), std::string::npos);
    EXPECT_NE(toJson(runServe(fifo_config)).find("\"deadline\":null"),
              std::string::npos);
}
