#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/** Small dataset scale so serve tests stay fast. */
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
request(std::uint64_t id, std::uint32_t scenario, Cycle arrival)
{
    ServeRequest r;
    r.id = id;
    r.scenario = scenario;
    r.arrival = arrival;
    return r;
}

} // namespace

// ---- RequestGenerator ----------------------------------------------

TEST(RequestGenerator, ArrivalsAreNonDecreasingAndIdsSequential)
{
    ServeConfig config = aggConfig();
    config.numRequests = 500;
    RequestGenerator gen(config);
    const std::vector<ServeRequest> stream = gen.generate();
    ASSERT_EQ(stream.size(), 500u);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream[i].id, i);
        if (i)
            EXPECT_GE(stream[i].arrival, stream[i - 1].arrival);
        EXPECT_LT(stream[i].scenario, config.scenarios.size());
    }
}

TEST(RequestGenerator, IdenticalSeedsYieldIdenticalStreams)
{
    const ServeConfig config = aggConfig();
    const auto a = RequestGenerator(config).generate();
    const auto b = RequestGenerator(config).generate();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].scenario, b[i].scenario);
    }
}

TEST(RequestGenerator, DifferentSeedsYieldDifferentArrivals)
{
    ServeConfig config = aggConfig();
    const auto a = RequestGenerator(config).generate();
    config.seed += 1;
    const auto b = RequestGenerator(config).generate();
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].arrival != b[i].arrival;
    EXPECT_TRUE(differs);
}

TEST(RequestGenerator, MeanGapTracksConfiguredMean)
{
    ServeConfig config = aggConfig();
    config.numRequests = 20000;
    config.meanInterarrivalCycles = 1000.0;
    const auto stream = RequestGenerator(config).generate();
    const double mean = static_cast<double>(stream.back().arrival) /
                        static_cast<double>(stream.size());
    EXPECT_NEAR(mean, 1000.0, 50.0);
}

TEST(RequestGenerator, TenantAndScenarioMixFollowWeights)
{
    ServeConfig config = aggConfig();
    config.numRequests = 20000;
    config.tenants = {{"heavy", 3.0, {3.0, 1.0}}, {"light", 1.0, {}}};
    const auto stream = RequestGenerator(config).generate();
    std::uint64_t heavy = 0, scenario0 = 0;
    for (const ServeRequest &r : stream) {
        heavy += r.tenant == 0;
        scenario0 += r.scenario == 0;
    }
    const double n = static_cast<double>(stream.size());
    EXPECT_NEAR(heavy / n, 0.75, 0.02);
    // heavy draws scenario 0 at 75%, light at 50%:
    // 0.75*0.75 + 0.25*0.5 = 0.6875.
    EXPECT_NEAR(scenario0 / n, 0.6875, 0.02);
}

// ---- ServeConfig validation ----------------------------------------

TEST(ServeConfig, ValidationRejectsUnserveableConfigs)
{
    ServeConfig empty;
    empty.scenarios.clear();
    EXPECT_THROW(empty.validate(), std::invalid_argument);

    ServeConfig bad = aggConfig();
    bad.instances = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    bad = aggConfig();
    bad.batching.maxBatch = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    bad = aggConfig();
    bad.numRequests = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    bad = aggConfig();
    bad.tenants = {{"t", -1.0, {}}};
    EXPECT_THROW(bad.validate(), std::invalid_argument);

    // Per-tenant scenario weights must match the scenario count.
    bad = aggConfig();
    bad.tenants = {{"t", 1.0, {1.0, 2.0, 3.0}}};
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ---- Batcher -------------------------------------------------------

TEST(Batcher, FullBatchDispatchesImmediately)
{
    Batcher batcher(2, 1000, 1);
    batcher.admit(request(0, 0, 0));
    EXPECT_FALSE(batcher.ready(0, false));
    batcher.admit(request(1, 0, 0));
    EXPECT_TRUE(batcher.ready(0, false));
    const auto batch = batcher.pop(0, false);
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batcher.empty());
}

TEST(Batcher, TimeoutReleasesUnderfullBatch)
{
    Batcher batcher(8, 100, 1);
    batcher.admit(request(0, 0, 10));
    EXPECT_FALSE(batcher.ready(50, false));
    EXPECT_EQ(batcher.nextTimeout(), 110u);
    EXPECT_TRUE(batcher.ready(110, false));
    EXPECT_EQ(batcher.pop(110, false).size(), 1u);
}

TEST(Batcher, DrainReleasesEverythingPending)
{
    Batcher batcher(8, 1000000, 2);
    batcher.admit(request(0, 1, 5));
    EXPECT_FALSE(batcher.ready(5, false));
    EXPECT_TRUE(batcher.ready(5, true));
}

TEST(Batcher, OldestHeadWinsAcrossScenarios)
{
    Batcher batcher(4, 0, 2);
    batcher.admit(request(0, 1, 10)); // older head, scenario 1
    batcher.admit(request(1, 0, 20));
    const auto batch = batcher.pop(20, false);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].scenario, 1u);
    EXPECT_EQ(batch[0].id, 0u);
}

TEST(Batcher, PopTakesAtMostMaxBatchInFifoOrder)
{
    Batcher batcher(3, 0, 1);
    for (std::uint64_t i = 0; i < 5; ++i)
        batcher.admit(request(i, 0, i));
    const auto first = batcher.pop(10, false);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first[0].id, 0u);
    EXPECT_EQ(first[2].id, 2u);
    EXPECT_EQ(batcher.pending(), 2u);
    const auto second = batcher.pop(10, false);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(second[0].id, 3u);
}

TEST(Batcher, PopWithoutReadyBatchThrows)
{
    Batcher batcher(2, 1000, 1);
    EXPECT_THROW(batcher.pop(0, false), std::logic_error);
}

// ---- batch pricing -------------------------------------------------

TEST(Scheduler, BatchServiceCyclesAmortizesMarginalRequests)
{
    EXPECT_EQ(batchServiceCycles(1000, 1, 0.35), 1000u);
    EXPECT_EQ(batchServiceCycles(1000, 4, 0.35), 2050u);
    // marginal 1.0 disables the batching benefit entirely.
    EXPECT_EQ(batchServiceCycles(1000, 4, 1.0), 4000u);
    // Batches always occupy at least one cycle.
    EXPECT_EQ(batchServiceCycles(0, 3, 0.0), 1u);
}

// ---- ServeSession + registry workloads -----------------------------

TEST(ServeSession, FluentBuilderFillsConfig)
{
    const api::ServeSession session =
        api::ServeSession()
            .platform("hygcn-agg")
            .datasetScale(kScale)
            .scenario("cora", "gcn")
            .scenario("citeseer", "gcn")
            .tenant("interactive", 0.8, {3.0, 1.0})
            .tenant("analytics", 0.2)
            .requests(128)
            .meanInterarrival(25000.0)
            .seed(42)
            .instances(3)
            .batching({.maxBatch = 5,
                       .timeoutCycles = 75000,
                       .marginalFraction = 0.5});
    const ServeConfig &config = session.config();
    EXPECT_EQ(config.platform, "hygcn-agg");
    ASSERT_EQ(config.scenarios.size(), 2u);
    EXPECT_EQ(config.scenarios[0].name, "cora/gcn");
    EXPECT_EQ(config.scenarios[0].spec.dataset, DatasetId::CR);
    EXPECT_EQ(config.scenarios[1].spec.dataset, DatasetId::CS);
    EXPECT_DOUBLE_EQ(config.scenarios[1].spec.datasetScale, kScale);
    ASSERT_EQ(config.tenants.size(), 2u);
    EXPECT_EQ(config.tenants[0].name, "interactive");
    EXPECT_EQ(config.numRequests, 128u);
    EXPECT_EQ(config.instances, 3u);
    EXPECT_EQ(config.batching.maxBatch, 5u);
    EXPECT_EQ(config.batching.timeoutCycles, 75000u);
    EXPECT_DOUBLE_EQ(config.batching.marginalFraction, 0.5);
    config.validate();
}

TEST(ServeSession, DatasetScaleAppliesToExistingScenarios)
{
    const api::ServeSession session = api::ServeSession()
                                          .scenario("cora", "gcn")
                                          .datasetScale(0.3)
                                          .scenario("pubmed", "gcn");
    EXPECT_DOUBLE_EQ(session.config().scenarios[0].spec.datasetScale, 0.3);
    EXPECT_DOUBLE_EQ(session.config().scenarios[1].spec.datasetScale, 0.3);
}

TEST(ServeSession, ScaleAndThreadsApplyWhateverTheCallOrder)
{
    ServeScenario scenario{"cora/gcn", {}};
    scenario.spec.dataset = DatasetId::CR;

    // Regression: a scenario object added after datasetScale() or
    // kernelThreads() used to keep scale 0 and its own thread count.
    api::ServeSession knobs_first;
    knobs_first.datasetScale(kScale).kernelThreads(3).scenario(scenario);
    api::ServeSession knobs_last;
    knobs_last.scenario(scenario).datasetScale(kScale).kernelThreads(3);
    for (const api::ServeSession *session : {&knobs_first, &knobs_last}) {
        const api::RunSpec &spec = session->config().scenarios.at(0).spec;
        EXPECT_DOUBLE_EQ(spec.datasetScale, kScale);
        EXPECT_EQ(spec.threads, 3);
    }
    EXPECT_EQ(toJson(knobs_first.config()), toJson(knobs_last.config()));

    // Without either knob a scenario object keeps its own values.
    scenario.spec.datasetScale = 0.5;
    scenario.spec.threads = 2;
    const api::ServeSession untouched = api::ServeSession().scenario(scenario);
    EXPECT_DOUBLE_EQ(untouched.config().scenarios[0].spec.datasetScale, 0.5);
    EXPECT_EQ(untouched.config().scenarios[0].spec.threads, 2);
}

TEST(ServeSession, RegistryWorkloadPresetsAreRegistered)
{
    api::Registry &registry = api::Registry::global();
    for (const char *name :
         {"serve-smoke", "serve-steady", "serve-bursty",
          "serve-diurnal", "serve-flashcrowd", "serve-heavytail"}) {
        ASSERT_TRUE(registry.workloads.has(name)) << name;
        const ServeConfig config = registry.workloads.make(name);
        config.validate();
        EXPECT_FALSE(config.scenarios.empty());
    }
    EXPECT_EQ(registry.workloads.names().size(), 6u);
    // The adversarial presets select their namesake arrival process.
    EXPECT_EQ(registry.workloads.make("serve-diurnal").arrival.process,
              "diurnal");
    EXPECT_EQ(registry.workloads.make("serve-flashcrowd").arrival.process,
              "flash-crowd");
    EXPECT_EQ(registry.workloads.make("serve-heavytail").arrival.process,
              "heavy-tail");
    EXPECT_THROW(registry.workloads.make("serve-hurricane"),
                 std::out_of_range);
    try {
        registry.workloads.make("serve-hurricane");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("serve-smoke"),
                  std::string::npos);
    }
}

TEST(ServeSession, RunProducesPricedDeterministicResult)
{
    const api::ServeSession session{aggConfig()};
    const ServeResult result = session.run();
    ASSERT_EQ(result.requests.size(), 64u);
    ASSERT_EQ(result.scenarioUnitCycles.size(), 2u);
    EXPECT_GT(result.scenarioUnitCycles[0], 0u);
    EXPECT_GT(result.makespan, 0u);
    EXPECT_GT(result.stats.throughputRps, 0.0);
    EXPECT_GE(result.stats.p99LatencyCycles,
              result.stats.p50LatencyCycles);
    ASSERT_EQ(result.instances.size(), 2u);
    for (const InstanceRecord &inst : result.instances) {
        EXPECT_GT(inst.utilization, 0.0);
        EXPECT_LE(inst.utilization, 1.0);
    }
    // The serve JSON carries the config echo and the aggregates.
    const std::string json = toJson(result);
    EXPECT_NE(json.find("\"config\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"requests\":["), std::string::npos);
    // The compact form drops the per-request trace.
    const std::string compact = toJson(result, false);
    EXPECT_EQ(compact.find("\"requests\":["), std::string::npos);
    EXPECT_LT(compact.size(), json.size());
}

TEST(ServeSession, SchedulerRejectsInvalidConfigUpFront)
{
    ServeConfig bad = aggConfig();
    bad.instances = 0;
    EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
}

TEST(ServeSession, UnknownScenarioNamesThrow)
{
    EXPECT_THROW(api::ServeSession().scenario("karate-club", "gcn"),
                 std::out_of_range);
    EXPECT_THROW(api::ServeSession().scenario("cora", "gat"),
                 std::out_of_range);
}

TEST(Scheduler, HugeTimeoutMeansNeverNotImmediately)
{
    // arrival + timeout must saturate, not wrap: with a ~2^64
    // timeout, queues release only on full batches or drain.
    Batcher batcher(4, ~Cycle{0} - 1, 1);
    batcher.admit(request(0, 0, 1000));
    EXPECT_FALSE(batcher.ready(1000000, false));
    EXPECT_EQ(batcher.nextTimeout(), Batcher::kNever);
    EXPECT_TRUE(batcher.ready(1000000, true)); // drain still releases
}

TEST(Scheduler, RunsAgainstAnInjectedStubPlatform)
{
    // A stub platform makes the scheduler's timing math exactly
    // checkable without the registry or a real simulation.
    class StubPlatform : public api::Platform
    {
      public:
        std::string name() const override { return "stub"; }
        api::RunResult run(const api::RunSpec &spec) const override
        {
            api::RunResult out;
            out.spec = spec;
            out.report.platform = "stub";
            out.report.cycles = 10000;
            out.report.clockHz = 1e9;
            return out;
        }
    };

    ServeConfig config = aggConfig();
    config.batching.maxBatch = 1; // every batch is one request
    const ServeResult result = Scheduler(config).run(StubPlatform{});
    ASSERT_EQ(result.scenarioUnitCycles.size(), 2u);
    EXPECT_EQ(result.scenarioUnitCycles[0], 10000u);
    EXPECT_EQ(result.scenarioUnitCycles[1], 10000u);
    for (const BatchRecord &batch : result.batches) {
        ASSERT_EQ(batch.requestIds.size(), 1u);
        EXPECT_EQ(batch.serviceCycles(), 10000u);
    }
}
