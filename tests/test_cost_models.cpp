/**
 * Batch cost models: registry plumbing, the closed-form marginal and
 * analytic curves, measured-curve clamping, curve properties every
 * model must keep on real platform runs (anchored at the unit cost,
 * monotone non-decreasing in B, subadditive versus B independent
 * unit runs), per-batch-size memoization of the "measured" model in
 * the PricedScenarioCache, and deadline-aware EDF batch sizing.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "serve/cost_model.hpp"
#include "serve/policy.hpp"
#include "serve/priced_cache.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/** Small dataset scale so cost-model tests stay fast. */
constexpr double kScale = 0.2;

/** One-scenario config on the cheap Aggregation-Engine-only mode. */
ServeConfig
aggConfig()
{
    ServeConfig config;
    config.platform = "hygcn-agg";
    config.scenarios = {{"cora/gcn", {}}};
    config.scenarios[0].spec.dataset = DatasetId::CR;
    config.scenarios[0].spec.datasetScale = kScale;
    config.numRequests = 48;
    config.meanInterarrivalCycles = 20000.0;
    config.instances = 2;
    config.batching.maxBatch = 4;
    config.batching.timeoutCycles = 50000;
    return config;
}

/** One-scenario config on the full accelerator (has the weight-load
 *  phase the analytic model amortizes), scaled down further. */
ServeConfig
hygcnConfig()
{
    ServeConfig config = aggConfig();
    config.platform = "hygcn";
    config.scenarios[0].spec.datasetScale = 0.1;
    return config;
}

ServeRequest
request(std::uint64_t id, Cycle arrival, Cycle deadline)
{
    ServeRequest r;
    r.id = id;
    r.scenario = 0;
    r.arrival = arrival;
    r.deadline = deadline;
    return r;
}

} // namespace

// ---- registry ------------------------------------------------------

TEST(CostModelRegistry, BuiltinsRegisteredAndConstructible)
{
    api::Registry &registry = api::Registry::global();
    for (const char *name : {"marginal", "analytic", "measured"}) {
        ASSERT_TRUE(registry.costModels.has(name)) << name;
        const auto model = registry.costModels.make(name);
        ASSERT_NE(model, nullptr);
        EXPECT_EQ(model->name(), name);
    }
    EXPECT_EQ(registry.costModels.names().size(), 3u);
    EXPECT_THROW(registry.costModels.make("psychic"), std::out_of_range);
    try {
        registry.costModels.make("psychic");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("analytic"),
                  std::string::npos);
    }
}

TEST(CostModelRegistry, UnknownModelFailsAtRun)
{
    ServeConfig config = aggConfig();
    config.batching.costModel = "psychic";
    // The model name is resolved at run(), like platform keys.
    EXPECT_THROW(Scheduler(config).run(), std::out_of_range);
    // But never accepted empty.
    config.batching.costModel = "";
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---- closed-form curves --------------------------------------------

TEST(MarginalCostModel, CurveMatchesLegacyBatchServiceCycles)
{
    MarginalCostModel model;
    CostModelInputs in;
    in.unitCycles = 1000;
    in.maxBatch = 8;
    in.marginalFraction = 0.35;
    const std::vector<Cycle> curve = model.curve(in);
    ASSERT_EQ(curve.size(), 8u);
    for (std::size_t b = 1; b <= curve.size(); ++b)
        EXPECT_EQ(curve[b - 1], batchServiceCycles(1000, b, 0.35)) << b;
}

TEST(AnalyticCostModel, AmortizesWeightLoadOncePerBatch)
{
    AnalyticCostModel model;
    CostModelInputs in;
    in.unitCycles = 1000;
    in.weightLoadCycles = 400;
    in.maxBatch = 4;
    const std::vector<Cycle> curve = model.curve(in);
    ASSERT_EQ(curve.size(), 4u);
    // W + B * (unit - W): the 400-cycle weight load is paid once.
    EXPECT_EQ(curve[0], 1000u);
    EXPECT_EQ(curve[1], 1600u);
    EXPECT_EQ(curve[2], 2200u);
    EXPECT_EQ(curve[3], 2800u);

    // A phase-less platform (W = 0) degrades to B independent runs.
    in.weightLoadCycles = 0;
    EXPECT_EQ(model.curve(in)[3], 4000u);

    // W is a segment of the unit critical path, but clamp anyway.
    in.weightLoadCycles = 5000;
    const std::vector<Cycle> clamped = model.curve(in);
    EXPECT_EQ(clamped[0], 1000u);
    EXPECT_EQ(clamped[3], 1000u);
}

TEST(MeasuredCostModel, ClampsPointsToAValidServiceCurve)
{
    MeasuredCostModel model;
    CostModelInputs in;
    in.unitCycles = 1000;
    in.maxBatch = 4;
    std::vector<Cycle> raw = {0, 900, 5000, 3500}; // raw[b-1]
    in.measuredCycles = [&raw](std::uint32_t b) { return raw[b - 1]; };
    const std::vector<Cycle> curve = model.curve(in);
    ASSERT_EQ(curve.size(), 4u);
    EXPECT_EQ(curve[0], 1000u); // anchored at the unit run
    EXPECT_EQ(curve[1], 1000u); // dip below cycles(1) clamps up
    EXPECT_EQ(curve[2], 3000u); // spike past 3 * unit clamps down
    EXPECT_EQ(curve[3], 3500u); // in-range point passes through

    // Without a co-batch runner the model cannot price.
    in.measuredCycles = nullptr;
    EXPECT_THROW(model.curve(in), std::logic_error);
}

// ---- curve properties on real platform runs ------------------------

class CostModelProperties : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CostModelProperties, CurveIsAnchoredMonotoneAndSubadditive)
{
    // Every model's curve over a real priced scenario: anchored at
    // the unit run, monotone non-decreasing in B (a bigger co-batch
    // can always serve the smaller one), and subadditive versus B
    // independent unit runs (the scheduler could always fall back to
    // serving members one by one).
    ServeConfig config = hygcnConfig();
    config.batching.costModel = GetParam();
    api::RunSpec spec = config.scenarios[0].spec;
    spec.platform = config.platform;

    const PricedScenarioCache::Priced priced =
        PricedScenarioCache::global().priceCurve(config.platform, spec,
                                                 config);
    const std::vector<Cycle> &curve = priced.cyclesByBatch;
    ASSERT_EQ(curve.size(), config.batching.maxBatch);
    const Cycle unit = priced.unitCycles();
    EXPECT_GT(unit, 0u);
    EXPECT_EQ(curve.front(), unit);
    for (std::size_t b = 1; b < curve.size(); ++b)
        EXPECT_GE(curve[b], curve[b - 1]) << "dip at batch " << b + 1;
    for (std::size_t b = 0; b < curve.size(); ++b)
        EXPECT_LE(curve[b], unit * static_cast<Cycle>(b + 1))
            << "superadditive at batch " << b + 1;
}

INSTANTIATE_TEST_SUITE_P(AllModels, CostModelProperties,
                         ::testing::Values("marginal", "analytic",
                                           "measured"));

TEST(AnalyticCostModel, AmortizesRealWeightLoadOnHygcn)
{
    // The full accelerator loads each layer's weights once; the
    // analytic curve must price a batch of B strictly below B
    // independent runs by exactly (B-1) weight loads.
    ServeConfig config = hygcnConfig();
    config.batching.costModel = "analytic";
    api::RunSpec spec = config.scenarios[0].spec;
    spec.platform = config.platform;
    const PricedScenarioCache::Priced priced =
        PricedScenarioCache::global().priceCurve(config.platform, spec,
                                                 config);
    ASSERT_GT(priced.weightLoadCycles, 0u);
    ASSERT_LT(priced.weightLoadCycles, priced.unitCycles());
    const Cycle unit = priced.unitCycles();
    const std::size_t last = priced.cyclesByBatch.size() - 1;
    EXPECT_EQ(unit * (last + 1) - priced.cyclesByBatch[last],
              priced.weightLoadCycles * last);
}

// ---- measured memoization ------------------------------------------

TEST(MeasuredCostModel, MemoizesPerBatchSizeInThePricedCache)
{
    PricedScenarioCache &cache = PricedScenarioCache::global();
    cache.clear();

    ServeConfig config = aggConfig();
    config.batching.costModel = "measured";
    runServe(config);
    // One curve entry plus one unit entry per batch size 1..batching.maxBatch
    // (the co-batch runs memoize as RunSpec::batchCopies entries).
    const std::uint64_t misses_first = cache.misses();
    EXPECT_EQ(misses_first, 1u + config.batching.maxBatch);

    // Replays — same scenario, different traffic — price nothing new.
    config.seed += 1;
    runServe(config);
    EXPECT_EQ(cache.misses(), misses_first);

    // A larger maxBatch re-runs only the new batch sizes: the shared
    // unit entries for 1..4 hit.
    config.batching.maxBatch = 6;
    runServe(config);
    EXPECT_EQ(cache.misses(), misses_first + 1u + 2u);
}

TEST(MeasuredCostModel, ServesAndKeepsConservation)
{
    ServeConfig config = aggConfig();
    config.batching.costModel = "measured";
    const ServeResult result = runServe(config);
    ASSERT_EQ(result.requests.size(), config.numRequests);
    EXPECT_GT(result.stats.throughputRps, 0.0);
    // The echoed curves are what the dispatches used.
    ASSERT_EQ(result.cyclesByBatchByClass.size(), 1u);
    ASSERT_EQ(result.cyclesByBatchByClass[0][0].size(),
              config.batching.maxBatch);
    for (const BatchRecord &batch : result.batches)
        EXPECT_EQ(batch.serviceCycles(),
                  curveAt(result.cyclesByBatchByClass[0][batch.scenario],
                          batch.requestIds.size()));
    // Non-default models echo their curves into the JSON.
    const std::string json = toJson(result, false);
    EXPECT_NE(json.find("\"cost_model\":\"measured\""),
              std::string::npos);
    EXPECT_NE(json.find("\"unit_cycles_by_batch\""), std::string::npos);
}

// ---- deadline-aware EDF batch sizing -------------------------------

TEST(EdfDeadlineAwareBatching, CapsFillWhereTheCurveBlowsTheDeadline)
{
    ServeConfig config = aggConfig();
    config.policy = "edf";
    config.batching.deadlineAware = true;
    EdfPolicy policy(config);
    policy.bindCostOracle([](std::uint32_t, std::size_t batch) {
        return static_cast<Cycle>(100 * batch);
    });

    // Head deadline 250: cycles(2) = 200 fits, cycles(3) = 300 does
    // not — the fill must stop at two members. The save counts only
    // once the realized service time confirms the head made it.
    policy.admit(request(0, 0, 250));
    policy.admit(request(1, 0, 1000));
    policy.admit(request(2, 0, 1000));
    policy.admit(request(3, 0, 1000));
    std::vector<ServeRequest> batch = policy.pop(0, true);
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(policy.deadlineCapsAvoided(), 0u);
    policy.onDispatch(batch, 200);
    EXPECT_EQ(policy.deadlineCapsAvoided(), 1u);

    // The remainder has slack 1000: it fills without a cap, and its
    // dispatch reconciles nothing.
    batch = policy.pop(0, true);
    EXPECT_EQ(batch.size(), 2u);
    policy.onDispatch(batch, 200);
    EXPECT_EQ(policy.deadlineCapsAvoided(), 1u);

    // A head that cannot make its deadline even alone dispatches at
    // the full fill — capping could no longer save it.
    policy.admit(request(4, 0, 50));
    policy.admit(request(5, 0, 1000));
    batch = policy.pop(0, true);
    EXPECT_EQ(batch.size(), 2u);
    policy.onDispatch(batch, 200);
    EXPECT_EQ(policy.deadlineCapsAvoided(), 1u);

    // A capped fill routed onto a class slower than the oracle's
    // best case can still miss: no save is counted.
    policy.admit(request(6, 0, 250));
    policy.admit(request(7, 0, 1000));
    policy.admit(request(8, 0, 1000));
    batch = policy.pop(0, true);
    EXPECT_EQ(batch.size(), 2u);
    policy.onDispatch(batch, 400); // realized 400 > deadline 250
    EXPECT_EQ(policy.deadlineCapsAvoided(), 1u);
}

TEST(EdfDeadlineAwareBatching, NeverServesTheSloTenantWorse)
{
    // Same contended stream, EDF with and without deadline-aware
    // sizing: capping exists to protect tight deadlines, so the SLO
    // tenant must not miss more often with it on (the property that
    // justified flipping the flag default-on).
    ServeConfig config = aggConfig();
    config.policy = "edf";
    config.instances = 1;
    config.numRequests = 96;
    config.meanInterarrivalCycles = 10000.0;
    config.tenants = {TenantMix{"interactive", 1.0, {}, 150000, 0.0},
                      TenantMix{"analytics", 1.0, {}, 0, 0.0}};

    config.batching.deadlineAware = false; // the legacy opt-out
    const ServeResult plain = runServe(config);
    config.batching.deadlineAware = true;
    const ServeResult capped = runServe(config);

    EXPECT_LE(capped.stats.tenantStats[0].sloViolations,
              plain.stats.tenantStats[0].sloViolations);
    EXPECT_EQ(plain.stats.deadlineCapsAvoided, 0u);
    // Both runs echo the flag and the caps counter.
    const std::string json = toJson(capped, false);
    EXPECT_NE(json.find("\"deadline_aware_batching\":true"),
              std::string::npos);
    EXPECT_NE(json.find("\"deadline_caps_avoided\""), std::string::npos);
    EXPECT_NE(toJson(plain, false).find(
                  "\"deadline_aware_batching\":false"),
              std::string::npos);
    EXPECT_NE(toJson(plain, false).find("\"deadline_caps_avoided\":0"),
              std::string::npos);
}

// ---- ServeSession plumbing -----------------------------------------

TEST(ServeSession, CostModelAndDeadlineKnobsFillConfig)
{
    const api::ServeSession session =
        api::ServeSession()
            .platform("hygcn-agg")
            .datasetScale(kScale)
            .scenario("cora", "gcn")
            .batching({.costModel = "analytic", .deadlineAware = true});
    EXPECT_EQ(session.config().batching.costModel, "analytic");
    EXPECT_TRUE(session.config().batching.deadlineAware);
    session.config().validate();
}
