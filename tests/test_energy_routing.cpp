/**
 * Energy-aware serving: the joules(B) energy twins every cost model
 * prices next to cycles(B) (anchored at the unit run's energy,
 * monotone, subadditive, per-model invariants), the registry-
 * selectable routing objectives ("cycles" / "energy" / "edp"), a
 * deterministic two-class cluster where energy and EDP routing pick
 * a different class than cycles routing would, per-class/per-tenant
 * joules accounting, off-default-only JSON emission, and the
 * ServeSweep objective/maxBatch axes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/serve_session.hpp"
#include "api/serve_sweep.hpp"
#include "serve/cost_model.hpp"
#include "serve/priced_cache.hpp"
#include "serve/route_objective.hpp"
#include "serve/scheduler.hpp"
#include "sim/json.hpp"

using namespace hygcn;
using namespace hygcn::serve;

namespace {

/** Small dataset scale so energy tests stay fast. */
constexpr double kScale = 0.1;

/** One-scenario config on the full accelerator (has both weight-load
 *  phases the analytic model amortizes). */
ServeConfig
hygcnConfig()
{
    ServeConfig config;
    config.platform = "hygcn";
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

/**
 * Deterministic stub accelerator: fixed service cycles and energy
 * per inference, scaled by the co-batch copy count so the "measured"
 * model prices sensible curves too.
 */
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
 * Two-class cluster over stub platforms: "fast-hot" wins on cycles,
 * "slow-cool" on joules (and on EDP: 1 J * 2 ms < 10 J * 1 ms).
 * Registered once; the priced cache keys on the platform names, so
 * every test shares the two stub pricing runs.
 */
ServeConfig
stubClusterConfig()
{
    api::Registry &registry = api::Registry::global();
    if (!registry.platforms.has("stub-fast-hot")) {
        registry.platforms.add("stub-fast-hot", [] {
            return std::make_unique<StubPlatform>("stub-fast-hot",
                                                  1000000, 10.0);
        });
        registry.platforms.add("stub-slow-cool", [] {
            return std::make_unique<StubPlatform>("stub-slow-cool",
                                                  2000000, 1.0);
        });
    }

    ServeConfig config;
    config.cluster.classes = {{"stub-fast-hot", 1, {}, "hot"},
                              {"stub-slow-cool", 1, {}, "cool"}};
    config.scenarios = {{"stub/gcn", {}}};
    config.batching.maxBatch = 2;
    config.numRequests = 24;
    // Arrivals three orders beyond either service time: under the
    // fixed seed every batch finds both classes free, so the routing
    // choice is purely the objective's (work-conserving fallover to
    // a busy class never triggers).
    config.meanInterarrivalCycles = 2e9;
    config.batching.timeoutCycles = 0;
    return config;
}

/**
 * Two-class cluster of near-identical stubs: service cycles exactly
 * equal, joules apart by 1e-13 relative — far inside
 * kScoreTieRelEps, so every objective must treat the classes as tied
 * and fall through the documented service-cycles ->
 * least-recently-freed -> lowest-id chain instead of letting a
 * last-ulp score gap (which another libm could flip) decide.
 */
ServeConfig
tieClusterConfig()
{
    api::Registry &registry = api::Registry::global();
    if (!registry.platforms.has("stub-tie-a")) {
        registry.platforms.add("stub-tie-a", [] {
            return std::make_unique<StubPlatform>("stub-tie-a",
                                                  1000000, 2.0);
        });
        registry.platforms.add("stub-tie-b", [] {
            return std::make_unique<StubPlatform>(
                "stub-tie-b", 1000000, 2.0 * (1.0 + 1e-13));
        });
    }

    ServeConfig config;
    config.cluster.classes = {{"stub-tie-a", 1, {}, "a"},
                              {"stub-tie-b", 1, {}, "b"}};
    config.scenarios = {{"stub/gcn", {}}};
    config.batching.maxBatch = 2;
    config.numRequests = 24;
    config.meanInterarrivalCycles = 2e9;
    config.batching.timeoutCycles = 0;
    return config;
}

/** Index of the class that served every batch; -1 on a mix. */
int
soleServingClass(const ServeResult &result)
{
    int cls = -1;
    for (const BatchRecord &batch : result.batches) {
        const int c = static_cast<int>(
            result.instances.at(batch.instance).classIndex);
        if (cls == -1)
            cls = c;
        else if (cls != c)
            return -1;
    }
    return cls;
}

} // namespace

// ---- objective registry --------------------------------------------

TEST(ObjectiveRegistry, BuiltinsRegisteredAndConstructible)
{
    api::Registry &registry = api::Registry::global();
    for (const char *name : {"cycles", "energy", "edp"}) {
        ASSERT_TRUE(registry.objectives.has(name)) << name;
        const auto objective = registry.objectives.make(name);
        ASSERT_NE(objective, nullptr);
        EXPECT_EQ(objective->name(), name);
    }
    EXPECT_THROW(registry.objectives.make("karma"), std::out_of_range);
    try {
        registry.objectives.make("karma");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("edp"), std::string::npos);
    }
}

TEST(ObjectiveRegistry, UnknownObjectiveFailsAtRun)
{
    ServeConfig config = hygcnConfig();
    config.routing.objective = "karma";
    EXPECT_THROW(Scheduler(config).run(), std::out_of_range);
    config.routing.objective = "";
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ObjectiveScores, BuiltinFiguresOfMerit)
{
    const CyclesObjective cycles;
    const EnergyObjective energy;
    const EdpObjective edp;
    EXPECT_DOUBLE_EQ(cycles.score(2000, 5.0, 4, 1e9), 2000.0);
    EXPECT_DOUBLE_EQ(energy.score(2000, 5.0, 4, 1e9), 1.25);
    EXPECT_DOUBLE_EQ(edp.score(2000, 5.0, 4, 1e9), 5.0 * 2000 / 1e9);
}

// ---- closed-form energy curves -------------------------------------

TEST(MarginalEnergyCurve, ScalesUnitEnergyByTheMarginalFraction)
{
    MarginalCostModel model;
    CostModelInputs in;
    in.unitCycles = 1000;
    in.unitJoules = 2.0;
    in.maxBatch = 4;
    in.marginalFraction = 0.25;
    const std::vector<double> curve = model.energyCurve(in);
    ASSERT_EQ(curve.size(), 4u);
    EXPECT_DOUBLE_EQ(curve[0], 2.0);
    EXPECT_DOUBLE_EQ(curve[1], 2.5);
    EXPECT_DOUBLE_EQ(curve[2], 3.0);
    EXPECT_DOUBLE_EQ(curve[3], 3.5);
}

TEST(AnalyticEnergyCurve, AmortizesWeightLoadEnergyOncePerBatch)
{
    AnalyticCostModel model;
    CostModelInputs in;
    in.unitCycles = 1000;
    in.unitJoules = 1.0;
    in.weightLoadJoules = 0.4;
    in.maxBatch = 4;
    const std::vector<double> curve = model.energyCurve(in);
    ASSERT_EQ(curve.size(), 4u);
    // W + B * (unit - W): the 0.4 J weight fetch is paid once.
    EXPECT_DOUBLE_EQ(curve[0], 1.0);
    EXPECT_DOUBLE_EQ(curve[1], 1.6);
    EXPECT_DOUBLE_EQ(curve[2], 2.2);
    EXPECT_DOUBLE_EQ(curve[3], 2.8);

    // A phase-less platform degrades to B independent runs.
    in.weightLoadJoules = 0.0;
    EXPECT_DOUBLE_EQ(model.energyCurve(in)[3], 4.0);

    // W is a share of the unit energy, but clamp anyway.
    in.weightLoadJoules = 5.0;
    EXPECT_DOUBLE_EQ(model.energyCurve(in)[3], 1.0);
}

TEST(MeasuredEnergyCurve, ClampsPointsToAValidEnergyCurve)
{
    MeasuredCostModel model;
    CostModelInputs in;
    in.unitCycles = 1000;
    in.unitJoules = 1.0;
    in.maxBatch = 4;
    in.measuredCycles = [](std::uint32_t b) {
        return static_cast<Cycle>(1000 * b);
    };
    std::vector<double> raw = {0.0, 0.9, 5.0, 3.5}; // raw[b-1]
    in.measuredJoules = [&raw](std::uint32_t b) { return raw[b - 1]; };
    const std::vector<double> curve = model.energyCurve(in);
    ASSERT_EQ(curve.size(), 4u);
    EXPECT_DOUBLE_EQ(curve[0], 1.0); // anchored at the unit run
    EXPECT_DOUBLE_EQ(curve[1], 1.0); // dip below joules(1) clamps up
    EXPECT_DOUBLE_EQ(curve[2], 3.0); // spike past 3 * unit clamps down
    EXPECT_DOUBLE_EQ(curve[3], 3.5); // in-range point passes through

    // Without a co-batch energy runner the model cannot price.
    in.measuredJoules = nullptr;
    EXPECT_THROW(model.energyCurve(in), std::logic_error);
}

TEST(EnergyCurveAt, ClampsLikeTheCyclesLookupButWithoutAFloor)
{
    const std::vector<double> curve = {1.0, 1.5, 2.0};
    EXPECT_DOUBLE_EQ(energyCurveAt(curve, 0), 0.0);
    EXPECT_DOUBLE_EQ(energyCurveAt(curve, 1), 1.0);
    EXPECT_DOUBLE_EQ(energyCurveAt(curve, 3), 2.0);
    EXPECT_DOUBLE_EQ(energyCurveAt(curve, 9), 2.0); // clamps to last
    EXPECT_DOUBLE_EQ(energyCurveAt({}, 5), 0.0);
}

// ---- energy-curve properties on real platform runs -----------------

class EnergyCurveProperties : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EnergyCurveProperties, CurveIsAnchoredMonotoneAndSubadditive)
{
    // Every model's energy twin over a real priced scenario: anchored
    // at the unit run's joules, monotone non-decreasing in B, and
    // subadditive versus B independent unit runs — the same three
    // invariants the cycles curve keeps.
    ServeConfig config = hygcnConfig();
    config.batching.costModel = GetParam();
    api::RunSpec spec = config.scenarios[0].spec;
    spec.platform = config.platform;

    const PricedScenarioCache::Priced priced =
        PricedScenarioCache::global().priceCurve(config.platform, spec,
                                                 config);
    const std::vector<double> &curve = priced.joulesByBatch;
    ASSERT_EQ(curve.size(), config.batching.maxBatch);
    ASSERT_EQ(priced.cyclesByBatch.size(), config.batching.maxBatch);
    const double unit = priced.unitJoules();
    EXPECT_GT(unit, 0.0);
    EXPECT_DOUBLE_EQ(curve.front(), unit);
    for (std::size_t b = 1; b < curve.size(); ++b)
        EXPECT_GE(curve[b], curve[b - 1]) << "dip at batch " << b + 1;
    for (std::size_t b = 0; b < curve.size(); ++b)
        EXPECT_LE(curve[b],
                  unit * static_cast<double>(b + 1) * (1.0 + 1e-12))
            << "superadditive at batch " << b + 1;
}

INSTANTIATE_TEST_SUITE_P(AllModels, EnergyCurveProperties,
                         ::testing::Values("marginal", "analytic",
                                           "measured"));

TEST(AnalyticEnergyCurve, AmortizesRealWeightLoadOnHygcn)
{
    // The accelerator fetches each layer's weights once; the analytic
    // energy twin must price a batch of B below B independent runs by
    // exactly (B-1) weight-fetch energies.
    ServeConfig config = hygcnConfig();
    config.batching.costModel = "analytic";
    api::RunSpec spec = config.scenarios[0].spec;
    spec.platform = config.platform;
    const PricedScenarioCache::Priced priced =
        PricedScenarioCache::global().priceCurve(config.platform, spec,
                                                 config);
    ASSERT_GT(priced.weightLoadJoules, 0.0);
    ASSERT_LT(priced.weightLoadJoules, priced.unitJoules());
    const double unit = priced.unitJoules();
    const std::size_t last = priced.joulesByBatch.size() - 1;
    EXPECT_NEAR(unit * static_cast<double>(last + 1) -
                    priced.joulesByBatch[last],
                priced.weightLoadJoules * static_cast<double>(last),
                unit * 1e-9);
}

// ---- objective-driven routing --------------------------------------

TEST(RouteObjectives, EnergyAndEdpPickADifferentClassThanCycles)
{
    // Light load on the two-class stub cluster: every batch sees both
    // classes free, so the dispatch is purely the objective's choice.
    // "cycles" must keep every batch on the fast expensive class;
    // "energy" and "edp" must move every batch to the slow efficient
    // one — the heterogeneous trade the paper's energy results are
    // about.
    ServeConfig config = stubClusterConfig();

    config.routing.objective = "cycles";
    const ServeResult cycles = runServe(config);
    EXPECT_EQ(soleServingClass(cycles), 0);

    config.routing.objective = "energy";
    const ServeResult energy = runServe(config);
    EXPECT_EQ(soleServingClass(energy), 1);

    config.routing.objective = "edp";
    const ServeResult edp = runServe(config);
    EXPECT_EQ(soleServingClass(edp), 1);

    // Deterministic: the divergence reproduces run over run.
    ServeConfig replay = stubClusterConfig();
    replay.routing.objective = "energy";
    EXPECT_EQ(toJson(energy), toJson(runServe(replay)));
}

TEST(RouteObjectives, JoulesAccountingFollowsTheRouting)
{
    ServeConfig config = stubClusterConfig();
    config.routing.objective = "energy";
    const ServeResult result = runServe(config);

    // Every batch carries the joules of its routed class's curve.
    double total = 0.0;
    for (const BatchRecord &batch : result.batches) {
        const std::uint32_t cls =
            result.instances.at(batch.instance).classIndex;
        EXPECT_DOUBLE_EQ(
            batch.joules,
            energyCurveAt(
                result.joulesByBatchByClass[cls][batch.scenario],
                batch.requestIds.size()));
        total += batch.joules;
    }
    EXPECT_DOUBLE_EQ(result.stats.totalJoules, total);
    EXPECT_DOUBLE_EQ(result.stats.meanJoulesPerRequest,
                     total / static_cast<double>(config.numRequests));

    // All energy landed on the class that served (the cool one).
    ASSERT_EQ(result.stats.classStats.size(), 2u);
    EXPECT_DOUBLE_EQ(result.stats.classStats[0].joules, 0.0);
    EXPECT_DOUBLE_EQ(result.stats.classStats[1].joules, total);
}

TEST(RouteObjectives, PerTenantJoulesSplitBatchEnergyEvenly)
{
    ServeConfig config = stubClusterConfig();
    config.routing.objective = "edp";
    config.tenants = {TenantMix{"a", 2.0, {}, 0, 0.0},
                      TenantMix{"b", 1.0, {}, 0, 0.0}};
    const ServeResult result = runServe(config);
    ASSERT_EQ(result.stats.tenantStats.size(), 2u);
    const double tenant_sum = result.stats.tenantStats[0].joules +
                              result.stats.tenantStats[1].joules;
    EXPECT_NEAR(tenant_sum, result.stats.totalJoules,
                result.stats.totalJoules * 1e-9);
    EXPECT_GT(result.stats.tenantStats[0].joules, 0.0);
    EXPECT_GT(result.stats.tenantStats[1].joules, 0.0);
}

TEST(RouteObjectives, CyclesObjectiveKeepsLegacySchedulesByteIdentical)
{
    // The uniform-clock FIFO smoke workload must not move a single
    // byte under the explicit default objective (the goldens pin the
    // implicit default).
    ServeConfig config = api::Registry::global().workloads.make("serve-smoke");
    for (ServeScenario &s : config.scenarios)
        s.spec.datasetScale = kScale;
    const std::string implicit = toJson(runServe(config));
    config.routing.objective = "cycles";
    EXPECT_EQ(toJson(runServe(config)), implicit);
}

TEST(RouteObjectives, SubEpsilonScoreGapsFallThroughTheTieChain)
{
    // Arrivals sit three orders beyond either service time, so both
    // classes are free at every dispatch. Tied scores and tied
    // service cycles leave least-recently-freed in charge: the first
    // batch takes the lowest id, and dispatches then alternate
    // between the two instances. Before the epsilon compare, the
    // 1e-13 joules gap made "energy"/"edp" pin every batch to class
    // a — an ordering one libm rounding away from flipping.
    for (const char *objective : {"cycles", "energy", "edp"}) {
        ServeConfig config = tieClusterConfig();
        config.routing.objective = objective;
        const ServeResult result = Scheduler(config).run();
        ASSERT_GE(result.batches.size(), 4u) << objective;
        for (std::size_t i = 0; i < result.batches.size(); ++i)
            EXPECT_EQ(result.batches[i].instance, i % 2)
                << objective << " batch " << i;
    }
}

// ---- JSON emission -------------------------------------------------

TEST(RouteObjectives, EnergyFieldsEmitUnderEveryObjective)
{
    ServeConfig config = stubClusterConfig();
    const std::string cycles_json = toJson(runServe(config));
    EXPECT_NE(cycles_json.find("\"route_objective\":\"cycles\""),
              std::string::npos);
    EXPECT_NE(cycles_json.find("\"total_joules\""), std::string::npos);
    EXPECT_NE(cycles_json.find("\"joules\""), std::string::npos);

    config.routing.objective = "edp";
    const std::string edp_json = toJson(runServe(config));
    EXPECT_NE(edp_json.find("\"route_objective\":\"edp\""),
              std::string::npos);
    EXPECT_NE(edp_json.find("\"total_joules\""), std::string::npos);
    EXPECT_NE(edp_json.find("\"mean_joules_per_request\""),
              std::string::npos);
    EXPECT_NE(edp_json.find("\"joules_by_batch\""), std::string::npos);
    EXPECT_NE(edp_json.find("\"joules\""), std::string::npos);
}

// ---- ServeSession / ServeSweep plumbing ----------------------------

TEST(ServeSession, RouteObjectiveFillsConfig)
{
    const api::ServeSession session = api::ServeSession()
                                          .platform("hygcn")
                                          .datasetScale(kScale)
                                          .scenario("cora", "gcn")
                                          .routing({.objective = "energy"});
    EXPECT_EQ(session.config().routing.objective, "energy");
    session.config().validate();
}

TEST(ServeSweep, ObjectiveAndMaxBatchAxesExpandDeterministically)
{
    ServeConfig base = stubClusterConfig();
    api::ServeSweep sweep{base};
    sweep.objectives({"cycles", "energy", "edp"}).maxBatches({1, 2});
    EXPECT_EQ(sweep.size(), 6u);
    const std::vector<ServeConfig> configs = sweep.expand();
    ASSERT_EQ(configs.size(), 6u);
    // Objectives outermost of the two, maxBatch inner.
    EXPECT_EQ(configs[0].routing.objective, "cycles");
    EXPECT_EQ(configs[0].batching.maxBatch, 1u);
    EXPECT_EQ(configs[1].batching.maxBatch, 2u);
    EXPECT_EQ(configs[2].routing.objective, "energy");
    EXPECT_EQ(configs[5].routing.objective, "edp");
    EXPECT_EQ(configs[5].batching.maxBatch, 2u);
    for (const ServeConfig &config : configs)
        config.validate();

    // Unset axes fall back to the base's objective.
    api::ServeSweep plain{base};
    EXPECT_EQ(plain.expand().at(0).routing.objective, "cycles");

    // Parallel equals sequential byte-for-byte across the new axes.
    auto build = [&base] {
        api::ServeSweep s{base};
        s.objectives({"cycles", "energy", "edp"}).maxBatches({1, 2});
        return s;
    };
    const std::vector<ServeResult> sequential =
        build().threads(1).runAll();
    const std::vector<ServeResult> parallel = build().threads(4).runAll();
    ASSERT_EQ(sequential.size(), 6u);
    ASSERT_EQ(parallel.size(), 6u);
    for (std::size_t i = 0; i < sequential.size(); ++i)
        EXPECT_EQ(toJson(sequential[i]), toJson(parallel[i])) << i;
}
