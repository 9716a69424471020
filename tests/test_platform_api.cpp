#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <span>
#include <stdexcept>
#include <thread>

#include "api/dataset_cache.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "core/accelerator.hpp"
#include "serve/control_plane.hpp"
#include "serve/cost_model.hpp"
#include "serve/policy.hpp"
#include "serve/route_objective.hpp"
#include "sim/json.hpp"
#include "workload/arrival_process.hpp"

using namespace hygcn;
using namespace hygcn::api;

namespace {

/** Small dataset scale so API tests stay fast. */
constexpr double kScale = 0.2;

} // namespace

TEST(Registry, BuiltinPlatformLookup)
{
    Registry &reg = Registry::global();
    for (const char *name : {"hygcn", "hygcn-agg", "pyg-cpu",
                             "pyg-cpu-part", "pyg-gpu", "pyg-gpu-part"}) {
        ASSERT_TRUE(reg.platforms.has(name)) << name;
        auto platform = reg.platforms.make(name);
        ASSERT_NE(platform, nullptr);
        EXPECT_EQ(platform->name(), name);
    }
    EXPECT_EQ(reg.platforms.names().size(), 6u);
    // Lookup is case-insensitive, like dataset/model names.
    EXPECT_TRUE(reg.platforms.has("HyGCN"));
    EXPECT_EQ(reg.platforms.make("PyG-GPU")->name(), "pyg-gpu");
}

TEST(Registry, UnknownNamesThrowWithKnownKeysListed)
{
    Registry &reg = Registry::global();
    EXPECT_THROW(reg.platforms.make("tpu"), std::out_of_range);
    try {
        reg.platforms.make("tpu");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("hygcn"), std::string::npos);
    }
    EXPECT_THROW(reg.datasetId("karate-club"), std::out_of_range);
    EXPECT_THROW(reg.modelId("gat"), std::out_of_range);
    EXPECT_THROW(reg.datasets.make("karate-club", 1, 0.0), std::out_of_range);
    EXPECT_THROW(reg.models.make("gat", 64, 2), std::out_of_range);
}

TEST(Registry, DatasetAndModelNameResolution)
{
    Registry &reg = Registry::global();
    EXPECT_EQ(reg.datasetId("cora"), DatasetId::CR);
    EXPECT_EQ(reg.datasetId("CR"), DatasetId::CR); // case-insensitive
    EXPECT_EQ(reg.datasetId("pubmed"), DatasetId::PB);
    EXPECT_EQ(reg.modelId("gcn"), ModelId::GCN);
    EXPECT_EQ(reg.modelId("DFP"), ModelId::DFP);

    const Dataset cora = reg.datasets.make("cora", 1, kScale);
    EXPECT_EQ(cora.id, DatasetId::CR);
    EXPECT_EQ(cora.featureLen, 1433);

    const ModelConfig gin = reg.models.make("gin", 64, 2);
    EXPECT_EQ(gin.id, ModelId::GIN);
}

TEST(Registry, CustomPlatformRegistration)
{
    class NullPlatform : public Platform
    {
      public:
        std::string name() const override { return "null"; }
        RunResult run(const RunSpec &spec) const override
        {
            RunResult out;
            out.spec = spec;
            out.report.platform = "null";
            return out;
        }
    };
    Registry reg; // private registry; keep the global one pristine
    reg.platforms.add("null", [] { return std::make_unique<NullPlatform>(); });
    EXPECT_TRUE(reg.platforms.has("null"));
    EXPECT_EQ(reg.platforms.make("null")->run(RunSpec{}).report.platform,
              "null");
}

// ---- the FactoryTable contract, on every table -------------------

namespace {

/**
 * One table of a fresh registry: the exact unknown-name error with
 * the known keys listed, case-insensitive lookup of @p builtin, and
 * add()/make() racing from several threads. @p cheap is the factory
 * the threads register; @p args feed every make().
 */
template <class Factory, class... Args>
void
checkTable(FactoryTable<Factory> &table, const std::string &kind,
           const std::string &known, std::string builtin, Factory cheap,
           const Args &...args)
{
    SCOPED_TRACE(kind);
    try {
        table.make("No-Such", args...);
        ADD_FAILURE() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_EQ(std::string(e.what()),
                  "api: unknown " + kind + " \"No-Such\"; known: " + known);
    }

    std::transform(builtin.begin(), builtin.end(), builtin.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    EXPECT_TRUE(table.has(builtin));
    EXPECT_NO_THROW(table.make(builtin, args...));

    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    const std::size_t before = table.names().size();
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const std::string name =
                    "Extra-" + std::to_string(t) + "-" + std::to_string(i);
                table.add(name, cheap);
                EXPECT_NO_THROW(table.make(name, args...));
                EXPECT_TRUE(table.has(name));
                EXPECT_GE(table.names().size(), before + 1);
            }
        });
    for (std::thread &worker : workers)
        worker.join();
    EXPECT_EQ(table.names().size(), before + kThreads * kPerThread);
}

} // namespace

TEST(Registry, EveryTableKeepsTheFactoryTableContract)
{
    Registry reg; // private registry; keep the global one pristine
    const serve::ServeConfig smoke = reg.workloads.make("serve-smoke");

    checkTable(reg.platforms, "platform",
               "hygcn, hygcn-agg, pyg-cpu, pyg-cpu-part, pyg-gpu, "
               "pyg-gpu-part",
               "pyg-gpu", Registry::PlatformFactory([] {
                   return Registry::global().platforms.make("hygcn");
               }));
    checkTable(reg.datasets, "dataset",
               "citeseer, cl, collab, cora, cr, cs, ib, imdb-binary, pb, "
               "pubmed, rd, reddit",
               "cora", Registry::DatasetFactory([](std::uint64_t, double) {
                   return Dataset{};
               }),
               std::uint64_t{1}, kScale);
    checkTable(reg.models, "model", "dfp, gcn, gin, gsc", "gin",
               Registry::ModelFactory([](int feature_len, int num_layers) {
                   return ::hygcn::makeModel(ModelId::GCN, feature_len,
                                             num_layers);
               }),
               64, 2);
    checkTable(reg.workloads, "workload",
               "serve-bursty, serve-diurnal, serve-flashcrowd, "
               "serve-heavytail, serve-smoke, serve-steady",
               "serve-steady",
               Registry::WorkloadFactory([] { return serve::ServeConfig{}; }));
    checkTable(reg.policies, "policy", "edf, fair-share, fifo", "edf",
               Registry::PolicyFactory([](const serve::ServeConfig &c) {
                   return std::make_unique<serve::FifoPolicy>(c);
               }),
               smoke);
    checkTable(reg.costModels, "cost model", "analytic, marginal, measured",
               "analytic", Registry::CostModelFactory([] {
                   return std::make_unique<serve::MarginalCostModel>();
               }));
    checkTable(reg.objectives, "routing objective", "cycles, edp, energy",
               "edp", Registry::ObjectiveFactory([] {
                   return std::make_unique<serve::CyclesObjective>();
               }));
    checkTable(
        reg.arrivalProcesses, "arrival process",
        "correlated, diurnal, flash-crowd, heavy-tail, mmpp, "
        "poisson, trace",
        "heavy-tail",
        Registry::ArrivalProcessFactory([](const serve::ServeConfig &c) {
            return std::make_unique<workload::PoissonProcess>(c);
        }),
        smoke);
    checkTable(reg.scalingPolicies, "scaling policy",
               "queue-depth, scheduled, slo-burn, static", "slo-burn",
               Registry::ScalingPolicyFactory([](const serve::ServeConfig &c) {
                   return std::make_unique<serve::StaticScaling>(c);
               }),
               smoke);
}

TEST(Registry, FactoriesMayCallBackIntoTheirOwnTable)
{
    // make() calls the factory after releasing the table's lock, so
    // a factory that re-enters the same table does not deadlock.
    Registry &reg = Registry::global();
    const serve::ServeConfig smoke = reg.workloads.make("serve-smoke");

    reg.platforms.add(
        "alias", [] { return Registry::global().platforms.make("pyg-gpu"); });
    EXPECT_EQ(reg.platforms.make("alias")->name(), "pyg-gpu");

    reg.datasets.add("alias", [](std::uint64_t seed, double scale) {
        return Registry::global().datasets.make("citeseer", seed, scale);
    });
    EXPECT_EQ(reg.datasets.make("alias", 1, kScale).id, DatasetId::CS);

    reg.models.add("alias", [](int feature_len, int num_layers) {
        return Registry::global().models.make("gin", feature_len, num_layers);
    });
    EXPECT_EQ(reg.models.make("alias", 64, 2).id, ModelId::GIN);

    reg.workloads.add("alias", [] {
        serve::ServeConfig config =
            Registry::global().workloads.make("serve-smoke");
        config.numRequests = 7;
        return config;
    });
    EXPECT_EQ(reg.workloads.make("alias").numRequests, 7u);

    reg.policies.add("alias", [](const serve::ServeConfig &config) {
        return Registry::global().policies.make("edf", config);
    });
    EXPECT_EQ(reg.policies.make("alias", smoke)->name(), "edf");

    reg.costModels.add("alias", [] {
        return Registry::global().costModels.make("analytic");
    });
    EXPECT_EQ(reg.costModels.make("alias")->name(), "analytic");

    reg.objectives.add(
        "alias", [] { return Registry::global().objectives.make("edp"); });
    EXPECT_EQ(reg.objectives.make("alias")->name(), "edp");

    reg.arrivalProcesses.add("alias", [](const serve::ServeConfig &config) {
        return Registry::global().arrivalProcesses.make("poisson", config);
    });
    EXPECT_NE(reg.arrivalProcesses.make("alias", smoke), nullptr);

    reg.scalingPolicies.add("alias", [](const serve::ServeConfig &config) {
        return Registry::global().scalingPolicies.make("queue-depth", config);
    });
    EXPECT_EQ(reg.scalingPolicies.make("alias", smoke)->name(), "queue-depth");
}

TEST(Registry, BuiltinDatasetAndModelNamesAreReserved)
{
    // Regression: a factory added under "cora" used to answer
    // datasets.make("cora") while Session().dataset("cora") still
    // ran the built-in CR. Built-in names now refuse replacement.
    Registry &reg = Registry::global();
    const Registry::DatasetFactory citeseer = [](std::uint64_t seed,
                                                 double scale) {
        return ::hygcn::makeDataset(DatasetId::CS, seed, scale);
    };
    for (const char *name : {"cora", "CR", "Cora", "pubmed", "reddit"})
        EXPECT_THROW(reg.datasets.add(name, citeseer), std::invalid_argument)
            << name;
    const Registry::ModelFactory gin = [](int feature_len, int num_layers) {
        return ::hygcn::makeModel(ModelId::GIN, feature_len, num_layers);
    };
    for (const char *name : {"gcn", "GSC", "dfp"})
        EXPECT_THROW(reg.models.add(name, gin), std::invalid_argument) << name;
    try {
        reg.datasets.add("Cora", citeseer);
        ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()),
                  "api: dataset \"Cora\" is built in and cannot be "
                  "replaced");
    }

    // Both paths still agree on the built-in.
    EXPECT_EQ(reg.datasets.make("cora", 1, kScale).id, DatasetId::CR);
    EXPECT_EQ(reg.models.make("gcn", 64, 2).id, ModelId::GCN);
    const std::vector<RunSpec> specs =
        Session().dataset("cora").model("gcn").expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].dataset, DatasetId::CR);
    EXPECT_TRUE(specs[0].datasetName.empty());
    EXPECT_EQ(specs[0].model, ModelId::GCN);
    EXPECT_TRUE(specs[0].modelName.empty());

    // Names that are not built in still register.
    EXPECT_NO_THROW(reg.datasets.add("cora-like", citeseer));
}

TEST(Sweep, CartesianExpansionOrderAndSize)
{
    Session s;
    s.platforms({"hygcn", "pyg-cpu"})
        .datasets({DatasetId::CR, DatasetId::CS})
        .models({ModelId::GCN, ModelId::GIN})
        .vary("aggBufBytes", {1 << 20, 2 << 20, 4 << 20});
    const std::vector<RunSpec> specs = s.expand();
    ASSERT_EQ(specs.size(), 2u * 2u * 2u * 3u);

    // Declaration order: platform slowest, vary() axis fastest.
    EXPECT_EQ(specs[0].platform, "hygcn");
    EXPECT_EQ(specs[0].hygcn.aggBufBytes, 1u << 20);
    EXPECT_EQ(specs[1].hygcn.aggBufBytes, 2u << 20);
    EXPECT_EQ(specs[2].hygcn.aggBufBytes, 4u << 20);
    EXPECT_EQ(specs[3].model, ModelId::GIN);
    EXPECT_EQ(specs[6].dataset, DatasetId::CS);
    EXPECT_EQ(specs[12].platform, "pyg-cpu");

    // Applied parameters are echoed into the spec.
    ASSERT_EQ(specs[0].varied.size(), 1u);
    EXPECT_EQ(specs[0].varied[0].first, "aggBufBytes");
    EXPECT_DOUBLE_EQ(specs[0].varied[0].second, 1 << 20);
}

TEST(Sweep, UnknownVaryKeyThrowsAtExpansion)
{
    Session s;
    s.dataset(DatasetId::CR).vary("warpSpeed", {1.0});
    EXPECT_THROW(s.expand(), std::invalid_argument);
}

TEST(Sweep, ModuleBudgetCouplesModulesAndRows)
{
    RunSpec spec;
    applyParam(spec, "moduleBudget", 8.0);
    EXPECT_EQ(spec.hygcn.systolicModules, 8u);
    EXPECT_EQ(spec.hygcn.moduleRows, 4u);
    EXPECT_THROW(applyParam(spec, "moduleBudget", 5.0),
                 std::invalid_argument);
}

TEST(Sweep, OutOfRangeParametersThrow)
{
    RunSpec spec;
    EXPECT_THROW(applyParam(spec, "simdCores", -1.0),
                 std::invalid_argument);
    EXPECT_THROW(applyParam(spec, "simdCores", 5e9),
                 std::invalid_argument); // would wrap uint32
    EXPECT_THROW(applyParam(spec, "aggBufBytes", 1e19),
                 std::invalid_argument);
    EXPECT_THROW(applyParam(spec, "seed", -1.0), std::invalid_argument);
    EXPECT_THROW(applyParam(spec, "numLayers", 0.0),
                 std::invalid_argument);
}

TEST(Sweep, ParallelRunAllMatchesSequentialJson)
{
    // The functional sweep asks for 4 kernel threads. On 1 runAll
    // worker its kernels run on the pool; on 4 they nest inside the
    // sweep's job and run inline. Outputs must match byte for byte.
    auto sweep = [](unsigned threads, bool functional) {
        Session session;
        session.dataset(DatasetId::CR).datasetScale(kScale).seed(11);
        session.vary("aggBufBytes", {1 << 20, 2 << 20});
        session.vary("sparsityElimination", {0.0, 1.0}).threads(threads);
        if (functional) {
            session.platform("hygcn").models({ModelId::GCN, ModelId::GIN});
            session.functional().kernelThreads(4);
        } else {
            session.platforms({"hygcn", "hygcn-agg"}).model(ModelId::GCN);
        }
        return session.runAll();
    };
    for (bool functional : {false, true}) {
        const std::vector<RunResult> sequential = sweep(1, functional);
        const std::vector<RunResult> parallel = sweep(4, functional);
        ASSERT_EQ(sequential.size(), 8u); // >= 8 runs on >= 4 threads
        ASSERT_EQ(parallel.size(), 8u);
        EXPECT_EQ(toJson(sequential), toJson(parallel));
        for (std::size_t i = 0; i < sequential.size(); ++i) {
            const auto &want = sequential[i].layerOutputs;
            const auto &got = parallel[i].layerOutputs;
            EXPECT_EQ(want.empty(), !functional);
            ASSERT_EQ(want.size(), got.size());
            for (std::size_t l = 0; l < want.size(); ++l) {
                ASSERT_TRUE(want[l].sameShape(got[l]));
                const auto want_bytes = std::as_bytes(want[l].data());
                const auto got_bytes = std::as_bytes(got[l].data());
                EXPECT_TRUE(std::ranges::equal(want_bytes, got_bytes))
                    << "run " << i << " layer " << l;
            }
        }
    }
}

TEST(Sweep, JsonEchoesSpecPerRun)
{
    const std::vector<RunResult> runs =
        Session()
            .platform("hygcn-agg")
            .dataset(DatasetId::CR)
            .datasetScale(kScale)
            .vary("sparsityElimination", {0.0, 1.0})
            .runAll();
    const std::string json = toJson(runs);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"spec\""), std::string::npos);
    EXPECT_NE(json.find("\"sparsityElimination\""), std::string::npos);
    EXPECT_NE(json.find("\"platform\":\"hygcn-agg\""), std::string::npos);
}

TEST(Platform, RunResultMatchesAcceleratorResult)
{
    // Direct accelerator invocation...
    const Dataset data = makeDataset(DatasetId::CR, 1, kScale);
    const ModelConfig model = makeModel(ModelId::GCN, data.featureLen);
    const ModelParams params = makeParams(model, 7);
    const Matrix x0 =
        makeFeatures(data.numVertices(), data.featureLen, 7);
    HyGCNAccelerator accel{HyGCNConfig{}};
    const AcceleratorResult direct =
        accel.run(data, model, params, &x0, 7);

    // ...must be bit-identical to the same scenario through the API.
    const RunResult via_api = Session()
                                  .platform("hygcn")
                                  .dataset(DatasetId::CR)
                                  .datasetScale(kScale)
                                  .model(ModelId::GCN)
                                  .seed(7)
                                  .functional()
                                  .runOne();
    EXPECT_EQ(direct.report.cycles, via_api.report.cycles);
    EXPECT_EQ(toJson(direct.report), toJson(via_api.report));
    EXPECT_DOUBLE_EQ(direct.report.stats.gauge(Gauge::CombAvgVertexLatency),
                     via_api.report.stats.gauge(Gauge::CombAvgVertexLatency));
    ASSERT_EQ(direct.layerOutputs.size(), via_api.layerOutputs.size());
    for (std::size_t i = 0; i < direct.layerOutputs.size(); ++i)
        EXPECT_TRUE(Matrix::bytesEqual(direct.layerOutputs[i],
                                       via_api.layerOutputs[i]));
}

TEST(Platform, InvalidConfigFailsFastBeforeDatasetConstruction)
{
    HyGCNConfig bad;
    bad.simdCores = 0;

    // Unique scale: this dataset exists only if the adapter wrongly
    // constructed it before validating.
    const double unique_scale = 0.017;
    const std::size_t cached_before = DatasetCache::global().size();

    auto platform = Registry::global().platforms.make("hygcn");
    RunSpec spec;
    spec.dataset = DatasetId::CS;
    spec.datasetScale = unique_scale;
    spec.hygcn = bad;
    EXPECT_THROW(platform->run(spec), std::invalid_argument);
    EXPECT_THROW(Registry::global().platforms.make("hygcn-agg")->run(spec),
                 std::invalid_argument);
    EXPECT_EQ(DatasetCache::global().size(), cached_before);

    // The same failure propagates out of a Session sweep.
    EXPECT_THROW(Session()
                     .config(bad)
                     .dataset(DatasetId::CS)
                     .datasetScale(unique_scale)
                     .runOne(),
                 std::invalid_argument);
}

TEST(Platform, UnbuildableDatasetScaleThrowsFromRunOne)
{
    // IB at 0.1 scale has fewer vertices than its 128 components
    // need. The cache rejects it before creating a slot, so a retry
    // throws again instead of waiting on a wedged once_flag.
    const std::size_t cached_before = DatasetCache::global().size();
    for (int attempt = 0; attempt < 2; ++attempt)
        EXPECT_THROW(Session()
                         .dataset(DatasetId::IB)
                         .datasetScale(0.1)
                         .runOne(),
                     std::invalid_argument);
    EXPECT_EQ(DatasetCache::global().size(), cached_before);
}

TEST(Platform, BaselinesRejectFunctionalMode)
{
    // The pyg-gpu cost model and the agg-only mode are timing-only;
    // asking for functional outputs must fail fast, not return
    // empty matrices. (pyg-cpu gained a functional mode via the
    // kernel core — covered below.)
    for (const char *name : {"pyg-gpu", "hygcn-agg"}) {
        RunSpec spec;
        spec.dataset = DatasetId::CR;
        spec.datasetScale = kScale;
        spec.functional = true;
        EXPECT_THROW(Registry::global().platforms.make(name)->run(spec),
                     std::invalid_argument)
            << name;
    }

    // The agg-only mode hard-codes first-layer GCN aggregation;
    // other models must be rejected, not silently remapped.
    RunSpec gin;
    gin.model = ModelId::GIN;
    gin.dataset = DatasetId::CR;
    gin.datasetScale = kScale;
    EXPECT_THROW(Registry::global().platforms.make("hygcn-agg")->run(gin),
                 std::invalid_argument);
}

TEST(Platform, CpuBaselineFunctionalMatchesHyGCN)
{
    // pyg-cpu runs the model through the kernel core in functional
    // mode; its outputs must be bit-exact against the hygcn
    // platform's functional path (both are backed by the same
    // kernels, in the same FP order).
    RunSpec cpu;
    cpu.platform = "pyg-cpu";
    cpu.dataset = DatasetId::CR;
    cpu.datasetScale = kScale;
    cpu.functional = true;
    cpu.threads = 2;
    const RunResult cpu_out =
        Registry::global().platforms.make("pyg-cpu")->run(cpu);

    RunSpec hw = cpu;
    hw.platform = "hygcn";
    hw.threads = 0;
    const RunResult hw_out =
        Registry::global().platforms.make("hygcn")->run(hw);

    ASSERT_EQ(cpu_out.layerOutputs.size(), hw_out.layerOutputs.size());
    ASSERT_FALSE(cpu_out.layerOutputs.empty());
    for (std::size_t li = 0; li < cpu_out.layerOutputs.size(); ++li) {
        EXPECT_TRUE(Matrix::bytesEqual(cpu_out.layerOutputs[li],
                                       hw_out.layerOutputs[li]))
            << "layer " << li;
    }
    // The timing/energy report still comes from the CPU cost model.
    EXPECT_GT(cpu_out.report.cycles, 0u);

    // The engine trace remains unsupported on the baseline.
    RunSpec traced = cpu;
    traced.collectTrace = true;
    EXPECT_THROW(Registry::global().platforms.make("pyg-cpu")->run(traced),
                 std::invalid_argument);
}

TEST(Platform, ReVariedParameterKeepsLastValueInJson)
{
    RunSpec spec;
    applyParam(spec, "aggBufBytes", 1 << 20);
    applyParam(spec, "aggBufBytes", 2 << 20);
    EXPECT_EQ(spec.hygcn.aggBufBytes, 2u << 20);
    const std::string json = toJson(spec);
    // "varied" echoes the key exactly once, with the last value.
    const std::string varied = json.substr(json.find("\"varied\""));
    std::size_t count = 0;
    for (std::size_t pos = varied.find("aggBufBytes");
         pos != std::string::npos;
         pos = varied.find("aggBufBytes", pos + 1))
        ++count;
    EXPECT_EQ(count, 1u);
    EXPECT_NE(varied.find("\"aggBufBytes\":2097152"), std::string::npos);
}

TEST(Platform, RunOneRejectsMultiRunSweeps)
{
    Session s;
    s.dataset(DatasetId::CR).vary("sparsityElimination", {0.0, 1.0});
    EXPECT_THROW(s.runOne(), std::logic_error);
}

TEST(DatasetCache, ConcurrentFirstTouchBuildsOneCopy)
{
    DatasetCache cache;
    std::vector<const Dataset *> seen(8, nullptr);
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < seen.size(); ++i)
        pool.emplace_back([&cache, &seen, i] {
            seen[i] = &cache.get(DatasetId::CS, kScale, 99);
        });
    for (std::thread &t : pool)
        t.join();
    EXPECT_EQ(cache.size(), 1u);
    for (const Dataset *d : seen) {
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d, seen[0]); // one shared instance
        EXPECT_EQ(d->id, DatasetId::CS);
    }
}

TEST(DatasetCache, KeysSeparateScaleAndSeed)
{
    DatasetCache cache;
    const Dataset &a = cache.get(DatasetId::CR, kScale, 1);
    const Dataset &b = cache.get(DatasetId::CR, kScale, 2);
    const Dataset &c = cache.get(DatasetId::CR, kScale, 1);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&a, &c);
    EXPECT_EQ(cache.size(), 2u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

// ---- custom dataset/model addressing (pre-existing API gap) --------

TEST(Registry, CustomDatasetAndModelAddressableFromRunSpec)
{
    // Regression for the ROADMAP gap: registered custom datasets and
    // models used to be constructible by name only — a RunSpec (and
    // so Session/sweeps/serving scenarios) could not reference them.
    Registry &reg = Registry::global();
    reg.datasets.add("tiny-cora", [](std::uint64_t seed, double scale) {
        return ::hygcn::makeDataset(DatasetId::CR, seed,
                                    scale <= 0.0 ? 0.1 : scale);
    });
    reg.models.add("gcn-wide", [](int feature_len, int num_layers) {
        return ::hygcn::makeModel(ModelId::GCN, feature_len, num_layers);
    });
    ASSERT_TRUE(reg.datasets.has("tiny-cora"));
    ASSERT_TRUE(reg.models.has("gcn-wide"));

    const RunResult run = Session()
                              .platform("pyg-cpu")
                              .dataset("tiny-cora")
                              .model("gcn-wide")
                              .runOne();
    EXPECT_GT(run.report.cycles, 0u);
    EXPECT_EQ(run.spec.datasetName, "tiny-cora");
    EXPECT_EQ(run.spec.modelName, "gcn-wide");
    EXPECT_NE(run.spec.label().find("tiny-cora"), std::string::npos);
    EXPECT_NE(run.spec.label().find("gcn-wide"), std::string::npos);

    // The spec echo names the custom pair; id-addressed specs echo
    // null names.
    const std::string json = toJson(run);
    EXPECT_NE(json.find("\"dataset_name\":\"tiny-cora\""),
              std::string::npos);
    EXPECT_NE(json.find("\"model_name\":\"gcn-wide\""),
              std::string::npos);
    const std::string builtin =
        toJson(Session().platform("pyg-cpu").dataset(DatasetId::CR)
                   .datasetScale(kScale).runOne());
    EXPECT_NE(builtin.find("\"dataset_name\":null"), std::string::npos);

    // Unknown names still fail fast at the builder.
    EXPECT_THROW(Session().dataset("karate-club"), std::out_of_range);
    EXPECT_THROW(Session().model("gat"), std::out_of_range);
}

TEST(DatasetCache, CustomNamesCacheByRegistryName)
{
    Registry::global().datasets.add(
        "tiny-citeseer", [](std::uint64_t seed, double scale) {
            return ::hygcn::makeDataset(DatasetId::CS, seed,
                                        scale <= 0.0 ? 0.1 : scale);
        });
    DatasetCache cache;
    const Dataset &a = cache.get("tiny-citeseer", 0.0, 1);
    const Dataset &b = cache.get("tiny-citeseer", 0.0, 1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(a.id, DatasetId::CS);
    // Named and id-keyed entries never collide.
    const Dataset &c = cache.get(DatasetId::CS, 0.1, 1);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_THROW(cache.get("karate-club"), std::out_of_range);
}

TEST(Registry, IdSelectionClearsEarlierCustomName)
{
    Registry::global().datasets.add(
        "sticky-cora", [](std::uint64_t seed, double scale) {
            return ::hygcn::makeDataset(DatasetId::CR, seed,
                                        scale <= 0.0 ? 0.1 : scale);
        });
    Registry::global().models.add(
        "sticky-gcn", [](int feature_len, int num_layers) {
            return ::hygcn::makeModel(ModelId::GCN, feature_len,
                                      num_layers);
        });
    // A later id-based selection must replace the custom name, not
    // be silently overridden by it.
    const std::vector<RunSpec> specs = Session()
                                           .dataset("sticky-cora")
                                           .model("sticky-gcn")
                                           .dataset(DatasetId::CS)
                                           .model(ModelId::GIN)
                                           .expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_TRUE(specs[0].datasetName.empty());
    EXPECT_TRUE(specs[0].modelName.empty());
    EXPECT_EQ(specs[0].dataset, DatasetId::CS);
    EXPECT_EQ(specs[0].model, ModelId::GIN);
    // And the multi-id overloads clear it too.
    const std::vector<RunSpec> swept = Session()
                                           .dataset("sticky-cora")
                                           .datasets({DatasetId::CR,
                                                      DatasetId::CS})
                                           .expand();
    ASSERT_EQ(swept.size(), 2u);
    EXPECT_TRUE(swept[0].datasetName.empty());
    // Symmetrically, a custom-name selection collapses an earlier
    // multi-id axis instead of expanding duplicate name-overridden
    // runs.
    const std::vector<RunSpec> collapsed =
        Session()
            .datasets({DatasetId::CR, DatasetId::CS})
            .dataset("sticky-cora")
            .expand();
    ASSERT_EQ(collapsed.size(), 1u);
    EXPECT_EQ(collapsed[0].datasetName, "sticky-cora");
}

TEST(DatasetCache, NamedEntriesNeverAliasBuiltinSlots)
{
    // Regression: named entries once keyed with sentinel id 0, which
    // collided with the id-0 built-in (IB) under an empty name.
    DatasetCache cache;
    const Dataset &ib = cache.get(DatasetId::IB, 0.2, 1);
    EXPECT_EQ(ib.id, DatasetId::IB);
    EXPECT_THROW(cache.get("", 0.2, 1), std::out_of_range);
    EXPECT_THROW(cache.get("", 0.2, 1), std::out_of_range); // stays
}
