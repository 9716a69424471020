/**
 * The hygcn-agg platform (HyGCNAccelerator::runAggregation) against a
 * plainly written Aggregation-Engine-only run: its own HBM model,
 * coordinator, engine and window plan, with a second, Grid-mode plan
 * for the sparsity ratio. Cycles, DRAM bytes, every counter the
 * reference emits, the engine and coordinator energy and the ratio
 * must be bit-equal over CR and CS at scale 0.2, sparsity
 * elimination off/on, a 1 and a 4 MiB Aggregation Buffer, sampling
 * factor 1 and 4, and the inter-engine pipeline on/off.
 */

#include <gtest/gtest.h>

#include <vector>

#include "api/dataset_cache.hpp"
#include "api/session.hpp"
#include "core/aggregation_engine.hpp"
#include "graph/partition.hpp"
#include "graph/sampling.hpp"
#include "graph/window.hpp"
#include "sim/json.hpp"

using namespace hygcn;

namespace {

/** A reference run's report and its Grid-relative sparsity ratio. */
struct Reference
{
    SimReport report;
    double gridRatio = 0.0;
};

/** The Aggregation Engine alone over the first GCN layer of @p data. */
Reference
referenceRun(const Dataset &data, const HyGCNConfig &config,
             std::uint32_t sample_factor, std::uint64_t seed)
{
    HbmModel hbm(config.effectiveHbm());
    MemoryCoordinator coord(hbm, config.effectiveCoordinator());
    EnergyLedger ledger;
    StatGroup stats;
    AggregationEngine engine(config, coord, ledger, stats);

    // First-layer GCN aggregation: full feature length, self loops.
    EdgeSet edges = EdgeSet::fromGraph(data.graph, true);
    if (sample_factor > 1) {
        EdgeSet sampled = NeighborSampler::sampleByFactor(
            data.graph.csc(), sample_factor, seed);
        edges = EdgeSet::fromView(sampled.view(), true);
    }

    PartitionConfig pc;
    pc.aggBufBytes = config.aggBufBytes;
    pc.inputBufBytes = config.inputBufBytes;
    pc.edgeBufBytes = config.edgeBufBytes;
    pc.pingPongAgg = config.interEnginePipeline;
    pc.featureLen = data.featureLen;
    const PartitionDims dims = computePartitionDims(pc);
    const WindowPlan plan = buildWindowPlan(
        edges.view(), dims.intervalSize, dims.windowHeight,
        dims.maxEdgesPerWindow, config.windowMode());

    Reference ref;
    ref.report.cycles = engine.processPlan(edges.view(), plan,
                                           data.featureLen, nullptr,
                                           nullptr, 0, AddressMap{});
    ref.report.stats = stats;
    ref.report.stats.merge(hbm.stats());
    ref.report.energy = ledger;

    const WindowPlan grid = buildWindowPlan(
        edges.view(), dims.intervalSize, dims.windowHeight,
        dims.maxEdgesPerWindow, WindowMode::Grid);
    ref.gridRatio = grid.loadedRows > 0
                        ? 1.0 - static_cast<double>(plan.loadedRows) /
                                    static_cast<double>(grid.loadedRows)
                        : 0.0;
    return ref;
}

/** Expect @p run, a hygcn-agg run, to match the reference. */
void
expectMatchesReference(const api::RunResult &run)
{
    const api::RunSpec &spec = run.spec;
    const Dataset &data = api::DatasetCache::global().get(
        spec.dataset, spec.datasetScale, spec.datasetSeed);
    const Reference ref =
        referenceRun(data, spec.hygcn, spec.sampleFactor, spec.seed);
    const SimReport &got = run.report;

    EXPECT_EQ(got.cycles, ref.report.cycles);
    EXPECT_EQ(got.dramBytes(), ref.report.dramBytes());
    ref.report.stats.forEachCounter([&](std::string_view name, auto v) {
        EXPECT_EQ(got.stats.get(name), v) << name;
    });
    for (Energy e : {Energy::AggEngine, Energy::Coordinator})
        EXPECT_EQ(got.energy.component(e), ref.report.energy.component(e));
    EXPECT_EQ(got.stats.gauge(Gauge::PlanSparsityReduction), ref.gridRatio);

    // What the reference never reported: the coordinator's stats and
    // the DRAM energy.
    EXPECT_EQ(got.stats.get(Counter::CoordRequests),
              got.stats.get(Counter::DramRequests));
    EXPECT_EQ(got.energy.component(Energy::Dram),
              spec.hygcn.energy.hbmPerByte() *
                  static_cast<double>(got.dramBytes()));
}

} // namespace

TEST(AggregationOnly, MatchesTheStandaloneEngineRun)
{
    const std::vector<api::RunResult> runs =
        api::Session()
            .platform("hygcn-agg")
            .datasets({DatasetId::CR, DatasetId::CS})
            .datasetScale(0.2)
            .model(ModelId::GCN)
            .seed(11)
            .vary("sparsityElimination", {0.0, 1.0})
            .vary("aggBufBytes", {1.0 * (1 << 20), 4.0 * (1 << 20)})
            .vary("sampleFactor", {1.0, 4.0})
            .vary("interEnginePipeline", {1.0, 0.0})
            .runAll();
    ASSERT_EQ(runs.size(), 32u);
    for (const api::RunResult &run : runs) {
        SCOPED_TRACE(toJson(run.spec));
        expectMatchesReference(run);
    }
}
