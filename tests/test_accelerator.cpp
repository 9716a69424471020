#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "model/reference.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

Dataset
tinyDataset(VertexId v, EdgeId e, int feats, std::uint64_t seed,
            std::size_t components = 1)
{
    Dataset ds;
    ds.id = DatasetId::CR;
    ds.name = "tiny";
    ds.abbrev = "TY";
    ds.featureLen = feats;
    Rng rng(seed);
    ds.graph = Graph::fromEdges(v, generateUniform(v, e, rng), true);
    if (components > 1) {
        for (std::size_t i = 0; i <= components; ++i)
            ds.graphBoundaries.push_back(
                static_cast<VertexId>(i * v / components));
        ds.graphBoundaries.back() = v;
    }
    return ds;
}

} // namespace

class AcceleratorModelParam : public ::testing::TestWithParam<ModelId>
{
};

TEST_P(AcceleratorModelParam, FunctionalBitExactVsReference)
{
    const ModelId id = GetParam();
    const Dataset ds = tinyDataset(150, 600, 24, 1, 4);
    const ModelConfig model = makeModel(id, ds.featureLen);
    const ModelParams params = makeParams(model, 2);
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 3);

    HyGCNAccelerator accel{HyGCNConfig{}};
    const AcceleratorResult r = accel.run(ds, model, params, &x0, 7,
                                          !model.isDiffPool);
    const ReferenceExecutor ref(ds.graph, ds.graphBoundaries);
    const ReferenceResult golden =
        ref.run(model, params, x0, 7, !model.isDiffPool);

    ASSERT_EQ(r.layerOutputs.size(), golden.layerOutputs.size());
    for (std::size_t i = 0; i < r.layerOutputs.size(); ++i) {
        EXPECT_TRUE(Matrix::bytesEqual(r.layerOutputs[i],
                                       golden.layerOutputs[i]))
            << modelAbbrev(id) << " layer " << i;
    }
    if (model.isDiffPool) {
        ASSERT_EQ(r.pooledX.size(), golden.pooledX.size());
        for (std::size_t g = 0; g < r.pooledX.size(); ++g) {
            EXPECT_LT(Matrix::maxAbsDiff(r.pooledX[g],
                                         golden.pooledX[g]),
                      1e-4f);
            EXPECT_LT(Matrix::maxAbsDiff(r.pooledA[g],
                                         golden.pooledA[g]),
                      1e-4f);
        }
    } else {
        EXPECT_TRUE(Matrix::bytesEqual(r.readout, golden.readout));
    }
}

INSTANTIATE_TEST_SUITE_P(Models, AcceleratorModelParam,
                         ::testing::Values(ModelId::GCN, ModelId::GSC,
                                           ModelId::GIN, ModelId::DFP));

TEST(Accelerator, TimingOnlyRunMatchesFunctionalTiming)
{
    const Dataset ds = tinyDataset(200, 900, 32, 4);
    const ModelConfig model = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams params = makeParams(model, 5);
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 6);

    HyGCNAccelerator accel{HyGCNConfig{}};
    const AcceleratorResult timing =
        accel.run(ds, model, params, nullptr, 7);
    HyGCNAccelerator accel2{HyGCNConfig{}};
    const AcceleratorResult functional =
        accel2.run(ds, model, params, &x0, 7);
    EXPECT_EQ(timing.report.cycles, functional.report.cycles);
    EXPECT_TRUE(timing.layerOutputs.empty());
    EXPECT_FALSE(functional.layerOutputs.empty());
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    const Dataset ds = tinyDataset(100, 400, 16, 7);
    const ModelConfig model = makeModel(ModelId::GSC, ds.featureLen);
    const ModelParams params = makeParams(model, 8);
    HyGCNAccelerator a{HyGCNConfig{}}, b{HyGCNConfig{}};
    const auto ra = a.run(ds, model, params, nullptr, 7);
    const auto rb = b.run(ds, model, params, nullptr, 7);
    EXPECT_EQ(ra.report.cycles, rb.report.cycles);
    EXPECT_EQ(ra.report.dramBytes(), rb.report.dramBytes());
    EXPECT_DOUBLE_EQ(ra.report.energy.total(),
                     rb.report.energy.total());
}

TEST(Accelerator, PipelineNeverSlower)
{
    const Dataset ds = tinyDataset(400, 3000, 64, 9);
    const ModelConfig model = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams params = makeParams(model, 10);
    HyGCNConfig pp;
    HyGCNConfig npp;
    npp.interEnginePipeline = false;
    HyGCNAccelerator ap(pp), an(npp);
    const auto rp = ap.run(ds, model, params, nullptr, 7);
    const auto rn = an.run(ds, model, params, nullptr, 7);
    EXPECT_LE(rp.report.cycles, rn.report.cycles);
    // N-PP spills/refills intermediates, so it moves more data.
    EXPECT_LT(rp.report.dramBytes(), rn.report.dramBytes());
}

TEST(Accelerator, NonPipelinedFunctionalStillExact)
{
    const Dataset ds = tinyDataset(120, 500, 16, 11);
    const ModelConfig model = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams params = makeParams(model, 12);
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 13);
    HyGCNConfig npp;
    npp.interEnginePipeline = false;
    HyGCNAccelerator accel(npp);
    const auto r = accel.run(ds, model, params, &x0, 7);
    const ReferenceExecutor ref(ds.graph);
    const auto golden = ref.run(model, params, x0, 7);
    EXPECT_TRUE(Matrix::bytesEqual(r.layerOutputs.back(),
                                   golden.layerOutputs.back()));
}

TEST(Accelerator, CoordinationImprovesTime)
{
    const Dataset ds = tinyDataset(500, 4000, 128, 14);
    const ModelConfig model = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams params = makeParams(model, 15);
    HyGCNConfig on;
    HyGCNConfig off;
    off.memoryCoordination = false;
    HyGCNAccelerator a_on(on), a_off(off);
    EXPECT_LT(a_on.run(ds, model, params, nullptr, 7).report.cycles,
              a_off.run(ds, model, params, nullptr, 7).report.cycles);
}

TEST(Accelerator, SparsityEliminationConfigReducesDram)
{
    const Dataset ds = tinyDataset(800, 1200, 64, 16); // sparse
    const ModelConfig model = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams params = makeParams(model, 17);
    HyGCNConfig on;
    on.aggBufBytes = 64 * 1024; // several intervals per layer
    HyGCNConfig off = on;
    off.sparsityElimination = false;
    HyGCNAccelerator a_on(on), a_off(off);
    const auto r_on = a_on.run(ds, model, params, nullptr, 7);
    const auto r_off = a_off.run(ds, model, params, nullptr, 7);
    EXPECT_LT(r_on.report.dramBytes(), r_off.report.dramBytes());
    EXPECT_GT(r_on.report.stats.gauge("plan.sparsity_reduction"), 0.0);
    EXPECT_EQ(r_off.report.stats.gauge("plan.sparsity_reduction"), 0.0);
}

TEST(Accelerator, ReportCarriesEnergyComponentsAndStats)
{
    const Dataset ds = tinyDataset(100, 500, 32, 18);
    const ModelConfig model = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams params = makeParams(model, 19);
    HyGCNAccelerator accel{HyGCNConfig{}};
    const auto r = accel.run(ds, model, params, nullptr, 7);
    EXPECT_GT(r.report.energy.component("agg_engine"), 0.0);
    EXPECT_GT(r.report.energy.component("comb_engine"), 0.0);
    EXPECT_GT(r.report.energy.component("coordinator"), 0.0);
    EXPECT_GT(r.report.energy.component("dram"), 0.0);
    EXPECT_GT(r.report.stats.gauge("dram.bandwidth_utilization"), 0.0);
    EXPECT_GT(r.report.stats.gauge("comb.avg_vertex_latency"), 0.0);
    EXPECT_EQ(r.report.platform, "HyGCN");
}

TEST(Accelerator, SampleSeedChangesSampledModelTiming)
{
    const Dataset ds = tinyDataset(300, 6000, 32, 20);
    const ModelConfig model = makeModel(ModelId::GSC, ds.featureLen);
    const ModelParams params = makeParams(model, 21);
    HyGCNAccelerator a{HyGCNConfig{}}, b{HyGCNConfig{}};
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 1);
    const auto ra = a.run(ds, model, params, &x0, 7);
    const auto rb = b.run(ds, model, params, &x0, 8);
    EXPECT_NE(Matrix::maxAbsDiff(ra.layerOutputs.back(),
                                 rb.layerOutputs.back()),
              0.0f);
}
