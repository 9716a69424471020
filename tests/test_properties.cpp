/**
 * @file
 * Property-based sweeps: the accelerator's functional output must be
 * bit-exact against the reference executor for EVERY combination of
 * buffer geometry, pipeline flavor, coordination policy, sparsity
 * elimination, and model — i.e., no architectural optimization may
 * change the computation. Plus conservation and monotonicity
 * properties over random graphs.
 */

#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "graph/generator.hpp"
#include "graph/window.hpp"
#include "model/reference.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

Dataset
randomDataset(VertexId v, EdgeId e, int feats, std::uint64_t seed)
{
    Dataset ds;
    ds.id = DatasetId::CR;
    ds.name = "prop";
    ds.abbrev = "PR";
    ds.featureLen = feats;
    Rng rng(seed);
    ds.graph = Graph::fromEdges(v, generateUniform(v, e, rng), true);
    return ds;
}

} // namespace

// ---------------------------------------------------------------
// Functional invariance under architectural configuration.
// ---------------------------------------------------------------

struct ConfigCase
{
    const char *name;
    HyGCNConfig config;
};

class ConfigInvariance : public ::testing::TestWithParam<int>
{
};

TEST_P(ConfigInvariance, OutputsNeverDependOnMicroarchitecture)
{
    const int idx = GetParam();
    HyGCNConfig config;
    switch (idx) {
      case 0: break;
      case 1: config.sparsityElimination = false; break;
      case 2: config.interEnginePipeline = false; break;
      case 3: config.memoryCoordination = false; break;
      case 4: config.pipelineMode = PipelineMode::EnergyAware; break;
      case 5: config.aggBufBytes = 64 * 1024; break;       // tiny
      case 6: config.inputBufBytes = 4 * 1024; break;      // tiny
      case 7: config.edgeBufBytes = 4 * 1024; break;       // tiny
      case 8: config.weightBufBytes = 1024; break;         // stream
      case 9:
        config.systolicModules = 2;
        config.moduleRows = 16;
        break;
      case 10: config.aggMode = AggMode::VertexConcentrated; break;
      case 11:
        config.aggBufBytes = 32 * 1024;
        config.inputBufBytes = 2 * 1024;
        config.interEnginePipeline = false;
        config.sparsityElimination = false;
        break;
      default: break;
    }

    const Dataset ds = randomDataset(90, 360, 20, 100 + idx);
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 2);
    const ReferenceExecutor ref(ds.graph);
    for (ModelId id : {ModelId::GCN, ModelId::GSC, ModelId::GIN}) {
        const ModelConfig m = makeModel(id, ds.featureLen);
        const ModelParams p = makeParams(m, 5);
        HyGCNAccelerator accel(config);
        const AcceleratorResult r = accel.run(ds, m, p, &x0, 7);
        const ReferenceResult golden = ref.run(m, p, x0, 7);
        ASSERT_EQ(r.layerOutputs.size(), golden.layerOutputs.size());
        for (std::size_t li = 0; li < r.layerOutputs.size(); ++li) {
            EXPECT_EQ(Matrix::maxAbsDiff(r.layerOutputs[li],
                                         golden.layerOutputs[li]),
                      0.0f)
                << "config " << idx << " model " << modelAbbrev(id)
                << " layer " << li;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, ConfigInvariance,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------
// Window-plan conservation across random graphs and geometries.
// ---------------------------------------------------------------

class PlanConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(PlanConservation, EdgesConservedAndLoadsBounded)
{
    Rng rng(GetParam() * 7919 + 1);
    const VertexId v = 50 + rng.nextBounded(500);
    const EdgeId e = 1 + rng.nextBounded(4 * v);
    const EdgeSet es = EdgeSet::fromGraph(
        Graph::fromEdges(v, generateUniform(v, e, rng), true), true);
    const VertexId interval = 1 + rng.nextBounded(v);
    const VertexId height = 1 + rng.nextBounded(v);
    const EdgeId cap = 1 + rng.nextBounded(256);

    for (WindowMode mode : {WindowMode::Grid, WindowMode::SlideShrink}) {
        const WindowPlan plan =
            buildWindowPlan(es.view(), interval, height, cap, mode);
        EXPECT_EQ(plan.totalEdges, es.numEdges());
        EXPECT_LE(plan.loadedRows, plan.gridRows);
        for (const IntervalWork &work : plan.intervals) {
            for (const Window &w : work.windows) {
                EXPECT_LT(w.srcBegin, w.srcEnd);
                EXPECT_LE(w.srcEnd, v);
                if (mode == WindowMode::SlideShrink) {
                    EXPECT_LE(w.loadedRows(), height);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Random, PlanConservation,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------
// Timing monotonicity properties.
// ---------------------------------------------------------------

TEST(TimingProperties, MoreComputeResourcesNeverSlower)
{
    const Dataset ds = randomDataset(300, 2400, 96, 42);
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNConfig small;
    small.simdCores = 8;
    small.systolicModules = 2;
    HyGCNConfig big;
    big.simdCores = 64;
    big.systolicModules = 16;
    HyGCNAccelerator as(small), ab(big);
    EXPECT_GE(as.run(ds, m, p, nullptr, 7).report.cycles,
              ab.run(ds, m, p, nullptr, 7).report.cycles);
}

TEST(TimingProperties, BiggerAggregationBufferNeverMoreDram)
{
    const Dataset ds = randomDataset(600, 3000, 128, 43);
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    std::uint64_t prev_bytes = ~0ull;
    for (std::uint64_t mb : {1ull, 4ull, 16ull}) {
        HyGCNConfig config;
        config.aggBufBytes = mb << 20;
        HyGCNAccelerator accel(config);
        const auto r = accel.run(ds, m, p, nullptr, 7);
        EXPECT_LE(r.report.dramBytes(), prev_bytes) << mb << " MB";
        prev_bytes = r.report.dramBytes();
    }
}

TEST(TimingProperties, MoreEdgesMoreCycles)
{
    const ModelParams p =
        makeParams(makeModel(ModelId::GCN, 64), 1);
    const ModelConfig m = makeModel(ModelId::GCN, 64);
    Cycle prev = 0;
    for (EdgeId e : {500u, 2000u, 8000u}) {
        const Dataset ds = randomDataset(400, e, 64, 44);
        HyGCNAccelerator accel{HyGCNConfig{}};
        const auto r = accel.run(ds, m, p, nullptr, 7);
        EXPECT_GT(r.report.cycles, prev);
        prev = r.report.cycles;
    }
}

TEST(TimingProperties, SamplingReducesWorkMonotonically)
{
    const Dataset ds = randomDataset(400, 6000, 64, 45);
    Cycle prev = ~0ull;
    for (std::uint32_t sample : {0u, 16u, 4u, 1u}) {
        ModelConfig m = makeModel(ModelId::GSC, ds.featureLen);
        for (auto &l : m.layers)
            l.sampleNeighbors = sample; // 0 = keep all
        const ModelParams p = makeParams(m, 1);
        HyGCNAccelerator accel{HyGCNConfig{}};
        const auto r = accel.run(ds, m, p, nullptr, 7);
        if (sample == 0) {
            prev = r.report.cycles;
            continue;
        }
        EXPECT_LE(r.report.cycles, prev) << "sample " << sample;
        prev = r.report.cycles;
    }
}

// ---------------------------------------------------------------
// Energy accounting properties.
// ---------------------------------------------------------------

TEST(EnergyProperties, ComponentsSumToTotal)
{
    const Dataset ds = randomDataset(200, 1000, 48, 46);
    const ModelConfig m = makeModel(ModelId::GIN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNAccelerator accel{HyGCNConfig{}};
    const auto r = accel.run(ds, m, p, nullptr, 7);
    double sum = 0.0;
    for (const auto &[name, pj] : r.report.energy.components())
        sum += pj;
    EXPECT_DOUBLE_EQ(sum, r.report.energy.total());
    EXPECT_GT(r.report.energy.components().size(), 3u);
}

TEST(EnergyProperties, DramEnergyProportionalToBytes)
{
    const Dataset ds = randomDataset(200, 1000, 48, 47);
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNAccelerator accel{HyGCNConfig{}};
    const auto r = accel.run(ds, m, p, nullptr, 7);
    const EnergyTable e;
    EXPECT_NEAR(r.report.energy.component("dram"),
                static_cast<double>(r.report.dramBytes()) *
                    e.hbmPerByte(),
                1.0);
}

// ---------------------------------------------------------------
// Depth generalization: k-layer models stay bit-exact.
// ---------------------------------------------------------------

class DepthParam : public ::testing::TestWithParam<int>
{
};

TEST_P(DepthParam, DeepModelsBitExact)
{
    const int depth = GetParam();
    const Dataset ds = randomDataset(80, 320, 12, 500 + depth);
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 2);
    const ReferenceExecutor ref(ds.graph);
    for (ModelId id : {ModelId::GCN, ModelId::GIN}) {
        const ModelConfig m = makeModel(id, ds.featureLen, depth);
        ASSERT_EQ(m.layers.size(), static_cast<std::size_t>(depth));
        const ModelParams p = makeParams(m, 9);
        HyGCNAccelerator accel{HyGCNConfig{}};
        const AcceleratorResult r = accel.run(ds, m, p, &x0, 7);
        const ReferenceResult golden = ref.run(m, p, x0, 7);
        EXPECT_EQ(Matrix::maxAbsDiff(r.layerOutputs.back(),
                                     golden.layerOutputs.back()),
                  0.0f)
            << modelAbbrev(id) << " depth " << depth;
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthParam, ::testing::Values(1, 3, 4));
