/**
 * @file
 * Cross-module integration tests: full benchmark datasets through
 * all three platform models, checking the paper's headline
 * relationships (HyGCN faster and more energy-efficient than both
 * baselines, less DRAM traffic, higher bandwidth utilization).
 */

#include <gtest/gtest.h>

#include "baseline/cpu_model.hpp"
#include "baseline/gpu_model.hpp"
#include "core/accelerator.hpp"
#include "model/fixed_point.hpp"
#include "model/reference.hpp"

using namespace hygcn;

namespace {

struct Platforms
{
    SimReport cpu, cpu_opt, gpu, hygcn;
};

Platforms
runAll(DatasetId ds_id, ModelId m_id)
{
    const Dataset ds = makeDatasetScaledDefault(ds_id, 1);
    const ModelConfig m = makeModel(m_id, ds.featureLen);
    const ModelParams p = makeParams(m, 3);
    Platforms out;
    CpuModel cpu;
    GpuModel gpu;
    out.cpu = cpu.run(ds, m, 7, {});
    CpuRunOptions opt;
    opt.partitionOptimized = true;
    out.cpu_opt = cpu.run(ds, m, 7, opt);
    out.gpu = gpu.run(ds, m, 7, {});
    HyGCNAccelerator accel{HyGCNConfig{}};
    out.hygcn = accel.run(ds, m, p, nullptr, 7).report;
    return out;
}

} // namespace

class HeadlineParam
    : public ::testing::TestWithParam<std::pair<DatasetId, ModelId>>
{
};

TEST_P(HeadlineParam, HyGCNWinsTimeEnergyAndTraffic)
{
    const auto [ds, m] = GetParam();
    const Platforms p = runAll(ds, m);

    // Speedup ordering: HyGCN < GPU < CPU in wall time.
    EXPECT_LT(p.hygcn.seconds(), p.gpu.seconds());
    EXPECT_LT(p.gpu.seconds(), p.cpu.seconds());
    // CPU optimization helps but does not beat HyGCN.
    EXPECT_LE(p.cpu_opt.seconds(), p.cpu.seconds());
    EXPECT_LT(p.hygcn.seconds(), p.cpu_opt.seconds());

    // Energy ordering (Fig 11): HyGCN << GPU << CPU.
    EXPECT_LT(p.hygcn.joules(), p.gpu.joules());
    EXPECT_LT(p.gpu.joules(), p.cpu.joules());

    // DRAM volume (Fig 14): HyGCN below the naive CPU (which pays
    // message materialization) and the GPU. The partition-optimized
    // CPU can undercut HyGCN on small graphs whose working set fits
    // its 60 MB of cache — expected, and visible in our Fig 14 too.
    EXPECT_LT(p.hygcn.dramBytes(), p.cpu.dramBytes());
    EXPECT_LT(p.hygcn.dramBytes(), p.gpu.dramBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HeadlineParam,
    ::testing::Values(
        std::pair{DatasetId::IB, ModelId::GCN},
        std::pair{DatasetId::CR, ModelId::GCN},
        std::pair{DatasetId::PB, ModelId::GSC},
        std::pair{DatasetId::IB, ModelId::GIN},
        std::pair{DatasetId::IB, ModelId::DFP}));

TEST(Integration, SpeedupOrdersOfMagnitudeVsCpu)
{
    const Platforms p = runAll(DatasetId::CR, ModelId::GCN);
    EXPECT_GT(p.cpu_opt.seconds() / p.hygcn.seconds(), 10.0);
}

TEST(Integration, EnergyReductionVsCpuLarge)
{
    const Platforms p = runAll(DatasetId::CR, ModelId::GCN);
    EXPECT_GT(p.cpu.joules() / p.hygcn.joules(), 100.0);
}

TEST(Integration, BandwidthUtilizationBeatsCpu)
{
    const Platforms p = runAll(DatasetId::PB, ModelId::GCN);
    const CpuConfig cc;
    const HyGCNConfig hc;
    EXPECT_GT(p.hygcn.stats.gauge("dram.bandwidth_utilization"),
              p.cpu_opt.bandwidthUtilization(cc.ddrBytesPerSec));
}

TEST(Integration, FullCoraModelEndToEndFunctional)
{
    const Dataset ds = makeDataset(DatasetId::CR, 1);
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 3);
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 5);
    HyGCNAccelerator accel{HyGCNConfig{}};
    const AcceleratorResult r = accel.run(ds, m, p, &x0, 7);
    const ReferenceExecutor ref(ds.graph);
    const ReferenceResult golden = ref.run(m, p, x0, 7);
    EXPECT_TRUE(Matrix::bytesEqual(r.layerOutputs.back(),
                                   golden.layerOutputs.back()));
}

TEST(Integration, MultiGraphGinReadoutEndToEnd)
{
    const Dataset ds = makeDataset(DatasetId::IB, 1);
    const ModelConfig m = makeModel(ModelId::GIN, ds.featureLen);
    const ModelParams p = makeParams(m, 3);
    const Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 5);
    HyGCNAccelerator accel{HyGCNConfig{}};
    const AcceleratorResult r = accel.run(ds, m, p, &x0, 7, true);
    const ReferenceExecutor ref(ds.graph, ds.graphBoundaries);
    const ReferenceResult golden = ref.run(m, p, x0, 7, true);
    EXPECT_EQ(r.readout.rows(), 128u);
    EXPECT_TRUE(Matrix::bytesEqual(r.readout, golden.readout));
}

TEST(Integration, FixedPointInferenceCloseToFloat)
{
    // The paper claims 32-bit fixed point preserves inference
    // accuracy; quantized inputs+weights must track float closely.
    const Dataset ds = makeDataset(DatasetId::IB, 1);
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    ModelParams p = makeParams(m, 3);
    Matrix x0 = makeFeatures(ds.numVertices(), ds.featureLen, 5);
    const ReferenceExecutor ref(ds.graph);
    const ReferenceResult float_run = ref.run(m, p, x0, 7);
    quantizeInPlace(x0);
    for (auto &stage : p.weights)
        for (Matrix &w : stage)
            quantizeInPlace(w);
    const ReferenceResult fixed_run = ref.run(m, p, x0, 7);
    EXPECT_LT(Matrix::maxAbsDiff(float_run.layerOutputs.back(),
                                 fixed_run.layerOutputs.back()),
              0.05f);
}
