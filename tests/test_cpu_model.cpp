#include <gtest/gtest.h>

#include "baseline/cpu_model.hpp"
#include "sim/energy.hpp"

using namespace hygcn;

namespace {

const Dataset &
cora()
{
    static const Dataset ds = makeDataset(DatasetId::CR, 1);
    return ds;
}

} // namespace

TEST(CpuModel, ProducesPositivePhases)
{
    CpuModel cpu;
    const ModelConfig m = makeModel(ModelId::GCN, cora().featureLen);
    const SimReport r = cpu.run(cora(), m, 7, {});
    EXPECT_GT(r.stats.gauge("phase.agg_seconds"), 0.0);
    EXPECT_GT(r.stats.gauge("phase.comb_seconds"), 0.0);
    EXPECT_GT(r.seconds(), 0.0);
    EXPECT_GT(r.joules(), 0.0);
    EXPECT_EQ(r.platform, "PyG-CPU");
}

TEST(CpuModel, PartitionOptimizedFaster)
{
    CpuModel cpu;
    const ModelConfig m = makeModel(ModelId::GCN, cora().featureLen);
    CpuRunOptions opt;
    opt.partitionOptimized = true;
    const SimReport naive = cpu.run(cora(), m, 7, {});
    const SimReport optimized = cpu.run(cora(), m, 7, opt);
    EXPECT_LT(optimized.seconds(), naive.seconds());
    EXPECT_LE(optimized.dramBytes(), naive.dramBytes());
    EXPECT_EQ(optimized.platform, "PyG-CPU-OP");
}

TEST(CpuModel, AggregationIrregularityCharacterization)
{
    // Table 2 shape: aggregation needs orders of magnitude more DRAM
    // bytes per op and higher MPKI than combination.
    CpuModel cpu;
    const ModelConfig m = makeModel(ModelId::GCN, cora().featureLen);
    const SimReport r = cpu.run(cora(), m, 7, {});
    EXPECT_GT(r.stats.gauge("cpu.agg_bytes_per_op"),
              20.0 * r.stats.gauge("cpu.comb_bytes_per_op"));
    EXPECT_GT(r.stats.gauge("cpu.agg_l2_mpki"),
              r.stats.gauge("cpu.comb_l2_mpki"));
    EXPECT_DOUBLE_EQ(r.stats.gauge("cpu.sync_ratio"), 0.36);
}

TEST(CpuModel, GinSpendsMoreTimeAggregating)
{
    // GIN aggregates on the full-length features (aggregation first).
    CpuModel cpu;
    const ModelConfig gcn = makeModel(ModelId::GCN, cora().featureLen);
    const ModelConfig gin = makeModel(ModelId::GIN, cora().featureLen);
    const double f_gcn = cpu.run(cora(), gcn, 7, {})
                             .stats.gauge("phase.agg_fraction");
    const double f_gin = cpu.run(cora(), gin, 7, {})
                             .stats.gauge("phase.agg_fraction");
    EXPECT_GT(f_gin, f_gcn);
}

TEST(CpuModel, SamplingCapKeepsLargeGraphsTractable)
{
    CpuConfig config;
    config.maxSimulatedAccesses = 10'000; // force sampling
    CpuModel cpu(config);
    const ModelConfig m = makeModel(ModelId::GCN, cora().featureLen);
    const SimReport r = cpu.run(cora(), m, 7, {});
    // Statistics are scaled back to the full edge count.
    EXPECT_GT(r.stats.get("cpu.agg_instructions"), 1'000'000u);
}

TEST(CpuModel, Deterministic)
{
    CpuModel cpu;
    const ModelConfig m = makeModel(ModelId::GSC, cora().featureLen);
    const SimReport a = cpu.run(cora(), m, 7, {});
    const SimReport b = cpu.run(cora(), m, 7, {});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramBytes(), b.dramBytes());
}

TEST(CpuModel, DiffPoolAddsPoolingFlops)
{
    CpuModel cpu;
    const Dataset ib = makeDataset(DatasetId::IB, 1);
    const ModelConfig dfp = makeModel(ModelId::DFP, ib.featureLen);
    const SimReport r = cpu.run(ib, dfp, 7, {});
    EXPECT_GT(r.stats.get("cpu.comb_instructions"), 0u);
    EXPECT_GT(r.seconds(), 0.0);
}

TEST(CpuModel, ReplayTouchesCeilRowBytesLinesFromTheFirst)
{
    // Rows of 10 floats (40 B) sit back to back from byte 0, so the
    // rows of sources 1 and 3 start at bytes 40 and 120 and straddle
    // into lines 1 and 2. The replay touches ceil(40 / 64) = 1 line
    // per row, from the line holding the row's first byte: 4 touches
    // of lines {0, 1}, where the rows span 6 touches of lines
    // {0, 1, 2}. Touching every spanned line would move the PyG-CPU
    // numbers of every dataset whose rows straddle (README modelling
    // substitution 3), so this pins the current count.
    Dataset ds;
    ds.id = DatasetId::CR;
    ds.graph = Graph::fromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, false);
    ds.featureLen = 10;
    LayerConfig layer;
    layer.inFeatures = 10;
    layer.mlpDims = {16};
    layer.selfLoops = false;
    ModelConfig m;
    m.id = ModelId::GIN;
    m.layers = {layer};
    m.cpuCombineFirst = false;

    CpuModel cpu;
    const SimReport r = cpu.run(ds, m, 1, {});
    const EnergyTable e{};
    // Cache energy charges 64 B per line touch.
    EXPECT_DOUBLE_EQ(r.energy.component("cpu.cache"),
                     4 * 64 * e.cpuCachePerByte);
    // Lines 0 and 1 miss to DRAM; the E x F message tensor streams
    // through DRAM twice on top.
    const double agg_dram =
        2 * 64 * (1.0 + cpu.config().prefetchWaste) + 2.0 * 4 * 10 * 4;
    EXPECT_EQ(r.stats.get("cpu.agg_dram_bytes"),
              static_cast<std::uint64_t>(agg_dram));
}
