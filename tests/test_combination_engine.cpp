#include <gtest/gtest.h>

#include "core/combination_engine.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

struct Fixture
{
    explicit Fixture(const HyGCNConfig &config)
        : hbm(config.effectiveHbm()),
          coord(hbm, config.effectiveCoordinator()),
          engine(config, coord, ledger, stats)
    {}

    EnergyLedger ledger;
    StatGroup stats;
    HbmModel hbm;
    MemoryCoordinator coord;
    CombinationEngine engine;
};

struct Mlp
{
    std::vector<Matrix> weights;
    std::vector<std::vector<float>> biases;
};

Mlp
makeMlp(std::vector<std::pair<int, int>> stages, std::uint64_t seed)
{
    Mlp mlp;
    Rng rng(seed);
    for (auto [in, out] : stages) {
        Matrix w(in, out);
        w.fillRandom(rng);
        mlp.weights.push_back(std::move(w));
        std::vector<float> b(out);
        for (float &v : b)
            v = rng.nextFloat(-0.1f, 0.1f);
        mlp.biases.push_back(std::move(b));
    }
    return mlp;
}

} // namespace

TEST(CombinationEngine, FunctionalMatchesCombineRows)
{
    HyGCNConfig config;
    Fixture f(config);
    const Mlp mlp = makeMlp({{32, 16}, {16, 8}}, 1);
    Rng rng(2);
    Matrix agg(50, 32);
    agg.fillRandom(rng);
    Matrix out(50, 8);
    const AddressMap amap;
    // The engine moves agg in, so the golden is computed first.
    const Matrix golden = combineRows(agg, mlp.weights, mlp.biases,
                                      Activation::ReLU);
    f.engine.beginLayer(0, amap, 0);
    f.engine.processInterval(50, mlp.weights, mlp.biases,
                             Activation::ReLU, &agg, &out, 0, amap,
                             amap.outputBase, 0, 100);
    EXPECT_TRUE(Matrix::bytesEqual(out, golden));
}

TEST(CombinationEngine, MacCountExact)
{
    HyGCNConfig config;
    Fixture f(config);
    const Mlp mlp = makeMlp({{64, 128}}, 3);
    const AddressMap amap;
    f.engine.beginLayer(0, amap, 0);
    f.engine.processInterval(100, mlp.weights, mlp.biases,
                             Activation::ReLU, nullptr, nullptr, 0,
                             amap, amap.outputBase, 0, 10);
    EXPECT_EQ(f.stats.get("comb.macs"), 100ull * 64 * 128);
}

TEST(CombinationEngine, CooperativeSavesWeightEnergy)
{
    HyGCNConfig lat;
    lat.pipelineMode = PipelineMode::LatencyAware;
    HyGCNConfig en;
    en.pipelineMode = PipelineMode::EnergyAware;
    const Mlp mlp = makeMlp({{512, 128}}, 4);
    const AddressMap amap;

    Fixture fl(lat), fe(en);
    for (Fixture *f : {&fl, &fe}) {
        f->engine.beginLayer(512 * 128 * 4, amap, 0);
        f->engine.processInterval(1024, mlp.weights, mlp.biases,
                                  Activation::ReLU, nullptr, nullptr,
                                  0, amap, amap.outputBase, 0, 1000);
    }
    EXPECT_LT(fe.ledger.component("comb_engine"),
              fl.ledger.component("comb_engine"));
    // Same exact MAC work in both modes.
    EXPECT_EQ(fl.stats.get("comb.macs"), fe.stats.get("comb.macs"));
}

TEST(CombinationEngine, CooperativeHigherVertexLatency)
{
    HyGCNConfig lat;
    lat.pipelineMode = PipelineMode::LatencyAware;
    HyGCNConfig en;
    en.pipelineMode = PipelineMode::EnergyAware;
    const Mlp mlp = makeMlp({{512, 128}}, 5);
    const AddressMap amap;
    Fixture fl(lat), fe(en);
    CombIntervalTiming tl, te;
    fl.engine.beginLayer(0, amap, 0);
    fe.engine.beginLayer(0, amap, 0);
    tl = fl.engine.processInterval(2048, mlp.weights, mlp.biases,
                                   Activation::ReLU, nullptr, nullptr,
                                   0, amap, amap.outputBase, 0, 50000);
    te = fe.engine.processInterval(2048, mlp.weights, mlp.biases,
                                   Activation::ReLU, nullptr, nullptr,
                                   0, amap, amap.outputBase, 0, 50000);
    EXPECT_LT(tl.avgVertexLatency, te.avgVertexLatency);
}

TEST(CombinationEngine, NonResidentWeightsStreamPerInterval)
{
    HyGCNConfig config;
    config.weightBufBytes = 1024; // force streaming
    Fixture f(config);
    const Mlp mlp = makeMlp({{256, 128}}, 6);
    const AddressMap amap;
    const std::uint64_t param_bytes = 256 * 128 * 4;
    f.engine.beginLayer(param_bytes, amap, 0);
    const auto before = f.hbm.stats().get("dram.read_bytes");
    EXPECT_EQ(before, 0u); // nothing preloaded
    f.engine.processInterval(10, mlp.weights, mlp.biases,
                             Activation::ReLU, nullptr, nullptr, 0,
                             amap, amap.outputBase, 0, 10);
    f.engine.processInterval(10, mlp.weights, mlp.biases,
                             Activation::ReLU, nullptr, nullptr, 0,
                             amap, amap.outputBase, 0, 10);
    // Two intervals = two weight streams.
    EXPECT_GE(f.hbm.stats().get("dram.read_bytes"), 2 * param_bytes);
}

TEST(CombinationEngine, ResidentWeightsLoadOnce)
{
    HyGCNConfig config;
    Fixture f(config);
    const std::uint64_t param_bytes = 256 * 128 * 4;
    const AddressMap amap;
    const Cycle done = f.engine.beginLayer(param_bytes, amap, 0);
    EXPECT_GT(done, 0u);
    const auto loaded = f.hbm.stats().get("dram.read_bytes");
    EXPECT_GE(loaded, param_bytes);
    const Mlp mlp = makeMlp({{256, 128}}, 7);
    f.engine.processInterval(10, mlp.weights, mlp.biases,
                             Activation::ReLU, nullptr, nullptr, done,
                             amap, amap.outputBase, 0, 10);
    // No further weight reads from DRAM; only output writes added.
    EXPECT_EQ(f.hbm.stats().get("dram.read_bytes"), loaded);
}

TEST(CombinationEngine, OutputsWrittenOffChip)
{
    HyGCNConfig config;
    Fixture f(config);
    const Mlp mlp = makeMlp({{64, 128}}, 8);
    const AddressMap amap;
    f.engine.beginLayer(0, amap, 0);
    f.engine.processInterval(100, mlp.weights, mlp.biases,
                             Activation::ReLU, nullptr, nullptr, 0,
                             amap, amap.outputBase, 0, 10);
    EXPECT_EQ(f.hbm.stats().get("dram.write_bytes"),
              100ull * 128 * 4);
}

TEST(CombinationEngine, DenseWorkAdvancesTime)
{
    HyGCNConfig config;
    Fixture f(config);
    const Cycle end = f.engine.processDenseWork(500, 128, 128, 100);
    EXPECT_GT(end, 100u);
    EXPECT_EQ(f.stats.get("comb.macs"), 500ull * 128 * 128);
    EXPECT_EQ(f.engine.processDenseWork(0, 128, 128, 42), 42u);
}

TEST(CombinationEngine, EmptyIntervalNoop)
{
    HyGCNConfig config;
    Fixture f(config);
    const Mlp mlp = makeMlp({{8, 8}}, 9);
    const AddressMap amap;
    const CombIntervalTiming t = f.engine.processInterval(
        0, mlp.weights, mlp.biases, Activation::ReLU, nullptr, nullptr,
        77, amap, amap.outputBase, 0, 10);
    EXPECT_EQ(t.finish, 77u);
    EXPECT_EQ(t.computeCycles, 0u);
}
