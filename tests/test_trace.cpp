#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/accelerator.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

using namespace hygcn;

TEST(Trace, RecordsAndSums)
{
    Trace t;
    t.record("agg", "a", 0, 10);
    t.record("agg", "b", 20, 25);
    t.record("comb", "c", 5, 12);
    EXPECT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.busyCycles("agg"), 15u);
    EXPECT_EQ(t.busyCycles("comb"), 7u);
    EXPECT_EQ(t.busyCycles("none"), 0u);
}

TEST(Trace, IgnoresEmptySpans)
{
    Trace t;
    t.record("agg", "zero", 5, 5);
    t.record("agg", "inverted", 9, 3);
    EXPECT_TRUE(t.spans().empty());
}

TEST(Trace, OverlapComputation)
{
    Trace t;
    t.record("agg", "a", 0, 100);
    t.record("comb", "c1", 50, 150);  // 50 overlap
    t.record("comb", "c2", 200, 210); // none
    EXPECT_EQ(t.overlapCycles("agg", "comb"), 50u);
    EXPECT_EQ(t.overlapCycles("comb", "agg"), 50u);
}

TEST(Trace, ToStringListsSpans)
{
    Trace t;
    t.record("agg", "L0 I1", 1, 2);
    const std::string s = t.toString();
    EXPECT_NE(s.find("agg"), std::string::npos);
    EXPECT_NE(s.find("L0 I1"), std::string::npos);
}

namespace {

Dataset
traceDataset()
{
    Dataset ds;
    ds.featureLen = 256;
    Rng rng(5);
    ds.graph =
        Graph::fromEdges(900, generateUniform(900, 5000, rng), true);
    ds.name = "trace";
    ds.abbrev = "TR";
    return ds;
}

} // namespace

TEST(Trace, AcceleratorRecordsBothEngines)
{
    const Dataset ds = traceDataset();
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNConfig config;
    config.aggBufBytes = 512 * 1024; // force multiple intervals
    HyGCNAccelerator accel(config);
    Trace trace;
    accel.run(ds, m, p, nullptr, 7, false, &trace);
    EXPECT_GT(trace.busyCycles("agg"), 0u);
    EXPECT_GT(trace.busyCycles("comb"), 0u);
    // Both layers and several intervals recorded.
    EXPECT_GE(trace.spans().size(), 4u);
}

TEST(Trace, PipelineProducesEngineOverlap)
{
    // With the inter-engine pipeline enabled, aggregation of interval
    // i+1 runs while combination of interval i executes — the trace
    // must show actual overlap between the two tracks.
    const Dataset ds = traceDataset();
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNConfig config;
    config.aggBufBytes = 512 * 1024;
    HyGCNAccelerator accel(config);
    Trace trace;
    accel.run(ds, m, p, nullptr, 7, false, &trace);
    EXPECT_GT(trace.overlapCycles("agg", "comb"), 0u);
}

TEST(Trace, SpansLabelledByIntervalIndex)
{
    // 900 vertices at 256 destinations per interval (256 KB usable
    // Aggregation Buffer / 1 KB rows): the last interval is [768,900),
    // shorter than the rest, and still the fourth one.
    const Dataset ds = traceDataset();
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNConfig config;
    config.aggBufBytes = 512 * 1024;
    HyGCNAccelerator accel(config);
    Trace trace;
    accel.run(ds, m, p, nullptr, 7, false, &trace);
    for (const std::string track : {"agg", "comb"}) {
        std::vector<std::string> labels;
        for (const TraceSpan &s : trace.spans()) {
            if (s.track == track && s.label.starts_with("L0 "))
                labels.push_back(s.label);
        }
        EXPECT_EQ(labels, (std::vector<std::string>{"L0 I0", "L0 I1",
                                                    "L0 I2", "L0 I3"}))
            << track;
    }
}

TEST(Trace, PhaseByPhaseRecordsBothEnginesWithoutOverlap)
{
    // N-PP aggregates every interval before it combines any, so both
    // tracks are busy and never at the same time.
    const Dataset ds = traceDataset();
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNConfig config;
    config.aggBufBytes = 512 * 1024;
    config.interEnginePipeline = false;
    HyGCNAccelerator accel(config);
    Trace trace;
    accel.run(ds, m, p, nullptr, 7, false, &trace);
    EXPECT_GT(trace.busyCycles("agg"), 0u);
    EXPECT_GT(trace.busyCycles("comb"), 0u);
    EXPECT_EQ(trace.overlapCycles("agg", "comb"), 0u);
}

TEST(Trace, NullTraceIsSafe)
{
    const Dataset ds = traceDataset();
    const ModelConfig m = makeModel(ModelId::GCN, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNAccelerator accel{HyGCNConfig{}};
    EXPECT_NO_THROW(accel.run(ds, m, p, nullptr, 7, false, nullptr));
}

TEST(Trace, DiffPoolLabelsEachLayerAndThePoolingPass)
{
    // Pool GCN as L0, embed GCN as L1, and the A*C aggregation pass as
    // one "L2 AC" span.
    const Dataset ds = makeDataset(DatasetId::IB, 1, 0.2);
    const ModelConfig m = makeModel(ModelId::DFP, ds.featureLen);
    const ModelParams p = makeParams(m, 1);
    HyGCNAccelerator accel{HyGCNConfig{}};
    Trace trace;
    accel.run(ds, m, p, nullptr, 7, false, &trace);
    std::set<std::string> layers;
    std::size_t ac_spans = 0;
    for (const TraceSpan &s : trace.spans()) {
        layers.insert(s.label.substr(0, s.label.find(' ')));
        if (s.track == "agg" && s.label == "L2 AC")
            ++ac_spans;
    }
    EXPECT_EQ(layers, (std::set<std::string>{"L0", "L1", "L2"}));
    EXPECT_EQ(ac_spans, 1u);
}
