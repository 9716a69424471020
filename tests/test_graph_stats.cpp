#include <gtest/gtest.h>

#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "graph/graph_stats.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

TEST(GraphStats, RegularGraphHasZeroSpread)
{
    // A ring: every vertex has in-degree exactly 2.
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v < 32; ++v)
        edges.push_back({v, (v + 1) % 32});
    const Graph ring = Graph::fromEdges(32, edges, true);
    const DegreeStats s = computeDegreeStats(ring);
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
    EXPECT_DOUBLE_EQ(s.cv, 0.0);
    EXPECT_NEAR(s.gini, 0.0, 1e-9);
}

TEST(GraphStats, StarGraphIsMaximallySkewed)
{
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 1; v < 100; ++v)
        edges.push_back({v, 0});
    const Graph star = Graph::fromEdges(100, edges, false);
    const DegreeStats s = computeDegreeStats(star);
    EXPECT_GT(s.gini, 0.9);
    EXPECT_NEAR(s.top1PercentShare, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.maxDegree, 99.0);
}

TEST(GraphStats, RmatMoreSkewedThanUniform)
{
    Rng ru(1), rr(1);
    const Graph uniform = Graph::fromEdges(
        2048, generateUniform(2048, 16384, ru), true);
    const Graph rmat =
        Graph::fromEdges(2048, generateRmat(2048, 16384, rr), true);
    const DegreeStats su = computeDegreeStats(uniform);
    const DegreeStats sr = computeDegreeStats(rmat);
    EXPECT_GT(sr.gini, su.gini * 2.0);
    EXPECT_GT(sr.cv, su.cv * 2.0);
    EXPECT_GT(sr.top1PercentShare, su.top1PercentShare);
}

TEST(GraphStats, RedditStandInIsHeavyTailed)
{
    const Dataset rd = makeDataset(DatasetId::RD, 1, 0.02);
    const DegreeStats s = computeDegreeStats(rd.graph);
    EXPECT_GT(s.gini, 0.4);
    EXPECT_GT(s.top1PercentShare, 0.05);
}

TEST(GraphStats, HistogramCoversAllVertices)
{
    Rng rng(2);
    const Graph g =
        Graph::fromEdges(500, generateRmat(500, 3000, rng), true);
    const auto hist = degreeHistogramLog2(g);
    std::uint64_t total = 0;
    for (std::uint64_t c : hist)
        total += c;
    EXPECT_EQ(total, 500u);
}

TEST(GraphStats, StorageCountsAdjacencyAndFeatures)
{
    Rng rng(3);
    const Graph g =
        Graph::fromEdges(100, generateUniform(100, 300, rng), true);
    const std::uint64_t bytes = datasetStorageBytes(g, 64);
    EXPECT_GE(bytes, 100ull * 64 * 4);
    EXPECT_GE(bytes, g.numEdges() * sizeof(VertexId));
}
