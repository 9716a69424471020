#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/dataset.hpp"

using namespace hygcn;

namespace {

/** Table 4 expectations. */
struct Expected
{
    DatasetId id;
    const char *abbrev;
    VertexId vertices;
    int feature_len;
    EdgeId directed_edges;
    bool multi_graph;
};

const Expected kTable4[] = {
    {DatasetId::IB, "IB", 2647, 136, 28624, true},
    {DatasetId::CR, "CR", 2708, 1433, 10556, false},
    {DatasetId::CS, "CS", 3327, 3703, 9104, false},
    {DatasetId::CL, "CL", 12087, 492, 1446010, true},
    {DatasetId::PB, "PB", 19717, 500, 88648, false},
};

// Print a case as its dataset: gtest's default byte dump includes the
// `abbrev` pointer, which changes from one process to the next, and
// the test names CTest discovers are built from this printout.
void PrintTo(const Expected &e, std::ostream *os)
{
    *os << e.abbrev;
}

/**
 * Reference replication: lift every copy's CSC edges, shifted by the
 * copy's vertex offset, into one edge list and rebuild it with
 * Graph::fromEdges; boundaries are each copy's, shifted likewise.
 */
Dataset
refReplicate(const Dataset &base, std::uint32_t copies)
{
    const VertexId n = base.graph.numVertices();
    const CscView view = base.graph.csc();
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (std::uint32_t c = 0; c < copies; ++c)
        for (VertexId v = 0; v < n; ++v)
            for (VertexId src : view.sources(v))
                edges.emplace_back(c * n + src, c * n + v);
    Dataset out;
    out.graph = Graph::fromEdges(n * copies, std::move(edges), false);
    const std::vector<VertexId> bounds =
        base.graphBoundaries.empty() ? std::vector<VertexId>{0, n}
                                     : base.graphBoundaries;
    out.graphBoundaries = {0};
    for (std::uint32_t c = 0; c < copies; ++c)
        for (std::size_t b = 1; b < bounds.size(); ++b)
            out.graphBoundaries.push_back(c * n + bounds[b]);
    return out;
}

/** @p got and @p want hold equal CSC, CSR and boundary arrays. */
void
expectSameArrays(const Dataset &got, const Dataset &want)
{
    const CscView g = got.graph.csc();
    const CscView w = want.graph.csc();
    ASSERT_EQ(g.numVertices, w.numVertices);
    EXPECT_TRUE(std::ranges::equal(g.colPtr, w.colPtr)) << "colPtr";
    EXPECT_TRUE(std::ranges::equal(g.rowIdx, w.rowIdx)) << "rowIdx";
    bool csr_equal = true;
    for (VertexId v = 0; csr_equal && v < g.numVertices; ++v)
        csr_equal = std::ranges::equal(got.graph.outNeighbors(v),
                                       want.graph.outNeighbors(v));
    EXPECT_TRUE(csr_equal) << "rowPtr/colIdx";
    // Array sizes, including the row offsets of a zero-vertex graph.
    EXPECT_EQ(got.graph.storageBytes(), want.graph.storageBytes());
    EXPECT_EQ(got.graphBoundaries, want.graphBoundaries);
}

} // namespace

class DatasetTable4 : public ::testing::TestWithParam<Expected>
{
};

TEST_P(DatasetTable4, MatchesPaperStatistics)
{
    const Expected e = GetParam();
    const Dataset ds = makeDataset(e.id, 1);
    EXPECT_EQ(ds.abbrev, e.abbrev);
    EXPECT_EQ(ds.numVertices(), e.vertices);
    EXPECT_EQ(ds.featureLen, e.feature_len);
    // Directed edge count within 1% of Table 4 (generators may trim
    // a handful of infeasible edges in dense components).
    EXPECT_NEAR(static_cast<double>(ds.numEdges()),
                static_cast<double>(e.directed_edges),
                0.01 * e.directed_edges);
    EXPECT_EQ(!ds.graphBoundaries.empty(), e.multi_graph);
}

INSTANTIATE_TEST_SUITE_P(Table4, DatasetTable4,
                         ::testing::ValuesIn(kTable4));

TEST(Dataset, MultiGraphHas128Components)
{
    const Dataset ib = makeDataset(DatasetId::IB, 1);
    EXPECT_EQ(ib.graphBoundaries.size(), 129u);
    EXPECT_EQ(ib.graphBoundaries.front(), 0u);
    EXPECT_EQ(ib.graphBoundaries.back(), ib.numVertices());
    for (std::size_t i = 0; i + 1 < ib.graphBoundaries.size(); ++i)
        EXPECT_LT(ib.graphBoundaries[i], ib.graphBoundaries[i + 1]);
}

TEST(Dataset, RedditScaledPreservesAverageDegree)
{
    const Dataset rd = makeDataset(DatasetId::RD, 1, 0.02);
    const double target_avg_deg = 114615892.0 / 232965.0;
    const double avg_deg = static_cast<double>(rd.numEdges()) /
                           rd.numVertices();
    EXPECT_NEAR(avg_deg, target_avg_deg, target_avg_deg * 0.15);
}

TEST(Dataset, TinyScaleRedditSaturatesToCompleteGraph)
{
    // 233 vertices cannot hold Reddit's average degree: R-MAT clamps
    // to the complete graph instead of searching for edges forever.
    const Dataset rd = makeDataset(DatasetId::RD, 1, 0.001);
    const EdgeId n = rd.numVertices();
    EXPECT_EQ(n, 233u);
    EXPECT_EQ(rd.numEdges(), n * (n - 1));
}

TEST(Dataset, ScaledDefaultShrinksOnlyReddit)
{
    EXPECT_EQ(makeDatasetScaledDefault(DatasetId::CR).scale, 1.0);
    EXPECT_LT(makeDatasetScaledDefault(DatasetId::RD).scale, 1.0);
}

TEST(Dataset, DeterministicAcrossCalls)
{
    const Dataset a = makeDataset(DatasetId::PB, 5);
    const Dataset b = makeDataset(DatasetId::PB, 5);
    EXPECT_EQ(a.numEdges(), b.numEdges());
    EXPECT_EQ(a.graph.inDegree(17), b.graph.inDegree(17));
}

TEST(Dataset, SeedChangesGraph)
{
    const Dataset a = makeDataset(DatasetId::PB, 5);
    const Dataset b = makeDataset(DatasetId::PB, 6);
    bool differs = a.numEdges() != b.numEdges();
    for (VertexId v = 0; !differs && v < a.numVertices(); ++v)
        differs = a.graph.inDegree(v) != b.graph.inDegree(v);
    EXPECT_TRUE(differs);
}

TEST(Dataset, InvalidScaleRejected)
{
    EXPECT_THROW(makeDataset(DatasetId::CR, 1, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(makeDataset(DatasetId::CR, 1, 1.5),
                 std::invalid_argument);
}

TEST(Dataset, MultiGraphTooSmallForItsComponentsRejected)
{
    // 265 and 121 vertices cannot hold 128 components of at least 3
    // vertices each.
    EXPECT_THROW(makeDataset(DatasetId::CL, 1, 0.01),
                 std::invalid_argument);
    try {
        makeDataset(DatasetId::IB, 1, 0.1);
        ADD_FAILURE() << "IB at 0.1 scale was built";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("265 vertices"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("128 components"),
                  std::string::npos);
    }
    // The bound is exact: 384 vertices build 128 triangles, 383 throw.
    const Dataset tight = makeDataset(DatasetId::IB, 1, 384.0 / 2647);
    EXPECT_EQ(tight.graphBoundaries.size(), 129u);
    EXPECT_EQ(tight.numEdges(), 768u);
    EXPECT_THROW(makeDataset(DatasetId::IB, 1, 383.0 / 2647),
                 std::invalid_argument);
}

TEST(Dataset, AllDatasetsEnumerates6)
{
    EXPECT_EQ(allDatasets().size(), 6u);
    EXPECT_EQ(datasetAbbrev(DatasetId::RD), "RD");
    EXPECT_EQ(datasetName(DatasetId::CL), "COLLAB");
}

TEST(Dataset, ReplicaEqualsEdgeListRebuild)
{
    // Every Table 4 dataset at its benchmarking scale, Reddit at 1/100
    // to keep the reference's edge list small.
    for (DatasetId id : allDatasets()) {
        const Dataset base = id == DatasetId::RD
                                 ? makeDataset(id, 1, 0.01)
                                 : makeDatasetScaledDefault(id, 1);
        for (std::uint32_t copies : {2u, 3u, 4u}) {
            SCOPED_TRACE(base.abbrev + " x" + std::to_string(copies));
            expectSameArrays(replicateDataset(base, copies),
                             refReplicate(base, copies));
        }
    }
}

TEST(Dataset, ReplicaOfHandBuiltGraphsEqualsEdgeListRebuild)
{
    struct Case
    {
        const char *name;
        VertexId n;
        std::vector<std::pair<VertexId, VertexId>> edges;
        bool symmetrize;
        std::vector<VertexId> boundaries;
    };
    const Case cases[] = {
        {"self loop", 3, {{0, 0}, {0, 1}, {2, 2}}, true, {}},
        {"duplicate edge", 3, {{0, 1}, {0, 1}, {1, 2}}, false, {}},
        {"isolated vertices", 5, {{1, 2}, {2, 3}}, true, {}},
        {"components", 6, {{0, 1}, {2, 3}, {3, 4}}, true, {0, 2, 5, 6}},
        {"zero vertices", 0, {}, true, {}},
    };
    for (const Case &c : cases) {
        Dataset base;
        base.graph = Graph::fromEdges(c.n, c.edges, c.symmetrize);
        base.graphBoundaries = c.boundaries;
        for (std::uint32_t copies : {2u, 3u, 4u}) {
            SCOPED_TRACE(std::string(c.name) + " x" +
                         std::to_string(copies));
            expectSameArrays(replicateDataset(base, copies),
                             refReplicate(base, copies));
        }
    }
}

TEST(Dataset, BlockDiagonalRejectsZeroCopiesAndOverflow)
{
    const Graph g = Graph::fromEdges(70000, {{0, 1}}, true);
    EXPECT_THROW(g.blockDiagonal(0), std::invalid_argument);
    EXPECT_THROW(g.blockDiagonal(70000), std::invalid_argument);
    EXPECT_EQ(g.blockDiagonal(1).numEdges(), g.numEdges());
}
