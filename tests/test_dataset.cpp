#include <gtest/gtest.h>

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

TEST(Dataset, AllDatasetsEnumerates6)
{
    EXPECT_EQ(allDatasets().size(), 6u);
    EXPECT_EQ(datasetAbbrev(DatasetId::RD), "RD");
    EXPECT_EQ(datasetName(DatasetId::CL), "COLLAB");
}
