#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

using Edges = std::vector<std::pair<VertexId, VertexId>>;

/** CSC and CSR arrays, as Graph::fromEdges lays them out. */
struct Arrays
{
    std::vector<EdgeId> colPtr;
    std::vector<VertexId> rowIdx;
    std::vector<EdgeId> rowPtr;
    std::vector<VertexId> colIdx;
};

/**
 * Reference build: append the reversed edges, count, scatter in input
 * order, then sort every column and row.
 */
Arrays
refFromEdges(VertexId n, Edges edges, bool symmetrize)
{
    if (symmetrize) {
        const std::size_t m = edges.size();
        for (std::size_t i = 0; i < m; ++i) {
            const auto [s, d] = edges[i];
            if (s != d)
                edges.emplace_back(d, s);
        }
    }
    Arrays a;
    a.colPtr.assign(n + 1, 0);
    a.rowPtr.assign(n + 1, 0);
    for (const auto &[src, dst] : edges) {
        ++a.colPtr[dst + 1];
        ++a.rowPtr[src + 1];
    }
    for (VertexId v = 0; v < n; ++v) {
        a.colPtr[v + 1] += a.colPtr[v];
        a.rowPtr[v + 1] += a.rowPtr[v];
    }
    a.rowIdx.resize(edges.size());
    a.colIdx.resize(edges.size());
    std::vector<EdgeId> col_fill(a.colPtr.begin(), a.colPtr.end() - 1);
    std::vector<EdgeId> row_fill(a.rowPtr.begin(), a.rowPtr.end() - 1);
    for (const auto &[src, dst] : edges) {
        a.rowIdx[col_fill[dst]++] = src;
        a.colIdx[row_fill[src]++] = dst;
    }
    for (VertexId v = 0; v < n; ++v) {
        std::sort(a.rowIdx.begin() + a.colPtr[v],
                  a.rowIdx.begin() + a.colPtr[v + 1]);
        std::sort(a.colIdx.begin() + a.rowPtr[v],
                  a.colIdx.begin() + a.rowPtr[v + 1]);
    }
    return a;
}

Arrays
arraysOf(const Graph &g)
{
    Arrays a;
    const CscView csc = g.csc();
    a.colPtr.assign(csc.colPtr.begin(), csc.colPtr.end());
    a.rowIdx.assign(csc.rowIdx.begin(), csc.rowIdx.end());
    a.rowPtr = {0};
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const auto out = g.outNeighbors(v);
        a.colIdx.insert(a.colIdx.end(), out.begin(), out.end());
        a.rowPtr.push_back(a.colIdx.size());
    }
    return a;
}

Graph
diamond()
{
    // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (directed), then symmetrized.
    return Graph::fromEdges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, true);
}

} // namespace

TEST(Graph, EmptyGraph)
{
    const Graph g = Graph::fromEdges(3, {}, true);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_EQ(g.inDegree(0), 0u);
}

TEST(Graph, SymmetrizationDoublesEdges)
{
    const Graph g = diamond();
    EXPECT_EQ(g.numEdges(), 8u);
    EXPECT_EQ(g.inDegree(3), 2u);
    EXPECT_EQ(g.outDegree(3), 2u);
}

TEST(Graph, DirectedKeepsEdgeCount)
{
    const Graph g =
        Graph::fromEdges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, false);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.inDegree(0), 0u);
    EXPECT_EQ(g.outDegree(0), 2u);
}

TEST(Graph, NeighborsSorted)
{
    const Graph g = Graph::fromEdges(
        5, {{4, 0}, {2, 0}, {3, 0}, {1, 0}}, false);
    auto nbrs = g.inNeighbors(0);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Graph, HasEdge)
{
    const Graph g = diamond();
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0)); // symmetrized
    EXPECT_FALSE(g.hasEdge(0, 3));
}

TEST(Graph, SelfLoopNotDuplicatedBySymmetrize)
{
    const Graph g = Graph::fromEdges(2, {{0, 0}, {0, 1}}, true);
    EXPECT_EQ(g.numEdges(), 3u); // (0,0), (0,1), (1,0)
}

TEST(Graph, RejectsOutOfRangeEndpoint)
{
    EXPECT_THROW(Graph::fromEdges(2, {{0, 5}}, false),
                 std::invalid_argument);
    // A bad source after valid edges, with the reverse edges on.
    EXPECT_THROW(Graph::fromEdges(3, {{0, 1}, {1, 2}, {3, 0}}, true),
                 std::invalid_argument);
    EXPECT_THROW(Graph::fromEdges(0, {{0, 0}}, true), std::invalid_argument);
}

/** The counting-sort build lays out the reference's arrays exactly. */
TEST(Graph, MatchesSortReference)
{
    struct Case
    {
        VertexId n;
        std::size_t edges;
        /** Endpoints drawn from [0, span): higher ids stay isolated. */
        VertexId span;
        /** Draw endpoints biased to low ids, giving a few hubs. */
        bool skewed;
    };
    // Few vertices per edge force duplicates and self loops.
    const Case cases[] = {{0, 0, 0, false},          {1, 6, 1, false},
                          {2, 9, 2, false},          {5, 40, 5, false},
                          {50, 300, 30, false},      {300, 2000, 300, false},
                          {1000, 20000, 1000, true}, {4000, 5000, 2500, true}};
    for (std::uint64_t seed : {1, 2, 3}) {
        for (const Case &c : cases) {
            Rng rng(seed);
            auto draw = [&]() {
                const std::uint64_t bound =
                    c.skewed ? rng.nextBounded(c.span) + 1 : c.span;
                return static_cast<VertexId>(rng.nextBounded(bound));
            };
            Edges edges;
            for (std::size_t i = 0; i < c.edges; ++i) {
                const VertexId src = draw();
                edges.emplace_back(src, draw());
            }
            for (bool symmetrize : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " n " << c.n
                             << " symmetrize " << symmetrize);
                const Arrays got =
                    arraysOf(Graph::fromEdges(c.n, edges, symmetrize));
                const Arrays want = refFromEdges(c.n, edges, symmetrize);
                EXPECT_TRUE(got.colPtr == want.colPtr) << "colPtr";
                EXPECT_TRUE(got.rowIdx == want.rowIdx) << "rowIdx";
                EXPECT_TRUE(got.rowPtr == want.rowPtr) << "rowPtr";
                EXPECT_TRUE(got.colIdx == want.colIdx) << "colIdx";
            }
        }
    }
}

TEST(Graph, CscViewConsistent)
{
    const Graph g = diamond();
    const CscView v = g.csc();
    EXPECT_EQ(v.numVertices, 4u);
    EXPECT_EQ(v.numEdges(), g.numEdges());
    for (VertexId d = 0; d < 4; ++d)
        EXPECT_EQ(v.inDegree(d), g.inDegree(d));
}

TEST(Graph, StorageBytesPositive)
{
    EXPECT_GT(diamond().storageBytes(), 0u);
}

TEST(EdgeSet, FromGraphWithoutSelfLoops)
{
    const EdgeSet es = EdgeSet::fromGraph(diamond(), false);
    EXPECT_EQ(es.numEdges(), 8u);
}

TEST(EdgeSet, SelfLoopInsertionKeepsSorted)
{
    const EdgeSet es = EdgeSet::fromGraph(diamond(), true);
    EXPECT_EQ(es.numEdges(), 12u); // 8 + 4 self loops
    const CscView v = es.view();
    for (VertexId d = 0; d < 4; ++d) {
        auto srcs = v.sources(d);
        EXPECT_TRUE(std::is_sorted(srcs.begin(), srcs.end()));
        EXPECT_TRUE(std::binary_search(srcs.begin(), srcs.end(), d));
    }
}

TEST(EdgeSet, SelfLoopNotDuplicatedWhenPresent)
{
    const Graph g = Graph::fromEdges(2, {{0, 0}, {1, 0}}, false);
    const EdgeSet es = EdgeSet::fromGraph(g, true);
    // Column 0 had {0, 1}; self loop already there. Column 1 gains one.
    EXPECT_EQ(es.numEdges(), 3u);
}

TEST(EdgeSet, FromColumns)
{
    const EdgeSet es = EdgeSet::fromColumns(3, {{1, 2}, {}, {0}});
    EXPECT_EQ(es.numEdges(), 3u);
    EXPECT_EQ(es.view().inDegree(1), 0u);
    EXPECT_EQ(es.view().sources(2)[0], 0u);
}

TEST(EdgeSet, FromRawAdoptsArrays)
{
    const EdgeSet es =
        EdgeSet::fromRaw(2, {0, 1, 2}, {1, 0});
    EXPECT_EQ(es.numEdges(), 2u);
    EXPECT_EQ(es.view().sources(0)[0], 1u);
}
