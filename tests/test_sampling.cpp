#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "graph/generator.hpp"
#include "graph/sampling.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

Graph
randomGraph(VertexId v, EdgeId e, std::uint64_t seed)
{
    Rng rng(seed);
    return Graph::fromEdges(v, generateUniform(v, e, rng), true);
}

/**
 * Reference sampler: copy each column, partial Fisher-Yates over the
 * copied values, then sort the kept prefix.
 */
template <typename KeepOf>
EdgeSet
refSample(const CscView &view, KeepOf keep_of, std::uint64_t seed)
{
    std::vector<EdgeId> col_ptr(view.numVertices + 1, 0);
    std::vector<VertexId> row_idx;
    Rng rng(seed);
    std::vector<VertexId> scratch;
    for (VertexId dst = 0; dst < view.numVertices; ++dst) {
        auto srcs = view.sources(dst);
        const EdgeId deg = srcs.size();
        const EdgeId keep = std::min<EdgeId>(deg, keep_of(deg));
        scratch.assign(srcs.begin(), srcs.end());
        if (keep < deg) {
            for (EdgeId i = 0; i < keep; ++i) {
                const EdgeId j = i + rng.nextBounded(scratch.size() - i);
                std::swap(scratch[i], scratch[j]);
            }
            std::sort(scratch.begin(), scratch.begin() + keep);
        }
        row_idx.insert(row_idx.end(), scratch.begin(),
                       scratch.begin() + keep);
        col_ptr[dst + 1] = row_idx.size();
    }
    return EdgeSet::fromRaw(view.numVertices, std::move(col_ptr),
                            std::move(row_idx));
}

bool
sameEdges(const EdgeSet &a, const EdgeSet &b)
{
    return a.numVertices() == b.numVertices() &&
           std::ranges::equal(a.view().colPtr, b.view().colPtr) &&
           std::ranges::equal(a.view().rowIdx, b.view().rowIdx);
}

/**
 * A 200-vertex edge set whose columns have the given in-degrees, each
 * column a random sorted set of distinct sources; with @p with_self
 * every non-empty column also holds its own destination.
 */
EdgeSet
columnsOfDegrees(const std::vector<EdgeId> &degrees, bool with_self,
                 std::uint64_t seed)
{
    constexpr VertexId kN = 200;
    Rng rng(seed);
    std::vector<std::vector<VertexId>> cols(kN);
    for (VertexId v = 0; v < kN; ++v) {
        const EdgeId deg = degrees[v % degrees.size()];
        std::vector<VertexId> pool(kN);
        std::iota(pool.begin(), pool.end(), VertexId{0});
        if (with_self && deg > 0)
            std::swap(pool[0], pool[v]);
        for (EdgeId i = with_self ? 1 : 0; i < deg; ++i)
            std::swap(pool[i], pool[i + rng.nextBounded(kN - i)]);
        cols[v].assign(pool.begin(), pool.begin() + deg);
        std::sort(cols[v].begin(), cols[v].end());
    }
    return EdgeSet::fromColumns(kN, cols);
}

} // namespace

TEST(Sampling, MaxNeighborsCapsDegree)
{
    const Graph g = randomGraph(200, 3000, 1);
    const EdgeSet s =
        NeighborSampler::sampleMaxNeighbors(g.csc(), 5, 7);
    for (VertexId v = 0; v < 200; ++v) {
        EXPECT_LE(s.view().inDegree(v), 5u);
        EXPECT_EQ(s.view().inDegree(v),
                  std::min<EdgeId>(5, g.inDegree(v)));
    }
}

TEST(Sampling, SampledAreSubsetAndSorted)
{
    const Graph g = randomGraph(100, 1000, 2);
    const EdgeSet s =
        NeighborSampler::sampleMaxNeighbors(g.csc(), 3, 9);
    for (VertexId v = 0; v < 100; ++v) {
        auto sampled = s.view().sources(v);
        auto full = g.inNeighbors(v);
        EXPECT_TRUE(std::is_sorted(sampled.begin(), sampled.end()));
        for (VertexId u : sampled)
            EXPECT_TRUE(std::binary_search(full.begin(), full.end(), u));
        // No duplicates.
        EXPECT_EQ(std::set<VertexId>(sampled.begin(), sampled.end())
                      .size(),
                  sampled.size());
    }
}

TEST(Sampling, FactorOneKeepsEverything)
{
    const Graph g = randomGraph(50, 200, 3);
    const EdgeSet s = NeighborSampler::sampleByFactor(g.csc(), 1, 7);
    EXPECT_EQ(s.numEdges(), g.numEdges());
}

class FactorParam : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FactorParam, ByFactorKeepsCeilFraction)
{
    const std::uint32_t factor = GetParam();
    const Graph g = randomGraph(150, 2000, 4);
    const EdgeSet s =
        NeighborSampler::sampleByFactor(g.csc(), factor, 7);
    for (VertexId v = 0; v < 150; ++v) {
        const EdgeId deg = g.inDegree(v);
        EXPECT_EQ(s.view().inDegree(v), (deg + factor - 1) / factor);
    }
}

INSTANTIATE_TEST_SUITE_P(Factors, FactorParam,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Sampling, DeterministicForSeed)
{
    const Graph g = randomGraph(80, 800, 5);
    const EdgeSet a =
        NeighborSampler::sampleMaxNeighbors(g.csc(), 4, 11);
    const EdgeSet b =
        NeighborSampler::sampleMaxNeighbors(g.csc(), 4, 11);
    for (VertexId v = 0; v < 80; ++v) {
        auto sa = a.view().sources(v);
        auto sb = b.view().sources(v);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i)
            EXPECT_EQ(sa[i], sb[i]);
    }
}

TEST(Sampling, SeedChangesSelection)
{
    const Graph g = randomGraph(80, 2000, 6);
    const EdgeSet a =
        NeighborSampler::sampleMaxNeighbors(g.csc(), 4, 11);
    const EdgeSet b =
        NeighborSampler::sampleMaxNeighbors(g.csc(), 4, 12);
    bool differs = false;
    for (VertexId v = 0; !differs && v < 80; ++v) {
        auto sa = a.view().sources(v);
        auto sb = b.view().sources(v);
        differs = !std::equal(sa.begin(), sa.end(), sb.begin(),
                              sb.end());
    }
    EXPECT_TRUE(differs);
}

TEST(Sampling, UniformityOverManySeeds)
{
    // Each of vertex 0's neighbors should be picked roughly equally
    // often across seeds.
    const Graph g = randomGraph(40, 500, 7);
    const VertexId v = 0;
    const auto nbrs = g.inNeighbors(v);
    ASSERT_GE(nbrs.size(), 6u);
    std::map<VertexId, int> counts;
    constexpr int kTrials = 3000;
    for (int seed = 0; seed < kTrials; ++seed) {
        const EdgeSet s =
            NeighborSampler::sampleMaxNeighbors(g.csc(), 1, seed);
        counts[s.view().sources(v)[0]]++;
    }
    const double expected =
        static_cast<double>(kTrials) / nbrs.size();
    for (VertexId u : nbrs)
        EXPECT_NEAR(counts[u], expected, expected * 0.5) << "u=" << u;
}

TEST(Sampling, ZeroArgumentsRejected)
{
    const Graph g = randomGraph(10, 20, 8);
    EXPECT_THROW(NeighborSampler::sampleMaxNeighbors(g.csc(), 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(NeighborSampler::sampleByFactor(g.csc(), 0, 1),
                 std::invalid_argument);
}

TEST(Sampling, MatchesSortingReferenceAtBitmapWordEdges)
{
    // Column degrees around the keep count and around the kept-position
    // bitmap's 64-bit word edges.
    for (std::uint32_t keep : {1u, 25u, 64u}) {
        const std::vector<EdgeId> degrees = {
            0, keep - 1, keep, keep + 1, 63, 64, 65, 128, 129, 199};
        for (bool with_self : {false, true}) {
            for (std::uint64_t seed : {1, 2, 3, 20200222}) {
                SCOPED_TRACE(testing::Message()
                             << "keep " << keep << " self " << with_self
                             << " seed " << seed);
                const EdgeSet edges =
                    columnsOfDegrees(degrees, with_self, seed);
                const EdgeSet got = NeighborSampler::sampleMaxNeighbors(
                    edges.view(), keep, seed);
                const EdgeSet want = refSample(
                    edges.view(), [keep](EdgeId) { return keep; }, seed);
                EXPECT_TRUE(sameEdges(got, want));
                EXPECT_TRUE(
                    sameEdges(EdgeSet::fromView(got.view(), true),
                              EdgeSet::fromView(want.view(), true)));
            }
        }
    }
}

TEST(Sampling, ByFactorMatchesSortingReference)
{
    const std::vector<EdgeId> degrees = {1, 2, 3, 63, 64, 65, 128, 129};
    for (std::uint32_t factor : {1u, 2u, 3u, 4u, 16u}) {
        for (bool with_self : {false, true}) {
            for (std::uint64_t seed : {1, 2, 3, 20200222}) {
                SCOPED_TRACE(testing::Message()
                             << "factor " << factor << " self "
                             << with_self << " seed " << seed);
                const EdgeSet edges =
                    columnsOfDegrees(degrees, with_self, seed);
                const EdgeSet got = NeighborSampler::sampleByFactor(
                    edges.view(), factor, seed);
                const EdgeSet want = refSample(
                    edges.view(),
                    [factor](EdgeId deg) {
                        return (deg + factor - 1) / factor;
                    },
                    seed);
                EXPECT_TRUE(sameEdges(got, want));
                EXPECT_TRUE(
                    sameEdges(EdgeSet::fromView(got.view(), true),
                              EdgeSet::fromView(want.view(), true)));
            }
        }
    }
}
