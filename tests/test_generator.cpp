#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "graph/generator.hpp"

using namespace hygcn;

namespace {

std::set<std::uint64_t>
canonical(const EdgeList &edges)
{
    std::set<std::uint64_t> keys;
    for (auto [a, b] : edges) {
        if (a > b)
            std::swap(a, b);
        keys.insert((static_cast<std::uint64_t>(a) << 32) | b);
    }
    return keys;
}

/*
 * Reference generators: the library's RNG draws and edge order, with
 * duplicates rejected through std::unordered_set.
 */

std::uint64_t
refKey(VertexId a, VertexId b)
{
    if (a > b)
        std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
}

EdgeList
refUniform(VertexId n, EdgeId num_edges, Rng &rng)
{
    const EdgeId max_edges = static_cast<EdgeId>(n) * (n - 1) / 2;
    num_edges = std::min(num_edges, max_edges);
    EdgeList edges;
    std::unordered_set<std::uint64_t> seen;
    while (edges.size() < num_edges) {
        const auto a = static_cast<VertexId>(rng.nextBounded(n));
        const auto b = static_cast<VertexId>(rng.nextBounded(n));
        if (a == b)
            continue;
        if (seen.insert(refKey(a, b)).second)
            edges.emplace_back(a, b);
    }
    return edges;
}

/**
 * @param topped_up Set if the uniform top-up loop had to run.
 * @param attempts Set to the number of R-MAT attempts made.
 */
EdgeList
refRmat(VertexId n, EdgeId num_edges, Rng &rng, bool &topped_up,
        std::uint64_t &attempts)
{
    num_edges = std::min(num_edges, static_cast<EdgeId>(n) * (n - 1) / 2);
    int levels = 0;
    while ((VertexId(1) << levels) < n)
        ++levels;
    EdgeList edges;
    std::unordered_set<std::uint64_t> seen;
    attempts = 0;
    const std::uint64_t max_attempts = num_edges * 64ull + 1024;
    while (edges.size() < num_edges && attempts < max_attempts) {
        ++attempts;
        VertexId src = 0, dst = 0;
        for (int level = 0; level < levels; ++level) {
            const double p = rng.nextDouble();
            const double aa = 0.57 + 0.05 * (rng.nextDouble() - 0.5);
            src <<= 1;
            dst <<= 1;
            if (p < aa) {
                // top-left quadrant: no bits set
            } else if (p < aa + 0.19) {
                dst |= 1;
            } else if (p < aa + 0.19 + 0.19) {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        if (src >= n || dst >= n || src == dst)
            continue;
        if (seen.insert(refKey(src, dst)).second)
            edges.emplace_back(src, dst);
    }
    topped_up = edges.size() < num_edges;
    while (edges.size() < num_edges) {
        const auto s = static_cast<VertexId>(rng.nextBounded(n));
        const auto d = static_cast<VertexId>(rng.nextBounded(n));
        if (s == d)
            continue;
        if (seen.insert(refKey(s, d)).second)
            edges.emplace_back(s, d);
    }
    return edges;
}

EdgeList
refCommunity(VertexId n, EdgeId num_edges, Rng &rng)
{
    EdgeList edges;
    std::unordered_set<std::uint64_t> seen;
    if (n >= 3) {
        for (VertexId v = 0; v < n; ++v) {
            const VertexId u = (v + 1) % n;
            if (seen.insert(refKey(v, u)).second)
                edges.emplace_back(v, u);
        }
    } else if (n == 2) {
        edges.emplace_back(0, 1);
        seen.insert(refKey(0, 1));
    }
    const EdgeId max_edges = static_cast<EdgeId>(n) * (n - 1) / 2;
    const EdgeId target = std::min(num_edges, max_edges);
    while (edges.size() < target) {
        const auto a = static_cast<VertexId>(rng.nextBounded(n));
        const auto b = static_cast<VertexId>(rng.nextBounded(n));
        if (a == b)
            continue;
        if (seen.insert(refKey(a, b)).second)
            edges.emplace_back(a, b);
    }
    return edges;
}

} // namespace

class GeneratorParam
    : public ::testing::TestWithParam<std::pair<VertexId, EdgeId>>
{
};

TEST_P(GeneratorParam, UniformExactCountNoDupNoSelf)
{
    auto [v, e] = GetParam();
    Rng rng(1);
    const EdgeList edges = generateUniform(v, e, rng);
    EXPECT_EQ(edges.size(), e);
    EXPECT_EQ(canonical(edges).size(), e);
    for (auto [a, b] : edges) {
        EXPECT_NE(a, b);
        EXPECT_LT(a, v);
        EXPECT_LT(b, v);
    }
}

TEST_P(GeneratorParam, RmatExactCountNoDupNoSelf)
{
    auto [v, e] = GetParam();
    Rng rng(2);
    const EdgeList edges = generateRmat(v, e, rng);
    EXPECT_EQ(edges.size(), e);
    EXPECT_EQ(canonical(edges).size(), e);
    for (auto [a, b] : edges) {
        EXPECT_NE(a, b);
        EXPECT_LT(a, v);
        EXPECT_LT(b, v);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorParam,
    ::testing::Values(std::pair<VertexId, EdgeId>{16, 30},
                      std::pair<VertexId, EdgeId>{100, 500},
                      std::pair<VertexId, EdgeId>{1000, 5000},
                      std::pair<VertexId, EdgeId>{4096, 20000}));

TEST(Generator, UniformClampsToMaxEdges)
{
    Rng rng(3);
    const EdgeList edges = generateUniform(4, 1000, rng);
    EXPECT_EQ(edges.size(), 6u); // complete graph K4
}

TEST(Generator, RmatClampsToMaxEdges)
{
    Rng rng(3);
    const EdgeList edges = generateRmat(16, 200, rng);
    EXPECT_EQ(edges.size(), 120u); // complete graph K16
    EXPECT_EQ(canonical(edges).size(), 120u);
}

TEST(Generator, RmatSkewExceedsUniform)
{
    Rng u_rng(7), r_rng(7);
    const VertexId v = 2048;
    const EdgeId e = 16384;
    auto max_degree = [v](const EdgeList &edges) {
        std::vector<int> deg(v, 0);
        for (auto [a, b] : edges) {
            ++deg[a];
            ++deg[b];
        }
        return *std::max_element(deg.begin(), deg.end());
    };
    const int uniform_max = max_degree(generateUniform(v, e, u_rng));
    const int rmat_max = max_degree(generateRmat(v, e, r_rng));
    EXPECT_GT(rmat_max, 2 * uniform_max);
}

TEST(Generator, CommunityConnectedRing)
{
    Rng rng(5);
    const EdgeList edges = generateCommunity(10, 20, rng);
    EXPECT_EQ(edges.size(), 20u);
    // Ring edges guarantee every vertex has degree >= 2.
    std::vector<int> deg(10, 0);
    for (auto [a, b] : edges) {
        ++deg[a];
        ++deg[b];
    }
    for (int d : deg)
        EXPECT_GE(d, 2);
}

TEST(Generator, CommunityTinySizes)
{
    Rng rng(6);
    EXPECT_EQ(generateCommunity(2, 5, rng).size(), 1u);
    EXPECT_TRUE(generateCommunity(1, 5, rng).empty());
}

TEST(Generator, AssembleComponentsBlockDiagonal)
{
    Rng rng(8);
    std::vector<VertexId> boundaries;
    const EdgeList edges =
        assembleComponents({5, 7, 3}, {8, 15, 3}, rng, boundaries);
    ASSERT_EQ(boundaries.size(), 4u);
    EXPECT_EQ(boundaries.back(), 15u);
    // No edge crosses a component boundary.
    for (auto [a, b] : edges) {
        std::size_t ca = 0, cb = 0;
        for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
            if (a >= boundaries[i] && a < boundaries[i + 1])
                ca = i;
            if (b >= boundaries[i] && b < boundaries[i + 1])
                cb = i;
        }
        EXPECT_EQ(ca, cb);
    }
}

TEST(Generator, Deterministic)
{
    Rng a(99), b(99);
    EXPECT_EQ(generateRmat(256, 1000, a), generateRmat(256, 1000, b));
}

/** The flat dedupe set and the lanes yield the reference edge lists
 *  exactly. */
TEST(Generator, MatchesUnorderedSetReference)
{
    // Tiny, saturated and over-dense graphs, vertex counts that are
    // not powers of two, and sizes large enough for long probe chains.
    // The set keeps a bitmap when the n(n-1)/2 pair bits fit in the 64
    // bits of each of the max(16, E + E/2 + 1) hash slots for E edges:
    // 128 and 512 vertices sit exactly on that boundary at 84 and 1362
    // edges, so one edge fewer is sparse and one more dense. The
    // sparse community set for 128 vertices at 83 edges grows while
    // the ring is laid. 346 vertices at 28101 edges is a COLLAB
    // component (47% dense).
    //
    // generateRmat makes its attempts in rounds of kRound (below). At
    // 3000 vertices and 12000 edges it takes several rounds. At 1502
    // and 4721 under seed 1, after the draws made before it below, its
    // last edge comes from the last attempt of round 3. K40's 780 edges
    // saturate it, so it stops at max_attempts (64 * 780 + 1024) in
    // the middle of round 25.
    const std::vector<VertexId> vs = {2,    3,   16,   17,   20,  100, 1000,
                                      5000, 16,  128,  128,  128, 512, 512,
                                      512,  346, 3000, 1502, 40};
    const std::vector<EdgeId> es = {1,     3,     120,    100,  190,
                                    300,   20000, 100000, 200,  83,
                                    84,    85,    1361,   1362, 1363,
                                    28101, 12000, 4721,   780};
    // generateRmat's lanes times attempts per lane. The counts below
    // check that the cases above still reach the round boundaries.
    constexpr std::uint64_t kRound = 8 * 256;
    int rmat_top_ups = 0, multi_round = 0;
    int ends_on_round = 0, stops_mid_round = 0;
    for (std::uint64_t seed : {1, 2, 77}) {
        for (std::size_t i = 0; i < vs.size(); ++i) {
            SCOPED_TRACE(testing::Message() << seed << "/" << i);
            const VertexId v = vs[i];
            const EdgeId e = es[i];
            Rng lib(seed), ref(seed);
            EXPECT_EQ(generateUniform(v, e, lib), refUniform(v, e, ref));
            // The same number of draws was consumed.
            EXPECT_EQ(lib.next(), ref.next());

            bool topped_up = false;
            std::uint64_t attempts = 0;
            const EdgeList want = refRmat(v, e, ref, topped_up, attempts);
            EXPECT_EQ(generateRmat(v, e, lib), want);
            EXPECT_EQ(lib.next(), ref.next());
            rmat_top_ups += topped_up;
            const bool mid_round = attempts % kRound != 0;
            multi_round += attempts > 2 * kRound;
            ends_on_round += !topped_up && attempts > kRound && !mid_round;
            stops_mid_round += topped_up && attempts > kRound && mid_round;

            EXPECT_EQ(generateCommunity(v, e, lib), refCommunity(v, e, ref));
            EXPECT_EQ(lib.next(), ref.next());
        }
    }
    EXPECT_GT(rmat_top_ups, 0) << "no case reached RMAT's uniform top-up";
    EXPECT_GT(multi_round, 0) << "no case took several RMAT rounds";
    EXPECT_GT(ends_on_round, 0) << "no case ended on a round's last attempt";
    EXPECT_GT(stops_mid_round, 0) << "no case ran out of attempts mid-round";
}

TEST(Generator, AssembleComponentsMatchesReference)
{
    // Components on both sides of the dense/sparse boundary (see
    // MatchesUnorderedSetReference) and the largest COLLAB component.
    const std::vector<VertexId> sizes = {1,   2,   3,   40,  700, 9,   2500,
                                         128, 128, 128, 512, 512, 512, 1090};
    const std::vector<EdgeId> edges = {0,  1,  5,  400,  30000, 36,   60000,
                                       83, 84, 85, 1361, 1362,  1363, 279501};
    for (std::uint64_t seed : {3, 4}) {
        Rng lib(seed), ref(seed);
        std::vector<VertexId> boundaries;
        const EdgeList got = assembleComponents(sizes, edges, lib, boundaries);

        EdgeList want;
        std::vector<VertexId> want_boundaries = {0};
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const VertexId offset = want_boundaries.back();
            for (auto [s, d] : refCommunity(sizes[i], edges[i], ref))
                want.emplace_back(s + offset, d + offset);
            want_boundaries.push_back(offset + sizes[i]);
        }
        EXPECT_EQ(got, want) << "seed " << seed;
        EXPECT_EQ(boundaries, want_boundaries);
        EXPECT_EQ(lib.next(), ref.next());
    }
}
