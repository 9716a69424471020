#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/rng.hpp"

using namespace hygcn;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedZeroAndOne)
{
    Rng rng(7);
    EXPECT_EQ(rng.nextBounded(0), 0u);
    EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInHalfOpenUnit)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, FloatRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const float f = rng.nextFloat(-2.5f, 3.5f);
        EXPECT_GE(f, -2.5f);
        EXPECT_LT(f, 3.5f);
    }
}

/** jump(n) lands where n calls to next() do. */
TEST(Rng, JumpMatchesRepeatedNext)
{
    std::vector<std::uint64_t> ns = {0, 1, 2};
    for (int k = 2; k <= 20; ++k) {
        const std::uint64_t pow = std::uint64_t{1} << k;
        ns.insert(ns.end(), {pow - 1, pow, pow + 1});
    }
    Rng pick(5);
    for (int i = 0; i < 16; ++i)
        ns.push_back(pick.nextBounded(std::uint64_t{1} << 20));
    for (const std::uint64_t n : ns) {
        SCOPED_TRACE(n);
        Rng jumped(42), stepped(42);
        jumped.jump(n);
        for (std::uint64_t i = 0; i < n; ++i)
            stepped.next();
        EXPECT_EQ(jumped.state(), stepped.state());
        EXPECT_EQ(jumped.next(), stepped.next());
    }

    // Jumps compose: one of 2^40 lands where two of 2^39 do.
    Rng once(7), twice(7);
    once.jump(std::uint64_t{1} << 40);
    const Rng::Jump half(std::uint64_t{1} << 39);
    twice.jump(half);
    twice.jump(half);
    EXPECT_EQ(once.state(), twice.state());
    EXPECT_NE(once.state(), Rng(7).state());
}

class RngBoundParam : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngBoundParam, UniformityChiSquaredSane)
{
    const std::uint64_t bound = GetParam();
    Rng rng(bound * 977 + 1);
    std::vector<int> buckets(bound, 0);
    constexpr int n = 64000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.nextBounded(bound)];
    const double expected = static_cast<double>(n) / bound;
    double chi2 = 0.0;
    for (int c : buckets)
        chi2 += (c - expected) * (c - expected) / expected;
    // Very loose bound: chi2 should be O(bound) for a uniform source.
    EXPECT_LT(chi2, 4.0 * bound + 40.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundParam,
                         ::testing::Values(2, 5, 16, 97, 256));
