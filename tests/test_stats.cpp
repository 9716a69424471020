#include <gtest/gtest.h>

#include "sim/stats.hpp"

using namespace hygcn;

TEST(StatGroup, StartsEmpty)
{
    StatGroup s;
    EXPECT_EQ(s.get(Counter::AggEdges), 0u);
    EXPECT_EQ(s.gauge(Gauge::GpuOom), 0.0);
    EXPECT_FALSE(s.has("agg.edges"));
    EXPECT_EQ(s, StatGroup());
}

TEST(StatGroup, AddAccumulates)
{
    StatGroup s;
    s.add(Counter::AggWindows);
    s.add(Counter::AggWindows, 4);
    EXPECT_EQ(s.get(Counter::AggWindows), 5u);
    EXPECT_EQ(s.get("agg.windows"), 5u);
    EXPECT_TRUE(s.has("agg.windows"));
}

TEST(StatGroup, GaugeOverwrites)
{
    StatGroup s;
    s.set(Gauge::PhaseAggFraction, 1.5);
    s.set(Gauge::PhaseAggFraction, 2.5);
    EXPECT_DOUBLE_EQ(s.gauge("phase.agg_fraction"), 2.5);
}

TEST(StatGroup, MergeAddsCountersAndOverwritesGauges)
{
    StatGroup a, b;
    a.add(Counter::CombMacs, 3);
    a.set(Gauge::GpuOom, 1.0);
    a.addChannelBytes(1, 64);
    b.add(Counter::CombMacs, 4);
    b.add(Counter::CombVertices, 1);
    b.set(Gauge::GpuOom, 9.0);
    b.addChannelBytes(1, 32);
    b.addChannelBytes(3, 8);
    a.merge(b);
    EXPECT_EQ(a.get(Counter::CombMacs), 7u);
    EXPECT_EQ(a.get(Counter::CombVertices), 1u);
    EXPECT_DOUBLE_EQ(a.gauge(Gauge::GpuOom), 9.0);
    EXPECT_EQ(a.channelBytes(1), 96u);
    EXPECT_EQ(a.get("dram.ch03.bytes"), 8u);
}

TEST(StatGroup, ClearDropsEverything)
{
    StatGroup s;
    s.add(Counter::CombMacs, 10);
    s.set(Gauge::GpuOom, 3.0);
    s.addChannelBytes(0, 64);
    s.clear();
    EXPECT_FALSE(s.has("comb.macs"));
    EXPECT_FALSE(s.has("gpu.oom"));
    EXPECT_FALSE(s.has("dram.ch00.bytes"));
}

TEST(StatGroup, CountersIterable)
{
    StatGroup s;
    s.add(Counter::AggEdges, 1);
    s.add(Counter::AggWindows, 2);
    std::uint64_t total = 0;
    s.forEachCounter(
        [&](std::string_view, std::uint64_t v) { total += v; });
    EXPECT_EQ(total, 3u);
}

TEST(Percentile, EmptyAndSingle)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    // numpy.percentile([1..5], p) convention.
    const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0}; // unsorted
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
    EXPECT_DOUBLE_EQ(percentile(v, 10.0), 1.4);
    EXPECT_DOUBLE_EQ(percentile(v, 95.0), 4.8);
}

TEST(Percentile, ClampsOutOfRangeP)
{
    const std::vector<double> v = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 200.0), 2.0);
}
