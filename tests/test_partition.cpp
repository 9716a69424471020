#include <gtest/gtest.h>

#include "graph/partition.hpp"

using namespace hygcn;

TEST(Partition, Table6DefaultsGeometry)
{
    PartitionConfig pc;
    pc.featureLen = 128;
    const PartitionDims dims = computePartitionDims(pc);
    // 16 MB / 2 (ping-pong) / 512 B = 16384 destinations.
    EXPECT_EQ(dims.intervalSize, 16384u);
    // 128 KB / 2 / 512 B = 128 source rows.
    EXPECT_EQ(dims.windowHeight, 128u);
    // 2 MB / 2 / 8 B = 131072 edges.
    EXPECT_EQ(dims.maxEdgesPerWindow, 131072u);
}

TEST(Partition, LongFeaturesShrinkWindows)
{
    PartitionConfig pc;
    pc.featureLen = 3703; // Citeseer
    const PartitionDims dims = computePartitionDims(pc);
    EXPECT_EQ(dims.windowHeight,
              (128u * 1024 / 2) / (3703 * 4));
    EXPECT_EQ(dims.intervalSize,
              (16u * 1024 * 1024 / 2) / (3703 * 4));
}

TEST(Partition, NoPingPongDoublesInterval)
{
    PartitionConfig pc;
    pc.featureLen = 128;
    pc.pingPongAgg = false;
    const PartitionDims dims = computePartitionDims(pc);
    EXPECT_EQ(dims.intervalSize, 32768u);
}

TEST(Partition, NeverZeroEvenForHugeFeatures)
{
    PartitionConfig pc;
    pc.featureLen = 1 << 24; // absurdly long vector
    const PartitionDims dims = computePartitionDims(pc);
    EXPECT_GE(dims.intervalSize, 1u);
    EXPECT_GE(dims.windowHeight, 1u);
    EXPECT_GE(dims.maxEdgesPerWindow, 1u);
}

class PartitionSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PartitionSweep, MonotoneInBufferCapacity)
{
    const int f = GetParam();
    PartitionConfig small;
    small.featureLen = f;
    small.aggBufBytes = 2ull << 20;
    PartitionConfig big = small;
    big.aggBufBytes = 32ull << 20;
    EXPECT_LE(computePartitionDims(small).intervalSize,
              computePartitionDims(big).intervalSize);
}

INSTANTIATE_TEST_SUITE_P(FeatureLens, PartitionSweep,
                         ::testing::Values(16, 128, 500, 1433, 3703));
