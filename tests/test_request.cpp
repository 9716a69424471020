#include <gtest/gtest.h>

#include "mem/request.hpp"

using namespace hygcn;

TEST(Request, PriorityOrderMatchesPaper)
{
    // edges > input features > weights > output features.
    EXPECT_LT(requestPriority(RequestType::Edge),
              requestPriority(RequestType::InputFeature));
    EXPECT_LT(requestPriority(RequestType::InputFeature),
              requestPriority(RequestType::Weight));
    EXPECT_LT(requestPriority(RequestType::Weight),
              requestPriority(RequestType::OutputFeature));
}

TEST(Request, EmitLinesCoversRange)
{
    // One run of the range's four lines.
    std::vector<MemRequest> reqs;
    emitLines(reqs, 0, 0, 256, RequestType::Edge, false);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].addr, 0u);
    EXPECT_EQ(reqs[0].lines, 4u);
    EXPECT_EQ(reqs[0].bytes, 64u);
    EXPECT_EQ(reqs[0].type, RequestType::Edge);
    EXPECT_FALSE(reqs[0].isWrite);
}

TEST(Request, EmitLinesUnalignedSpansExtraLine)
{
    std::vector<MemRequest> reqs;
    emitLines(reqs, 0, 60, 8, RequestType::Weight, true);
    // Bytes [60, 68) touch lines 0 and 1.
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].addr, 0u);
    EXPECT_EQ(reqs[0].lines, 2u);
    EXPECT_EQ(reqs[0].type, RequestType::Weight);
    EXPECT_TRUE(reqs[0].isWrite);
}

TEST(Request, EmitLinesZeroBytesNoop)
{
    std::vector<MemRequest> reqs;
    emitLines(reqs, 0, 128, 0, RequestType::Edge, false);
    EXPECT_TRUE(reqs.empty());
}

TEST(Request, EmitLinesAppends)
{
    std::vector<MemRequest> reqs;
    emitLines(reqs, 0, 0, 64, RequestType::Edge, false);
    emitLines(reqs, 1 << 20, 0, 64, RequestType::Weight, false);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[1].type, RequestType::Weight);
    EXPECT_EQ(reqs[1].addr, 1u << 20);
}

TEST(Request, AddressMapRegionsDisjoint)
{
    const AddressMap amap;
    const Addr bases[] = {amap.edgeBase, amap.inputBase,
                          amap.weightBase, amap.outputBase,
                          amap.aggBase};
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = i + 1; j < 5; ++j)
            EXPECT_GE(std::max(bases[i], bases[j]) -
                          std::min(bases[i], bases[j]),
                      1ull << 32);
}
