/**
 * Direct assertions on HbmModel address mapping: row-buffer hit/miss
 * accounting and per-channel byte accounting under both
 * lowBitChannelInterleave settings — the coordinated (Fig 17) and
 * baseline address paths.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "mem/dram.hpp"
#include "mem/request.hpp"

using namespace hygcn;

namespace {

std::vector<MemRequest>
sequentialReads(std::size_t count, Addr start = 0)
{
    std::vector<MemRequest> reqs;
    for (std::size_t i = 0; i < count; ++i)
        reqs.push_back({start + i * kLineBytes, 64, false,
                        RequestType::InputFeature});
    return reqs;
}

} // namespace

TEST(HbmMapping, LowBitInterleaveRoundRobinsBytesAcrossChannels)
{
    HbmConfig c;
    c.channels = 4;
    c.lowBitChannelInterleave = true;
    HbmModel hbm(c);
    // 64 consecutive lines: exactly 16 per channel.
    hbm.serviceBatch(sequentialReads(64), 0);
    for (std::uint32_t ch = 0; ch < c.channels; ++ch) {
        EXPECT_EQ(hbm.stats().channelBytes(ch), 16u * 64u) << "channel " << ch;
        char name[32];
        std::snprintf(name, sizeof(name), "dram.ch%02u.bytes", ch);
        EXPECT_EQ(hbm.stats().get(name), 16u * 64u) << name;
    }
}

TEST(HbmMapping, HighBitMappingPinsARegionToOneChannel)
{
    HbmConfig c;
    c.lowBitChannelInterleave = false;
    HbmModel hbm(c);
    // All addresses below 4 GiB: channel = (addr >> 32) % channels = 0.
    hbm.serviceBatch(sequentialReads(64), 0);
    EXPECT_EQ(hbm.stats().channelBytes(0), 64u * 64u);
    for (std::uint32_t ch = 1; ch < c.channels; ++ch)
        EXPECT_EQ(hbm.stats().channelBytes(ch), 0u) << "channel " << ch;
}

TEST(HbmMapping, HighBitMappingSeparatesRegionsByHighBits)
{
    // The AddressMap regions sit 16 GiB apart, so under the baseline
    // high-bit mapping each logical region pins to channel
    // (base >> 32) % 8: edges to 0, input features to 4, weights back
    // to 0 — region streams collide instead of spreading, which is
    // exactly the Fig 17 uncoordinated pathology.
    HbmConfig c;
    c.lowBitChannelInterleave = false;
    HbmModel hbm(c);
    const AddressMap amap;
    hbm.serviceBatch(sequentialReads(8, amap.edgeBase), 0);
    hbm.serviceBatch(sequentialReads(8, amap.inputBase), 0);
    hbm.serviceBatch(sequentialReads(8, amap.weightBase), 0);
    EXPECT_EQ(hbm.stats().channelBytes(0), 2u * 8u * 64u); // edges + weights
    EXPECT_EQ(hbm.stats().channelBytes(4), 8u * 64u);      // input features
    for (std::uint32_t ch : {1u, 2u, 3u, 5u, 6u, 7u})
        EXPECT_EQ(hbm.stats().channelBytes(ch), 0u) << "channel " << ch;

    // The coordinated low-bit remap spreads the same three streams
    // over every channel.
    HbmConfig low;
    HbmModel coordinated(low);
    coordinated.serviceBatch(sequentialReads(8, amap.edgeBase), 0);
    coordinated.serviceBatch(sequentialReads(8, amap.inputBase), 0);
    coordinated.serviceBatch(sequentialReads(8, amap.weightBase), 0);
    for (std::uint32_t ch = 0; ch < low.channels; ++ch)
        EXPECT_EQ(coordinated.stats().channelBytes(ch), 3u * 64u)
            << "channel " << ch;
}

TEST(HbmMapping, LowBitRowTransitionsCountExactMisses)
{
    // One channel, one bank: rowBytes/kLineBytes = 32 lines per row.
    // 64 sequential lines touch exactly two rows.
    HbmConfig c;
    c.channels = 1;
    c.banksPerChannel = 1;
    c.lowBitChannelInterleave = true;
    HbmModel hbm(c);
    hbm.serviceBatch(sequentialReads(64), 0);
    EXPECT_EQ(hbm.stats().get("dram.row_misses"), 2u);
    EXPECT_EQ(hbm.stats().get("dram.row_hits"), 62u);
}

TEST(HbmMapping, LowBitStreamOpensOneRowPerChannelBank)
{
    // 8 channels: 256 lines deal 32 lines into each channel, all of
    // which land in bank 0 row 0 -> one miss per channel.
    HbmConfig c;
    c.lowBitChannelInterleave = true;
    HbmModel hbm(c);
    hbm.serviceBatch(sequentialReads(256), 0);
    EXPECT_EQ(hbm.stats().get("dram.row_misses"), 8u);
    EXPECT_EQ(hbm.stats().get("dram.row_hits"), 256u - 8u);
}

TEST(HbmMapping, HighBitStreamStripesBanksWithinTheChannel)
{
    // High-bit mapping: bank = (line / 32) % 16, so 256 sequential
    // lines touch banks 0..7 of channel 0, 32 lines each -> 8 misses.
    HbmConfig c;
    c.lowBitChannelInterleave = false;
    HbmModel hbm(c);
    hbm.serviceBatch(sequentialReads(256), 0);
    EXPECT_EQ(hbm.stats().get("dram.row_misses"), 8u);
    EXPECT_EQ(hbm.stats().get("dram.row_hits"), 256u - 8u);
    EXPECT_EQ(hbm.stats().channelBytes(0), 256u * 64u);
}

TEST(HbmMapping, RepeatedLineHitsUnderBothMappings)
{
    for (bool low_bit : {true, false}) {
        HbmConfig c;
        c.lowBitChannelInterleave = low_bit;
        HbmModel hbm(c);
        for (int i = 0; i < 5; ++i)
            hbm.serviceOne({0x1000, 64, false, RequestType::Edge}, 0);
        EXPECT_EQ(hbm.stats().get("dram.row_misses"), 1u)
            << "low_bit=" << low_bit;
        EXPECT_EQ(hbm.stats().get("dram.row_hits"), 4u)
            << "low_bit=" << low_bit;
    }
}

TEST(HbmMapping, ChannelBytesSumToTotalTrafficUnderBothMappings)
{
    for (bool low_bit : {true, false}) {
        HbmConfig c;
        c.lowBitChannelInterleave = low_bit;
        HbmModel hbm(c);
        std::uint64_t x = 99;
        for (int i = 0; i < 512; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            hbm.serviceOne({(x % (1ull << 36)) & ~63ull, 64, i % 3 == 0,
                            RequestType::InputFeature},
                           0);
        }
        std::uint64_t per_channel = 0;
        for (std::uint32_t ch = 0; ch < c.channels; ++ch)
            per_channel += hbm.stats().channelBytes(ch);
        EXPECT_EQ(per_channel, hbm.stats().get("dram.read_bytes") +
                                   hbm.stats().get("dram.write_bytes"))
            << "low_bit=" << low_bit;
        EXPECT_EQ(per_channel, 512u * 64u);
    }
}
