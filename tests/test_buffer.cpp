#include <gtest/gtest.h>

#include "mem/buffer.hpp"

using namespace hygcn;

namespace {

/** A buffer that bills Input Buffer bytes to @p component. */
OnChipBuffer
inputBuffer(std::uint64_t capacity, const EnergyTable &e,
            Energy component = Energy::AggEngine)
{
    return OnChipBuffer(capacity, Counter::BufInputReadBytes,
                        Counter::BufInputWriteBytes, component, e);
}

} // namespace

TEST(Buffer, DoubleBufferingHalvesUsable)
{
    const EnergyTable e;
    const OnChipBuffer dbl = inputBuffer(1024, e);
    EXPECT_EQ(dbl.usableBytes(), 512u);
    EXPECT_TRUE(dbl.fits(512));
    EXPECT_FALSE(dbl.fits(513));
}

TEST(Buffer, ReadWriteChargeEnergyAndStats)
{
    const EnergyTable e;
    OnChipBuffer buf = inputBuffer(128 * 1024, e);
    EnergyLedger ledger;
    StatGroup stats;
    buf.read(100, ledger, stats);
    buf.write(50, ledger, stats);
    EXPECT_EQ(stats.get(Counter::BufInputReadBytes), 100u);
    EXPECT_EQ(stats.get(Counter::BufInputWriteBytes), 50u);
    EXPECT_DOUBLE_EQ(ledger.component(Energy::AggEngine),
                     150.0 * e.edramSmallPerByte);
}

TEST(Buffer, LargerBuffersCostMorePerByte)
{
    const EnergyTable e;
    OnChipBuffer small = inputBuffer(128 * 1024, e);
    OnChipBuffer large = inputBuffer(16ull << 20, e);
    EnergyLedger ls, ll;
    StatGroup st;
    small.read(1000, ls, st);
    large.read(1000, ll, st);
    EXPECT_LT(ls.total(), ll.total());
}
