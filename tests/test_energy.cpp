#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/energy.hpp"
#include "sim/report.hpp"

using namespace hygcn;

TEST(EnergyTable, EdramTiersMonotonic)
{
    const EnergyTable e;
    EXPECT_LE(e.edramPerByte(128 * 1024), e.edramPerByte(1 << 21));
    EXPECT_LE(e.edramPerByte(1 << 21), e.edramPerByte(16ull << 20));
}

TEST(EnergyTable, HbmMatchesPaperConstant)
{
    const EnergyTable e;
    // The paper's HBM energy: 7 pJ/bit = 56 pJ/byte.
    EXPECT_DOUBLE_EQ(e.hbmPerByte(), 56.0);
}

TEST(EnergyLedger, TotalSumsComponents)
{
    EnergyLedger l;
    l.charge(Energy::AggEngine, 10.0);
    l.charge(Energy::CombEngine, 5.0);
    l.charge(Energy::AggEngine, 2.5);
    EXPECT_DOUBLE_EQ(l.total(), 17.5);
    EXPECT_DOUBLE_EQ(l.component(Energy::AggEngine), 12.5);
    EXPECT_DOUBLE_EQ(l.component("comb_engine"), 5.0);
    EXPECT_DOUBLE_EQ(l.component(Energy::Dram), 0.0);
    EXPECT_THROW(l.component("missing"), std::invalid_argument);
}

TEST(EnergyLedger, MergeAccumulates)
{
    EnergyLedger a, b;
    a.charge(Energy::Dram, 1.0);
    b.charge(Energy::Dram, 2.0);
    b.charge(Energy::Coordinator, 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.component(Energy::Dram), 3.0);
    EXPECT_DOUBLE_EQ(a.component(Energy::Coordinator), 3.0);
    EXPECT_DOUBLE_EQ(a.total(), 6.0);
}

TEST(SimReport, SecondsFromCycles)
{
    SimReport r;
    r.cycles = 2'000'000'000ull;
    r.clockHz = 1e9;
    EXPECT_DOUBLE_EQ(r.seconds(), 2.0);
}

TEST(SimReport, JoulesFromPicojoules)
{
    SimReport r;
    r.energy.charge(Energy::Dram, 1e12); // 1 J
    EXPECT_DOUBLE_EQ(r.joules(), 1.0);
}

TEST(SimReport, DramBytesSumsReadsAndWrites)
{
    SimReport r;
    r.stats.add(Counter::DramReadBytes, 100);
    r.stats.add(Counter::DramWriteBytes, 28);
    EXPECT_EQ(r.dramBytes(), 128u);
}

TEST(SimReport, BandwidthUtilization)
{
    SimReport r;
    r.cycles = 1'000'000'000ull; // 1 s at 1 GHz
    r.clockHz = 1e9;
    r.stats.add(Counter::DramReadBytes, 128'000'000'000ull);
    EXPECT_NEAR(r.bandwidthUtilization(256e9), 0.5, 1e-9);
    EXPECT_EQ(r.bandwidthUtilization(0.0), 0.0);
}

TEST(SimReport, Formatters)
{
    EXPECT_EQ(formatSeconds(0.0025), "2.5 ms");
    EXPECT_EQ(formatJoules(3.2e-6), "3.2 uJ");
    EXPECT_EQ(formatBytes(2048.0), "2 KiB");
}
