/**
 * Semantics of the HbmModel "dram.*" counters, which the model adds
 * to its StatGroup as it services each request: values equal a hand
 * tally of the requests, and a key appears exactly when its event has
 * happened. Also pins the OnChipBuffer stat keys.
 */

#include <gtest/gtest.h>

#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/buffer.hpp"
#include "mem/dram.hpp"
#include "mem/request.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

/** Expected "dram.*" counters, tallied request by request. */
struct Tally
{
    using BankId = std::pair<std::uint64_t, std::uint64_t>;

    HbmConfig config;
    /** Open row per (channel, bank); absent = closed. */
    std::map<BankId, std::uint64_t> openRows;
    StatGroup counters;

    void add(const MemRequest &req)
    {
        // Low-bit channel interleave, as in the HBM model's mapping.
        const std::uint64_t line = req.addr / kLineBytes;
        const std::uint64_t lines_per_row = config.rowBytes / kLineBytes;
        const std::uint64_t channel = line % config.channels;
        const std::uint64_t in_channel = line / config.channels;
        const std::uint64_t bank =
            (in_channel / lines_per_row) % config.banksPerChannel;
        const std::uint64_t row =
            in_channel / (lines_per_row * config.banksPerChannel);

        auto open = openRows.find({channel, bank});
        if (open != openRows.end() && open->second == row) {
            counters.add(Counter::DramRowHits);
        } else {
            counters.add(Counter::DramRowMisses);
            openRows[{channel, bank}] = row;
        }
        counters.add(Counter::DramRequests);
        counters.add(Counter::DramBusyCycles,
                     (req.bytes + config.bytesPerCycle - 1) /
                         config.bytesPerCycle);
        counters.add(req.isWrite ? Counter::DramWriteBytes
                                 : Counter::DramReadBytes,
                     req.bytes);
        counters.addChannelBytes(static_cast<std::uint32_t>(channel),
                                 req.bytes);
    }
};

/** Seeded mixed stream over a few rows: hits, misses, reads, writes. */
std::vector<MemRequest>
mixedStream(std::size_t n, std::uint64_t seed, bool with_writes)
{
    Rng rng(seed);
    std::vector<MemRequest> reqs;
    for (std::size_t i = 0; i < n; ++i) {
        MemRequest req;
        req.addr = rng.nextBounded(256 * 1024);
        req.bytes = static_cast<std::uint32_t>(32 * rng.nextBounded(5));
        req.isWrite = with_writes && rng.nextBounded(3) == 0;
        reqs.push_back(req);
    }
    return reqs;
}

} // namespace

TEST(HbmCounters, MixedStreamMatchesHandTallyAtEveryRead)
{
    HbmModel hbm(HbmConfig{});
    Tally tally;
    const std::vector<MemRequest> reqs = mixedStream(5000, 7, true);
    Cycle now = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        now = hbm.serviceOne(reqs[i], now);
        tally.add(reqs[i]);
        // The counters match the tally part-way, too.
        if (i == 0 || i == 999 || i == 3001) {
            EXPECT_EQ(hbm.stats(), tally.counters) << "after " << i;
        }
    }
    EXPECT_EQ(hbm.stats(), tally.counters);
    EXPECT_GT(tally.counters.get(Counter::DramRowHits), 0u);
    EXPECT_GT(tally.counters.get(Counter::DramRowMisses), 0u);
    EXPECT_GT(tally.counters.get(Counter::DramWriteBytes), 0u);
}

TEST(HbmCounters, ReadOnlyStreamHasNoWriteKey)
{
    HbmModel hbm(HbmConfig{});
    hbm.serviceBatch(mixedStream(500, 3, false), 0);
    const StatGroup &stats = hbm.stats();
    EXPECT_TRUE(stats.has("dram.read_bytes"));
    EXPECT_TRUE(stats.has("dram.requests"));
    EXPECT_FALSE(stats.has("dram.write_bytes"));
}

TEST(HbmCounters, KeyAppearsOnceItsEventHappensEvenAtZero)
{
    HbmModel hbm(HbmConfig{});
    EXPECT_EQ(hbm.stats(), StatGroup());

    // One zero-byte write: a request, a row miss, no bytes.
    hbm.serviceOne({0, 0, true, RequestType::OutputFeature}, 0);
    const StatGroup &stats = hbm.stats();
    EXPECT_TRUE(stats.has("dram.write_bytes"));
    EXPECT_EQ(stats.get("dram.write_bytes"), 0u);
    EXPECT_TRUE(stats.has("dram.busy_cycles"));
    EXPECT_EQ(stats.get("dram.requests"), 1u);
    EXPECT_EQ(stats.get("dram.row_misses"), 1u);
    EXPECT_FALSE(stats.has("dram.row_hits"));
    EXPECT_FALSE(stats.has("dram.read_bytes"));
}

TEST(HbmCounters, OnChipBufferReportsPerNameByteKeys)
{
    const EnergyTable energy;
    OnChipBuffer input(64 * 1024, Counter::BufInputReadBytes,
                       Counter::BufInputWriteBytes, Energy::AggEngine,
                       energy);
    OnChipBuffer output(1024, Counter::BufOutputReadBytes,
                        Counter::BufOutputWriteBytes, Energy::CombEngine,
                        energy);
    EnergyLedger ledger;
    StatGroup stats;
    input.read(100, ledger, stats);
    input.read(28, ledger, stats);
    input.write(64, ledger, stats);
    output.write(7, ledger, stats);
    EXPECT_EQ(stats.get("buf.input.read_bytes"), 128u);
    EXPECT_EQ(stats.get("buf.input.write_bytes"), 64u);
    EXPECT_EQ(stats.get("buf.output.write_bytes"), 7u);
    EXPECT_FALSE(stats.has("buf.output.read_bytes"));
    int written = 0;
    stats.forEachCounter([&](std::string_view, auto) { ++written; });
    EXPECT_EQ(written, 3);
}
