/**
 * The HBM model services a request run in maximal segments of one
 * (channel, bank, row), applying a segment's trailing row hits in
 * bulk. These tests byte-compare it against the plain per-line
 * recurrence it replaces: every run expanded to its lines, each line
 * mapped and serviced on its own. Seeded random batches of runs cross
 * row, bank, channel-wrap and 4-GiB region boundaries under both
 * channel mappings; each batch's finish cycle, every "dram.*" key,
 * the per-channel bytes and the state carried into later batches
 * must match. The coordinator's sorted and chunk-interleaved run
 * batches must match their line-expanded input the same way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mem/coordinator.hpp"
#include "mem/dram.hpp"
#include "mem/request.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

/** The per-line HBM recurrence: each line of a run serviced alone. */
class ReferenceHbm
{
  public:
    explicit ReferenceHbm(const HbmConfig &config)
        : channelBytes(config.channels, 0), config_(config),
          busFree_(config.channels, 0),
          ready_(config.channels * config.banksPerChannel, 0),
          openRow_(config.channels * config.banksPerChannel, -1)
    {
    }

    Cycle serviceBatch(const std::vector<MemRequest> &runs, Cycle start)
    {
        Cycle finish = start;
        for (const MemRequest &run : runs)
            for (std::uint64_t i = 0; i < run.lines; ++i)
                finish = std::max(
                    finish, serviceLine(run.addr + i * kLineBytes,
                                        run.bytes, run.isWrite, start));
        return finish;
    }

    /** "dram.*" counters; a row is written once its event happens. */
    StatGroup counters;
    std::vector<std::uint64_t> channelBytes;

  private:
    Cycle serviceLine(Addr addr, std::uint32_t bytes, bool is_write,
                      Cycle start)
    {
        const Addr line = addr / kLineBytes;
        const std::uint64_t lines_per_row = config_.rowBytes / kLineBytes;
        std::uint64_t channel = 0, bank = 0;
        std::int64_t row = 0;
        if (config_.lowBitChannelInterleave) {
            channel = line % config_.channels;
            const Addr in_channel = line / config_.channels;
            bank = (in_channel / lines_per_row) % config_.banksPerChannel;
            row = static_cast<std::int64_t>(
                in_channel / (lines_per_row * config_.banksPerChannel));
        } else {
            channel = (addr >> 32) % config_.channels;
            bank = (line / lines_per_row) % config_.banksPerChannel;
            row = static_cast<std::int64_t>(
                line / (lines_per_row * config_.banksPerChannel));
        }
        const std::size_t b = channel * config_.banksPerChannel + bank;

        Cycle cas_issue = std::max(start, ready_[b]);
        if (openRow_[b] == row) {
            counters.add(Counter::DramRowHits);
        } else {
            cas_issue += config_.tRP + config_.tRCD;
            counters.add(Counter::DramRowMisses);
            openRow_[b] = row;
        }
        const Cycle burst =
            (bytes + config_.bytesPerCycle - 1) / config_.bytesPerCycle;
        const Cycle data_start =
            std::max(cas_issue + config_.tCAS, busFree_[channel]);
        const Cycle end = data_start + burst;
        busFree_[channel] = end;
        ready_[b] = cas_issue + burst;

        counters.add(Counter::DramRequests);
        counters.add(Counter::DramBusyCycles, burst);
        counters.add(is_write ? Counter::DramWriteBytes
                              : Counter::DramReadBytes,
                     bytes);
        channelBytes[channel] += bytes;
        counters.addChannelBytes(static_cast<std::uint32_t>(channel), bytes);
        return end;
    }

    HbmConfig config_;
    std::vector<Cycle> busFree_;
    std::vector<Cycle> ready_;
    std::vector<std::int64_t> openRow_;
};

constexpr Addr kRegion = Addr{1} << 32;

/**
 * Seeded runs of every type: some long enough to wrap the channels
 * and cross rows and banks, some ending just short of a 4-GiB region
 * boundary so they cross it, 0-byte lines and empty runs included.
 */
std::vector<MemRequest>
randomRuns(Rng &rng, std::size_t count, const HbmConfig &config)
{
    const std::uint64_t lines_per_row = config.rowBytes / kLineBytes;
    const std::uint64_t long_run =
        2 * config.channels * lines_per_row * config.banksPerChannel;
    std::vector<MemRequest> runs;
    for (std::size_t i = 0; i < count; ++i) {
        MemRequest run;
        const Addr region = rng.nextBounded(6) * kRegion;
        switch (rng.nextBounded(4)) {
          case 0: // near the region start
            run.addr = region + rng.nextBounded(4 * long_run) * kLineBytes;
            break;
          case 1: // ending just past the next region boundary
            run.addr = region + kRegion -
                       (1 + rng.nextBounded(3 * lines_per_row)) * kLineBytes;
            break;
          default: // anywhere in a small window, unaligned at times
            run.addr = region + rng.nextBounded(1 << 20);
            break;
        }
        // One run in eight is empty, three are short, four are long.
        const std::uint64_t shape = rng.nextBounded(8);
        run.lines = 0;
        if (shape >= 4)
            run.lines = 1 + rng.nextBounded(long_run);
        else if (shape >= 1)
            run.lines = 1 + rng.nextBounded(4);
        const std::uint32_t sizes[] = {0, 24, 32, 64};
        run.bytes = sizes[rng.nextBounded(4)];
        run.isWrite = rng.nextBounded(3) == 0;
        run.type = static_cast<RequestType>(rng.nextBounded(5));
        runs.push_back(run);
    }
    return runs;
}

/** Every run split into one-line runs, in order. */
std::vector<MemRequest>
expandLines(const std::vector<MemRequest> &runs)
{
    std::vector<MemRequest> lines;
    for (const MemRequest &run : runs)
        for (std::uint64_t i = 0; i < run.lines; ++i) {
            MemRequest line = run;
            line.addr += i * kLineBytes;
            line.lines = 1;
            lines.push_back(line);
        }
    return lines;
}

/** Compare model and reference counters and per-channel bytes. */
void
expectSameCounters(HbmModel &hbm, const ReferenceHbm &ref,
                   const std::string &where)
{
    EXPECT_EQ(hbm.stats(), ref.counters) << where;
    for (std::uint32_t ch = 0; ch < hbm.config().channels; ++ch)
        EXPECT_EQ(hbm.stats().channelBytes(ch), ref.channelBytes[ch])
            << where << " channel " << ch;
}

/** The HBM geometries under test: both mappings, odd channel counts,
 *  one-line and 64-line rows, a row that does not divide 4 GiB (so a
 *  region boundary falls inside a row), narrow and wide buses. */
std::vector<HbmConfig>
configs()
{
    std::vector<HbmConfig> out;
    for (bool low_bit : {true, false})
        for (std::uint32_t channels : {3u, 5u, 8u})
            for (std::uint32_t row_bytes : {64u, 192u, 4096u})
                for (std::uint32_t bytes_per_cycle : {24u, 128u}) {
                    HbmConfig config;
                    config.lowBitChannelInterleave = low_bit;
                    config.channels = channels;
                    config.banksPerChannel = channels == 8 ? 16 : 4;
                    config.rowBytes = row_bytes;
                    config.bytesPerCycle = bytes_per_cycle;
                    out.push_back(config);
                }
    return out;
}

std::string
label(const HbmConfig &config)
{
    return std::string(config.lowBitChannelInterleave ? "low" : "high") +
           "/ch" + std::to_string(config.channels) + "/row" +
           std::to_string(config.rowBytes) + "/bpc" +
           std::to_string(config.bytesPerCycle);
}

} // namespace

TEST(HbmRuns, BatchesMatchPerLineReference)
{
    for (const HbmConfig &config : configs()) {
        Rng rng(0x5eed ^ config.channels ^ (config.rowBytes << 8) ^
                (config.bytesPerCycle << 20) ^
                (config.lowBitChannelInterleave ? 1ull << 40 : 0));
        HbmModel hbm(config);
        ReferenceHbm ref(config);
        Cycle last = 0;
        for (int batch = 0; batch < 12; ++batch) {
            const std::vector<MemRequest> runs =
                randomRuns(rng, 1 + rng.nextBounded(12), config);
            // Starts before the banks free up (0, or inside the last
            // batch) and after the last batch has drained.
            Cycle start = 0;
            if (batch % 3 == 1)
                start = rng.nextBounded(last + 1);
            else if (batch % 3 == 2)
                start = last + rng.nextBounded(100);
            const std::string where =
                label(config) + " batch " + std::to_string(batch);
            const Cycle expected = ref.serviceBatch(runs, start);
            ASSERT_EQ(hbm.serviceBatch(runs, start), expected) << where;
            expectSameCounters(hbm, ref, where);
            last = expected;
        }
    }
}

TEST(HbmRuns, CarriedStateMatchesPerLineReference)
{
    // After a random history, one line to every (channel, bank) of a
    // fresh copy exposes the open row (hit or miss), the bank's ready
    // cycle and the channel's bus: each probe must finish alike.
    for (const HbmConfig &config : configs()) {
        Rng rng(77 + config.channels + config.rowBytes);
        HbmModel hbm(config);
        ReferenceHbm ref(config);
        for (int batch = 0; batch < 4; ++batch) {
            const std::vector<MemRequest> runs = randomRuns(rng, 8, config);
            hbm.serviceBatch(runs, 0);
            ref.serviceBatch(runs, 0);
        }
        const std::uint64_t lines_per_row = config.rowBytes / kLineBytes;
        // Two rows of every bank of every channel.
        for (std::uint64_t j = 0; j < 2 * config.banksPerChannel; ++j) {
            for (std::uint32_t c = 0; c < config.channels; ++c) {
                const Addr line =
                    config.lowBitChannelInterleave
                        ? j * lines_per_row * config.channels + c
                        : c * (kRegion / kLineBytes) + j * lines_per_row;
                const Addr addr = line * kLineBytes;
                const std::vector<MemRequest> probe = {
                    {addr, 64, false, RequestType::Edge}};
                HbmModel hbm_probe = hbm;
                ReferenceHbm ref_probe = ref;
                const std::string where =
                    label(config) + " probe " + std::to_string(addr);
                ASSERT_EQ(hbm_probe.serviceBatch(probe, 0),
                          ref_probe.serviceBatch(probe, 0))
                    << where;
                expectSameCounters(hbm_probe, ref_probe, where);
            }
        }
    }
}

TEST(HbmRuns, HighBitRunAcrossRegionBoundarySwitchesChannel)
{
    // Eight lines straddling the first 4-GiB boundary: four land on
    // channel 0, four on channel 1, whatever the row size.
    for (std::uint32_t row_bytes : {192u, 2048u}) {
        HbmConfig config;
        config.lowBitChannelInterleave = false;
        config.rowBytes = row_bytes;
        HbmModel hbm(config);
        ReferenceHbm ref(config);
        const std::vector<MemRequest> runs = {
            {kRegion - 4 * kLineBytes, 64, false, RequestType::Edge, 8}};
        EXPECT_EQ(hbm.serviceBatch(runs, 0), ref.serviceBatch(runs, 0));
        EXPECT_EQ(hbm.stats().channelBytes(0), 4u * 64);
        EXPECT_EQ(hbm.stats().channelBytes(1), 4u * 64);
        expectSameCounters(hbm, ref, "row " + std::to_string(row_bytes));
    }
}

TEST(HbmRuns, CoordinatorRunsMatchTheirExpandedLines)
{
    // Sorting runs by priority, or interleaving them chunk-wise,
    // must service the same lines in the same order as doing so to
    // the line-expanded batch.
    for (const HbmConfig &config : configs()) {
        for (std::uint32_t chunk : {0u, 1u, 3u, 4u, 7u}) {
            CoordinatorConfig coord;
            // Chunk 0 stands for the priority-sorted coordinator.
            coord.priorityReorder = chunk == 0;
            coord.interleaveChunk = chunk;
            HbmModel hbm_runs(config), hbm_lines(config);
            MemoryCoordinator runs_coord(hbm_runs, coord);
            MemoryCoordinator lines_coord(hbm_lines, coord);
            Rng rng(chunk * 1000 + config.channels + config.rowBytes);
            for (int batch = 0; batch < 6; ++batch) {
                const std::vector<MemRequest> runs =
                    randomRuns(rng, 1 + rng.nextBounded(10), config);
                const Cycle start = rng.nextBounded(2000);
                const std::string where = label(config) + " chunk " +
                                          std::to_string(chunk) + " batch " +
                                          std::to_string(batch);
                ASSERT_EQ(runs_coord.issueBatch(runs, start),
                          lines_coord.issueBatch(expandLines(runs), start))
                    << where;
                EXPECT_EQ(runs_coord.stats(), lines_coord.stats())
                    << where;
                EXPECT_EQ(hbm_runs.stats(), hbm_lines.stats())
                    << where;
            }
        }
    }
}
