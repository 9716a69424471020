/**
 * @file
 * HBM 1.0 timing model (Ramulator substitute, README.md modelling
 * substitution 2): 8 channels x 16 banks, 2 KB row buffer, 32 B/cycle
 * per channel at 1 GHz = 256 GB/s aggregate. Models row-buffer
 * hits/misses, bank readiness, and channel data-bus occupancy;
 * supports the low-bit channel interleave the coordinator enables
 * and a high-bit mapping for the uncoordinated baseline (Fig 17).
 */

#ifndef HYGCN_MEM_DRAM_HPP
#define HYGCN_MEM_DRAM_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "mem/request.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace hygcn {

/** HBM organization and timing (cycles at the 1 GHz core clock). */
struct HbmConfig
{
    std::uint32_t channels = 8;
    std::uint32_t banksPerChannel = 16;
    std::uint32_t rowBytes = 2048;
    Cycle tRP = 14;   ///< precharge
    Cycle tRCD = 14;  ///< activate-to-read
    Cycle tCAS = 14;  ///< read latency
    /** Data-bus bytes per cycle per channel (32 => 256 GB/s total). */
    std::uint32_t bytesPerCycle = 32;
    /**
     * Address mapping: true = consecutive lines round-robin across
     * channels (the coordinator's remap); false = channel from high
     * address bits (regions pin to channels; baseline).
     */
    bool lowBitChannelInterleave = true;

    /** Aggregate peak bandwidth in bytes/second at 1 GHz. */
    double peakBytesPerSec() const
    { return static_cast<double>(channels) * bytesPerCycle * 1e9; }
};

/** Stateful HBM device model. */
class HbmModel
{
  public:
    explicit HbmModel(const HbmConfig &config);

    /**
     * Service the lines of @p requests in the given order starting no
     * earlier than @p start. Returns the cycle the last data beat
     * completes. Bank/row/bus state persists across batches.
     */
    Cycle serviceBatch(std::span<const MemRequest> requests, Cycle start);

    /** Convenience: service a single request run. */
    Cycle serviceOne(const MemRequest &request, Cycle start);

    /**
     * Accumulated statistics: "dram.*" counters (row hits and misses,
     * requests, busy cycles, read and write bytes) and per-channel
     * bytes. A counter appears once its event has happened: a
     * zero-byte read still creates "dram.read_bytes", and
     * "dram.row_hits" waits for the first row hit.
     */
    const StatGroup &stats() const { return stats_; }

    /** Forget open rows and busy state; keep statistics. */
    void resetTiming();

    const HbmConfig &config() const { return config_; }

  private:
    struct Bank
    {
        Cycle ready = 0;
        std::int64_t openRow = -1;
    };
    struct Channel
    {
        Cycle busFree = 0;
        std::vector<Bank> banks;
    };

    /**
     * Where a line lives, and how many of its channel's lines from it
     * on (every channels-th line under low-bit interleave, every line
     * under high-bit mapping) share its (channel, bank, row).
     */
    struct Segment
    {
        std::uint32_t channel = 0;
        std::uint32_t bank = 0;
        std::int64_t row = 0;
        std::uint64_t lines = 0;
    };

    /** The segment that starts at line index @p line. */
    Segment segmentAt(Addr line) const;

    /**
     * Service the first @p lines lines of @p seg, each of
     * @p bytes bytes. Returns the cycle the last data beat completes.
     */
    Cycle serviceSegment(const Segment &seg, std::uint64_t lines,
                         std::uint32_t bytes, bool is_write, Cycle start);

    HbmConfig config_;
    std::vector<Channel> channels_;
    StatGroup stats_;
};

} // namespace hygcn

#endif // HYGCN_MEM_DRAM_HPP
