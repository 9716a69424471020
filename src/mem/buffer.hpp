/**
 * @file
 * On-chip eDRAM buffer bookkeeping. Buffers are capacity constraints
 * for the partitioner plus energy/statistics accounting; their timing
 * effect (double buffering, ping-pong) is realized by the schedulers.
 */

#ifndef HYGCN_MEM_BUFFER_HPP
#define HYGCN_MEM_BUFFER_HPP

#include <cstdint>

#include "sim/energy.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace hygcn {

/**
 * One double-buffered on-chip eDRAM buffer (Input/Edge/Weight/
 * Output/Aggregation): each working set gets half the capacity.
 */
class OnChipBuffer
{
  public:
    /**
     * @param capacity_bytes Total capacity.
     * @param read_bytes Counter its reads add to ("buf.input.read_bytes").
     * @param write_bytes Counter its writes add to.
     * @param component Energy component its accesses charge.
     */
    OnChipBuffer(std::uint64_t capacity_bytes, Counter read_bytes,
                 Counter write_bytes, Energy component,
                 const EnergyTable &energy);

    /** Usable bytes per working set: half the capacity. */
    std::uint64_t usableBytes() const { return capacityBytes_ / 2; }

    std::uint64_t capacityBytes() const { return capacityBytes_; }

    /** True if a working set of @p bytes fits. */
    bool fits(std::uint64_t bytes) const { return bytes <= usableBytes(); }

    /** Account a read of @p bytes; charges energy and stats. */
    void read(std::uint64_t bytes, EnergyLedger &ledger, StatGroup &stats);

    /** Account a write of @p bytes; charges energy and stats. */
    void write(std::uint64_t bytes, EnergyLedger &ledger, StatGroup &stats);

  private:
    std::uint64_t capacityBytes_;
    Counter readBytes_;
    Counter writeBytes_;
    Energy component_;
    PicoJoule perByte_;
};

} // namespace hygcn

#endif // HYGCN_MEM_BUFFER_HPP
