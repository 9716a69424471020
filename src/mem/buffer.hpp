/**
 * @file
 * On-chip eDRAM buffer bookkeeping. Buffers are capacity constraints
 * for the partitioner plus energy/statistics accounting; their timing
 * effect (double buffering, ping-pong) is realized by the schedulers.
 */

#ifndef HYGCN_MEM_BUFFER_HPP
#define HYGCN_MEM_BUFFER_HPP

#include <cstdint>
#include <string>

#include "sim/energy.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace hygcn {

/** One on-chip eDRAM buffer (Input/Edge/Weight/Output/Aggregation). */
class OnChipBuffer
{
  public:
    /**
     * @param name Stat prefix ("buf.input", ...).
     * @param capacity_bytes Total capacity.
     * @param double_buffered Halves the usable capacity.
     * @param component Energy ledger component this buffer bills to.
     */
    OnChipBuffer(std::string name, std::uint64_t capacity_bytes,
                 bool double_buffered, std::string component,
                 const EnergyTable &energy);

    /** Usable bytes per working set (capacity/2 if double buffered). */
    std::uint64_t usableBytes() const
    {
        return doubleBuffered_ ? capacityBytes_ / 2 : capacityBytes_;
    }

    std::uint64_t capacityBytes() const { return capacityBytes_; }

    /** True if a working set of @p bytes fits. */
    bool fits(std::uint64_t bytes) const { return bytes <= usableBytes(); }

    /** Account a read of @p bytes; charges energy and stats. */
    void read(std::uint64_t bytes, EnergyLedger &ledger, StatGroup &stats);

    /** Account a write of @p bytes; charges energy and stats. */
    void write(std::uint64_t bytes, EnergyLedger &ledger, StatGroup &stats);

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    /** Stat keys name_ + ".read_bytes" / ".write_bytes", built once. */
    std::string readKey_;
    std::string writeKey_;
    std::uint64_t capacityBytes_;
    bool doubleBuffered_;
    std::string component_;
    PicoJoule perByte_;
};

} // namespace hygcn

#endif // HYGCN_MEM_BUFFER_HPP
