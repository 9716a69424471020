/**
 * @file
 * Priority-based off-chip access coordination (paper section 4.5.2,
 * Fig 9). Concurrent requests from the four buffers are assembled by
 * type (edges > input features > weights > output features) to keep
 * row-buffer locality, instead of interleaving streams. The paired
 * address remap (low-bit channel interleave) lives in HbmConfig.
 */

#ifndef HYGCN_MEM_COORDINATOR_HPP
#define HYGCN_MEM_COORDINATOR_HPP

#include <vector>

#include "mem/dram.hpp"
#include "mem/request.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace hygcn {

/** Coordination policy. */
struct CoordinatorConfig
{
    /** Assemble batches by priority (paper's optimization). */
    bool priorityReorder = true;
    /**
     * Without coordination, streams are interleaved round-robin in
     * chunks of this many lines, emulating uncoordinated buffers
     * contending for the memory controller.
     */
    std::uint32_t interleaveChunk = 4;
};

/** Front end through which every engine reaches the shared HBM. */
class MemoryCoordinator
{
  public:
    MemoryCoordinator(HbmModel &hbm, const CoordinatorConfig &config);

    /**
     * Issue a batch of request runs gathered from one or more
     * buffers. With priority reordering the batch is stably sorted
     * by type; otherwise the streams are interleaved chunk-wise to
     * model uncoordinated contention. "coord.requests" counts lines.
     * Returns the batch finish cycle.
     */
    Cycle issueBatch(std::vector<MemRequest> requests, Cycle now);

    const StatGroup &stats() const { return stats_; }

    HbmModel &hbm() { return hbm_; }

  private:
    HbmModel &hbm_;
    CoordinatorConfig config_;
    StatGroup stats_;
};

} // namespace hygcn

#endif // HYGCN_MEM_COORDINATOR_HPP
