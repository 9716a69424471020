/**
 * @file
 * Off-chip memory request types. Requests are runs of consecutive
 * 64 B lines generated from logical regions (edge array, feature
 * matrices, weights); the coordinator may reorder them by the paper's
 * priority (edges > input features > weights > output features)
 * before the HBM model services them line by line in run order.
 */

#ifndef HYGCN_MEM_REQUEST_HPP
#define HYGCN_MEM_REQUEST_HPP

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace hygcn {

/** Logical origin of a request; defines its coordination priority. */
enum class RequestType : std::uint8_t
{
    Edge = 0,
    InputFeature = 1,
    Weight = 2,
    AggIntermediate = 3, ///< spilled aggregation results (N-PP mode)
    OutputFeature = 4,
};

/** Priority rank (lower = served earlier within a batch). */
inline int
requestPriority(RequestType type)
{
    return static_cast<int>(type);
}

/**
 * A run of @p lines consecutive off-chip line accesses of @p bytes
 * each (at most one line), the first at @p addr: line i sits at
 * addr + i * kLineBytes.
 */
struct MemRequest
{
    Addr addr = 0;
    std::uint32_t bytes = kLineBytes;
    bool isWrite = false;
    RequestType type = RequestType::Edge;
    std::uint64_t lines = 1;
};

/**
 * Disjoint base addresses of the logical regions for one layer run.
 * Regions are spaced 16 GiB apart so they never share DRAM rows.
 */
struct AddressMap
{
    Addr edgeBase = 0x0ull;
    Addr inputBase = 0x4'0000'0000ull;
    Addr weightBase = 0x8'0000'0000ull;
    Addr outputBase = 0xC'0000'0000ull;
    Addr aggBase = 0x10'0000'0000ull;
};

/**
 * Append the run of full lines covering [offset, offset+bytes) of a
 * region starting at @p base (nothing when @p bytes is 0).
 */
void emitLines(std::vector<MemRequest> &out, Addr base, std::uint64_t offset,
               std::uint64_t bytes, RequestType type, bool is_write);

} // namespace hygcn

#endif // HYGCN_MEM_REQUEST_HPP
