/**
 * @file
 * Interval/shard partition sizing (paper section 4.3.2). The shard
 * height follows from the Input Buffer capacity, the shard width
 * (destination interval size) from the Aggregation Buffer capacity,
 * and the Edge Buffer bounds the edges a shard may hold. The Input
 * and Edge Buffers are always double-buffered, so a shard may use half
 * of each.
 */

#ifndef HYGCN_GRAPH_PARTITION_HPP
#define HYGCN_GRAPH_PARTITION_HPP

#include <cstdint>

#include "sim/types.hpp"

namespace hygcn {

/** Buffer capacities and feature length driving partition geometry. */
struct PartitionConfig
{
    /** Aggregation Buffer capacity in bytes (16 MB default). */
    std::uint64_t aggBufBytes = 16ull * 1024 * 1024;
    /** Input Buffer capacity in bytes (128 KB default). */
    std::uint64_t inputBufBytes = 128ull * 1024;
    /** Edge Buffer capacity in bytes (2 MB default). */
    std::uint64_t edgeBufBytes = 2ull * 1024 * 1024;
    /** Ping-pong the Aggregation Buffer (halves usable capacity). */
    bool pingPongAgg = true;
    /**
     * Elements per feature vector: the layer input length, of both
     * the source features and the aggregated results.
     */
    int featureLen = 128;
};

/** Concrete shard geometry derived from a PartitionConfig. */
struct PartitionDims
{
    /** Destination vertices per interval (shard width). */
    VertexId intervalSize = 1;
    /** Source vertices per window (shard height). */
    VertexId windowHeight = 1;
    /** Maximum edges a window may accumulate (Edge Buffer bound). */
    EdgeId maxEdgesPerWindow = 1;
};

/**
 * Compute shard geometry from buffer capacities. Every dimension is
 * at least 1 even when a single feature vector exceeds a buffer.
 */
PartitionDims computePartitionDims(const PartitionConfig &config);

} // namespace hygcn

#endif // HYGCN_GRAPH_PARTITION_HPP
