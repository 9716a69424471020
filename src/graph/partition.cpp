#include "graph/partition.hpp"

#include <algorithm>

namespace hygcn {

PartitionDims
computePartitionDims(const PartitionConfig &config)
{
    const std::uint64_t agg_usable =
        config.pingPongAgg ? config.aggBufBytes / 2 : config.aggBufBytes;
    const std::uint64_t input_usable = config.inputBufBytes / 2;
    const std::uint64_t edge_usable = config.edgeBufBytes / 2;

    const std::uint64_t vec_bytes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(config.featureLen) * kElemBytes);

    PartitionDims dims;
    dims.intervalSize = static_cast<VertexId>(
        std::max<std::uint64_t>(1, agg_usable / vec_bytes));
    dims.windowHeight = static_cast<VertexId>(
        std::max<std::uint64_t>(1, input_usable / vec_bytes));
    dims.maxEdgesPerWindow = std::max<EdgeId>(1, edge_usable / kEdgeBytes);
    return dims;
}

} // namespace hygcn
