#include "graph/sampling.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

namespace hygcn {

namespace {

/**
 * Shared implementation: @p keep_of(deg) returns how many neighbors
 * of a degree-deg vertex survive. Selection is a partial Fisher-Yates
 * over the column's positions; the kept positions are marked in a
 * bitmap and emitted in ascending order, which keeps the already
 * sorted column sorted without a sort.
 */
template <typename KeepOf>
EdgeSet
sampleColumns(const CscView &view, KeepOf keep_of, std::uint64_t seed)
{
    std::vector<EdgeId> col_ptr(view.numVertices + 1, 0);
    for (VertexId dst = 0; dst < view.numVertices; ++dst) {
        const EdgeId deg = view.inDegree(dst);
        col_ptr[dst + 1] =
            col_ptr[dst] + std::min<EdgeId>(deg, keep_of(deg));
    }
    std::vector<VertexId> row_idx(col_ptr.back());

    Rng rng(seed);
    std::vector<EdgeId> positions;
    std::vector<std::uint64_t> kept;
    for (VertexId dst = 0; dst < view.numVertices; ++dst) {
        auto srcs = view.sources(dst);
        const EdgeId deg = srcs.size();
        const EdgeId keep = col_ptr[dst + 1] - col_ptr[dst];
        VertexId *out = row_idx.data() + col_ptr[dst];
        if (keep == deg) {
            std::copy(srcs.begin(), srcs.end(), out);
            continue;
        }
        positions.resize(deg);
        std::iota(positions.begin(), positions.end(), EdgeId{0});
        kept.assign((deg + 63) / 64, 0);
        for (EdgeId i = 0; i < keep; ++i) {
            const EdgeId j = i + rng.nextBounded(deg - i);
            std::swap(positions[i], positions[j]);
            const EdgeId p = positions[i];
            kept[p / 64] |= std::uint64_t{1} << (p % 64);
        }
        for (std::size_t w = 0; w < kept.size(); ++w)
            for (std::uint64_t bits = kept[w]; bits != 0; bits &= bits - 1)
                *out++ = srcs[w * 64 + std::countr_zero(bits)];
    }
    return EdgeSet::fromRaw(view.numVertices, std::move(col_ptr),
                            std::move(row_idx));
}

} // namespace

EdgeSet
NeighborSampler::sampleMaxNeighbors(const CscView &view,
                                    std::uint32_t max_neighbors,
                                    std::uint64_t seed)
{
    if (max_neighbors == 0)
        throw std::invalid_argument("max_neighbors must be positive");
    return sampleColumns(
        view, [max_neighbors](EdgeId) { return EdgeId(max_neighbors); },
        seed);
}

EdgeSet
NeighborSampler::sampleByFactor(const CscView &view, std::uint32_t factor,
                                std::uint64_t seed)
{
    if (factor == 0)
        throw std::invalid_argument("sampling factor must be positive");
    return sampleColumns(
        view,
        [factor](EdgeId deg) { return (deg + factor - 1) / factor; },
        seed);
}

EdgeSet
NeighborSampler::sampleByIndexInterval(const CscView &view,
                                       std::uint32_t factor)
{
    if (factor == 0)
        throw std::invalid_argument("sampling factor must be positive");
    std::vector<EdgeId> col_ptr(view.numVertices + 1, 0);
    std::vector<VertexId> row_idx;
    for (VertexId dst = 0; dst < view.numVertices; ++dst) {
        auto srcs = view.sources(dst);
        for (EdgeId i = 0; i < srcs.size(); i += factor)
            row_idx.push_back(srcs[i]);
        col_ptr[dst + 1] = row_idx.size();
    }
    return EdgeSet::fromRaw(view.numVertices, std::move(col_ptr),
                            std::move(row_idx));
}

} // namespace hygcn
