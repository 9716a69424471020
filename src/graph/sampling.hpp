/**
 * @file
 * Neighbor sampling (paper Eq. 2, Table 5, Fig 18a-c). GraphSage
 * uniformly samples up to 25 neighbors per vertex; the scalability
 * study instead keeps 1/factor of each vertex's edges. Both produce
 * an EdgeSet whose columns stay sorted so the window machinery works
 * unmodified on sampled graphs.
 */

#ifndef HYGCN_GRAPH_SAMPLING_HPP
#define HYGCN_GRAPH_SAMPLING_HPP

#include <cstdint>

#include "graph/graph.hpp"

namespace hygcn {

/**
 * Deterministic uniform neighbor samplers. The random samplers draw,
 * per column in destination order, a partial Fisher-Yates shuffle of
 * the column's positions from one Rng seeded with @p seed (no draws
 * for a column kept whole), and emit the kept sources in column
 * order: sorted, because the input column is, with no per-column
 * sort. The selection depends only on the seed and the degrees.
 */
class NeighborSampler
{
  public:
    /**
     * Keep at most @p max_neighbors uniformly chosen in-neighbors per
     * destination (GraphSage-style; paper uses 25).
     */
    static EdgeSet sampleMaxNeighbors(const CscView &view,
                                      std::uint32_t max_neighbors,
                                      std::uint64_t seed);

    /**
     * Keep ceil(deg / factor) uniformly chosen in-neighbors per
     * destination (the paper's "sampling factor" sweep; factor 1
     * keeps everything).
     */
    static EdgeSet sampleByFactor(const CscView &view, std::uint32_t factor,
                                  std::uint64_t seed);

    /**
     * Predefined index-interval sampling (paper section 4.2: the
     * Sampler supports "a uniform or predefined distribution in
     * terms of index interval"): keep every factor-th edge of each
     * column, deterministically and without randomness — the variant
     * whose indices can be precomputed and streamed from off-chip.
     */
    static EdgeSet sampleByIndexInterval(const CscView &view,
                                         std::uint32_t factor);
};

} // namespace hygcn

#endif // HYGCN_GRAPH_SAMPLING_HPP
