/**
 * @file
 * Deterministic synthetic graph generators. Because the paper's
 * public datasets cannot be fetched offline, the dataset registry
 * (dataset.hpp) synthesizes graphs with matching vertex/edge counts
 * and degree shapes: R-MAT for power-law graphs (Reddit, COLLAB),
 * Erdos-Renyi-like for the flat-degree citation graphs, and dense
 * small communities for the multi-graph kernels (IMDB, COLLAB).
 */

#ifndef HYGCN_GRAPH_GENERATOR_HPP
#define HYGCN_GRAPH_GENERATOR_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/rng.hpp"

namespace hygcn {

/** Unique undirected edge list type produced by the generators. */
using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/**
 * Uniform random graph: @p num_edges distinct undirected edges chosen
 * uniformly (no self loops). Degree distribution is near-binomial,
 * matching the flat-degree citation graphs.
 */
EdgeList generateUniform(VertexId num_vertices, EdgeId num_edges, Rng &rng);

/**
 * R-MAT power-law generator (a=0.57, b=c=0.19, d=0.05). Produces the
 * heavy-tailed degree distributions of social graphs such as Reddit.
 * Emits exactly @p num_edges distinct undirected edges, clamped to
 * the complete graph's num_vertices * (num_vertices - 1) / 2.
 */
EdgeList generateRmat(VertexId num_vertices, EdgeId num_edges, Rng &rng);

/**
 * A dense community: every vertex connects to @p degree random peers
 * within the community; used for the small kernel graphs of the
 * graph-classification datasets (IMDB-BINARY, COLLAB).
 */
EdgeList generateCommunity(VertexId num_vertices, EdgeId num_edges, Rng &rng);

/**
 * Assemble many generated component graphs into one block-diagonal
 * graph, mirroring the paper's methodology of batching 128 randomly
 * selected kernel graphs into a single large graph.
 *
 * @param component_sizes Vertex count per component.
 * @param component_edges Edge count per component.
 * @param[out] boundaries Prefix vertex offsets per component
 *        (size = components + 1), for Readout.
 */
EdgeList assembleComponents(const std::vector<VertexId> &component_sizes,
                            const std::vector<EdgeId> &component_edges,
                            Rng &rng, std::vector<VertexId> &boundaries);

} // namespace hygcn

#endif // HYGCN_GRAPH_GENERATOR_HPP
