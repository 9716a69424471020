/**
 * @file
 * Graph substrate: compressed sparse column/row storage for the
 * benchmark graphs (Table 4 of the paper). The Aggregation Engine
 * consumes the CSC form directly (destination-major in-edges), which
 * is the layout the paper's interval/shard partitioning assumes.
 */

#ifndef HYGCN_GRAPH_GRAPH_HPP
#define HYGCN_GRAPH_GRAPH_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace hygcn {

/**
 * A read-only destination-major adjacency view: for each destination
 * column, the sorted list of source rows. Both the full graph CSC and
 * sampled edge subsets expose this shape, so the partitioning and the
 * engines are agnostic to sampling.
 */
struct CscView
{
    /** Number of vertices (columns == rows for square adjacency). */
    VertexId numVertices = 0;
    /** Column offsets, size numVertices + 1. */
    std::span<const EdgeId> colPtr;
    /** Source row indices, sorted within each column. */
    std::span<const VertexId> rowIdx;

    /** Number of directed edges in the view. */
    EdgeId numEdges() const { return colPtr.empty() ? 0 : colPtr.back(); }

    /** In-degree of destination @p v. */
    EdgeId inDegree(VertexId v) const { return colPtr[v + 1] - colPtr[v]; }

    /** Sources of destination @p v, sorted ascending. */
    std::span<const VertexId> sources(VertexId v) const
    {
        return rowIdx.subspan(colPtr[v], colPtr[v + 1] - colPtr[v]);
    }
};

/**
 * An in-memory graph holding both CSC (in-edges) and CSR (out-edges)
 * forms. Vertices are dense ids [0, numVertices).
 */
class Graph
{
  public:
    Graph() = default;

    /**
     * Build from a directed edge list. Duplicate edges are kept (the
     * datasets never contain them; generators deduplicate).
     *
     * @param num_vertices Vertex count; all endpoints must be smaller.
     * @param edges (src, dst) pairs.
     * @param symmetrize If true, also insert (dst, src) for every edge
     *        (undirected graphs, the paper's default).
     */
    static Graph fromEdges(VertexId num_vertices,
                           std::vector<std::pair<VertexId, VertexId>> edges,
                           bool symmetrize);

    /**
     * Disjoint union of @p copies copies of this graph, copy c taking
     * vertices [c * n, (c + 1) * n): the CSC and CSR arrays tiled with
     * vertex and edge offsets, so every column and row stays sorted.
     * Equal, array for array, to fromEdges() over each copy's edges
     * with symmetrize = false.
     *
     * @throws std::invalid_argument if @p copies is 0 or the vertex
     *         count overflows VertexId.
     */
    Graph blockDiagonal(std::uint32_t copies) const;

    /** Vertex count. */
    VertexId numVertices() const { return numVertices_; }

    /** Directed edge count (after symmetrization, if any). */
    EdgeId numEdges() const { return colPtr_.empty() ? 0 : colPtr_.back(); }

    /** In-degree of @p v. */
    EdgeId inDegree(VertexId v) const { return colPtr_[v + 1] - colPtr_[v]; }

    /** Out-degree of @p v. */
    EdgeId outDegree(VertexId v) const { return rowPtr_[v + 1] - rowPtr_[v]; }

    /** Destination-major view (in-edges). */
    CscView csc() const
    {
        return {numVertices_, std::span(colPtr_), std::span(rowIdx_)};
    }

    /** Sources of in-edges of @p v, sorted. */
    std::span<const VertexId> inNeighbors(VertexId v) const
    {
        return {rowIdx_.data() + colPtr_[v],
                static_cast<std::size_t>(colPtr_[v + 1] - colPtr_[v])};
    }

    /** Destinations of out-edges of @p v, sorted. */
    std::span<const VertexId> outNeighbors(VertexId v) const
    {
        return {colIdx_.data() + rowPtr_[v],
                static_cast<std::size_t>(rowPtr_[v + 1] - rowPtr_[v])};
    }

    /** True if edge (src, dst) exists; O(log deg). */
    bool hasEdge(VertexId src, VertexId dst) const;

    /** Approximate in-memory footprint in bytes (CSC + CSR arrays). */
    std::uint64_t storageBytes() const;

  private:
    VertexId numVertices_ = 0;
    // CSC: in-edges grouped by destination column.
    std::vector<EdgeId> colPtr_;
    std::vector<VertexId> rowIdx_;
    // CSR: out-edges grouped by source row.
    std::vector<EdgeId> rowPtr_;
    std::vector<VertexId> colIdx_;
};

/**
 * An owning destination-major edge set derived from a graph: the
 * model layer materializes one per layer, optionally with sampling
 * applied and self-loops inserted (GCN adds v to N(v); GIN scales the
 * self edge by 1 + epsilon). The engines and the partitioner operate
 * on this, never on the raw Graph.
 */
class EdgeSet
{
  public:
    EdgeSet() = default;

    /** Wrap a full graph without modification. */
    static EdgeSet fromGraph(const Graph &graph, bool add_self_loops);

    /**
     * Copy any destination-major view, optionally inserting a self
     * loop into every column that lacks one (keeping columns sorted).
     */
    static EdgeSet fromView(const CscView &view, bool add_self_loops);

    /** Build from explicit per-column sorted sources. */
    static EdgeSet fromColumns(VertexId num_vertices,
                               const std::vector<std::vector<VertexId>> &cols);

    /**
     * Adopt prebuilt CSC arrays. @p col_ptr must have num_vertices+1
     * monotone entries and @p row_idx sorted sources per column.
     */
    static EdgeSet fromRaw(VertexId num_vertices,
                           std::vector<EdgeId> col_ptr,
                           std::vector<VertexId> row_idx);

    /** View over the stored arrays. */
    CscView view() const
    {
        return {numVertices_, std::span(colPtr_), std::span(rowIdx_)};
    }

    VertexId numVertices() const { return numVertices_; }
    EdgeId numEdges() const { return colPtr_.empty() ? 0 : colPtr_.back(); }

  private:
    VertexId numVertices_ = 0;
    std::vector<EdgeId> colPtr_;
    std::vector<VertexId> rowIdx_;
};

} // namespace hygcn

#endif // HYGCN_GRAPH_GRAPH_HPP
