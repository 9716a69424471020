#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace hygcn {

Graph
Graph::fromEdges(VertexId num_vertices,
                 std::vector<std::pair<VertexId, VertexId>> edges,
                 bool symmetrize)
{
    for (const auto &[src, dst] : edges)
        if (src >= num_vertices || dst >= num_vertices)
            throw std::invalid_argument("edge endpoint out of range");

    // Every directed edge: the input, plus its reverse when
    // symmetrizing, except for self loops.
    auto forEachEdge = [&](auto &&visit) {
        for (const auto &[src, dst] : edges) {
            visit(src, dst);
            if (symmetrize && src != dst)
                visit(dst, src);
        }
    };

    Graph g;
    g.numVertices_ = num_vertices;
    g.colPtr_.assign(num_vertices + 1, 0);
    g.rowPtr_.assign(num_vertices + 1, 0);
    forEachEdge([&](VertexId src, VertexId dst) {
        ++g.colPtr_[dst + 1];
        ++g.rowPtr_[src + 1];
    });
    std::partial_sum(g.colPtr_.begin(), g.colPtr_.end(), g.colPtr_.begin());
    std::partial_sum(g.rowPtr_.begin(), g.rowPtr_.end(), g.rowPtr_.begin());

    // Counting sort in three scatters, each of which lays a vertex's
    // neighbours down in the order it visits them. (1) Bucket
    // destinations by source, in input order. (2) Walk sources in
    // ascending order into the columns, so each column comes out
    // sorted. (3) Walk destinations in ascending order back into the
    // rows, replacing the unsorted buckets with sorted rows.
    g.colIdx_.resize(g.colPtr_.back());
    std::vector<EdgeId> fill(g.rowPtr_.begin(), g.rowPtr_.end() - 1);
    forEachEdge(
        [&](VertexId src, VertexId dst) { g.colIdx_[fill[src]++] = dst; });
    // The buckets now hold every edge: free the list before the
    // columns are allocated, so the two never coexist.
    std::vector<std::pair<VertexId, VertexId>>().swap(edges);
    g.rowIdx_.resize(g.colIdx_.size());
    fill.assign(g.colPtr_.begin(), g.colPtr_.end() - 1);
    for (VertexId src = 0; src < num_vertices; ++src)
        for (VertexId dst : g.outNeighbors(src))
            g.rowIdx_[fill[dst]++] = src;
    fill.assign(g.rowPtr_.begin(), g.rowPtr_.end() - 1);
    for (VertexId dst = 0; dst < num_vertices; ++dst)
        for (VertexId src : g.inNeighbors(dst))
            g.colIdx_[fill[src]++] = dst;
    return g;
}

Graph
Graph::blockDiagonal(std::uint32_t copies) const
{
    if (copies == 0)
        throw std::invalid_argument("graph: copies must be positive");
    const VertexId n = numVertices_;
    if (n > 0 && copies > (kInvalidVertex - 1) / n)
        throw std::invalid_argument(
            "graph: block-diagonal vertex count overflows VertexId");
    const EdgeId m = numEdges();
    Graph g;
    g.numVertices_ = n * copies;
    if (n == 0) {
        g.colPtr_ = g.rowPtr_ = {0};
        return g;
    }

    // Copy c's offsets are the base offsets shifted by c * m and its
    // indices the base indices shifted by c * n; the leading 0 is
    // shared.
    auto tile = [&](const std::vector<EdgeId> &ptr,
                    const std::vector<VertexId> &idx,
                    std::vector<EdgeId> &out_ptr,
                    std::vector<VertexId> &out_idx) {
        out_ptr.resize(static_cast<std::size_t>(n) * copies + 1);
        out_idx.resize(static_cast<std::size_t>(m) * copies);
        out_ptr[0] = 0;
        for (std::uint32_t c = 0; c < copies; ++c) {
            const EdgeId edge_offset = c * m;
            const VertexId vertex_offset = c * n;
            std::transform(ptr.begin() + 1, ptr.end(),
                           out_ptr.begin() + c * n + 1,
                           [=](EdgeId e) { return e + edge_offset; });
            std::transform(idx.begin(), idx.end(), out_idx.begin() + c * m,
                           [=](VertexId v) { return v + vertex_offset; });
        }
    };
    tile(colPtr_, rowIdx_, g.colPtr_, g.rowIdx_);
    tile(rowPtr_, colIdx_, g.rowPtr_, g.colIdx_);
    return g;
}

bool
Graph::hasEdge(VertexId src, VertexId dst) const
{
    auto nbrs = inNeighbors(dst);
    return std::binary_search(nbrs.begin(), nbrs.end(), src);
}

std::uint64_t
Graph::storageBytes() const
{
    return (colPtr_.size() + rowPtr_.size()) * sizeof(EdgeId) +
           (rowIdx_.size() + colIdx_.size()) * sizeof(VertexId);
}

EdgeSet
EdgeSet::fromGraph(const Graph &graph, bool add_self_loops)
{
    return fromView(graph.csc(), add_self_loops);
}

EdgeSet
EdgeSet::fromView(const CscView &v, bool add_self_loops)
{
    EdgeSet es;
    es.numVertices_ = v.numVertices;
    es.colPtr_.assign(v.numVertices + 1, 0);
    es.rowIdx_.reserve(v.numEdges() +
                       (add_self_loops ? v.numVertices : 0));

    for (VertexId dst = 0; dst < v.numVertices; ++dst) {
        auto srcs = v.sources(dst);
        bool self_seen = false;
        for (VertexId src : srcs) {
            if (add_self_loops && !self_seen && src >= dst) {
                if (src != dst)
                    es.rowIdx_.push_back(dst);
                self_seen = true;
            }
            if (src == dst)
                self_seen = true;
            es.rowIdx_.push_back(src);
        }
        if (add_self_loops && !self_seen)
            es.rowIdx_.push_back(dst);
        es.colPtr_[dst + 1] = es.rowIdx_.size();
    }
    return es;
}

EdgeSet
EdgeSet::fromRaw(VertexId num_vertices, std::vector<EdgeId> col_ptr,
                 std::vector<VertexId> row_idx)
{
    assert(col_ptr.size() == static_cast<std::size_t>(num_vertices) + 1);
    assert(col_ptr.back() == row_idx.size());
    EdgeSet es;
    es.numVertices_ = num_vertices;
    es.colPtr_ = std::move(col_ptr);
    es.rowIdx_ = std::move(row_idx);
    return es;
}

EdgeSet
EdgeSet::fromColumns(VertexId num_vertices,
                     const std::vector<std::vector<VertexId>> &cols)
{
    assert(cols.size() == num_vertices);
    EdgeSet es;
    es.numVertices_ = num_vertices;
    es.colPtr_.assign(num_vertices + 1, 0);
    for (VertexId v = 0; v < num_vertices; ++v) {
        assert(std::is_sorted(cols[v].begin(), cols[v].end()));
        es.rowIdx_.insert(es.rowIdx_.end(), cols[v].begin(), cols[v].end());
        es.colPtr_[v + 1] = es.rowIdx_.size();
    }
    return es;
}

} // namespace hygcn
