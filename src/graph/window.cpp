#include "graph/window.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hygcn {

namespace {

/** (source row, edge count into the interval) pair. */
struct RowCount
{
    VertexId row;
    EdgeId count;
};

/**
 * Gather, for one destination interval, the ascending list of source
 * rows that hold at least one edge, with per-row edge counts.
 *
 * @param counts Per-row scratch sized to the vertex count; all zero on
 *        entry and left all zero on return.
 */
std::vector<RowCount>
gatherRows(const CscView &view, VertexId dst_begin, VertexId dst_end,
           std::vector<EdgeId> &counts)
{
    VertexId lo = view.numVertices;
    std::size_t distinct = 0;
    for (VertexId dst = dst_begin; dst < dst_end; ++dst) {
        for (VertexId src : view.sources(dst)) {
            if (src >= view.numVertices)
                throw std::invalid_argument(
                    "buildWindowPlan: source row out of range");
            distinct += counts[src]++ == 0;
            lo = std::min(lo, src);
        }
    }

    std::vector<RowCount> rows;
    rows.reserve(distinct);
    for (VertexId row = lo; rows.size() < distinct; ++row) {
        if (counts[row] != 0) {
            rows.push_back({row, counts[row]});
            counts[row] = 0;
        }
    }
    return rows;
}

/** Emit the fixed grid shards of Algorithm 2 (no elimination). */
void
buildGridWindows(const std::vector<RowCount> &rows, VertexId num_vertices,
                 VertexId height, IntervalWork &work)
{
    std::size_t pos = 0;
    for (VertexId begin = 0; begin < num_vertices; begin += height) {
        const VertexId end = std::min<VertexId>(begin + height,
                                                num_vertices);
        Window w{begin, end, 0};
        while (pos < rows.size() && rows[pos].row < end) {
            w.edges += rows[pos].count;
            ++pos;
        }
        work.windows.push_back(w);
        work.totalEdges += w.edges;
    }
}

/** Emit effectual shards via window sliding (+ optional shrinking). */
void
buildEffectualWindows(const std::vector<RowCount> &rows, VertexId height,
                      EdgeId max_edges, bool shrink,
                      VertexId num_vertices, IntervalWork &work)
{
    std::size_t pos = 0;
    while (pos < rows.size()) {
        // Sliding: the window's top row is the next row with an edge.
        const VertexId start = rows[pos].row;
        const VertexId limit_row = start + height - 1;

        Window w{start, start + 1, 0};
        VertexId last_row = start;
        while (pos < rows.size() && rows[pos].row <= limit_row) {
            const EdgeId next_edges = w.edges + rows[pos].count;
            // Edge Buffer bound: close early, but always accept at
            // least one row so progress is guaranteed.
            if (w.edges > 0 && next_edges > max_edges)
                break;
            w.edges = next_edges;
            last_row = rows[pos].row;
            ++pos;
        }
        if (shrink) {
            // Shrinking: the bottom row is the last row with an edge.
            w.srcEnd = last_row + 1;
        } else {
            // Sliding only: the window keeps its full height (clamped
            // to the graph); bottom-side sparsity remains loaded. When
            // the edge cap closed it early, it stops at the next
            // window's top row, so windows never overlap.
            w.srcEnd = std::min<VertexId>(limit_row + 1, num_vertices);
            if (pos < rows.size())
                w.srcEnd = std::min(w.srcEnd, rows[pos].row);
        }
        work.windows.push_back(w);
        work.totalEdges += w.edges;
    }
}

} // namespace

WindowPlan
buildWindowPlan(const CscView &view, VertexId interval_size,
                VertexId window_height, EdgeId max_edges_per_window,
                WindowMode mode)
{
    assert(interval_size >= 1);
    assert(window_height >= 1);
    assert(max_edges_per_window >= 1);

    WindowPlan plan;
    const VertexId n = view.numVertices;
    const std::uint64_t grid_rows_per_interval = n;
    std::vector<EdgeId> counts(n, 0);

    for (VertexId dst = 0; dst < n; dst += interval_size) {
        IntervalWork work;
        work.dstBegin = dst;
        work.dstEnd = std::min<VertexId>(dst + interval_size, n);

        const auto rows = gatherRows(view, work.dstBegin, work.dstEnd, counts);
        if (mode != WindowMode::Grid) {
            buildEffectualWindows(rows, window_height,
                                  max_edges_per_window,
                                  mode == WindowMode::SlideShrink, n,
                                  work);
        } else {
            buildGridWindows(rows, n, window_height, work);
        }

        plan.totalEdges += work.totalEdges;
        for (const Window &w : work.windows)
            plan.loadedRows += w.loadedRows();
        plan.gridRows += grid_rows_per_interval;
        plan.intervals.push_back(std::move(work));
    }
    return plan;
}

} // namespace hygcn
