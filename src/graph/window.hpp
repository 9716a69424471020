/**
 * @file
 * Window sliding and shrinking (paper section 4.3.3, Fig 5). Given a
 * destination interval, effectual shards are found by sliding a
 * window of shard height down the source dimension until an edge
 * appears on its top row, then shrinking the bottom edge upward to
 * the last row holding an edge. The resulting plan drives both the
 * functional traversal and the DRAM request generation.
 */

#ifndef HYGCN_GRAPH_WINDOW_HPP
#define HYGCN_GRAPH_WINDOW_HPP

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace hygcn {

/** One effectual shard: a contiguous source-row range of an interval. */
struct Window
{
    /** First source row covered (inclusive). */
    VertexId srcBegin = 0;
    /** One past the last source row covered. */
    VertexId srcEnd = 0;
    /** Edges inside the window for this interval. */
    EdgeId edges = 0;

    /** Source feature rows fetched for this window. */
    VertexId loadedRows() const { return srcEnd - srcBegin; }
};

/** Work for one destination interval: its effectual shards. */
struct IntervalWork
{
    /** First destination column (inclusive). */
    VertexId dstBegin = 0;
    /** One past the last destination column. */
    VertexId dstEnd = 0;
    /** Effectual shards, ordered by ascending srcBegin. */
    std::vector<Window> windows;
    /** Total edges across all windows (== edges into the interval). */
    EdgeId totalEdges = 0;

    VertexId numVertices() const { return dstEnd - dstBegin; }
};

/** A full partition-and-elimination plan for one layer traversal. */
struct WindowPlan
{
    std::vector<IntervalWork> intervals;
    /** Total edges across the plan (must equal the edge set size). */
    EdgeId totalEdges = 0;
    /** Feature rows fetched under this plan (sum of loadedRows). */
    std::uint64_t loadedRows = 0;
    /**
     * Feature rows that a plain grid partition (no sparsity
     * elimination) would fetch: intervals * ceil-covered rows. Basis
     * of the "sparsity reduction" metric of Fig 15/18.
     */
    std::uint64_t gridRows = 0;

    /** Fraction of grid feature loads eliminated, in [0,1]. */
    double sparsityReduction() const
    {
        if (gridRows == 0)
            return 0.0;
        return 1.0 - static_cast<double>(loadedRows) /
                         static_cast<double>(gridRows);
    }
};

/** How aggressively the sparsity eliminator trims windows (Fig 5). */
enum class WindowMode
{
    /** Fixed grid (Algorithm 2): every source row loaded. */
    Grid,
    /** Sliding only: skip empty rows above each window's top. */
    SlideOnly,
    /** Sliding + shrinking: also trim empty rows at the bottom. */
    SlideShrink,
};

/**
 * Build the traversal plan for @p view.
 *
 * @param view Destination-major edge set (possibly sampled).
 * @param interval_size Destination vertices per interval.
 * @param window_height Shard height in source rows.
 * @param max_edges_per_window Edge Buffer bound; a window closes
 *        early rather than exceed it (except a single row may).
 * @param mode Grid (no elimination), SlideOnly, or SlideShrink.
 */
WindowPlan buildWindowPlan(const CscView &view, VertexId interval_size,
                           VertexId window_height,
                           EdgeId max_edges_per_window, WindowMode mode);

} // namespace hygcn

#endif // HYGCN_GRAPH_WINDOW_HPP
