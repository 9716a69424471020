#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generator.hpp"
#include "graph/sampling.hpp"
#include "graph/window.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

EdgeSet
sparseEdges(VertexId v, EdgeId e, std::uint64_t seed)
{
    Rng rng(seed);
    return EdgeSet::fromGraph(
        Graph::fromEdges(v, generateUniform(v, e, rng), true), false);
}

/**
 * Reference planner: gathers each interval's rows by sorting every
 * source of the interval, then applies Algorithm 2 (Grid) or window
 * sliding/shrinking row by row.
 */
WindowPlan
referencePlan(const CscView &view, VertexId interval, VertexId height,
              EdgeId max_edges, WindowMode mode)
{
    WindowPlan plan;
    const VertexId n = view.numVertices;
    for (VertexId dst = 0; dst < n; dst += interval) {
        IntervalWork work;
        work.dstBegin = dst;
        work.dstEnd = std::min<VertexId>(dst + interval, n);

        std::vector<VertexId> srcs;
        for (VertexId d = work.dstBegin; d < work.dstEnd; ++d)
            for (VertexId src : view.sources(d))
                srcs.push_back(src);
        std::sort(srcs.begin(), srcs.end());
        std::vector<std::pair<VertexId, EdgeId>> rows;
        for (VertexId src : srcs) {
            if (rows.empty() || rows.back().first != src)
                rows.push_back({src, 0});
            ++rows.back().second;
        }

        std::size_t pos = 0;
        if (mode == WindowMode::Grid) {
            for (VertexId begin = 0; begin < n; begin += height) {
                Window w{begin, std::min<VertexId>(begin + height, n), 0};
                for (; pos < rows.size() && rows[pos].first < w.srcEnd; ++pos)
                    w.edges += rows[pos].second;
                work.windows.push_back(w);
            }
        }
        while (mode != WindowMode::Grid && pos < rows.size()) {
            const VertexId top = rows[pos].first;
            Window w{top, top + 1, 0};
            for (; pos < rows.size(); ++pos) {
                const auto [row, count] = rows[pos];
                if (row >= top + height)
                    break;
                // The edge cap closes a window early, but a window
                // always takes its first row.
                if (w.edges > 0 && w.edges + count > max_edges)
                    break;
                w.edges += count;
                w.srcEnd = row + 1;
            }
            // SlideOnly keeps the full height, but never reaches into
            // the next window.
            if (mode == WindowMode::SlideOnly) {
                w.srcEnd = std::min<VertexId>(top + height, n);
                if (pos < rows.size())
                    w.srcEnd = std::min(w.srcEnd, rows[pos].first);
            }
            work.windows.push_back(w);
        }
        for (const Window &w : work.windows) {
            work.totalEdges += w.edges;
            plan.loadedRows += w.loadedRows();
        }
        plan.totalEdges += work.totalEdges;
        plan.gridRows += n;
        plan.intervals.push_back(std::move(work));
    }
    return plan;
}

/** A CSC view with some in-edge-free vertices and empty intervals. */
struct RandomCsc
{
    std::vector<EdgeId> colPtr{0};
    std::vector<VertexId> rowIdx;
    VertexId n = 0;

    RandomCsc(VertexId vertices, std::uint64_t seed) : n(vertices)
    {
        Rng rng(seed);
        // A run of destinations with no in-edges, wide enough to
        // leave whole intervals empty.
        const VertexId gap_begin = static_cast<VertexId>(rng.nextBounded(n));
        const VertexId gap_end = gap_begin + n / 4;
        for (VertexId dst = 0; dst < n; ++dst) {
            std::vector<VertexId> srcs;
            const bool in_gap = dst >= gap_begin && dst < gap_end;
            if (!in_gap && rng.nextBounded(4) != 0) {
                const auto degree = rng.nextBounded(12);
                for (std::uint64_t k = 0; k < degree; ++k) {
                    // Skew toward low rows so some rows stay empty.
                    const auto span = rng.nextBounded(2) ? n : n / 3 + 1;
                    srcs.push_back(rng.nextBounded(span));
                }
                std::sort(srcs.begin(), srcs.end());
                const auto last = std::unique(srcs.begin(), srcs.end());
                srcs.erase(last, srcs.end());
            }
            rowIdx.insert(rowIdx.end(), srcs.begin(), srcs.end());
            colPtr.push_back(rowIdx.size());
        }
    }

    CscView view() const { return {n, colPtr, rowIdx}; }
};

void
expectSamePlan(const WindowPlan &got, const WindowPlan &want)
{
    EXPECT_EQ(got.totalEdges, want.totalEdges);
    EXPECT_EQ(got.loadedRows, want.loadedRows);
    EXPECT_EQ(got.gridRows, want.gridRows);
    ASSERT_EQ(got.intervals.size(), want.intervals.size());
    for (std::size_t i = 0; i < got.intervals.size(); ++i) {
        const IntervalWork &g = got.intervals[i];
        const IntervalWork &w = want.intervals[i];
        EXPECT_EQ(g.dstBegin, w.dstBegin);
        EXPECT_EQ(g.dstEnd, w.dstEnd);
        EXPECT_EQ(g.totalEdges, w.totalEdges);
        ASSERT_EQ(g.windows.size(), w.windows.size()) << "interval " << i;
        for (std::size_t k = 0; k < g.windows.size(); ++k) {
            EXPECT_EQ(g.windows[k].srcBegin, w.windows[k].srcBegin);
            EXPECT_EQ(g.windows[k].srcEnd, w.windows[k].srcEnd);
            EXPECT_EQ(g.windows[k].edges, w.windows[k].edges);
        }
    }
}

/**
 * Check buildWindowPlan against referencePlan in every mode; returns
 * how many reference intervals held no edge.
 */
std::size_t
expectMatchesReference(const CscView &view, VertexId interval,
                       VertexId height, EdgeId cap)
{
    SCOPED_TRACE(testing::Message() << interval << "/" << height);
    std::size_t empty = 0;
    for (int m = 0; m < 3; ++m) {
        SCOPED_TRACE(testing::Message() << "cap " << cap << ", mode " << m);
        const auto mode = static_cast<WindowMode>(m);
        const auto got = buildWindowPlan(view, interval, height, cap, mode);
        const auto want = referencePlan(view, interval, height, cap, mode);
        expectSamePlan(got, want);
        for (const IntervalWork &work : want.intervals)
            empty += work.totalEdges == 0;
        // Windows are disjoint and ascending: the functional path
        // folds each interval in one pass on that basis.
        for (const IntervalWork &work : got.intervals)
            for (std::size_t k = 1; k < work.windows.size(); ++k)
                EXPECT_LE(work.windows[k - 1].srcEnd,
                          work.windows[k].srcBegin);
    }
    return empty;
}

} // namespace

TEST(WindowModes, LoadOrderingGridGeSlideGeShrink)
{
    const EdgeSet es = sparseEdges(600, 400, 1);
    for (VertexId height : {8u, 32u, 128u}) {
        const auto grid = buildWindowPlan(es.view(), 200, height,
                                          1 << 20, WindowMode::Grid);
        const auto slide = buildWindowPlan(es.view(), 200, height,
                                           1 << 20,
                                           WindowMode::SlideOnly);
        const auto shrink = buildWindowPlan(es.view(), 200, height,
                                            1 << 20,
                                            WindowMode::SlideShrink);
        EXPECT_GE(grid.loadedRows, slide.loadedRows) << height;
        EXPECT_GE(slide.loadedRows, shrink.loadedRows) << height;
        // All three modes see every edge.
        EXPECT_EQ(grid.totalEdges, es.numEdges());
        EXPECT_EQ(slide.totalEdges, es.numEdges());
        EXPECT_EQ(shrink.totalEdges, es.numEdges());
    }
}

TEST(WindowModes, SlideOnlyKeepsFullHeight)
{
    // Single edge deep in the row space: SlideOnly loads a full
    // window below it; SlideShrink loads exactly one row.
    const EdgeSet es = EdgeSet::fromColumns(
        64, [] {
            std::vector<std::vector<VertexId>> cols(64);
            cols[0] = {20};
            return cols;
        }());
    const auto slide = buildWindowPlan(es.view(), 64, 16, 100,
                                       WindowMode::SlideOnly);
    const auto shrink = buildWindowPlan(es.view(), 64, 16, 100,
                                        WindowMode::SlideShrink);
    ASSERT_EQ(slide.intervals[0].windows.size(), 1u);
    EXPECT_EQ(slide.intervals[0].windows[0].srcBegin, 20u);
    EXPECT_EQ(slide.intervals[0].windows[0].srcEnd, 36u); // full 16
    EXPECT_EQ(shrink.intervals[0].windows[0].srcEnd, 21u); // shrunk
}

TEST(WindowModes, SlideOnlyClampsAtGraphEnd)
{
    const EdgeSet es = EdgeSet::fromColumns(
        10, [] {
            std::vector<std::vector<VertexId>> cols(10);
            cols[0] = {8};
            return cols;
        }());
    const auto slide = buildWindowPlan(es.view(), 10, 16, 100,
                                       WindowMode::SlideOnly);
    EXPECT_EQ(slide.intervals[0].windows[0].srcEnd, 10u);
}

TEST(WindowModes, SlideOnlyEdgeCapStopsAtNextWindow)
{
    // One destination with sources 0..7, height 8, cap 3: the cap
    // closes each window early, and the next window starts where the
    // previous one ends, so the rows load once each, as on the grid.
    const EdgeSet es = EdgeSet::fromColumns(
        8, [] {
            std::vector<std::vector<VertexId>> cols(8);
            cols[0] = {0, 1, 2, 3, 4, 5, 6, 7};
            return cols;
        }());
    const auto slide = buildWindowPlan(es.view(), 8, 8, 3,
                                       WindowMode::SlideOnly);
    const auto &windows = slide.intervals[0].windows;
    ASSERT_EQ(windows.size(), 3u);
    const VertexId bounds[][2] = {{0, 3}, {3, 6}, {6, 8}};
    for (std::size_t k = 0; k < windows.size(); ++k) {
        EXPECT_EQ(windows[k].srcBegin, bounds[k][0]) << k;
        EXPECT_EQ(windows[k].srcEnd, bounds[k][1]) << k;
    }
    EXPECT_EQ(slide.totalEdges, 8u);
    EXPECT_EQ(slide.loadedRows, 8u);
    EXPECT_EQ(slide.loadedRows,
              buildWindowPlan(es.view(), 8, 8, 3, WindowMode::Grid)
                  .loadedRows);
}

TEST(WindowModes, SamplerIndexIntervalDeterministic)
{
    Rng rng(3);
    const Graph g =
        Graph::fromEdges(100, generateUniform(100, 800, rng), true);
    const EdgeSet a =
        NeighborSampler::sampleByIndexInterval(g.csc(), 3);
    const EdgeSet b =
        NeighborSampler::sampleByIndexInterval(g.csc(), 3);
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (VertexId v = 0; v < 100; ++v) {
        const EdgeId deg = g.inDegree(v);
        EXPECT_EQ(a.view().inDegree(v), (deg + 2) / 3);
        // Kept edges are every 3rd of the sorted neighbor list.
        auto kept = a.view().sources(v);
        auto full = g.inNeighbors(v);
        for (std::size_t i = 0; i < kept.size(); ++i)
            EXPECT_EQ(kept[i], full[i * 3]);
    }
}

/** Counted-row gathering gives the plans of a sort-based reference. */
TEST(WindowModes, MatchesSortBasedReferencePlanner)
{
    std::size_t empty_intervals = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const RandomCsc csc(1 + (seed * 37) % 300, seed);
        for (VertexId interval : {1, 7, 64, 1000}) {
            for (VertexId height : {1, 5, 32}) {
                for (EdgeId cap : {3, 1 << 20}) {
                    empty_intervals += expectMatchesReference(
                        csc.view(), interval, height, cap);
                }
            }
        }
    }
    EXPECT_GT(empty_intervals, 0u);
}

TEST(WindowModes, RejectsOutOfRangeSourceRow)
{
    const std::vector<EdgeId> col_ptr = {0, 1, 1};
    const std::vector<VertexId> row_idx = {2};
    const CscView view{2, col_ptr, row_idx};
    EXPECT_THROW(buildWindowPlan(view, 1, 1, 10, WindowMode::SlideShrink),
                 std::invalid_argument);
}
