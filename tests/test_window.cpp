#include <gtest/gtest.h>

#include "graph/dataset.hpp"
#include "graph/window.hpp"
#include "sim/rng.hpp"

#include "graph/generator.hpp"

using namespace hygcn;

namespace {

EdgeSet
randomEdgeSet(VertexId v, EdgeId e, std::uint64_t seed)
{
    Rng rng(seed);
    return EdgeSet::fromGraph(
        Graph::fromEdges(v, generateUniform(v, e, rng), true), true);
}

/** Sum of window edges must equal the edge-set size. */
void
expectEdgeConservation(const CscView &view, const WindowPlan &plan)
{
    EXPECT_EQ(plan.totalEdges, view.numEdges());
    EdgeId interval_sum = 0;
    for (const IntervalWork &work : plan.intervals) {
        EdgeId window_sum = 0;
        for (const Window &w : work.windows)
            window_sum += w.edges;
        EXPECT_EQ(window_sum, work.totalEdges);
        interval_sum += work.totalEdges;
    }
    EXPECT_EQ(interval_sum, view.numEdges());
}

} // namespace

TEST(Window, GridCoversAllRowsEachInterval)
{
    const EdgeSet es = randomEdgeSet(100, 300, 1);
    const WindowPlan plan = buildWindowPlan(es.view(), 32, 16,
                                            1 << 20, WindowMode::Grid);
    ASSERT_EQ(plan.intervals.size(), 4u);
    for (const IntervalWork &work : plan.intervals) {
        EXPECT_EQ(work.windows.size(), 7u); // ceil(100/16)
        std::uint64_t rows = 0;
        for (const Window &w : work.windows)
            rows += w.loadedRows();
        EXPECT_EQ(rows, 100u);
    }
    expectEdgeConservation(es.view(), plan);
    EXPECT_EQ(plan.gridRows, 400u);
    EXPECT_EQ(plan.loadedRows, 400u);
    EXPECT_DOUBLE_EQ(plan.sparsityReduction(), 0.0);
}

TEST(Window, EliminationConservesEdges)
{
    const EdgeSet es = randomEdgeSet(200, 150, 2); // sparse
    const WindowPlan plan = buildWindowPlan(es.view(), 64, 16,
                                            1 << 20, WindowMode::SlideShrink);
    expectEdgeConservation(es.view(), plan);
}

TEST(Window, EliminationNeverLoadsMoreThanGrid)
{
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const EdgeSet es = randomEdgeSet(300, 100 + seed * 200, seed);
        const WindowPlan grid = buildWindowPlan(es.view(), 64, 16,
                                                1 << 20, WindowMode::Grid);
        const WindowPlan elim = buildWindowPlan(
            es.view(), 64, 16, 1 << 20, WindowMode::SlideShrink);
        EXPECT_LE(elim.loadedRows, grid.loadedRows) << "seed " << seed;
        EXPECT_GE(elim.sparsityReduction(), 0.0);
    }
}

TEST(Window, WindowsStartAndEndOnOccupiedRows)
{
    const EdgeSet es = randomEdgeSet(256, 120, 3);
    const CscView view = es.view();
    const WindowPlan plan =
        buildWindowPlan(view, 64, 16, 1 << 20, WindowMode::SlideShrink);
    for (const IntervalWork &work : plan.intervals) {
        for (const Window &w : work.windows) {
            // The top and bottom rows must hold at least one edge
            // into this interval (sliding and shrinking invariants).
            auto row_has_edge = [&](VertexId row) {
                for (VertexId dst = work.dstBegin; dst < work.dstEnd;
                     ++dst) {
                    auto srcs = view.sources(dst);
                    if (std::binary_search(srcs.begin(), srcs.end(),
                                           row))
                        return true;
                }
                return false;
            };
            EXPECT_TRUE(row_has_edge(w.srcBegin));
            EXPECT_TRUE(row_has_edge(w.srcEnd - 1));
            EXPECT_GT(w.edges, 0u);
        }
    }
}

TEST(Window, WindowsRespectHeightAndOrder)
{
    const EdgeSet es = randomEdgeSet(512, 2000, 4);
    const WindowPlan plan = buildWindowPlan(es.view(), 128, 32,
                                            1 << 20, WindowMode::SlideShrink);
    for (const IntervalWork &work : plan.intervals) {
        VertexId prev_end = 0;
        for (const Window &w : work.windows) {
            EXPECT_LE(w.loadedRows(), 32u);
            EXPECT_GE(w.srcBegin, prev_end);
            prev_end = w.srcEnd;
        }
    }
}

TEST(Window, EdgeBufferCapSplitsWindows)
{
    // A dense column block would put every edge into one window
    // without the cap.
    const EdgeSet es = randomEdgeSet(64, 1500, 5);
    const WindowPlan capped = buildWindowPlan(es.view(), 64, 64, 50,
                                              WindowMode::SlideShrink);
    const WindowPlan uncapped = buildWindowPlan(
        es.view(), 64, 64, 1 << 20, WindowMode::SlideShrink);
    EXPECT_GT(capped.intervals[0].windows.size(),
              uncapped.intervals[0].windows.size());
    expectEdgeConservation(es.view(), capped);
    // No window exceeds the cap except possibly single-row windows.
    for (const Window &w : capped.intervals[0].windows) {
        if (w.loadedRows() > 1) {
            EXPECT_LE(w.edges, 50u);
        }
    }
}

TEST(Window, EmptyGraphYieldsNoEffectualWindows)
{
    const EdgeSet es = EdgeSet::fromColumns(10, {{}, {}, {}, {}, {},
                                                 {}, {}, {}, {}, {}});
    const WindowPlan plan =
        buildWindowPlan(es.view(), 4, 4, 100, WindowMode::SlideShrink);
    for (const IntervalWork &work : plan.intervals)
        EXPECT_TRUE(work.windows.empty());
    EXPECT_EQ(plan.loadedRows, 0u);
}

TEST(Window, SingleEdgeSingleWindow)
{
    const EdgeSet es = EdgeSet::fromColumns(8, {{}, {}, {}, {5}, {},
                                                {}, {}, {}});
    const WindowPlan plan =
        buildWindowPlan(es.view(), 8, 4, 100, WindowMode::SlideShrink);
    ASSERT_EQ(plan.intervals.size(), 1u);
    ASSERT_EQ(plan.intervals[0].windows.size(), 1u);
    const Window &w = plan.intervals[0].windows[0];
    EXPECT_EQ(w.srcBegin, 5u);
    EXPECT_EQ(w.srcEnd, 6u);
    EXPECT_EQ(w.edges, 1u);
}

class WindowProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(WindowProperty, ConservationAcrossGeometries)
{
    const auto [interval, height, seed] = GetParam();
    const EdgeSet es = randomEdgeSet(400, 1200, seed);
    for (WindowMode mode : {WindowMode::Grid, WindowMode::SlideShrink}) {
        const WindowPlan plan = buildWindowPlan(
            es.view(), interval, height, 1 << 20, mode);
        EXPECT_EQ(plan.totalEdges, es.numEdges());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WindowProperty,
    ::testing::Combine(::testing::Values(1, 37, 128, 400, 1000),
                       ::testing::Values(1, 13, 64, 512),
                       ::testing::Values(11, 29)));
