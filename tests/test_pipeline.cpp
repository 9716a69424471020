#include <gtest/gtest.h>

#include "core/pipeline.hpp"

using namespace hygcn;

TEST(Pipeline, PipelinedOverlapsAggWithPreviousComb)
{
    InterEnginePipeline p(0);
    p.noteAggFinish(100);
    p.noteCombFinish(150);
    // Agg of interval 1 may start right after agg of interval 0 —
    // the combination of interval 0 runs concurrently.
    EXPECT_EQ(p.aggStart(), 100u);
}

TEST(Pipeline, PingPongLimitsToTwoChunks)
{
    InterEnginePipeline p(0);
    p.noteAggFinish(10);
    p.noteCombFinish(1000); // interval 0's comb is very slow
    p.noteAggFinish(20);
    p.noteCombFinish(2000);
    // Interval 2's aggregation needs interval 0's chunk, freed at
    // cycle 1000.
    EXPECT_EQ(p.aggStart(), 1000u);
}

TEST(Pipeline, CombWaitsForItsAggregation)
{
    InterEnginePipeline p(0);
    p.noteAggFinish(500);
    EXPECT_EQ(p.combStart(500), 500u);
    p.noteCombFinish(600);
    p.noteAggFinish(650);
    // Comb of interval 1 waits for its own agg (650) and the
    // previous comb (600).
    EXPECT_EQ(p.combStart(650), 650u);
}

TEST(Pipeline, FinishIsMaxOfBothEngines)
{
    InterEnginePipeline p(0);
    p.noteAggFinish(300);
    p.noteCombFinish(280);
    EXPECT_EQ(p.finish(), 300u);
    p.noteCombFinish(900);
    EXPECT_EQ(p.finish(), 900u);
}

TEST(Pipeline, PipelinedNeverSlowerThanSerial)
{
    // Simulate 8 intervals with fixed (agg, comb) durations; the
    // pipelined finish must beat running the phases back to back.
    const Cycle agg_c = 70, comb_c = 50;
    InterEnginePipeline p(0);
    for (int i = 0; i < 8; ++i) {
        const Cycle a0 = p.aggStart();
        p.noteAggFinish(a0 + agg_c);
        const Cycle c0 = p.combStart(a0 + agg_c);
        p.noteCombFinish(c0 + comb_c);
    }
    EXPECT_LT(p.finish(), 8 * (agg_c + comb_c));
    // Steady state: one interval per max(agg, comb).
    EXPECT_EQ(p.finish(), agg_c + 7 * std::max(agg_c, comb_c) + comb_c);
}
