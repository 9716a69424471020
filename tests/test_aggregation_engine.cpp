#include <gtest/gtest.h>

#include <limits>

#include "core/aggregation_engine.hpp"
#include "graph/generator.hpp"
#include "graph/window.hpp"
#include "model/reference.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

struct Fixture
{
    explicit Fixture(const HyGCNConfig &config)
        : hbm(config.effectiveHbm()),
          coord(hbm, config.effectiveCoordinator()),
          engine(config, coord, ledger, stats)
    {}

    EnergyLedger ledger;
    StatGroup stats;
    HbmModel hbm;
    MemoryCoordinator coord;
    AggregationEngine engine;
};

Graph
randomGraph(VertexId v, EdgeId e, std::uint64_t seed)
{
    Rng rng(seed);
    return Graph::fromEdges(v, generateUniform(v, e, rng), true);
}

EdgeSet
randomEdges(VertexId v, EdgeId e, std::uint64_t seed)
{
    return EdgeSet::fromGraph(randomGraph(v, e, seed), true);
}

/**
 * The functional loop processInterval ran before it folded each
 * interval in one call: one aggregateWindow call per window, then
 * the Mean divide.
 */
void
perWindowAggregate(const CscView &view, const IntervalWork &work, AggOp op,
                   const EdgeCoefFn &coef, const Matrix &x, Matrix &acc,
                   std::vector<std::uint32_t> &touch, int threads)
{
    for (const Window &w : work.windows) {
        aggregateWindow(view, op, coef, x, work.dstBegin, work.dstEnd,
                        w.srcBegin, w.srcEnd, acc, touch, threads);
    }
    finalizeAggregation(op, acc, touch);
}

/**
 * Run @p plan through processInterval twice, with functional buffers
 * and timing-only, and check the values against perWindowAggregate
 * byte for byte and the timing, stats and energy against each other.
 */
void
expectIntervalCallMatches(const CscView &view, const WindowPlan &plan,
                          AggOp op, const EdgeCoefFn &coef, const Matrix &x,
                          int threads)
{
    const HyGCNConfig config;
    const AddressMap amap;
    const int feats = static_cast<int>(x.cols());
    Fixture functional(config), timing(config);
    functional.engine.setFunctionalThreads(threads);
    Cycle now = 0;
    for (const IntervalWork &work : plan.intervals) {
        const VertexId rows = work.numVertices();
        Matrix acc(rows, feats), want(rows, feats);
        std::vector<std::uint32_t> touch(rows, 0), want_touch(rows, 0);
        const AggIntervalTiming tf = functional.engine.processInterval(
            view, work, feats, op, coef, &x, &acc, &touch, now, amap);
        const AggIntervalTiming tt = timing.engine.processInterval(
            view, work, feats, op, coef, nullptr, nullptr, nullptr, now,
            amap);
        perWindowAggregate(view, work, op, coef, x, want, want_touch,
                           threads);
        ASSERT_TRUE(Matrix::bytesEqual(acc, want))
            << "interval at " << work.dstBegin;
        ASSERT_EQ(touch, want_touch) << "interval at " << work.dstBegin;
        ASSERT_EQ(tf.finish, tt.finish);
        ASSERT_EQ(tf.computeCycles, tt.computeCycles);
        now = tf.finish;
    }
    EXPECT_EQ(functional.stats, timing.stats);
    EXPECT_EQ(functional.ledger, timing.ledger);
    EXPECT_EQ(functional.hbm.stats(), timing.hbm.stats());
}

} // namespace

TEST(AggregationEngine, VertexDisperseCycleModel)
{
    HyGCNConfig config; // 512 lanes
    Fixture f(config);
    // One edge of a 512-wide feature = exactly 1 cycle.
    EXPECT_EQ(f.engine.windowComputeCycles(1, 512, 1.0), 1u);
    EXPECT_EQ(f.engine.windowComputeCycles(1, 513, 1.0), 2u);
    EXPECT_EQ(f.engine.windowComputeCycles(100, 128, 1.0), 100u);
    EXPECT_EQ(f.engine.windowComputeCycles(0, 128, 1.0), 0u);
}

TEST(AggregationEngine, VertexConcentratedPaysImbalance)
{
    HyGCNConfig vc;
    vc.aggMode = AggMode::VertexConcentrated;
    Fixture f(vc);
    const Cycle balanced = f.engine.windowComputeCycles(320, 128, 1.0);
    const Cycle skewed = f.engine.windowComputeCycles(320, 128, 8.0);
    EXPECT_GT(skewed, 4 * balanced);
}

TEST(AggregationEngine, FunctionalMatchesReferencePerInterval)
{
    const EdgeSet es = randomEdges(120, 500, 1);
    HyGCNConfig config;
    Fixture f(config);
    Rng rng(2);
    Matrix x(120, 16);
    x.fillRandom(rng);
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    const WindowPlan plan =
        buildWindowPlan(es.view(), 40, 16, 1 << 20, WindowMode::SlideShrink);
    const Matrix golden = aggregateFull(es.view(), AggOp::Add, one, x);

    const AddressMap amap;
    Cycle now = 0;
    for (const IntervalWork &work : plan.intervals) {
        Matrix acc(work.numVertices(), 16);
        std::vector<std::uint32_t> touch(work.numVertices(), 0);
        const AggIntervalTiming t = f.engine.processInterval(
            es.view(), work, 16, AggOp::Add, one, &x, &acc, &touch, now,
            amap);
        now = t.finish;
        for (VertexId v = 0; v < work.numVertices(); ++v) {
            for (int c = 0; c < 16; ++c) {
                EXPECT_EQ(acc.at(v, c),
                          golden.at(work.dstBegin + v, c));
            }
        }
    }
}

TEST(AggregationEngine, TimingAdvancesAndCountsEdges)
{
    const EdgeSet es = randomEdges(200, 800, 3);
    HyGCNConfig config;
    Fixture f(config);
    const WindowPlan plan =
        buildWindowPlan(es.view(), 64, 32, 1 << 20, WindowMode::SlideShrink);
    const AddressMap amap;
    Cycle now = 0;
    for (const IntervalWork &work : plan.intervals) {
        const AggIntervalTiming t = f.engine.processInterval(
            es.view(), work, 64, AggOp::Add,
            EdgeCoefFn(EdgeCoefKind::One, {}, 0.0f), nullptr, nullptr,
            nullptr, now, amap);
        EXPECT_GT(t.finish, now);
        now = t.finish;
    }
    EXPECT_EQ(f.stats.get("agg.edges"), es.numEdges());
    EXPECT_GT(f.stats.get("agg.busy_cycles"), 0u);
    EXPECT_GT(f.hbm.stats().get("dram.read_bytes"), 0u);
    EXPECT_GT(f.ledger.component("agg_engine"), 0.0);
    EXPECT_GT(f.ledger.component("coordinator"), 0.0);
}

TEST(AggregationEngine, SparsityEliminationReducesTraffic)
{
    // Very sparse graph: elimination should cut feature loads.
    const EdgeSet es = randomEdges(1000, 300, 4);
    const AddressMap amap;
    Cycle t_grid = 0, t_elim = 0;
    std::uint64_t bytes_grid = 0, bytes_elim = 0;
    for (WindowMode mode : {WindowMode::Grid, WindowMode::SlideShrink}) {
        HyGCNConfig config;
        Fixture f(config);
        const WindowPlan plan = buildWindowPlan(es.view(), 250, 16,
                                                1 << 20, mode);
        Cycle now = 0;
        for (const IntervalWork &work : plan.intervals) {
            now = f.engine
                      .processInterval(es.view(), work, 128, AggOp::Add,
                                       EdgeCoefFn(EdgeCoefKind::One, {},
                                                  0.0f),
                                       nullptr, nullptr, nullptr, now,
                                       amap)
                      .finish;
        }
        if (mode == WindowMode::SlideShrink) {
            t_elim = now;
            bytes_elim = f.hbm.stats().get("dram.read_bytes");
        } else {
            t_grid = now;
            bytes_grid = f.hbm.stats().get("dram.read_bytes");
        }
    }
    EXPECT_LT(bytes_elim, bytes_grid * 3 / 4);
    EXPECT_LT(t_elim, t_grid);
}

TEST(AggregationEngine, MeanFinalizationDividesFunctionalResult)
{
    const EdgeSet es = randomEdges(30, 120, 5);
    HyGCNConfig config;
    Fixture f(config);
    Rng rng(6);
    Matrix x(30, 4);
    x.fillRandom(rng);
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    const Matrix golden = aggregateFull(es.view(), AggOp::Mean, one, x);

    const WindowPlan plan =
        buildWindowPlan(es.view(), 30, 8, 1 << 20, WindowMode::SlideShrink);
    const AddressMap amap;
    ASSERT_EQ(plan.intervals.size(), 1u);
    Matrix acc(30, 4);
    std::vector<std::uint32_t> touch(30, 0);
    f.engine.processInterval(es.view(), plan.intervals[0], 4,
                             AggOp::Mean, one, &x, &acc, &touch, 0,
                             amap);
    EXPECT_TRUE(Matrix::bytesEqual(acc, golden));
}

TEST(AggregationEngine, MoreLanesFewerCycles)
{
    HyGCNConfig narrow;
    narrow.simdCores = 8;
    HyGCNConfig wide;
    wide.simdCores = 64;
    Fixture fn(narrow), fw(wide);
    EXPECT_GT(fn.engine.windowComputeCycles(100, 1024, 1.0),
              fw.engine.windowComputeCycles(100, 1024, 1.0));
}

/**
 * One aggregateWindow call per interval gives the bytes of the
 * window-by-window loop, in every window mode, for plans that split
 * intervals into many windows, for every operator and coefficient,
 * on inputs holding -0.0, NaN and +-inf, at 1 and 4 kernel threads.
 */
TEST(AggregationEngine, IntervalCallMatchesPerWindowLoop)
{
    const Graph graph = randomGraph(150, 900, 7);
    const EdgeSet es = EdgeSet::fromGraph(graph, true);
    const std::vector<float> inv_sqrt_deg = invSqrtDegreesPlusSelf(graph);
    // One 16-lane feature block and a ragged tail.
    Matrix x(150, 20);
    Rng rng(8);
    x.fillRandom(rng);
    const float specials[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (VertexId v = 0; v < 150; v += 3)
        x.at(v, (v / 3) % 20) = specials[(v / 3) % 4];

    std::size_t max_windows = 0;
    for (WindowMode mode : {WindowMode::Grid, WindowMode::SlideOnly,
                            WindowMode::SlideShrink}) {
        for (VertexId interval : {7u, 64u}) {
            for (VertexId height : {1u, 5u, 16u}) {
                for (EdgeId cap : {EdgeId{3}, EdgeId{1} << 20}) {
                    const WindowPlan plan = buildWindowPlan(
                        es.view(), interval, height, cap, mode);
                    for (const IntervalWork &work : plan.intervals)
                        max_windows =
                            std::max(max_windows, work.windows.size());
                    for (int op = 0; op < 4; ++op) {
                        for (int kind = 0; kind < 3; ++kind) {
                            const EdgeCoefFn coef(
                                static_cast<EdgeCoefKind>(kind),
                                inv_sqrt_deg, 0.25f);
                            for (int threads : {1, 4}) {
                                SCOPED_TRACE(
                                    testing::Message()
                                    << "mode " << static_cast<int>(mode)
                                    << ", interval " << interval
                                    << ", height " << height << ", cap "
                                    << cap << ", op " << op << ", coef "
                                    << kind << ", threads " << threads);
                                expectIntervalCallMatches(
                                    es.view(), plan, static_cast<AggOp>(op),
                                    coef, x, threads);
                            }
                        }
                    }
                }
            }
        }
    }
    // The plans above split intervals into many windows.
    EXPECT_GE(max_windows, 50u);
}
