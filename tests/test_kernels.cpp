/**
 * @file
 * The kernel layer's core guarantee: the vectorized, multithreaded
 * SpMM and GEMM kernels are BYTE-IDENTICAL to the naive scalar loops
 * at any thread count. Every comparison here is Matrix::bytesEqual
 * — never EXPECT_NEAR.
 *
 * The scalar baselines below are deliberate reimplementations of the
 * pre-kernel reference loops, kept in this test so a kernel
 * regression cannot hide by changing both sides at once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/generator.hpp"
#include "model/kernels.hpp"
#include "model/reference.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

using namespace hygcn;

namespace {

/** The pre-kernel scalar aggregation loop, verbatim semantics. */
void
scalarAggregateWindow(const CscView &view, AggOp op, const EdgeCoefFn &coef,
                      const Matrix &x, VertexId dst_begin, VertexId dst_end,
                      VertexId src_begin, VertexId src_end, Matrix &acc,
                      std::vector<std::uint32_t> &touch)
{
    const std::size_t feats = x.cols();
    for (VertexId dst = dst_begin; dst < dst_end; ++dst) {
        auto srcs = view.sources(dst);
        auto lo = std::lower_bound(srcs.begin(), srcs.end(), src_begin);
        auto hi = std::lower_bound(lo, srcs.end(), src_end);
        auto out = acc.row(dst - dst_begin);
        std::uint32_t &cnt = touch[dst - dst_begin];
        for (auto it = lo; it != hi; ++it) {
            const VertexId src = *it;
            const auto feat = x.row(src);
            const float c = coef(src, dst);
            switch (op) {
              case AggOp::Add:
              case AggOp::Mean:
                for (std::size_t f = 0; f < feats; ++f)
                    out[f] += c * feat[f];
                break;
              case AggOp::Max:
                if (cnt == 0) {
                    for (std::size_t f = 0; f < feats; ++f)
                        out[f] = feat[f];
                } else {
                    for (std::size_t f = 0; f < feats; ++f)
                        out[f] = std::max(out[f], feat[f]);
                }
                break;
              case AggOp::Min:
                if (cnt == 0) {
                    for (std::size_t f = 0; f < feats; ++f)
                        out[f] = feat[f];
                } else {
                    for (std::size_t f = 0; f < feats; ++f)
                        out[f] = std::min(out[f], feat[f]);
                }
                break;
            }
            ++cnt;
        }
    }
}

/** The pre-kernel scalar combine loop (with its full-input copy). */
Matrix
scalarCombineRows(const Matrix &acc, std::span<const Matrix> weights,
                  std::span<const std::vector<float>> biases,
                  Activation activation)
{
    Matrix cur = acc;
    for (std::size_t s = 0; s < weights.size(); ++s) {
        const Matrix &w = weights[s];
        const auto &b = biases[s];
        Matrix next(cur.rows(), w.cols());
        for (std::size_t r = 0; r < cur.rows(); ++r) {
            const auto in = cur.row(r);
            auto out = next.row(r);
            for (std::size_t j = 0; j < w.cols(); ++j)
                out[j] = b[j];
            for (std::size_t k = 0; k < w.rows(); ++k) {
                const float a = in[k];
                if (a == 0.0f)
                    continue;
                const auto wrow = w.row(k);
                for (std::size_t j = 0; j < w.cols(); ++j)
                    out[j] += a * wrow[j];
            }
        }
        if (activation == Activation::ReLU)
            next.reluInPlace();
        cur = std::move(next);
    }
    if (activation == Activation::SoftmaxRows)
        cur.softmaxRowsInPlace();
    return cur;
}

/** A graph with zero-degree rows: vertex ids divisible by 7 get no
 *  in-edges at all (beyond whatever the generator wired out of them). */
Graph
raggedGraph(VertexId n, EdgeId edges, std::uint64_t seed)
{
    Rng rng(seed);
    EdgeList list = generateUniform(n, edges, rng);
    EdgeList kept;
    for (const auto &e : list) {
        if (e.second % 7 == 0)
            continue; // zero in-degree destinations
        kept.push_back(e);
    }
    return Graph::fromEdges(n, kept, true);
}

struct CoefCase
{
    const char *name;
    EdgeCoefKind kind;
    float epsilon;
};

} // namespace

TEST(Kernels, SpmmBitExactAcrossOpsCoefsWidthsAndThreads)
{
    const VertexId n = 97; // deliberately not a multiple of any chunk
    const Graph g = raggedGraph(n, 400, 11);
    const EdgeSet es = EdgeSet::fromGraph(g, true);
    const auto inv = invSqrtDegreesPlusSelf(g);

    const CoefCase coefs[] = {
        {"one", EdgeCoefKind::One, 0.0f},
        {"gcn-norm", EdgeCoefKind::GcnNorm, 0.0f},
        {"gin-eps", EdgeCoefKind::GinEps, 0.25f},
    };
    // Ragged widths: below / at / just above / far past the feature
    // tile, plus width 1.
    const std::size_t widths[] = {1, 3, 16, 17, 33};
    const AggOp ops[] = {AggOp::Add, AggOp::Mean, AggOp::Max, AggOp::Min};

    for (std::size_t width : widths) {
        Rng rng(100 + width);
        Matrix x(n, width);
        x.fillRandom(rng);
        for (const CoefCase &cc : coefs) {
            const EdgeCoefFn coef(cc.kind, inv, cc.epsilon);
            for (AggOp op : ops) {
                Matrix golden(n, width);
                std::vector<std::uint32_t> golden_touch(n, 0);
                scalarAggregateWindow(es.view(), op, coef, x, 0, n, 0, n,
                                      golden, golden_touch);
                for (int threads : {1, 2, 4}) {
                    Matrix acc(n, width);
                    std::vector<std::uint32_t> touch(n, 0);
                    kernels::spmmWindow(es.view(), op, coef, x, 0, n, 0,
                                        n, acc, touch, threads);
                    EXPECT_TRUE(Matrix::bytesEqual(golden, acc))
                        << cc.name << " width=" << width
                        << " op=" << static_cast<int>(op)
                        << " threads=" << threads;
                    EXPECT_EQ(golden_touch, touch)
                        << cc.name << " width=" << width
                        << " threads=" << threads;
                }
            }
        }
    }
}

TEST(Kernels, SpmmWindowedTraversalBitExactIncludingEmptyWindows)
{
    const VertexId n = 64;
    const Graph g = raggedGraph(n, 250, 3);
    const EdgeSet es = EdgeSet::fromGraph(g, true);
    const auto inv = invSqrtDegreesPlusSelf(g);
    const EdgeCoefFn coef(EdgeCoefKind::GcnNorm, inv, 0.0f);
    Rng rng(9);
    Matrix x(n, 17);
    x.fillRandom(rng);

    for (AggOp op : {AggOp::Add, AggOp::Mean, AggOp::Max, AggOp::Min}) {
        Matrix golden(n, 17);
        std::vector<std::uint32_t> golden_touch(n, 0);
        scalarAggregateWindow(es.view(), op, coef, x, 0, n, 0, n, golden,
                              golden_touch);

        for (int threads : {1, 4}) {
            Matrix acc(n, 17);
            std::vector<std::uint32_t> touch(n, 0);
            // Uneven windows, including several guaranteed-empty
            // source ranges ([s, s) and beyond-range windows).
            for (VertexId s = 0; s < n; s += 5) {
                kernels::spmmWindow(es.view(), op, coef, x, 0, n, s, s,
                                    acc, touch, threads); // empty
                kernels::spmmWindow(es.view(), op, coef, x, 0, n, s,
                                    std::min<VertexId>(s + 5, n), acc,
                                    touch, threads);
            }
            kernels::spmmWindow(es.view(), op, coef, x, 0, n, n, n, acc,
                                touch, threads); // empty tail
            EXPECT_TRUE(Matrix::bytesEqual(golden, acc))
                << "op=" << static_cast<int>(op)
                << " threads=" << threads;
            EXPECT_EQ(golden_touch, touch);
        }
    }
}

TEST(Kernels, SpmmZeroDegreeRowsUntouched)
{
    // Destinations with no in-edges must keep their accumulator rows
    // and touch counts exactly as initialized, at any thread count.
    const VertexId n = 35;
    const Graph g = raggedGraph(n, 120, 5);
    const EdgeSet es = EdgeSet::fromGraph(g, false); // no self loops
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    Rng rng(2);
    Matrix x(n, 3);
    x.fillRandom(rng);

    for (int threads : {1, 4}) {
        Matrix acc(n, 3);
        std::vector<std::uint32_t> touch(n, 0);
        kernels::spmmWindow(es.view(), AggOp::Max, one, x, 0, n, 0, n,
                            acc, touch, threads);
        for (VertexId v = 0; v < n; ++v) {
            if (es.view().sources(v).empty()) {
                EXPECT_EQ(touch[v], 0u);
                for (float f : acc.row(v))
                    EXPECT_EQ(f, 0.0f);
            }
        }
    }
}

TEST(Kernels, GemmBitExactAcrossShapesAndThreads)
{
    // Ragged row counts and widths around the register tile (4) and
    // panel width (16), with ReLU-induced exact zeros exercising the
    // zero-skip path.
    struct Shape
    {
        std::size_t rows, k, n;
    };
    const Shape shapes[] = {
        {1, 1, 1},   {3, 5, 7},    {4, 16, 16}, {5, 17, 33},
        {64, 33, 8}, {97, 16, 48},
    };
    for (const Shape &s : shapes) {
        Rng rng(1000 + s.rows + s.k + s.n);
        Matrix acc(s.rows, s.k);
        acc.fillRandom(rng);
        // Plant exact zeros to hit the a == 0.0f skip.
        for (std::size_t r = 0; r < s.rows; ++r)
            acc.at(r, r % s.k) = 0.0f;
        Matrix w1(s.k, s.n), w2(s.n, 5);
        w1.fillRandom(rng);
        w2.fillRandom(rng);
        std::vector<Matrix> weights;
        weights.push_back(w1);
        weights.push_back(w2);
        std::vector<std::vector<float>> biases;
        biases.emplace_back(s.n, 0.125f);
        biases.emplace_back(5, -0.25f);

        for (Activation act :
             {Activation::None, Activation::ReLU,
              Activation::SoftmaxRows}) {
            const Matrix golden =
                scalarCombineRows(acc, weights, biases, act);
            for (int threads : {1, 2, 4}) {
                const Matrix out = kernels::combineGemm(
                    acc, weights, biases, act, threads);
                EXPECT_TRUE(Matrix::bytesEqual(golden, out))
                    << s.rows << "x" << s.k << "x" << s.n
                    << " act=" << static_cast<int>(act)
                    << " threads=" << threads;
            }
        }
    }
}

TEST(Kernels, CombineRowsMoveAvoidsInputCopy)
{
    // The by-value entry point must not deep-copy a moved-in input:
    // the matrix's storage is reused as stage input in place.
    Rng rng(77);
    Matrix acc(8, 4);
    acc.fillRandom(rng);
    const float *storage = acc.row(0).data();
    Matrix w(4, 4);
    w.fillRandom(rng);
    std::vector<Matrix> weights = {w};
    std::vector<std::vector<float>> biases = {{0.0f, 0.0f, 0.0f, 0.0f}};

    const Matrix expect = scalarCombineRows(acc, weights, biases,
                                            Activation::ReLU);
    Matrix moved = std::move(acc);
    EXPECT_EQ(moved.row(0).data(), storage); // move, not copy
    const Matrix out = combineRows(std::move(moved), weights, biases,
                                   Activation::ReLU);
    EXPECT_TRUE(Matrix::bytesEqual(expect, out));
}

TEST(Kernels, ReferenceExecutorThreadedRunsByteIdentical)
{
    // End-to-end: a full model run at 1, 2, and 4 kernel threads
    // produces byte-identical layer outputs and readout.
    Rng rng(21);
    const Graph g =
        Graph::fromEdges(80, generateUniform(80, 320, rng), true);
    const ModelConfig model = makeModel(ModelId::GIN, 12, 2);
    const ModelParams params = makeParams(model, 5);
    Matrix x0(80, 12);
    x0.fillRandom(rng);

    ReferenceExecutor ref(g);
    ReferenceResult base = ref.run(model, params, x0, 5, true);
    for (int threads : {2, 4}) {
        ReferenceExecutor threaded(g);
        threaded.setThreads(threads);
        ReferenceResult r = threaded.run(model, params, x0, 5, true);
        ASSERT_EQ(r.layerOutputs.size(), base.layerOutputs.size());
        for (std::size_t li = 0; li < base.layerOutputs.size(); ++li)
            EXPECT_TRUE(Matrix::bytesEqual(base.layerOutputs[li],
                                           r.layerOutputs[li]))
                << "threads=" << threads << " layer=" << li;
        EXPECT_TRUE(Matrix::bytesEqual(base.readout, r.readout));
    }
}

TEST(Kernels, ResolveThreadsHonorsEnvAndClamps)
{
    EXPECT_EQ(kernels::resolveThreads(3), 3);
    EXPECT_EQ(kernels::resolveThreads(1), 1);
    EXPECT_EQ(kernels::resolveThreads(1000), 64); // pool cap

    ASSERT_EQ(setenv("HYGCN_THREADS", "5", 1), 0);
    EXPECT_EQ(kernels::resolveThreads(0), 5);
    EXPECT_EQ(kernels::resolveThreads(2), 2); // explicit wins
    ASSERT_EQ(setenv("HYGCN_THREADS", "garbage", 1), 0);
    EXPECT_EQ(kernels::resolveThreads(0), 1);
    ASSERT_EQ(unsetenv("HYGCN_THREADS"), 0);
    EXPECT_EQ(kernels::resolveThreads(0), 1);
}

// ---- thread pool ---------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool;
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(4, hits.size(), 7,
                     [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i)
                             hits[i].fetch_add(1);
                     });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_LE(pool.workerCount(), 3u);
}

TEST(ThreadPool, ManySmallJobsReuseWorkers)
{
    // The accelerator's functional path posts thousands of tiny
    // window jobs; the pool must stay correct (and race-clean under
    // TSAN) across rapid post/drain cycles.
    ThreadPool pool;
    std::vector<std::atomic<int>> hits(64);
    for (int job = 0; job < 2000; ++job) {
        pool.parallelFor(4, hits.size(), 3,
                         [&](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i)
                                 hits[i].fetch_add(1);
                         });
    }
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 2000);
    EXPECT_LE(pool.workerCount(), 3u); // spawned once, reused
}

TEST(ThreadPool, InlineFastPathSpawnsNothing)
{
    ThreadPool pool;
    int calls = 0;
    pool.parallelFor(1, 100, 8, [&](std::size_t b, std::size_t e) {
        ++calls;
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 100u);
    });
    // Single-chunk ranges also run inline regardless of threads.
    pool.parallelFor(8, 5, 8, [&](std::size_t b, std::size_t e) {
        ++calls;
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 5u);
    });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(pool.workerCount(), 0u);
}

TEST(ThreadPool, ConcurrentCallersDegradeInlineWithoutDeadlock)
{
    // Two threads race parallelFor on the same pool: one wins the
    // caller lock, the other runs inline. Either way every element
    // is processed exactly once per caller.
    ThreadPool pool;
    std::vector<std::atomic<int>> hits(512);
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
        callers.emplace_back([&] {
            for (int rep = 0; rep < 50; ++rep)
                pool.parallelFor(3, hits.size(), 16,
                                 [&](std::size_t b, std::size_t e) {
                                     for (std::size_t i = b; i < e; ++i)
                                         hits[i].fetch_add(1);
                                 });
        });
    }
    for (std::thread &c : callers)
        c.join();
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 4 * 50);
}

TEST(ThreadPool, FreshPoolsShutDownCleanly)
{
    // Construct/use/destroy in a loop: join-on-destruction must not
    // hang or leak even when a pool is destroyed right after a job.
    for (int rep = 0; rep < 20; ++rep) {
        ThreadPool pool;
        std::atomic<int> sum{0};
        pool.parallelFor(3, 100, 9, [&](std::size_t b, std::size_t e) {
            sum.fetch_add(static_cast<int>(e - b));
        });
        EXPECT_EQ(sum.load(), 100);
    }
    // Destroying an idle, never-used pool is also clean.
    ThreadPool idle;
    (void)idle;
}

namespace {

/** Thread ids that ran chunks of one job. */
struct ThreadIds
{
    std::mutex mutex;
    std::set<std::thread::id> ids;

    void add()
    {
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    }
};

/** Spin (yielding) until @p flag is set. */
void
awaitFlag(const std::atomic<bool> &flag)
{
    while (!flag.load())
        std::this_thread::yield();
}

} // namespace

TEST(ThreadPool, SmallerJobAfterGrowthUsesAtMostItsThreads)
{
    // Slow chunks give every parked worker time to claim one, so a
    // job that woke all of them would see many ids.
    auto slow_job = [](ThreadPool &pool, unsigned threads) {
        ThreadIds seen;
        pool.parallelFor(threads, 64, 1, [&](std::size_t, std::size_t) {
            seen.add();
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        });
        return seen.ids.size();
    };
    ThreadPool pool;
    slow_job(pool, 8);
    ASSERT_EQ(pool.workerCount(), 7u);
    EXPECT_LE(slow_job(pool, 2), 2u);
    EXPECT_LE(slow_job(pool, 3), 3u);
}

TEST(ThreadPool, NoMoreWorkersThanChunks)
{
    ThreadPool pool;
    std::vector<std::atomic<int>> hits(30);
    pool.parallelFor(8, hits.size(), 10, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_LE(pool.workerCount(), 2u); // 3 chunks: caller + 2
}

namespace {

/** Run a 4-thread job on @p pool whose chunks throw on the caller or
 *  on the workers, and count how often parallelFor throws. */
int
throwingJob(ThreadPool &pool, bool throw_on_caller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    int caught = 0;
    try {
        pool.parallelFor(4, 256, 1, [&](std::size_t, std::size_t) {
            const bool on_caller = std::this_thread::get_id() == caller;
            if (on_caller == throw_on_caller) {
                thrown.store(true);
                throw std::runtime_error("chunk failed");
            }
            // Hold this chunk until the other side has thrown, so
            // both a worker and the caller take part for certain.
            awaitFlag(thrown);
        });
    } catch (const std::runtime_error &) {
        ++caught;
    }
    return caught;
}

/** The next job on @p pool covers [0, 1000) exactly once. */
void
expectCoversOnce(ThreadPool &pool)
{
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(4, hits.size(), 7, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

} // namespace

TEST(ThreadPool, WorkerExceptionRethrownOnceAndPoolStaysUsable)
{
    ThreadPool pool;
    EXPECT_EQ(throwingJob(pool, false), 1);
    expectCoversOnce(pool);
}

TEST(ThreadPool, CallerExceptionRethrownOnceAndPoolStaysUsable)
{
    ThreadPool pool;
    EXPECT_EQ(throwingJob(pool, true), 1);
    expectCoversOnce(pool);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    // Every outer chunk makes a nested call on the same pool. After
    // its call, the caller's chunk waits until a worker has made one
    // and the workers' chunks wait until the caller has, so both
    // kinds of nesting happen; each nested call must run its whole
    // range inline on the thread that made it.
    ThreadPool pool;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> worker_nested{false};
    std::atomic<bool> caller_nested{false};
    std::atomic<int> inline_calls{0};
    std::vector<std::atomic<int>> hits(64 * 16);
    pool.parallelFor(4, 64, 1, [&](std::size_t b, std::size_t) {
        const std::thread::id self = std::this_thread::get_id();
        pool.parallelFor(4, 16, 1, [&](std::size_t ib, std::size_t ie) {
            if (ib == 0 && ie == 16 && std::this_thread::get_id() == self)
                inline_calls.fetch_add(1);
            for (std::size_t i = ib; i < ie; ++i)
                hits[b * 16 + i].fetch_add(1);
        });
        if (self == caller) {
            caller_nested.store(true);
            awaitFlag(worker_nested);
        } else {
            worker_nested.store(true);
            awaitFlag(caller_nested);
        }
    });
    EXPECT_TRUE(worker_nested.load());
    EXPECT_TRUE(caller_nested.load());
    EXPECT_EQ(inline_calls.load(), 64);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    expectCoversOnce(pool);
}

TEST(ThreadPool, AcceleratorManySmallWindowsStress)
{
    // Functional accelerator run on a graph small enough that the
    // plan degenerates into many tiny windows, with threaded kernels:
    // the pool sees a rapid stream of sub-millisecond jobs from
    // inside the engine loop. Must match the scalar run byte-for-byte.
    Rng rng(31);
    const Graph g =
        Graph::fromEdges(120, generateUniform(120, 600, rng), true);
    const EdgeSet es = EdgeSet::fromGraph(g, true);
    const auto inv = invSqrtDegreesPlusSelf(g);
    const EdgeCoefFn coef(EdgeCoefKind::GcnNorm, inv, 0.0f);
    Matrix x(120, 33);
    x.fillRandom(rng);

    Matrix golden(120, 33);
    std::vector<std::uint32_t> golden_touch(120, 0);
    scalarAggregateWindow(es.view(), AggOp::Add, coef, x, 0, 120, 0, 120,
                          golden, golden_touch);

    Matrix acc(120, 33);
    std::vector<std::uint32_t> touch(120, 0);
    // 1-row source windows: maximal job churn.
    for (VertexId s = 0; s < 120; ++s)
        kernels::spmmWindow(es.view(), AggOp::Add, coef, x, 0, 120, s,
                            s + 1, acc, touch, 4);
    EXPECT_TRUE(Matrix::bytesEqual(golden, acc));
    EXPECT_EQ(golden_touch, touch);
}
