/**
 * @file
 * Functional-core kernel harness: scalar reference loops vs the
 * vectorized kernels vs the threaded kernels, across the Table-4
 * dataset shapes (first GCN layer: SpMM aggregation at the dataset's
 * feature length, then the combine GEMM into a 128-wide hidden
 * layer) plus a feature-width sweep on the Cora graph. Every variant
 * is byte-compared against the scalar loops before any timing is
 * reported — the speedup numbers are only meaningful because the
 * outputs are identical.
 *
 * With --json PATH the harness writes the machine-readable
 * BENCH_spmm.json consumed by the CI bench-regression gate. The gated
 * metric is speedup_vec — single-thread vectorized speedup over the
 * scalar loops — a wallclock *ratio* measured in one process, so it
 * is largely host-independent; the checked-in baseline is still
 * recorded conservatively (--baseline PATH derates it 2x) so slower
 * or noisier CI hosts have headroom while the 25% gate catches the
 * kernels silently falling back to scalar-grade code. Thread-scaling
 * rows (2 and 4 threads) are reported but not gated: CI runners
 * often have a single core, where threading cannot win wallclock —
 * its correctness is asserted by tests/test_kernels.cpp instead.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "model/kernels.hpp"
#include "model/layer.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"

using namespace hygcn;
using namespace hygcn::bench;

namespace {

/** The pre-kernel scalar loops, kept verbatim as the baseline the
 *  kernels are measured (and byte-verified) against. */
void
scalarAggregate(const CscView &view, const EdgeCoefFn &coef,
                const Matrix &x, Matrix &acc,
                std::vector<std::uint32_t> &touch)
{
    const std::size_t feats = x.cols();
    for (VertexId dst = 0; dst < view.numVertices; ++dst) {
        auto out = acc.row(dst);
        std::uint32_t &cnt = touch[dst];
        for (const VertexId src : view.sources(dst)) {
            const auto feat = x.row(src);
            const float c = coef(src, dst);
            for (std::size_t f = 0; f < feats; ++f)
                out[f] += c * feat[f];
            ++cnt;
        }
    }
}

Matrix
scalarCombine(const Matrix &acc, const Matrix &w,
              const std::vector<float> &b)
{
    Matrix next(acc.rows(), w.cols());
    for (std::size_t r = 0; r < acc.rows(); ++r) {
        const auto in = acc.row(r);
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
    next.reluInPlace();
    return next;
}

bool
bytesEqual(const Matrix &a, const Matrix &b)
{
    return a.sameShape(b) &&
           (a.rows() == 0 || a.cols() == 0 ||
            std::memcmp(a.row(0).data(), b.row(0).data(),
                        a.rows() * a.cols() * sizeof(float)) == 0);
}

double
seconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct CaseResult
{
    std::string name;
    std::size_t vertices = 0;
    std::size_t features = 0;
    double scalarMs = 0.0;
    double vecMs = 0.0;
    double t2Ms = 0.0;
    double t4Ms = 0.0;
    double speedupVec = 0.0;
    double speedupT2 = 0.0;
    double speedupT4 = 0.0;
};

/** One aggregate+combine pass through the kernels at @p threads. */
Matrix
kernelPass(const CscView &view, const EdgeCoefFn &coef, const Matrix &x,
           const Matrix &w, const std::vector<float> &b, int threads,
           double &out_ms)
{
    std::vector<Matrix> weights;
    weights.push_back(w);
    std::vector<std::vector<float>> biases;
    biases.push_back(b);
    const auto t0 = std::chrono::steady_clock::now();
    Matrix acc(view.numVertices, x.cols());
    std::vector<std::uint32_t> touch(view.numVertices, 0);
    kernels::spmmWindow(view, AggOp::Add, coef, x, 0, view.numVertices,
                        0, view.numVertices, acc, touch, threads);
    Matrix out = kernels::combineGemm(std::move(acc), weights, biases,
                                      Activation::ReLU, threads);
    out_ms = seconds(t0) * 1e3;
    return out;
}

/**
 * Benchmark one (graph, feature width) case: scalar loops, then the
 * kernels at 1 / 2 / 4 threads, byte-verifying every variant.
 * Returns false on a mismatch (the harness then exits nonzero).
 */
bool
runCase(const std::string &name, const Graph &graph, std::size_t feats,
        std::vector<CaseResult> &results)
{
    const EdgeSet edges = EdgeSet::fromGraph(graph, true);
    const CscView view = edges.view();
    const auto inv = invSqrtDegreesPlusSelf(graph);
    const EdgeCoefFn coef(EdgeCoefKind::GcnNorm, inv, 0.0f);

    Rng rng(kSeed);
    Matrix x(graph.numVertices(), feats);
    x.fillRandom(rng);
    Matrix w(feats, 128);
    w.fillRandom(rng);
    std::vector<float> b(128, 0.1f);

    CaseResult r;
    r.name = name;
    r.vertices = graph.numVertices();
    r.features = feats;

    // Scalar baseline: best of two passes (the first pass also warms
    // x and w into cache for everyone).
    Matrix scalar_out;
    r.scalarMs = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        Matrix scalar_acc(view.numVertices, feats);
        std::vector<std::uint32_t> scalar_touch(view.numVertices, 0);
        scalarAggregate(view, coef, x, scalar_acc, scalar_touch);
        scalar_out = scalarCombine(scalar_acc, w, b);
        r.scalarMs = std::min(r.scalarMs, seconds(t0) * 1e3);
    }

    // Kernel variants, each byte-verified against the scalar run.
    struct Variant
    {
        int threads;
        double *ms;
        double *speedup;
    };
    const Variant variants[] = {{1, &r.vecMs, &r.speedupVec},
                                {2, &r.t2Ms, &r.speedupT2},
                                {4, &r.t4Ms, &r.speedupT4}};
    for (const Variant &v : variants) {
        Matrix out;
        *v.ms = 1e30;
        for (int rep = 0; rep < 2; ++rep) {
            double ms = 0.0;
            out = kernelPass(view, coef, x, w, b, v.threads, ms);
            *v.ms = std::min(*v.ms, ms);
        }
        if (!bytesEqual(scalar_out, out)) {
            std::fprintf(stderr,
                         "FAIL %s: %d-thread kernel output differs "
                         "from the scalar loops\n",
                         name.c_str(), v.threads);
            return false;
        }
        *v.speedup = *v.ms > 0.0 ? r.scalarMs / *v.ms : 0.0;
    }

    row(name, {static_cast<double>(r.vertices),
               static_cast<double>(r.features), r.scalarMs, r.vecMs,
               r.speedupVec, r.speedupT2, r.speedupT4});
    results.push_back(r);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    double derate = 1.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            json_path = argv[++i];
            derate = 2.0;
        }
    }

    banner("spmm_kernels",
           "vectorized/threaded functional core vs the scalar loops "
           "(first GCN layer: SpMM aggregation + 128-wide combine "
           "GEMM; byte-verified before timing)");
    header("case", {"vertices", "feats", "scalar ms", "vec ms",
                    "vec x", "2t x", "4t x"});

    std::vector<CaseResult> results;
    bool ok = true;

    // Table-4 dataset shapes at the default benchmarking scale.
    for (DatasetId id : figureDatasets()) {
        const Dataset &data = dataset(id);
        ok = runCase(datasetAbbrev(id), data.graph,
                     static_cast<std::size_t>(data.featureLen),
                     results) &&
             ok;
    }

    // Feature-width sweep on the Cora graph: the SpMM inner-block
    // and GEMM panel logic across narrow, tile-width, and wide rows.
    const Dataset &cora = dataset(DatasetId::CR);
    for (std::size_t feats : {32, 128, 512}) {
        ok = runCase("CR/f" + std::to_string(feats), cora.graph, feats,
                     results) &&
             ok;
    }

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject().field("bench", "spmm_kernels");
        w.key("cases").beginArray();
        for (const CaseResult &r : results)
            w.beginObject()
                .field("case", r.name)
                .field("vertices", r.vertices)
                .field("features", r.features)
                .field("scalar_ms", r.scalarMs)
                .field("vec_ms", r.vecMs)
                .field("speedup_vec", r.speedupVec / derate)
                .field("speedup_t2", r.speedupT2)
                .field("speedup_t4", r.speedupT4)
                .endObject();
        w.endArray();
        if (derate != 1.0)
            w.field("baseline_derate", derate);
        if (!writeJson(json_path, w.endObject().str()))
            return 1;
    }

    if (!ok) {
        std::fprintf(stderr,
                     "kernel output verification failed — see FAIL "
                     "lines above\n");
        return 1;
    }
    return 0;
}
