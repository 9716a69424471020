/**
 * @file
 * Functional golden model. Executes the GCN models exactly (float),
 * and exports the aggregation/combination kernels that the
 * accelerator's functional path reuses so both compute in the same
 * floating-point order — making reference-vs-accelerator comparisons
 * bit-exact.
 */

#ifndef HYGCN_MODEL_REFERENCE_HPP
#define HYGCN_MODEL_REFERENCE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "model/layer.hpp"
#include "model/models.hpp"

namespace hygcn {

/**
 * Aggregate all edges whose source lies in [src_begin, src_end) and
 * whose destination lies in [dst_begin, dst_end) into @p acc (one
 * row per destination, offset by dst_begin). @p touch counts edges
 * folded per destination: Max/Min use it for first-touch init, Mean
 * for the final divide. Sources are visited in ascending order, so
 * calls over ascending, disjoint source sub-ranges reproduce the
 * one-call result bit-exactly for every operator. Callers pass whole
 * source ranges: the accelerator's functional path one call per
 * destination interval (AggregationEngine::processInterval), the
 * golden path one call per layer (aggregateFull). Only the tests
 * that pin this equivalence pass sub-windows.
 *
 * Backed by the vectorized kernels::spmmWindow; @p threads > 1
 * parallelizes over destination rows with byte-identical results.
 */
void aggregateWindow(const CscView &view, AggOp op, const EdgeCoefFn &coef,
                     const Matrix &x, VertexId dst_begin, VertexId dst_end,
                     VertexId src_begin, VertexId src_end, Matrix &acc,
                     std::vector<std::uint32_t> &touch, int threads = 1);

/** Finalize an accumulated interval (Mean divide; untouched = 0). */
void finalizeAggregation(AggOp op, Matrix &acc,
                         const std::vector<std::uint32_t> &touch);

/** Full-range aggregation over every destination (golden path). */
Matrix aggregateFull(const CscView &view, AggOp op, const EdgeCoefFn &coef,
                     const Matrix &x, int threads = 1);

/**
 * Apply the Combine MLP to each row of @p acc: out = act(in * W + b)
 * per stage. Shared by the reference and the accelerator functional
 * path. Takes @p acc by value — std::move it in when the caller is
 * done with it to skip the input copy. Backed by the register-tiled
 * kernels::combineGemm; @p threads > 1 parallelizes over rows with
 * byte-identical results.
 */
Matrix combineRows(Matrix acc, std::span<const Matrix> weights,
                   std::span<const std::vector<float>> biases,
                   Activation activation, int threads = 1);

/**
 * Readout (Eq. 3/7): one row per component graph. @p concat stacks
 * per-iteration sums side by side (GIN); otherwise only the final
 * layer is summed. Shared by the reference and the accelerator.
 */
Matrix computeReadout(std::span<const Matrix> layer_outputs,
                      std::span<const VertexId> boundaries, bool concat);

/** Full functional execution result. */
struct ReferenceResult
{
    /** Feature matrix after each convolution layer. */
    std::vector<Matrix> layerOutputs;
    /**
     * Readout vectors, one row per component graph (only for
     * multi-graph datasets / when requested). GIN concatenates the
     * per-iteration sums (Eq. 7); other models sum the final layer.
     */
    Matrix readout;
    /** DiffPool: pooled feature matrix per component (clusters x F). */
    std::vector<Matrix> pooledX;
    /** DiffPool: pooled adjacency per component (clusters^2). */
    std::vector<Matrix> pooledA;
};

/** Golden functional executor for all four models. */
class ReferenceExecutor
{
  public:
    /**
     * @param graph Benchmark graph.
     * @param boundaries Component prefix offsets for multi-graph
     *        datasets (empty = single component covering the graph).
     */
    ReferenceExecutor(const Graph &graph,
                      std::vector<VertexId> boundaries = {});

    /**
     * Kernel thread count for subsequent run() calls: > 0 exact,
     * 0 = auto (HYGCN_THREADS env, default 1). Results are
     * byte-identical at any setting.
     */
    ReferenceExecutor &setThreads(int threads);

    /**
     * Run @p model with @p params on input features @p x0.
     *
     * @param sample_seed Base seed for neighbor sampling (GSC).
     * @param with_readout Compute the Readout output.
     */
    ReferenceResult run(const ModelConfig &model, const ModelParams &params,
                        const Matrix &x0, std::uint64_t sample_seed,
                        bool with_readout = false) const;

  private:
    ReferenceResult runDiffPool(const ModelConfig &model,
                                const ModelParams &params,
                                const Matrix &x0) const;

    const Graph &graph_;
    std::vector<VertexId> boundaries_;
    std::vector<float> invSqrtDeg_;
    int threads_ = 1;
};

} // namespace hygcn

#endif // HYGCN_MODEL_REFERENCE_HPP
