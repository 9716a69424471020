/**
 * @file
 * The vectorized, multithreaded functional core. Two kernels carry
 * every functional-mode path of the repro:
 *
 *  - SpMM aggregation: row-major AXPY over each destination's source
 *    list, with per-operator specialized loops and feature-tiled
 *    fixed-width inner blocks the compiler auto-vectorizes. This is
 *    the irregular-access, bandwidth-bound half of GCN inference the
 *    paper's Aggregation Engine targets.
 *  - Combine GEMM: register-tiled row blocks over packed weight
 *    panels. The regular, compute-bound half the Combination Engine
 *    (systolic array) targets.
 *
 * Both kernels preserve the scalar reference's per-output-element
 * floating-point accumulation order exactly: vectorization runs
 * across feature lanes (independent accumulation chains) and
 * threading runs across output rows (each row computed whole by one
 * worker, sources in ascending order). Results are therefore
 * byte-identical to the scalar loops at any thread count — goldens
 * never move, asserted by tests/test_kernels.cpp.
 */

#ifndef HYGCN_MODEL_KERNELS_HPP
#define HYGCN_MODEL_KERNELS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "model/layer.hpp"
#include "model/matrix.hpp"

namespace hygcn::kernels {

/**
 * Resolve a requested kernel thread count: > 0 selects exactly that
 * many participants; 0 ("auto") reads the HYGCN_THREADS environment
 * knob, defaulting to 1 (the bit-exact scalar-equivalent baseline)
 * when unset or unparsable. Clamped to ThreadPool::kMaxThreads.
 */
int resolveThreads(int requested);

/**
 * SpMM aggregation over the window [src_begin, src_end) x
 * [dst_begin, dst_end): for every destination row, fold the
 * coefficient-scaled features of its in-window sources into @p acc
 * (offset by dst_begin) with @p op, counting folded edges in
 * @p touch. Semantically identical to the scalar per-edge loop —
 * same clipping, same ascending source order, same first-touch
 * Max/Min initialization — and byte-identical in output for 1..N
 * threads. Callers outside the tests pass the full source range
 * [0, numVertices); a sub-window folds into the same @p acc/@p touch
 * exactly as one piece of that full range.
 */
void spmmWindow(const CscView &view, AggOp op, const EdgeCoefFn &coef,
                const Matrix &x, VertexId dst_begin, VertexId dst_end,
                VertexId src_begin, VertexId src_end, Matrix &acc,
                std::vector<std::uint32_t> &touch, int threads);

/**
 * The Combine MLP as a chain of register-tiled GEMMs over packed
 * weight panels: per stage, out = act(in * W + b). Takes the input
 * matrix by value — callers that are done with their activations
 * std::move it in and save the full-matrix copy the old entry point
 * made unconditionally. Per-element accumulation runs over k in
 * ascending order with the scalar path's zero-input skip, so the
 * result is byte-identical to the naive triple loop at any thread
 * count.
 */
Matrix combineGemm(Matrix cur, std::span<const Matrix> weights,
                   std::span<const std::vector<float>> biases,
                   Activation activation, int threads);

} // namespace hygcn::kernels

#endif // HYGCN_MODEL_KERNELS_HPP
