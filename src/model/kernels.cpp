#include "model/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "sim/codegen.hpp"
#include "sim/thread_pool.hpp"

namespace hygcn::kernels {

namespace {

/** Feature-tile width of the SpMM inner loops: small enough to stay
 *  in registers, wide enough to fill any SIMD unit the compiler
 *  targets. Ragged widths take the scalar tail below. */
constexpr std::size_t kFeatBlock = 16;

/** GEMM register tile: kRowTile destination rows accumulate against
 *  one packed weight panel of kPanelWidth columns, so each panel row
 *  loaded from cache feeds kRowTile rows of output. */
constexpr std::size_t kRowTile = 4;
constexpr std::size_t kPanelWidth = 16;

/** Dynamic-scheduling chunk sizes (rows per claim). Small chunks
 *  keep power-law degree skew balanced across workers. */
constexpr std::size_t kAggChunkRows = 8;
constexpr std::size_t kGemmChunkRows = 32;

// ---- vector-friendly row primitives -------------------------------
// Fixed 16-lane blocks expressed as GCC vector extensions: one
// vector-typed operation per block compiles to native zmm/ymm/xmm
// code at each clone's width, and vector-typed locals are register
// allocated (the autovectorizer, by contrast, leaves block
// accumulators on the stack around the zero-skip branches below).
// Per-element op sequences match the scalar reference exactly —
// lanes are independent FP chains, so width never changes a result.

#if defined(__GNUC__) || defined(__clang__)
#define HYGCN_VEC_EXT 1
typedef float VecBlock __attribute__((
    vector_size(sizeof(float) * kFeatBlock), aligned(alignof(float)),
    may_alias));
#else
#define HYGCN_VEC_EXT 0
#endif

__attribute__((always_inline)) inline void
rowAddScaled(float *__restrict out, const float *__restrict src, float c,
             std::size_t n)
{
    std::size_t f = 0;
#if HYGCN_VEC_EXT
    for (; f + kFeatBlock <= n; f += kFeatBlock)
        *reinterpret_cast<VecBlock *>(out + f) +=
            c * *reinterpret_cast<const VecBlock *>(src + f);
#else
    for (; f + kFeatBlock <= n; f += kFeatBlock)
        for (std::size_t i = 0; i < kFeatBlock; ++i)
            out[f + i] += c * src[f + i];
#endif
    for (; f < n; ++f)
        out[f] += c * src[f];
}

__attribute__((always_inline)) inline void
rowAdd(float *__restrict out, const float *__restrict src, std::size_t n)
{
    std::size_t f = 0;
#if HYGCN_VEC_EXT
    for (; f + kFeatBlock <= n; f += kFeatBlock)
        *reinterpret_cast<VecBlock *>(out + f) +=
            *reinterpret_cast<const VecBlock *>(src + f);
#else
    for (; f + kFeatBlock <= n; f += kFeatBlock)
        for (std::size_t i = 0; i < kFeatBlock; ++i)
            out[f + i] += src[f + i];
#endif
    for (; f < n; ++f)
        out[f] += src[f];
}

__attribute__((always_inline)) inline void
rowCopy(float *__restrict out, const float *__restrict src, std::size_t n)
{
    for (std::size_t f = 0; f < n; ++f)
        out[f] = src[f];
}

__attribute__((always_inline)) inline void
rowMax(float *__restrict out, const float *__restrict src, std::size_t n)
{
    std::size_t f = 0;
#if HYGCN_VEC_EXT
    for (; f + kFeatBlock <= n; f += kFeatBlock) {
        VecBlock &o = *reinterpret_cast<VecBlock *>(out + f);
        const VecBlock s =
            *reinterpret_cast<const VecBlock *>(src + f);
        // Lane-wise (o < s) ? s : o — exactly std::max(o, s).
        o = o < s ? s : o;
    }
#else
    for (; f + kFeatBlock <= n; f += kFeatBlock)
        for (std::size_t i = 0; i < kFeatBlock; ++i)
            out[f + i] = std::max(out[f + i], src[f + i]);
#endif
    for (; f < n; ++f)
        out[f] = std::max(out[f], src[f]);
}

__attribute__((always_inline)) inline void
rowMin(float *__restrict out, const float *__restrict src, std::size_t n)
{
    std::size_t f = 0;
#if HYGCN_VEC_EXT
    for (; f + kFeatBlock <= n; f += kFeatBlock) {
        VecBlock &o = *reinterpret_cast<VecBlock *>(out + f);
        const VecBlock s =
            *reinterpret_cast<const VecBlock *>(src + f);
        // Lane-wise (s < o) ? s : o — exactly std::min(o, s).
        o = s < o ? s : o;
    }
#else
    for (; f + kFeatBlock <= n; f += kFeatBlock)
        for (std::size_t i = 0; i < kFeatBlock; ++i)
            out[f + i] = std::min(out[f + i], src[f + i]);
#endif
    for (; f < n; ++f)
        out[f] = std::min(out[f], src[f]);
}

/** In-window sources of @p dst: same clip as the scalar reference. */
inline std::span<const VertexId>
windowSources(const CscView &view, VertexId dst, VertexId src_begin,
              VertexId src_end)
{
    auto srcs = view.sources(dst);
    auto lo = std::lower_bound(srcs.begin(), srcs.end(), src_begin);
    auto hi = std::lower_bound(lo, srcs.end(), src_end);
    return {lo, hi};
}

// ---- ISA-dispatched row kernels -----------------------------------
// One cloned function per aggregation flavor plus the GEMM row block;
// the primitives above inline into each clone and vectorize at that
// clone's width. Feature lanes are independent FP chains, so every
// output element sees the identical mul/add sequence in every clone.

HYGCN_TARGET_CLONES void
aggRowAdd(float *__restrict out, const Matrix &x,
          std::span<const VertexId> srcs, std::size_t feats)
{
    for (const VertexId src : srcs)
        rowAdd(out, x.row(src).data(), feats);
}

HYGCN_TARGET_CLONES void
aggRowAddScaled(float *__restrict out, const Matrix &x,
                std::span<const VertexId> srcs, const EdgeCoefFn &coef,
                VertexId dst, std::size_t feats)
{
    for (const VertexId src : srcs)
        rowAddScaled(out, x.row(src).data(), coef(src, dst), feats);
}

HYGCN_TARGET_CLONES void
aggRowMax(float *__restrict out, const Matrix &x,
          std::span<const VertexId> srcs, bool first, std::size_t feats)
{
    auto it = srcs.begin();
    if (first)
        rowCopy(out, x.row(*it++).data(), feats);
    for (; it != srcs.end(); ++it)
        rowMax(out, x.row(*it).data(), feats);
}

HYGCN_TARGET_CLONES void
aggRowMin(float *__restrict out, const Matrix &x,
          std::span<const VertexId> srcs, bool first, std::size_t feats)
{
    auto it = srcs.begin();
    if (first)
        rowCopy(out, x.row(*it++).data(), feats);
    for (; it != srcs.end(); ++it)
        rowMin(out, x.row(*it).data(), feats);
}

/**
 * One register tile: @p MR destination rows (compile-time, so the m
 * loops fully unroll) against one packed panel of kPanelWidth
 * columns. The accumulators are seeded from the zero-padded bias
 * exactly like the scalar out[j] = b[j], and the zero-input skip
 * mirrors the scalar loop bit for bit — a zero input must leave the
 * accumulator untouched (adding a*0 would flip -0.0 to +0.0).
 */
template <std::size_t MR>
__attribute__((always_inline)) inline void
gemmTile(const Matrix &cur, const float *__restrict panel,
         std::size_t k_dim, const float *__restrict bias_pad,
         std::size_t j0, std::size_t jn, std::size_t r, Matrix &next)
{
    static_assert(kPanelWidth == kFeatBlock);
#if HYGCN_VEC_EXT
    // Vector-typed accumulators stay in SIMD registers across the
    // whole k loop: per k, one panel-row load plus MR broadcast +
    // mul + add, nothing spilled.
    VecBlock accum[MR];
    const VecBlock seed =
        *reinterpret_cast<const VecBlock *>(bias_pad + j0);
    for (std::size_t m = 0; m < MR; ++m)
        accum[m] = seed;
    for (std::size_t k = 0; k < k_dim; ++k) {
        const VecBlock wrow =
            *reinterpret_cast<const VecBlock *>(panel +
                                                k * kPanelWidth);
        for (std::size_t m = 0; m < MR; ++m) {
            const float a = cur.at(r + m, k);
            // Integer zero test, bit-identical to `a != 0.0f`
            // (clears the sign bit; NaNs stay nonzero): one ALU op
            // and one well-predicted branch instead of an FP compare
            // plus a NaN parity branch on the FP ports.
            if (std::bit_cast<std::uint32_t>(a) << 1 != 0u)
                accum[m] += a * wrow;
        }
    }
    for (std::size_t m = 0; m < MR; ++m) {
        if (jn == kPanelWidth)
            *reinterpret_cast<VecBlock *>(next.row(r + m).data() +
                                          j0) = accum[m];
        else
            rowCopy(next.row(r + m).data() + j0,
                    reinterpret_cast<const float *>(&accum[m]), jn);
    }
#else
    float accum[MR][kPanelWidth];
    for (std::size_t m = 0; m < MR; ++m)
        for (std::size_t i = 0; i < kPanelWidth; ++i)
            accum[m][i] = bias_pad[j0 + i];
    for (std::size_t k = 0; k < k_dim; ++k) {
        const float *__restrict wrow = panel + k * kPanelWidth;
        for (std::size_t m = 0; m < MR; ++m) {
            const float a = cur.at(r + m, k);
            if (a == 0.0f)
                continue;
            float *__restrict am = accum[m];
            for (std::size_t i = 0; i < kPanelWidth; ++i)
                am[i] += a * wrow[i];
        }
    }
    for (std::size_t m = 0; m < MR; ++m)
        rowCopy(next.row(r + m).data() + j0, accum[m], jn);
#endif
}

#if HYGCN_VEC_EXT
/**
 * Two-panel register tile: @p MR rows against 2*kPanelWidth columns
 * at once. Each scalar input load, zero test, and broadcast feeds
 * two panel columns' worth of multiplies, and the 2*MR accumulator
 * chains keep both FP pipes busy. Element-wise identical to running
 * gemmTile on each panel separately (lanes are independent).
 */
template <std::size_t MR>
__attribute__((always_inline)) inline void
gemmTile2(const Matrix &cur, const float *__restrict panel0,
          const float *__restrict panel1, std::size_t k_dim,
          const float *__restrict bias_pad, std::size_t j0,
          std::size_t jn1, std::size_t r, Matrix &next)
{
    VecBlock acc0[MR], acc1[MR];
    const VecBlock seed0 =
        *reinterpret_cast<const VecBlock *>(bias_pad + j0);
    const VecBlock seed1 = *reinterpret_cast<const VecBlock *>(
        bias_pad + j0 + kPanelWidth);
    for (std::size_t m = 0; m < MR; ++m) {
        acc0[m] = seed0;
        acc1[m] = seed1;
    }
    for (std::size_t k = 0; k < k_dim; ++k) {
        const VecBlock w0 = *reinterpret_cast<const VecBlock *>(
            panel0 + k * kPanelWidth);
        const VecBlock w1 = *reinterpret_cast<const VecBlock *>(
            panel1 + k * kPanelWidth);
        for (std::size_t m = 0; m < MR; ++m) {
            const float a = cur.at(r + m, k);
            if (std::bit_cast<std::uint32_t>(a) << 1 != 0u) {
                acc0[m] += a * w0;
                acc1[m] += a * w1;
            }
        }
    }
    for (std::size_t m = 0; m < MR; ++m) {
        float *out = next.row(r + m).data() + j0;
        *reinterpret_cast<VecBlock *>(out) = acc0[m];
        if (jn1 == kPanelWidth)
            *reinterpret_cast<VecBlock *>(out + kPanelWidth) = acc1[m];
        else
            rowCopy(out + kPanelWidth,
                    reinterpret_cast<const float *>(&acc1[m]), jn1);
    }
}
#endif

HYGCN_TARGET_CLONES void
gemmRows(const Matrix &cur, const float *packed, std::size_t panels,
         std::size_t k_dim, std::size_t n_dim,
         const float *__restrict bias_pad, Matrix &next, std::size_t r0,
         std::size_t r1)
{
    std::size_t p = 0;
#if HYGCN_VEC_EXT
    // Panel pairs first (all but the last panel are always full
    // width); a lone trailing panel falls through to the single-panel
    // tile below.
    for (; p + 2 <= panels; p += 2) {
        const std::size_t j0 = p * kPanelWidth;
        const std::size_t jn1 =
            std::min(kPanelWidth, n_dim - j0 - kPanelWidth);
        const float *panel0 = packed + p * k_dim * kPanelWidth;
        const float *panel1 = panel0 + k_dim * kPanelWidth;
        std::size_t r = r0;
        for (; r + kRowTile <= r1; r += kRowTile)
            gemmTile2<kRowTile>(cur, panel0, panel1, k_dim, bias_pad,
                                j0, jn1, r, next);
        for (; r < r1; ++r)
            gemmTile2<1>(cur, panel0, panel1, k_dim, bias_pad, j0, jn1,
                         r, next);
    }
#endif
    for (; p < panels; ++p) {
        const std::size_t j0 = p * kPanelWidth;
        const std::size_t jn = std::min(kPanelWidth, n_dim - j0);
        const float *panel = packed + p * k_dim * kPanelWidth;
        std::size_t r = r0;
        // Full tiles with a compile-time row count (the m-loops fully
        // unroll); trailing rows one at a time.
        for (; r + kRowTile <= r1; r += kRowTile)
            gemmTile<kRowTile>(cur, panel, k_dim, bias_pad, j0, jn, r,
                               next);
        for (; r < r1; ++r)
            gemmTile<1>(cur, panel, k_dim, bias_pad, j0, jn, r, next);
    }
}

} // namespace

int
resolveThreads(int requested)
{
    int threads = requested;
    if (threads <= 0) {
        threads = 1;
        if (const char *env = std::getenv("HYGCN_THREADS")) {
            const int parsed = std::atoi(env);
            if (parsed > 0)
                threads = parsed;
        }
    }
    return std::clamp(threads, 1, static_cast<int>(ThreadPool::kMaxThreads));
}

void
spmmWindow(const CscView &view, AggOp op, const EdgeCoefFn &coef,
           const Matrix &x, VertexId dst_begin, VertexId dst_end,
           VertexId src_begin, VertexId src_end, Matrix &acc,
           std::vector<std::uint32_t> &touch, int threads)
{
    assert(acc.rows() >= dst_end - dst_begin);
    assert(touch.size() >= dst_end - dst_begin);
    const std::size_t feats = x.cols();
    assert(acc.cols() == feats);
    if (dst_end <= dst_begin)
        return;

    // The per-op/per-coefficient dispatch is hoisted out of the edge
    // loop: each case below is one tight AXPY/compare loop per row.
    // Rows are independent (each owns its acc row and touch counter),
    // so the pool splits destination rows into dynamic chunks.
    const std::size_t rows = dst_end - dst_begin;
    const bool unit_coef = coef.kind() == EdgeCoefKind::One;

    auto run_rows = [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            const VertexId dst = dst_begin + static_cast<VertexId>(r);
            const auto srcs =
                windowSources(view, dst, src_begin, src_end);
            if (srcs.empty())
                continue;
            float *out = acc.row(r).data();
            std::uint32_t &cnt = touch[r];
            switch (op) {
              case AggOp::Add:
              case AggOp::Mean:
                if (unit_coef)
                    aggRowAdd(out, x, srcs, feats);
                else
                    aggRowAddScaled(out, x, srcs, coef, dst, feats);
                break;
              case AggOp::Max:
                aggRowMax(out, x, srcs, cnt == 0, feats);
                break;
              case AggOp::Min:
                aggRowMin(out, x, srcs, cnt == 0, feats);
                break;
            }
            cnt += static_cast<std::uint32_t>(srcs.size());
        }
    };

    ThreadPool::global().parallelFor(threads, rows, kAggChunkRows,
                                     run_rows);
}

Matrix
combineGemm(Matrix cur, std::span<const Matrix> weights,
            std::span<const std::vector<float>> biases,
            Activation activation, int threads)
{
    assert(weights.size() == biases.size());
    for (std::size_t s = 0; s < weights.size(); ++s) {
        const Matrix &w = weights[s];
        const std::vector<float> &b = biases[s];
        if (cur.cols() != w.rows())
            throw std::invalid_argument("combine shape mismatch");
        const std::size_t k_dim = w.rows();
        const std::size_t n_dim = w.cols();
        const std::size_t rows = cur.rows();
        Matrix next(rows, n_dim);

        // Pack W into zero-padded column panels: panel p holds all K
        // rows of columns [p*kPanelWidth, ...), contiguous, so the
        // k-loop below streams it with unit stride and one panel row
        // feeds a whole register tile of output rows.
        const std::size_t panels =
            (n_dim + kPanelWidth - 1) / kPanelWidth;
        std::vector<float> packed(panels * k_dim * kPanelWidth, 0.0f);
        for (std::size_t p = 0; p < panels; ++p) {
            const std::size_t j0 = p * kPanelWidth;
            const std::size_t jn = std::min(kPanelWidth, n_dim - j0);
            float *panel = packed.data() + p * k_dim * kPanelWidth;
            for (std::size_t k = 0; k < k_dim; ++k)
                rowCopy(panel + k * kPanelWidth, w.row(k).data() + j0,
                        jn);
        }
        // Bias padded to whole panels, so tile seeding is one
        // unconditional vector load (padding lanes are never stored).
        std::vector<float> bias_pad(panels * kPanelWidth, 0.0f);
        rowCopy(bias_pad.data(), b.data(), n_dim);

        auto run_rows = [&](std::size_t r0, std::size_t r1) {
            gemmRows(cur, packed.data(), panels, k_dim, n_dim,
                     bias_pad.data(), next, r0, r1);
        };
        ThreadPool::global().parallelFor(threads, rows, kGemmChunkRows,
                                         run_rows);

        if (activation == Activation::ReLU)
            next.reluInPlace();
        cur = std::move(next);
    }
    if (activation == Activation::SoftmaxRows)
        cur.softmaxRowsInPlace();
    return cur;
}

} // namespace hygcn::kernels
