/**
 * @file
 * Aggregation Engine (paper section 4.3): 32 SIMD16 cores fed by an
 * eSched task scheduler, a Sampler, a Sparsity Eliminator, and
 * double-buffered Edge/Input Buffers. Processes one destination
 * interval at a time, window by window, in vertex-disperse mode
 * (all lanes cooperate on one vertex's feature elements).
 *
 * The engine is execution-driven: alongside the cycle/energy model
 * it optionally computes the actual aggregation values, enabling
 * bit-exact comparison with the reference executor.
 */

#ifndef HYGCN_CORE_AGGREGATION_ENGINE_HPP
#define HYGCN_CORE_AGGREGATION_ENGINE_HPP

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "graph/window.hpp"
#include "mem/buffer.hpp"
#include "mem/coordinator.hpp"
#include "model/matrix.hpp"
#include "model/reference.hpp"

namespace hygcn {

/** Timing outcome of aggregating one destination interval. */
struct AggIntervalTiming
{
    /** Cycle at which the interval's aggregation results are ready. */
    Cycle finish = 0;
    /** SIMD busy cycles spent on this interval. */
    Cycle computeCycles = 0;
};

/** The Aggregation Engine. */
class AggregationEngine
{
  public:
    /**
     * @param config Accelerator configuration.
     * @param coordinator Shared off-chip access front end.
     * @param ledger Run-wide energy accumulator.
     * @param stats Run-wide statistics.
     */
    AggregationEngine(const HyGCNConfig &config,
                      MemoryCoordinator &coordinator, EnergyLedger &ledger,
                      StatGroup &stats);

    /**
     * Aggregate one destination interval: the aggregate step of a
     * layer's interval walk, which the pipelined and the N-PP
     * schedules both issue (runLayer), and the body of processPlan.
     * The window loop drives the timing, buffer, energy and stats
     * model; the functional values (when @p x, @p acc and @p touch
     * are all given) come from one aggregateWindow call over every
     * source of the interval.
     *
     * That single call is exactly the window-by-window traversal:
     * the windows of @p work are disjoint source ranges in ascending
     * order that together hold every source of every destination in
     * the interval, and each destination's sources are sorted. So per
     * row, the in-window source lists joined in window order are the
     * row's full source list in the same order. Rows are independent
     * and feature lanes are independent FP chains, so every output
     * byte, every @p touch count and the Max/Min first-row copy are
     * the same either way.
     *
     * @param view Layer edge set (destination-major).
     * @param work The interval's effectual shards.
     * @param feature_len Source feature vector length.
     * @param op Aggregate operator.
     * @param coef Per-edge coefficient.
     * @param x Source feature matrix, or nullptr for timing-only.
     * @param acc Output rows (interval-local), or nullptr.
     * @param touch Per-destination fold counts, or nullptr.
     * @param start Earliest start cycle.
     * @param amap Region base addresses.
     * @param input_base_override If nonzero, feature reads use this
     *        base instead of amap.inputBase (layer output ping-pong).
     */
    AggIntervalTiming processInterval(
        const CscView &view, const IntervalWork &work, int feature_len,
        AggOp op, const EdgeCoefFn &coef, const Matrix *x, Matrix *acc,
        std::vector<std::uint32_t> *touch, Cycle start,
        const AddressMap &amap, Addr input_base_override = 0);

    /**
     * The Aggregation-Engine-only pass: aggregate every interval of
     * @p plan back to back with AggOp::Add and unit edge coefficients
     * (DiffPool's A*C product, and HyGCNAccelerator::runAggregation's
     * first GCN layer for the hygcn-agg platform). Results stay on
     * chip. Functional rows land in @p out (whole graph) when @p x and
     * @p out are both given. Returns the finish cycle.
     */
    Cycle processPlan(const CscView &view, const WindowPlan &plan,
                      int feature_len, const Matrix *x, Matrix *out,
                      Cycle start, const AddressMap &amap,
                      Addr input_base_override = 0);

    /**
     * SIMD compute cycles for a window of @p edges edges at feature
     * length @p feature_len, under the configured AggMode.
     * @p imbalance is the interval's max/mean in-degree ratio, used
     * by the vertex-concentrated mode.
     */
    Cycle windowComputeCycles(EdgeId edges, int feature_len,
                              double imbalance) const;

    /**
     * Kernel threads for the functional path (timing is unaffected).
     * Results are byte-identical at any setting.
     */
    void setFunctionalThreads(int threads) { functionalThreads_ = threads; }

  private:
    const HyGCNConfig &config_;
    MemoryCoordinator &coordinator_;
    EnergyLedger &ledger_;
    StatGroup &stats_;
    OnChipBuffer edgeBuf_;
    OnChipBuffer inputBuf_;
    OnChipBuffer aggBuf_;
    int functionalThreads_ = 1;
    /** Running offset into the edge region (traversal order). */
    std::uint64_t edgeRegionOffset_ = 0;
};

} // namespace hygcn

#endif // HYGCN_CORE_AGGREGATION_ENGINE_HPP
