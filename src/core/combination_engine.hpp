/**
 * @file
 * Combination Engine (paper section 4.4): multi-granular systolic
 * modules behind a Weight Buffer and Output Buffer, with a vSched
 * workload scheduler and an Activate Unit. Works in independent mode
 * (each module one vertex group, lowest latency) or cooperative mode
 * (modules merged, weights forwarded through the chain, lowest
 * energy), matching the latency-/energy-aware pipelines.
 */

#ifndef HYGCN_CORE_COMBINATION_ENGINE_HPP
#define HYGCN_CORE_COMBINATION_ENGINE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/systolic.hpp"
#include "mem/buffer.hpp"
#include "mem/coordinator.hpp"
#include "model/matrix.hpp"
#include "model/reference.hpp"

namespace hygcn {

/** Timing outcome of combining one interval of vertices. */
struct CombIntervalTiming
{
    /** Cycle at which all of the interval's outputs are written. */
    Cycle finish = 0;
    /** Systolic busy cycles. */
    Cycle computeCycles = 0;
    /**
     * Average per-vertex latency in cycles, measured from the cycle
     * the vertex's aggregation result became available (Fig 16c).
     */
    double avgVertexLatency = 0.0;
};

/** The Combination Engine. */
class CombinationEngine
{
  public:
    CombinationEngine(const HyGCNConfig &config,
                      MemoryCoordinator &coordinator, EnergyLedger &ledger,
                      StatGroup &stats);

    /**
     * Announce a new layer: loads the layer's MLP parameters into the
     * Weight Buffer (once, if they fit; otherwise they stream per
     * interval). Returns the cycle the first weights are resident.
     */
    Cycle beginLayer(std::uint64_t param_bytes, const AddressMap &amap,
                     Cycle now);

    /**
     * Combine one interval of aggregated vertices through the MLP.
     *
     * @param vertex_count Vertices in the interval.
     * @param weights MLP stage weights.
     * @param biases MLP stage biases.
     * @param activation Post-MLP activation.
     * @param agg_rows Functional aggregation results, or nullptr;
     *        moved from.
     * @param out_rows Receives the interval's combined rows, or
     *        nullptr.
     * @param start Earliest start cycle.
     * @param amap Region bases.
     * @param output_base Where output features are written off-chip.
     * @param output_offset Byte offset of this interval's outputs.
     * @param agg_interval_cycles How long the producing aggregation
     *        ran (for the vertex-latency model).
     */
    CombIntervalTiming processInterval(
        VertexId vertex_count, std::span<const Matrix> weights,
        std::span<const std::vector<float>> biases, Activation activation,
        Matrix *agg_rows, Matrix *out_rows, Cycle start,
        const AddressMap &amap, Addr output_base,
        std::uint64_t output_offset, Cycle agg_interval_cycles);

    /**
     * Dense matrix work (DiffPool pooling products) expressed as a
     * batch of @p group_size MVMs of f_in x f_out each.
     */
    Cycle processDenseWork(std::uint64_t group_size, std::uint64_t f_in,
                           std::uint64_t f_out, Cycle start);

    /**
     * Energy (picojoules) of the batch-invariant weight-load phase
     * (whose critical-path cycles beginLayer adds to the
     * "comb.weight_load_cycles" counter): the beginLayer weight DRAM
     * fetches plus the Weight Buffer fills they land in. The phase
     * depends on the model only, not on the graph, so the serving
     * tier's analytic energy curve amortizes exactly this over
     * co-batched inferences.
     */
    PicoJoule weightLoadEnergyPj() const { return weightLoadEnergyPj_; }

    /**
     * Kernel threads for the functional path (timing is unaffected).
     * Results are byte-identical at any setting.
     */
    void setFunctionalThreads(int threads) { functionalThreads_ = threads; }

  private:
    /** Geometry used under the current pipeline mode. */
    SystolicGeometry activeGeometry() const;

    /** Cooperative mode merges all modules into one array. */
    bool cooperative() const
    { return config_.pipelineMode == PipelineMode::EnergyAware; }

    const HyGCNConfig &config_;
    MemoryCoordinator &coordinator_;
    EnergyLedger &ledger_;
    StatGroup &stats_;
    OnChipBuffer weightBuf_;
    OnChipBuffer outputBuf_;
    OnChipBuffer aggBuf_;
    int functionalThreads_ = 1;
    /** Bytes of the current layer's parameters. */
    std::uint64_t layerParamBytes_ = 0;
    /** True if the whole layer's parameters fit in the Weight Buffer. */
    bool weightsResident_ = false;
    /** Accumulated beginLayer weight-load energy (batch-invariant). */
    PicoJoule weightLoadEnergyPj_ = 0.0;
};

} // namespace hygcn

#endif // HYGCN_CORE_COMBINATION_ENGINE_HPP
