/**
 * @file
 * HyGCNAccelerator: the top-level facade tying together the
 * Aggregation Engine, Combination Engine, Coordinator (ping-pong
 * Aggregation Buffer + memory access coordination), and the HBM
 * model. One call runs a full GCN model inference over a dataset and
 * returns timing, energy, statistics, and (optionally) bit-exact
 * functional outputs.
 */

#ifndef HYGCN_CORE_ACCELERATOR_HPP
#define HYGCN_CORE_ACCELERATOR_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "graph/dataset.hpp"
#include "model/models.hpp"
#include "model/reference.hpp"
#include "sim/report.hpp"
#include "sim/trace.hpp"

namespace hygcn {

/** Outcome of one accelerated inference run. */
struct AcceleratorResult
{
    /** Timing / energy / statistics. */
    SimReport report;
    /** Functional per-layer outputs (empty in timing-only runs). */
    std::vector<Matrix> layerOutputs;
    /** Readout rows per component (if requested; functional runs). */
    Matrix readout;
    /** DiffPool pooled features per component (functional runs). */
    std::vector<Matrix> pooledX;
    /** DiffPool pooled adjacency per component (functional runs). */
    std::vector<Matrix> pooledA;
};

/** The HyGCN accelerator simulator. */
class HyGCNAccelerator
{
  public:
    explicit HyGCNAccelerator(HyGCNConfig config);

    /**
     * Run inference of @p model over @p dataset.
     *
     * @param params Model parameters (weights/biases).
     * @param x0 Input features; nullptr selects timing-only mode
     *        (no functional outputs, much faster on large graphs).
     * @param sample_seed Neighbor-sampling seed (must match the
     *        reference run for functional comparison).
     * @param with_readout Also perform the Readout operation
     *        (multi-graph datasets).
     * @param trace Optional span recorder: per-interval activity of
     *        both engines is logged, letting callers verify pipeline
     *        overlap or render a Gantt chart.
     */
    AcceleratorResult run(const Dataset &dataset, const ModelConfig &model,
                          const ModelParams &params,
                          const Matrix *x0 = nullptr,
                          std::uint64_t sample_seed = 7,
                          bool with_readout = false,
                          Trace *trace = nullptr);

    /**
     * Run the Aggregation Engine alone over the first GCN layer of
     * @p dataset (the paper's Fig 15/18 methodology, "only Aggregation
     * Engine"): self loops, full feature width, AggOp::Add, results
     * left on chip. @p sample_factor > 1 first keeps ceil(deg /
     * factor) in-neighbours per vertex, drawn with @p sample_seed.
     * Intervals are sized, plans counted and the report assembled as
     * in run().
     */
    SimReport runAggregation(const Dataset &dataset,
                             std::uint32_t sample_factor,
                             std::uint64_t sample_seed);

    const HyGCNConfig &config() const { return config_; }

    /**
     * Kernel threads for the functional paths of both engines.
     * Timing/energy are unaffected; functional outputs are
     * byte-identical at any setting.
     */
    HyGCNAccelerator &setFunctionalThreads(int threads);

  private:
    HyGCNConfig config_;
    int functionalThreads_ = 1;
};

} // namespace hygcn

#endif // HYGCN_CORE_ACCELERATOR_HPP
