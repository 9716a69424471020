/**
 * @file
 * The unified platform API: every execution backend (the HyGCN
 * accelerator, its Aggregation-Engine-only mode, and the PyG CPU/GPU
 * baselines) is a Platform that maps one RunSpec to one RunResult.
 * Harnesses, examples, and sweeps all go through this interface; the
 * per-backend entry points are implementation details behind it.
 */

#ifndef HYGCN_API_PLATFORM_HPP
#define HYGCN_API_PLATFORM_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "graph/dataset.hpp"
#include "model/models.hpp"
#include "sim/report.hpp"
#include "sim/trace.hpp"

namespace hygcn::api {

/**
 * Everything needed to reproduce one run: which platform, which
 * scenario (dataset/model/seed), and which knobs. A RunSpec is plain
 * data — it can be expanded by a Session, executed on any thread,
 * and echoed into JSON next to its result.
 */
struct RunSpec
{
    /** Registry key of the executing platform ("hygcn", "pyg-cpu", ...). */
    std::string platform = "hygcn";

    DatasetId dataset = DatasetId::CR;
    ModelId model = ModelId::GCN;

    /**
     * Registry name of a registered custom dataset; when non-empty
     * it overrides the built-in id above, making Registry::datasets
     * factories addressable from a spec (cached by name in
     * DatasetCache).
     */
    std::string datasetName;

    /** Registry name of a registered custom model; when non-empty it
     *  overrides the built-in id above. */
    std::string modelName;

    /** Convolution iterations k (makeModel's num_layers). */
    int numLayers = 2;

    /** Deterministic seed for parameters, sampling, and features. */
    std::uint64_t seed = 7;

    /** Dataset generation seed. */
    std::uint64_t datasetSeed = 1;

    /**
     * Dataset vertex scale; <= 0 selects the default benchmarking
     * scale (full Table 4 size, Reddit at 1/20).
     */
    double datasetScale = 0.0;

    /** Functional run (bit-exact outputs) vs timing-only. */
    bool functional = false;

    /** Also perform the Readout operation (multi-graph datasets). */
    bool withReadout = false;

    /** Record per-interval engine activity into RunResult::trace. */
    bool collectTrace = false;

    /**
     * Keep 1/factor of each vertex's edges (1 = all). Honored by the
     * Aggregation-Engine-only platform ("hygcn-agg").
     */
    std::uint32_t sampleFactor = 1;

    /**
     * Serve the scenario as a co-batch of this many disjoint copies
     * of the dataset in one pass (the multi-graph path): >1 replaces
     * the dataset with its `batchCopies`-fold disjoint union, which
     * is how the serving tier's "measured" cost model prices real
     * batch-size-B runs. 1 (the default) leaves the spec untouched.
     */
    std::uint32_t batchCopies = 1;

    /**
     * Kernel threads for functional-mode execution: > 0 exact, 0
     * (default) = auto via the HYGCN_THREADS environment knob,
     * falling back to 1. Functional outputs are byte-identical at
     * any setting; timing-only runs ignore it.
     */
    int threads = 0;

    /** Accelerator configuration (used by the HyGCN platforms). */
    HyGCNConfig hygcn;

    /** Sweep parameters applied via applyParam, in application order. */
    std::vector<std::pair<std::string, double>> varied;

    /** Compact human-readable identity: "platform/model/dataset [k=v ...]". */
    std::string label() const;
};

/**
 * Outcome of one run: the timing/energy/statistics report plus the
 * optional functional outputs (subsuming AcceleratorResult) and the
 * spec that produced it.
 */
struct RunResult
{
    /** The spec this result answers (echoed into JSON). */
    RunSpec spec;

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

    /** Engine activity spans (populated when spec.collectTrace). */
    Trace trace;
};

/** An execution backend: maps one RunSpec to one RunResult. */
class Platform
{
  public:
    virtual ~Platform() = default;

    /** Registry key this platform answers to. */
    virtual std::string name() const = 0;

    /**
     * Execute @p spec. Deterministic: equal specs yield equal
     * results. Must be safe to call from multiple threads on
     * distinct Platform instances.
     */
    virtual RunResult run(const RunSpec &spec) const = 0;
};

/**
 * Apply sweep parameter @p key = @p value to @p spec and record it in
 * spec.varied. Known keys: the HyGCNConfig buffer capacities
 * ("aggBufBytes", "inputBufBytes", "edgeBufBytes", "weightBufBytes",
 * "outputBufBytes"), engine geometry ("simdCores", "simdWidth",
 * "systolicModules", "moduleRows", "moduleCols", "moduleBudget" =
 * modules at the fixed 32-row PE budget), the optimization toggles
 * ("sparsityElimination", "interEnginePipeline", "memoryCoordination",
 * "pipelineMode": 0 latency-aware / 1 energy-aware, "aggMode":
 * 0 vertex-disperse / 1 vertex-concentrated), "clockHz", and
 * the run knobs "seed", "numLayers", "sampleFactor", "datasetScale",
 * and "threads" (functional kernel threads; 0 = auto).
 * Throws std::invalid_argument on an unknown key.
 */
void applyParam(RunSpec &spec, const std::string &key, double value);

} // namespace hygcn::api

#endif // HYGCN_API_PLATFORM_HPP
