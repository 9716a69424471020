/**
 * @file
 * Built-in Platform adapters: the full HyGCN accelerator, its
 * Aggregation-Engine-only mode (the Fig 15/18 methodology), and the
 * PyG CPU/GPU baselines in naive and partition-optimized flavors.
 * Registered into the Registry under their string keys; nothing here
 * is public API beyond registerBuiltinPlatforms().
 */

#include "api/registry.hpp"

#include <stdexcept>
#include <utility>

#include "api/dataset_cache.hpp"
#include "baseline/cpu_model.hpp"
#include "baseline/gpu_model.hpp"
#include "core/accelerator.hpp"
#include "core/aggregation_engine.hpp"
#include "graph/partition.hpp"
#include "graph/sampling.hpp"
#include "graph/window.hpp"
#include "model/layer.hpp"
#include "model/reference.hpp"

namespace hygcn::api {

namespace {

const Dataset &
specDataset(const RunSpec &spec)
{
    if (spec.batchCopies == 0)
        throw std::invalid_argument("api: batchCopies must be >= 1");
    if (spec.batchCopies > 1)
        return DatasetCache::global().getBatched(
            spec.datasetName, spec.dataset, spec.datasetScale,
            spec.datasetSeed, spec.batchCopies);
    if (!spec.datasetName.empty())
        return DatasetCache::global().get(
            spec.datasetName, spec.datasetScale, spec.datasetSeed);
    return DatasetCache::global().get(spec.dataset, spec.datasetScale,
                                      spec.datasetSeed);
}

ModelConfig
specModel(const RunSpec &spec, const Dataset &data)
{
    if (!spec.modelName.empty())
        return Registry::global().models.make(spec.modelName, data.featureLen,
                                              spec.numLayers);
    return makeModel(spec.model, data.featureLen, spec.numLayers);
}

/**
 * The baseline cost models are timing/energy-only: fail fast on
 * functional-mode knobs instead of silently returning empty outputs.
 */
void
rejectUnsupported(const RunSpec &spec, const std::string &platform)
{
    if (spec.functional || spec.withReadout || spec.collectTrace)
        throw std::invalid_argument(
            "api: platform \"" + platform +
            "\" is timing-only (functional/withReadout/collectTrace "
            "are not supported)");
}

/** The full HyGCN accelerator. */
class HyGCNPlatform : public Platform
{
  public:
    std::string name() const override { return "hygcn"; }

    RunResult run(const RunSpec &spec) const override
    {
        // Fail fast on unbuildable hardware, before the (expensive)
        // dataset is ever generated.
        spec.hygcn.validate();
        const Dataset &data = specDataset(spec);
        const ModelConfig model = specModel(spec, data);
        const ModelParams params = makeParams(model, spec.seed);

        Matrix x0;
        const Matrix *x0_ptr = nullptr;
        if (spec.functional) {
            x0 = makeFeatures(data.numVertices(), data.featureLen,
                              spec.seed);
            x0_ptr = &x0;
        }

        RunResult out;
        out.spec = spec;
        HyGCNAccelerator accel(spec.hygcn);
        accel.setFunctionalThreads(spec.threads);
        AcceleratorResult r =
            accel.run(data, model, params, x0_ptr, spec.seed,
                      spec.withReadout,
                      spec.collectTrace ? &out.trace : nullptr);
        out.report = std::move(r.report);
        out.layerOutputs = std::move(r.layerOutputs);
        out.readout = std::move(r.readout);
        out.pooledX = std::move(r.pooledX);
        out.pooledA = std::move(r.pooledA);
        out.avgVertexLatency = r.avgVertexLatency;
        return out;
    }
};

/**
 * Aggregation Engine in isolation over the first GCN layer — the
 * paper's Fig 15/18 methodology ("runs only Aggregation Engine to
 * avoid the interference of other blocks"). Honors
 * spec.hygcn.sparsityElimination, spec.hygcn.aggBufBytes, and
 * spec.sampleFactor; reports gauge "agg.sparsity_reduction" relative
 * to the grid plan at the same geometry.
 */
class AggOnlyPlatform : public Platform
{
  public:
    std::string name() const override { return "hygcn-agg"; }

    RunResult run(const RunSpec &spec) const override
    {
        rejectUnsupported(spec, name());
        if (spec.model != ModelId::GCN || !spec.modelName.empty())
            throw std::invalid_argument(
                "api: platform \"hygcn-agg\" runs the first GCN "
                "layer only; spec.model must be GCN");
        spec.hygcn.validate();
        const Dataset &data = specDataset(spec);
        const HyGCNConfig &config = spec.hygcn;

        HbmModel hbm(config.effectiveHbm());
        MemoryCoordinator coord(hbm, config.effectiveCoordinator());
        EnergyLedger ledger;
        StatGroup stats;
        AggregationEngine engine(config, coord, ledger, stats);

        // First-layer GCN aggregation: full feature length, self loops.
        EdgeSet edges = EdgeSet::fromGraph(data.graph, true);
        if (spec.sampleFactor > 1) {
            EdgeSet sampled = NeighborSampler::sampleByFactor(
                data.graph.csc(), spec.sampleFactor, spec.seed);
            edges = EdgeSet::fromView(sampled.view(), true);
        }

        PartitionConfig pc;
        pc.aggBufBytes = config.aggBufBytes;
        pc.inputBufBytes = config.inputBufBytes;
        pc.edgeBufBytes = config.edgeBufBytes;
        pc.aggFeatureLen = data.featureLen;
        pc.srcFeatureLen = data.featureLen;
        const PartitionDims dims = computePartitionDims(pc);
        const WindowPlan plan = buildWindowPlan(
            edges.view(), dims.intervalSize, dims.windowHeight,
            dims.maxEdgesPerWindow, config.windowMode());

        const AddressMap amap;
        const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
        Cycle now = 0;
        for (const IntervalWork &work : plan.intervals) {
            const AggIntervalTiming t = engine.processInterval(
                edges.view(), work, data.featureLen, AggOp::Add, one,
                nullptr, nullptr, nullptr, now, amap);
            now = t.finish;
        }

        RunResult out;
        out.spec = spec;
        out.report.platform = "HyGCN-Agg";
        out.report.cycles = now;
        out.report.clockHz = config.clockHz;
        out.report.stats = std::move(stats);
        out.report.stats.merge(hbm.stats());
        out.report.energy = std::move(ledger);

        // Reduction relative to the grid plan at the same geometry.
        const WindowPlan grid = buildWindowPlan(
            edges.view(), dims.intervalSize, dims.windowHeight,
            dims.maxEdgesPerWindow, WindowMode::Grid);
        out.report.stats.set(
            "agg.sparsity_reduction",
            grid.loadedRows > 0
                ? 1.0 - static_cast<double>(plan.loadedRows) /
                            static_cast<double>(grid.loadedRows)
                : 0.0);
        return out;
    }
};

/**
 * PyG-CPU baseline (naive or partition-optimized). Timing and energy
 * come from the calibrated cost model; spec.functional additionally
 * executes the model through the vectorized kernel core
 * (ReferenceExecutor), honoring spec.threads — the CPU baseline is
 * the natural host for actual multithreaded CPU inference.
 */
class CpuPlatform : public Platform
{
  public:
    explicit CpuPlatform(bool partition_optimized)
        : partitionOptimized_(partition_optimized)
    {}

    std::string name() const override
    { return partitionOptimized_ ? "pyg-cpu-part" : "pyg-cpu"; }

    RunResult run(const RunSpec &spec) const override
    {
        if (spec.collectTrace)
            throw std::invalid_argument(
                "api: platform \"" + name() +
                "\" has no engine trace (collectTrace is not "
                "supported)");
        if (spec.withReadout && !spec.functional)
            throw std::invalid_argument(
                "api: platform \"" + name() +
                "\" computes Readout in functional mode only");
        const Dataset &data = specDataset(spec);
        const ModelConfig model = specModel(spec, data);
        CpuModel cpu;
        CpuRunOptions options;
        options.partitionOptimized = partitionOptimized_;
        RunResult out;
        out.spec = spec;
        out.report = cpu.run(data, model, spec.seed, options);
        if (spec.functional) {
            const ModelParams params = makeParams(model, spec.seed);
            const Matrix x0 = makeFeatures(data.numVertices(),
                                           data.featureLen, spec.seed);
            ReferenceExecutor ref(data.graph, data.graphBoundaries);
            ref.setThreads(spec.threads);
            ReferenceResult r = ref.run(model, params, x0, spec.seed,
                                        spec.withReadout);
            out.layerOutputs = std::move(r.layerOutputs);
            out.readout = std::move(r.readout);
            out.pooledX = std::move(r.pooledX);
            out.pooledA = std::move(r.pooledA);
        }
        return out;
    }

  private:
    bool partitionOptimized_;
};

/** PyG-GPU baseline (naive or partition-optimized). */
class GpuPlatform : public Platform
{
  public:
    explicit GpuPlatform(bool partition_optimized)
        : partitionOptimized_(partition_optimized)
    {}

    std::string name() const override
    { return partitionOptimized_ ? "pyg-gpu-part" : "pyg-gpu"; }

    RunResult run(const RunSpec &spec) const override
    {
        rejectUnsupported(spec, name());
        const Dataset &data = specDataset(spec);
        GpuModel gpu;
        GpuRunOptions options;
        options.partitionOptimized = partitionOptimized_;
        RunResult out;
        out.spec = spec;
        out.report =
            gpu.run(data, specModel(spec, data), spec.seed, options);
        return out;
    }

  private:
    bool partitionOptimized_;
};

} // namespace

void
registerBuiltinPlatforms(Registry &registry)
{
    registry.platforms.add("hygcn",
                           [] { return std::make_unique<HyGCNPlatform>(); });
    registry.platforms.add("hygcn-agg",
                           [] { return std::make_unique<AggOnlyPlatform>(); });
    registry.platforms.add(
        "pyg-cpu", [] { return std::make_unique<CpuPlatform>(false); });
    registry.platforms.add("pyg-cpu-part",
                           [] { return std::make_unique<CpuPlatform>(true); });
    registry.platforms.add(
        "pyg-gpu", [] { return std::make_unique<GpuPlatform>(false); });
    registry.platforms.add("pyg-gpu-part",
                           [] { return std::make_unique<GpuPlatform>(true); });
}

} // namespace hygcn::api
