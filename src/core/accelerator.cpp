#include "core/accelerator.hpp"

#include <algorithm>
#include <cassert>

#include "core/aggregation_engine.hpp"
#include "core/combination_engine.hpp"
#include "model/kernels.hpp"
#include "core/pipeline.hpp"
#include "graph/partition.hpp"
#include "graph/window.hpp"
#include "model/layer.hpp"

namespace hygcn {

namespace {

/** Per-run mutable simulation state. */
struct RunContext
{
    explicit RunContext(const HyGCNConfig &config)
        : hbm(config.effectiveHbm()),
          coord(hbm, config.effectiveCoordinator()),
          agg(config, coord, ledger, stats),
          comb(config, coord, ledger, stats)
    {}

    EnergyLedger ledger;
    StatGroup stats;
    HbmModel hbm;
    MemoryCoordinator coord;
    AggregationEngine agg;
    CombinationEngine comb;

    double vertexLatencySum = 0.0;
    std::uint64_t vertexLatencyCount = 0;
    Trace *trace = nullptr;
    std::size_t layerIndex = 0;
};

/** Shard geometry for a layer whose aggregation width is @p f_in. */
PartitionDims
layerDims(const HyGCNConfig &config, int f_in)
{
    PartitionConfig pc;
    pc.aggBufBytes = config.aggBufBytes;
    pc.inputBufBytes = config.inputBufBytes;
    pc.edgeBufBytes = config.edgeBufBytes;
    pc.pingPongAgg = config.interEnginePipeline;
    pc.aggFeatureLen = f_in;
    pc.srcFeatureLen = f_in;
    return computePartitionDims(pc);
}

/**
 * Execute one convolution layer (aggregation + combination over all
 * intervals). Returns the completion cycle. @p x_in == nullptr means
 * timing-only. @p x_out receives functional outputs when present.
 */
Cycle
runLayer(RunContext &ctx, const HyGCNConfig &config,
         const LayerConfig &layer, const CscView &view,
         const WindowPlan &plan, std::span<const Matrix> weights,
         std::span<const std::vector<float>> biases,
         const EdgeCoefFn &coef, const Matrix *x_in, Matrix *x_out,
         Cycle now, Addr in_base, Addr out_base, const AddressMap &amap,
         std::uint64_t param_bytes)
{
    const int f_in = layer.inFeatures;
    const int f_out = layer.outFeatures();
    const bool functional = x_in != nullptr && x_out != nullptr;

    now = ctx.comb.beginLayer(param_bytes, amap, now);
    ctx.stats.add("plan.loaded_rows", plan.loadedRows);
    ctx.stats.add("plan.grid_rows", plan.gridRows);
    ctx.stats.add("plan.windows_total", [&] {
        std::uint64_t n = 0;
        for (const auto &iv : plan.intervals)
            n += iv.windows.size();
        return n;
    }());

    if (config.interEnginePipeline) {
        InterEnginePipeline pipe(now);
        for (const IntervalWork &work : plan.intervals) {
            const VertexId n_int = work.numVertices();
            Matrix acc;
            std::vector<std::uint32_t> touch;
            Matrix out_local;
            if (functional) {
                acc = Matrix(n_int, f_in);
                touch.assign(n_int, 0);
                out_local = Matrix(n_int, f_out);
            }
            const Cycle agg_start = pipe.aggStart();
            const AggIntervalTiming at = ctx.agg.processInterval(
                view, work, f_in, layer.aggOp, coef, x_in,
                functional ? &acc : nullptr, functional ? &touch : nullptr,
                agg_start, amap, in_base);
            pipe.noteAggFinish(at.finish);
            if (ctx.trace) {
                ctx.trace->record(
                    "agg",
                    "L" + std::to_string(ctx.layerIndex) + " I" +
                        std::to_string(work.dstBegin / std::max<VertexId>(
                                           1, work.numVertices())),
                    agg_start, at.finish);
            }

            const Cycle comb_start = pipe.combStart(at.finish);
            const CombIntervalTiming ct = ctx.comb.processInterval(
                n_int, weights, biases, layer.activation,
                functional ? &acc : nullptr,
                functional ? &out_local : nullptr, comb_start, amap,
                out_base,
                static_cast<std::uint64_t>(work.dstBegin) * f_out *
                    kElemBytes,
                at.finish - agg_start);
            pipe.noteCombFinish(ct.finish);
            if (ctx.trace) {
                ctx.trace->record(
                    "comb",
                    "L" + std::to_string(ctx.layerIndex) + " I" +
                        std::to_string(work.dstBegin / std::max<VertexId>(
                                           1, work.numVertices())),
                    comb_start, ct.finish);
            }

            ctx.vertexLatencySum += ct.avgVertexLatency * n_int;
            ctx.vertexLatencyCount += n_int;
            if (functional) {
                for (VertexId v = 0; v < n_int; ++v) {
                    auto src = out_local.row(v);
                    auto dst = x_out->row(work.dstBegin + v);
                    std::copy(src.begin(), src.end(), dst.begin());
                }
            }
        }
        return pipe.finish();
    }

    // --- N-PP: phase-by-phase with aggregation spill to DRAM. ------
    std::vector<Matrix> accs;
    std::vector<std::vector<std::uint32_t>> touches;
    Cycle t = now;
    for (const IntervalWork &work : plan.intervals) {
        const VertexId n_int = work.numVertices();
        Matrix acc;
        std::vector<std::uint32_t> touch;
        if (functional) {
            acc = Matrix(n_int, f_in);
            touch.assign(n_int, 0);
        }
        const AggIntervalTiming at = ctx.agg.processInterval(
            view, work, f_in, layer.aggOp, coef, x_in,
            functional ? &acc : nullptr, functional ? &touch : nullptr, t,
            amap, in_base);
        // Spill the interval's aggregation results off-chip.
        std::vector<MemRequest> spill;
        emitLines(spill, amap.aggBase,
                  static_cast<std::uint64_t>(work.dstBegin) * f_in *
                      kElemBytes,
                  static_cast<std::uint64_t>(n_int) * f_in * kElemBytes,
                  RequestType::AggIntermediate, true);
        t = ctx.coord.issueBatch(std::move(spill), at.finish);
        if (functional) {
            accs.push_back(std::move(acc));
            touches.push_back(std::move(touch));
        }
    }
    // Combination phase: read every interval's results back.
    std::size_t idx = 0;
    for (const IntervalWork &work : plan.intervals) {
        const VertexId n_int = work.numVertices();
        std::vector<MemRequest> fill;
        emitLines(fill, amap.aggBase,
                  static_cast<std::uint64_t>(work.dstBegin) * f_in *
                      kElemBytes,
                  static_cast<std::uint64_t>(n_int) * f_in * kElemBytes,
                  RequestType::AggIntermediate, false);
        t = ctx.coord.issueBatch(std::move(fill), t);

        Matrix out_local;
        if (functional)
            out_local = Matrix(n_int, f_out);
        const CombIntervalTiming ct = ctx.comb.processInterval(
            n_int, weights, biases, layer.activation,
            functional ? &accs[idx] : nullptr,
            functional ? &out_local : nullptr, t, amap, out_base,
            static_cast<std::uint64_t>(work.dstBegin) * f_out * kElemBytes,
            t - now);
        t = ct.finish;
        ctx.vertexLatencySum += ct.avgVertexLatency * n_int;
        ctx.vertexLatencyCount += n_int;
        if (functional) {
            for (VertexId v = 0; v < n_int; ++v) {
                auto src = out_local.row(v);
                auto dst = x_out->row(work.dstBegin + v);
                std::copy(src.begin(), src.end(), dst.begin());
            }
            ++idx;
        }
    }
    return t;
}

/**
 * Aggregation-only pass (DiffPool's A*C product on the flexible
 * Aggregation Engine). Results stay on-chip for the dense products.
 */
Cycle
runAggOnly(RunContext &ctx, const CscView &view, const WindowPlan &plan,
           int feature_len, const Matrix *x, Matrix *out, Cycle now,
           Addr in_base, const AddressMap &amap)
{
    const EdgeCoefFn one(EdgeCoefKind::One, {}, 0.0f);
    Cycle t = now;
    for (const IntervalWork &work : plan.intervals) {
        const VertexId n_int = work.numVertices();
        Matrix acc;
        std::vector<std::uint32_t> touch;
        const bool functional = x != nullptr && out != nullptr;
        if (functional) {
            acc = Matrix(n_int, feature_len);
            touch.assign(n_int, 0);
        }
        const AggIntervalTiming at = ctx.agg.processInterval(
            view, work, feature_len, AggOp::Add, one, x,
            functional ? &acc : nullptr, functional ? &touch : nullptr, t,
            amap, in_base);
        t = at.finish;
        if (functional) {
            for (VertexId v = 0; v < n_int; ++v) {
                auto src = acc.row(v);
                auto dst = out->row(work.dstBegin + v);
                std::copy(src.begin(), src.end(), dst.begin());
            }
        }
    }
    return t;
}

} // namespace

HyGCNAccelerator::HyGCNAccelerator(HyGCNConfig config)
    : config_(std::move(config))
{
    config_.validate();
}

HyGCNAccelerator &
HyGCNAccelerator::setFunctionalThreads(int threads)
{
    functionalThreads_ = kernels::resolveThreads(threads);
    return *this;
}

AcceleratorResult
HyGCNAccelerator::run(const Dataset &dataset, const ModelConfig &model,
                      const ModelParams &params, const Matrix *x0,
                      std::uint64_t sample_seed, bool with_readout,
                      Trace *trace)
{
    RunContext ctx(config_);
    ctx.agg.setFunctionalThreads(functionalThreads_);
    ctx.comb.setFunctionalThreads(functionalThreads_);
    ctx.trace = trace;
    AcceleratorResult result;
    const Graph &graph = dataset.graph;
    const AddressMap amap;
    const bool functional = x0 != nullptr;
    const std::vector<float> inv_sqrt_deg = invSqrtDegreesPlusSelf(graph);

    std::vector<VertexId> boundaries = dataset.graphBoundaries;
    if (boundaries.empty())
        boundaries = {0, graph.numVertices()};

    Cycle now = 0;

    if (!model.isDiffPool) {
        const Matrix *x_in = x0;
        for (std::size_t li = 0; li < model.layers.size(); ++li) {
            const LayerConfig &layer = model.layers[li];
            const EdgeSet edges = buildLayerEdges(
                graph, layer, layerSampleSeed(sample_seed, li));
            const PartitionDims dims = layerDims(config_,
                                                 layer.inFeatures);
            const WindowPlan plan = buildWindowPlan(
                edges.view(), dims.intervalSize, dims.windowHeight,
                dims.maxEdgesPerWindow, config_.windowMode());
            const EdgeCoefFn coef(layer.coef, inv_sqrt_deg, layer.epsilon);

            const Addr in_base =
                (li % 2 == 0) ? amap.inputBase : amap.outputBase;
            const Addr out_base =
                (li % 2 == 0) ? amap.outputBase : amap.inputBase;

            Matrix x_next;
            if (functional)
                x_next = Matrix(graph.numVertices(), layer.outFeatures());
            now = runLayer(ctx, config_, layer, edges.view(), plan,
                           params.weights[li], params.biases[li], coef,
                           functional ? x_in : nullptr,
                           functional ? &x_next : nullptr, now, in_base,
                           out_base, amap, params.layerParamBytes(li));
            if (functional) {
                result.layerOutputs.push_back(std::move(x_next));
                x_in = &result.layerOutputs.back();
            }
            ++ctx.layerIndex;
        }

        if (with_readout) {
            // Readout = an extra aggregation into one vertex per
            // component, executed by the Aggregation Engine.
            std::vector<MemRequest> reqs;
            Cycle compute = 0;
            const std::size_t first_layer =
                model.readoutConcat ? 0 : model.layers.size() - 1;
            for (std::size_t li = first_layer; li < model.layers.size();
                 ++li) {
                const int f = model.layers[li].outFeatures();
                const Addr base =
                    (li % 2 == 0) ? amap.outputBase : amap.inputBase;
                emitLines(reqs, base, 0,
                          static_cast<std::uint64_t>(
                              graph.numVertices()) * f * kElemBytes,
                          RequestType::InputFeature, false);
                compute += static_cast<std::uint64_t>(
                               graph.numVertices()) * f /
                               config_.totalLanes() +
                           1;
                ctx.ledger.charge(
                    "agg_engine",
                    config_.energy.simdOp *
                        static_cast<double>(graph.numVertices()) * f);
            }
            const Cycle loads = ctx.coord.issueBatch(std::move(reqs), now);
            now = loads + compute;
            ctx.stats.add("readout.cycles", compute);
            if (functional) {
                result.readout = computeReadout(result.layerOutputs,
                                                boundaries,
                                                model.readoutConcat);
            }
        }
    } else {
        // --- DiffPool: pool GCN, embed GCN, then pooling products. --
        const LayerConfig &pool = model.layers[0];
        const LayerConfig &embed = model.layers[1];
        const EdgeSet edges = buildLayerEdges(graph, pool, 0);
        const PartitionDims dims = layerDims(config_, pool.inFeatures);
        const WindowPlan plan = buildWindowPlan(
            edges.view(), dims.intervalSize, dims.windowHeight,
            dims.maxEdgesPerWindow, config_.windowMode());
        const EdgeCoefFn coef_pool(pool.coef, inv_sqrt_deg, pool.epsilon);
        const EdgeCoefFn coef_embed(embed.coef, inv_sqrt_deg,
                                    embed.epsilon);

        Matrix c, z;
        if (functional) {
            c = Matrix(graph.numVertices(), pool.outFeatures());
            z = Matrix(graph.numVertices(), embed.outFeatures());
        }
        now = runLayer(ctx, config_, pool, edges.view(), plan,
                       params.weights[0], params.biases[0], coef_pool,
                       functional ? x0 : nullptr,
                       functional ? &c : nullptr, now, amap.inputBase,
                       amap.outputBase, amap, params.layerParamBytes(0));
        now = runLayer(ctx, config_, embed, edges.view(), plan,
                       params.weights[1], params.biases[1], coef_embed,
                       functional ? x0 : nullptr,
                       functional ? &z : nullptr, now, amap.inputBase,
                       amap.outputBase, amap, params.layerParamBytes(1));

        // A * C on the Aggregation Engine (plain adjacency).
        const EdgeSet adj = EdgeSet::fromGraph(graph, false);
        const PartitionDims adims = layerDims(config_, model.clusters);
        const WindowPlan aplan = buildWindowPlan(
            adj.view(), adims.intervalSize, adims.windowHeight,
            adims.maxEdgesPerWindow, config_.windowMode());
        Matrix ac;
        if (functional)
            ac = Matrix(graph.numVertices(), model.clusters);
        now = runAggOnly(ctx, adj.view(), aplan, model.clusters,
                         functional ? &c : nullptr,
                         functional ? &ac : nullptr, now, amap.outputBase,
                         amap);

        // Per component: X' = C^T Z and A' = C^T (A C) on the
        // Combination Engine.
        for (std::size_t g = 0; g + 1 < boundaries.size(); ++g) {
            const VertexId n_g = boundaries[g + 1] - boundaries[g];
            now = ctx.comb.processDenseWork(n_g, model.clusters,
                                            embed.outFeatures(), now);
            now = ctx.comb.processDenseWork(n_g, model.clusters,
                                            model.clusters, now);
            if (functional) {
                Matrix cg = c.rowSlice(boundaries[g], boundaries[g + 1]);
                Matrix zg = z.rowSlice(boundaries[g], boundaries[g + 1]);
                Matrix acg =
                    ac.rowSlice(boundaries[g], boundaries[g + 1]);
                result.pooledX.push_back(cg.matmulTransposedSelf(zg));
                result.pooledA.push_back(cg.matmulTransposedSelf(acg));
            }
        }
        if (functional) {
            result.layerOutputs.push_back(std::move(c));
            result.layerOutputs.push_back(std::move(z));
        }
    }

    // --- Final report ----------------------------------------------
    result.report.platform = "HyGCN";
    result.report.cycles = now;
    result.report.clockHz = config_.clockHz;
    result.report.combWeightLoadCycles = ctx.comb.weightLoadCycles();
    result.report.combWeightLoadEnergyPj = ctx.comb.weightLoadEnergyPj();
    result.report.stats.merge(ctx.stats);
    result.report.stats.merge(ctx.hbm.stats());
    result.report.stats.merge(ctx.coord.stats());
    result.report.energy.merge(ctx.ledger);

    const std::uint64_t dram_bytes =
        ctx.hbm.stats().get("dram.read_bytes") +
        ctx.hbm.stats().get("dram.write_bytes");
    result.report.energy.charge(
        "dram", config_.energy.hbmPerByte() *
                    static_cast<double>(dram_bytes));

    result.report.stats.set(
        "dram.bandwidth_utilization",
        result.report.bandwidthUtilization(
            config_.effectiveHbm().peakBytesPerSec()));
    if (ctx.vertexLatencyCount > 0) {
        result.avgVertexLatency =
            ctx.vertexLatencySum / ctx.vertexLatencyCount;
        result.report.stats.set("comb.avg_vertex_latency",
                                result.avgVertexLatency);
    }
    const std::uint64_t grid = result.report.stats.get("plan.grid_rows");
    if (grid > 0) {
        result.report.stats.set(
            "plan.sparsity_reduction",
            1.0 - static_cast<double>(
                      result.report.stats.get("plan.loaded_rows")) /
                      static_cast<double>(grid));
    }
    return result;
}

} // namespace hygcn
