#include "core/accelerator.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/aggregation_engine.hpp"
#include "core/combination_engine.hpp"
#include "model/kernels.hpp"
#include "core/pipeline.hpp"
#include "graph/partition.hpp"
#include "graph/sampling.hpp"
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

/** The window plan of @p view at aggregation width @p f_in. */
WindowPlan
layerPlan(const HyGCNConfig &config, const CscView &view, int f_in)
{
    PartitionConfig pc;
    pc.aggBufBytes = config.aggBufBytes;
    pc.inputBufBytes = config.inputBufBytes;
    pc.edgeBufBytes = config.edgeBufBytes;
    pc.pingPongAgg = config.interEnginePipeline;
    pc.featureLen = f_in;
    const PartitionDims dims = computePartitionDims(pc);
    return buildWindowPlan(view, dims.intervalSize, dims.windowHeight,
                           dims.maxEdgesPerWindow, config.windowMode());
}

/** Count @p plan's rows and windows into the plan.* counters. */
void
countPlan(StatGroup &stats, const WindowPlan &plan)
{
    std::uint64_t windows = 0;
    for (const IntervalWork &work : plan.intervals)
        windows += work.windows.size();
    stats.add(Counter::PlanLoadedRows, plan.loadedRows);
    stats.add(Counter::PlanGridRows, plan.gridRows);
    stats.add(Counter::PlanWindowsTotal, windows);
}

/**
 * The report of a run that finished at cycle @p now: the engine, HBM
 * and coordinator stats, the ledger plus the DRAM energy of every
 * byte moved, and the gauges derived from them.
 */
SimReport
assembleReport(const RunContext &ctx, const HyGCNConfig &config,
               std::string platform, Cycle now)
{
    SimReport report;
    report.platform = std::move(platform);
    report.cycles = now;
    report.clockHz = config.clockHz;
    report.combWeightLoadEnergyPj = ctx.comb.weightLoadEnergyPj();
    report.stats.merge(ctx.stats);
    report.stats.merge(ctx.hbm.stats());
    report.stats.merge(ctx.coord.stats());
    report.energy.merge(ctx.ledger);
    report.energy.charge(Energy::Dram,
                         config.energy.hbmPerByte() *
                             static_cast<double>(report.dramBytes()));
    report.stats.set(Gauge::DramBandwidthUtilization,
                     report.bandwidthUtilization(
                         config.effectiveHbm().peakBytesPerSec()));
    if (ctx.vertexLatencyCount > 0) {
        report.stats.set(Gauge::CombAvgVertexLatency,
                         ctx.vertexLatencySum / ctx.vertexLatencyCount);
    }
    const std::uint64_t grid = report.stats.get(Counter::PlanGridRows);
    if (grid > 0) {
        report.stats.set(
            Gauge::PlanSparsityReduction,
            1.0 - static_cast<double>(
                      report.stats.get(Counter::PlanLoadedRows)) /
                      static_cast<double>(grid));
    }
    return report;
}

/**
 * Execute one convolution layer: one aggregate step and one combine
 * step per interval, issued in the pipelined order (InterEnginePipeline)
 * or in the N-PP order (aggregate and spill every interval, then fill
 * and combine each). Returns the completion cycle. @p x_in == nullptr
 * means timing-only. @p x_out receives functional outputs when present.
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
    countPlan(ctx.stats, plan);

    // Each step records its engine's trace span under the interval's
    // index. Interval i's functional aggregation rows live from
    // aggregate(i) until combine(i) moves them into the engine.
    std::vector<Matrix> accs(functional ? plan.intervals.size() : 0);
    auto record = [&](const char *track, std::size_t i, Cycle begin,
                      Cycle end) {
        if (ctx.trace) {
            char label[48];
            std::snprintf(label, sizeof(label), "L%zu I%zu",
                          ctx.layerIndex, i);
            ctx.trace->record(track, label, begin, end);
        }
    };
    auto aggregate = [&](std::size_t i, Cycle start) {
        const IntervalWork &work = plan.intervals[i];
        std::vector<std::uint32_t> touch;
        if (functional) {
            accs[i] = Matrix(work.numVertices(), f_in);
            touch.assign(work.numVertices(), 0);
        }
        const AggIntervalTiming at = ctx.agg.processInterval(
            view, work, f_in, layer.aggOp, coef, x_in,
            functional ? &accs[i] : nullptr, functional ? &touch : nullptr,
            start, amap, in_base);
        record("agg", i, start, at.finish);
        return at.finish;
    };
    auto combine = [&](std::size_t i, Cycle start, Cycle agg_cycles) {
        const IntervalWork &work = plan.intervals[i];
        const VertexId n_int = work.numVertices();
        Matrix out_local;
        const CombIntervalTiming ct = ctx.comb.processInterval(
            n_int, weights, biases, layer.activation,
            functional ? &accs[i] : nullptr,
            functional ? &out_local : nullptr, start, amap, out_base,
            static_cast<std::uint64_t>(work.dstBegin) * f_out * kElemBytes,
            agg_cycles);
        record("comb", i, start, ct.finish);
        ctx.vertexLatencySum += ct.avgVertexLatency * n_int;
        ctx.vertexLatencyCount += n_int;
        if (functional) {
            std::copy(out_local.data().begin(), out_local.data().end(),
                      x_out->data().begin() +
                          static_cast<std::size_t>(work.dstBegin) * f_out);
        }
        return ct.finish;
    };

    if (config.interEnginePipeline) {
        InterEnginePipeline pipe(now);
        for (std::size_t i = 0; i < plan.intervals.size(); ++i) {
            const Cycle agg_start = pipe.aggStart();
            const Cycle agg_finish = aggregate(i, agg_start);
            pipe.noteAggFinish(agg_finish);
            pipe.noteCombFinish(combine(i, pipe.combStart(agg_finish),
                                        agg_finish - agg_start));
        }
        return pipe.finish();
    }

    // N-PP: spill every interval's aggregation results to DRAM, then
    // fill each one back and combine it.
    auto spillOrFill = [&](std::size_t i, bool spill, Cycle t) {
        const IntervalWork &work = plan.intervals[i];
        std::vector<MemRequest> reqs;
        emitLines(reqs, amap.aggBase,
                  static_cast<std::uint64_t>(work.dstBegin) * f_in *
                      kElemBytes,
                  static_cast<std::uint64_t>(work.numVertices()) * f_in *
                      kElemBytes,
                  RequestType::AggIntermediate, spill);
        return ctx.coord.issueBatch(std::move(reqs), t);
    };
    Cycle t = now;
    for (std::size_t i = 0; i < plan.intervals.size(); ++i)
        t = spillOrFill(i, true, aggregate(i, t));
    for (std::size_t i = 0; i < plan.intervals.size(); ++i) {
        t = spillOrFill(i, false, t);
        t = combine(i, t, t - now);
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
            const WindowPlan plan =
                layerPlan(config_, edges.view(), layer.inFeatures);
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
                    Energy::AggEngine,
                    config_.energy.simdOp *
                        static_cast<double>(graph.numVertices()) * f);
            }
            const Cycle loads = ctx.coord.issueBatch(std::move(reqs), now);
            now = loads + compute;
            ctx.stats.add(Counter::ReadoutCycles, compute);
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
        const WindowPlan plan =
            layerPlan(config_, edges.view(), pool.inFeatures);
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
        ++ctx.layerIndex;
        now = runLayer(ctx, config_, embed, edges.view(), plan,
                       params.weights[1], params.biases[1], coef_embed,
                       functional ? x0 : nullptr,
                       functional ? &z : nullptr, now, amap.inputBase,
                       amap.outputBase, amap, params.layerParamBytes(1));
        ++ctx.layerIndex;

        // A * C on the Aggregation Engine (plain adjacency).
        const EdgeSet adj = EdgeSet::fromGraph(graph, false);
        const WindowPlan aplan =
            layerPlan(config_, adj.view(), model.clusters);
        Matrix ac;
        if (functional)
            ac = Matrix(graph.numVertices(), model.clusters);
        const Cycle ac_start = now;
        now = ctx.agg.processPlan(adj.view(), aplan, model.clusters,
                                  functional ? &c : nullptr,
                                  functional ? &ac : nullptr, now, amap,
                                  amap.outputBase);
        if (trace) {
            char label[32];
            std::snprintf(label, sizeof(label), "L%zu AC", ctx.layerIndex);
            trace->record("agg", label, ac_start, now);
        }

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

    result.report = assembleReport(ctx, config_, "HyGCN", now);
    return result;
}

SimReport
HyGCNAccelerator::runAggregation(const Dataset &dataset,
                                 std::uint32_t sample_factor,
                                 std::uint64_t sample_seed)
{
    RunContext ctx(config_);
    const Graph &graph = dataset.graph;
    const EdgeSet edges =
        sample_factor > 1
            ? EdgeSet::fromView(NeighborSampler::sampleByFactor(
                                    graph.csc(), sample_factor, sample_seed)
                                    .view(),
                                true)
            : EdgeSet::fromGraph(graph, true);
    const WindowPlan plan =
        layerPlan(config_, edges.view(), dataset.featureLen);
    countPlan(ctx.stats, plan);
    const Cycle now = ctx.agg.processPlan(edges.view(), plan,
                                          dataset.featureLen, nullptr,
                                          nullptr, 0, AddressMap{});
    return assembleReport(ctx, config_, "HyGCN-Agg", now);
}

} // namespace hygcn
