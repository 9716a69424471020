#include "baseline/cpu_model.hpp"

#include <algorithm>
#include <cmath>

#include "graph/partition.hpp"
#include "graph/window.hpp"
#include "model/layer.hpp"
#include "sim/codegen.hpp"
#include "sim/energy.hpp"

namespace hygcn {

namespace {

/** Result of replaying one layer's aggregation through the caches. */
struct AggReplay
{
    double instructions = 0.0;
    double dramBytes = 0.0;      // after prefetch waste
    double cacheAccesses = 0.0;  // L1 references
    double l2Misses = 0.0, l3Misses = 0.0;
    EdgeId edges = 0;
};

/** Where one layer's gathered feature rows sit, in replay blocks. */
struct RowBlocks
{
    Addr base = 0;
    std::uint64_t rowBytes = 0;
    std::uint64_t blockBytes = 64;
    std::uint64_t blocksPerRow = 0;
};

/** Access blocks 0..blocksPerRow-1 of row @p src. */
template <unsigned W>
__attribute__((always_inline)) inline void
touchRow(CacheHierarchy &caches, const RowBlocks &rows_at, VertexId src)
{
    const Addr row = rows_at.base + static_cast<Addr>(src) * rows_at.rowBytes;
    for (std::uint64_t k = 0; k < rows_at.blocksPerRow; ++k)
        caches.access<W>(row + k * rows_at.blockBytes);
}

/**
 * The replay loop, comparing W ways per cache lookup step: every edge
 * touches its source's row, destinations in stride-sampled order, or,
 * given @p plan, interval by interval (keeping every @p stride -th
 * interval of @p rows destinations) and window by window. Returns the
 * edges touched.
 */
template <unsigned W>
__attribute__((always_inline)) inline EdgeId
replayLoop(CacheHierarchy &caches, const CscView &view,
           const RowBlocks &rows_at, std::uint32_t stride,
           const WindowPlan *plan, VertexId rows)
{
    EdgeId simulated_edges = 0;
    if (plan == nullptr) {
        for (VertexId dst = 0; dst < view.numVertices; dst += stride) {
            for (VertexId src : view.sources(dst))
                touchRow<W>(caches, rows_at, src);
            simulated_edges += view.sources(dst).size();
        }
        return simulated_edges;
    }
    // The windows of an interval are disjoint, ascending and hold
    // every source of the interval, so one cursor per destination
    // walks its sorted sources window by window. The cursor is
    // copied to a local for the edge loop: read and written back
    // through a reference per edge, it made the paper grid 14%
    // slower than the binary searches it replaces.
    const VertexId *row_idx = view.rowIdx.data();
    std::vector<const VertexId *> cursor;
    for (const IntervalWork &work : plan->intervals) {
        if ((work.dstBegin / std::max<VertexId>(1, rows)) % stride != 0)
            continue;
        cursor.clear();
        for (VertexId dst = work.dstBegin; dst < work.dstEnd; ++dst)
            cursor.push_back(row_idx + view.colPtr[dst]);
        for (const Window &w : work.windows) {
            for (VertexId dst = work.dstBegin; dst < work.dstEnd; ++dst) {
                const VertexId *it = cursor[dst - work.dstBegin];
                const VertexId *end = row_idx + view.colPtr[dst + 1];
                const VertexId *from = it;
                for (; it != end && *it < w.srcEnd; ++it)
                    touchRow<W>(caches, rows_at, *it);
                simulated_edges += it - from;
                cursor[dst - work.dstBegin] = it;
            }
        }
    }
    return simulated_edges;
}

/**
 * replayLoop() at the lookup width that suits the ISA it runs on: 8
 * ways per step in the AVX-512 body, where they are one zmm register,
 * and 1 elsewhere. Without AVX-512's mask registers, turning a
 * multi-lane compare into a lane index costs more than it saves: a
 * 4-lane AVX2 form replayed Reddit's GIN layer 0 about 1.4x slower
 * than the 1-way walk.
 */
HYGCN_TARGET_CLONES EdgeId
replayEdges(CacheHierarchy &caches, const CscView &view,
            const RowBlocks &rows_at, std::uint32_t stride,
            const WindowPlan *plan, VertexId rows)
{
    if (HYGCN_CLONE_HAS("avx512f"))
        return replayLoop<8>(caches, view, rows_at, stride, plan, rows);
    return replayLoop<1>(caches, view, rows_at, stride, plan, rows);
}

/**
 * Replay the gather pattern of one layer: for every edge, touch the
 * source vertex's feature lines. When the estimated access count
 * exceeds the cap, destinations are stride-sampled and statistics
 * scaled back up. Where rows are whole aligned blocks of lines (see
 * planBlockReplay), one access per block through the widened
 * hierarchy stands in, exactly, for the block's per-line accesses.
 * A row touches ceil(rowBytes / 64) lines from the line holding its
 * first byte, so a row that starts mid-line and straddles one more
 * line leaves that last line untouched (test_cpu_model pins this).
 */
AggReplay
replayAggregation(const CpuConfig &config, const CscView &view,
                  int f_agg, Addr feat_base, bool partitioned)
{
    AggReplay replay;
    const std::uint64_t feat_bytes =
        static_cast<std::uint64_t>(f_agg) * kElemBytes;
    const std::uint64_t lines_per_feat =
        (feat_bytes + 63) / 64;
    const EdgeId total_edges = view.numEdges();
    replay.edges = total_edges;

    const double est_accesses =
        static_cast<double>(total_edges) * lines_per_feat;
    std::uint32_t stride = 1;
    if (est_accesses > static_cast<double>(config.maxSimulatedAccesses)) {
        stride = static_cast<std::uint32_t>(
            std::ceil(est_accesses / config.maxSimulatedAccesses));
    }

    const BlockReplay block = planBlockReplay(config.l1, config.l2, config.l3,
                                              feat_bytes, feat_base, 64);
    const RowBlocks rows_at{feat_base, feat_bytes, 64ull * block.lines,
                            lines_per_feat / block.lines};
    CacheHierarchy caches(block.l1, block.l2, block.l3);

    EdgeId simulated_edges = 0;
    if (!partitioned) {
        simulated_edges =
            replayEdges(caches, view, rows_at, stride, nullptr, 0);
    } else {
        // Interval/shard traversal sized to half the L2 per the
        // paper's algorithm optimization.
        const VertexId rows = static_cast<VertexId>(std::max<std::uint64_t>(
            1, (config.l2.capacityBytes / 2) / std::max<std::uint64_t>(
                                                   1, feat_bytes)));
        const WindowPlan plan =
            buildWindowPlan(view, rows, rows, static_cast<EdgeId>(-1),
                            WindowMode::SlideShrink);
        simulated_edges =
            replayEdges(caches, view, rows_at, stride, &plan, rows);
    }

    const double scale =
        simulated_edges > 0
            ? static_cast<double>(total_edges) / simulated_edges
            : 1.0;
    replay.instructions =
        static_cast<double>(total_edges) *
        (f_agg * config.instrPerElement + config.instrPerEdge);
    replay.dramBytes = static_cast<double>(caches.dramBytes()) * scale *
                       (1.0 + config.prefetchWaste);
    // Per-line counts: b times the block counts.
    auto lines = [&](std::uint64_t blocks) {
        return static_cast<double>(blocks * block.lines) * scale;
    };
    replay.cacheAccesses = lines(caches.level(1).accesses());
    replay.l2Misses = lines(caches.level(2).misses());
    replay.l3Misses = lines(caches.level(3).misses());
    return replay;
}

} // namespace

CpuModel::CpuModel(CpuConfig config) : config_(config) {}

HYGCN_ALIGN_HOT SimReport
CpuModel::run(const Dataset &dataset, const ModelConfig &model,
              std::uint64_t sample_seed, const CpuRunOptions &options)
{
    SimReport report;
    report.platform =
        options.partitionOptimized ? "PyG-CPU-OP" : "PyG-CPU";
    report.clockHz = config_.ghz * 1e9;

    const Graph &graph = dataset.graph;
    const VertexId v = graph.numVertices();

    double agg_seconds = 0.0, comb_seconds = 0.0;
    double agg_instr = 0.0, comb_instr = 0.0;
    double agg_dram = 0.0, comb_dram = 0.0;
    double cache_bytes = 0.0;
    double agg_l2m = 0.0, agg_l3m = 0.0;
    double agg_ops = 0.0, comb_flops = 0.0;

    const double gemm_rate = config_.cores * config_.ghz * 1e9 *
                             config_.simdFlopsPerCycle *
                             config_.gemmEfficiency;

    for (std::size_t li = 0; li < model.layers.size(); ++li) {
        const LayerConfig &layer = model.layers[li];
        const EdgeSet edges = buildLayerEdges(
            graph, layer, layerSampleSeed(sample_seed, li));

        // Feature length seen by aggregation: frameworks shrink it
        // via Combination first for GCN/GSC/DFP (paper section 5.2).
        const int f_agg = model.cpuCombineFirst ? layer.outFeatures()
                                                : layer.inFeatures;

        AggReplay replay = replayAggregation(
            config_, edges.view(), f_agg,
            static_cast<Addr>(li) << 40, options.partitionOptimized);

        // PyG's message-passing path materializes the gathered
        // neighbor features as an E x F tensor. Naively this tensor
        // streams through DRAM (write + read back for the reduce);
        // the interval/shard optimization keeps each shard's
        // messages resident in L2 (the paper's Fig 10a gain).
        const double message_bytes = static_cast<double>(replay.edges) *
                                     f_agg * kElemBytes;
        if (!options.partitionOptimized) {
            replay.dramBytes += 2.0 * message_bytes;
            const double mat_lines = message_bytes / 64.0;
            replay.l2Misses += mat_lines;
            replay.l3Misses += mat_lines;
        } else {
            cache_bytes += 2.0 * message_bytes;
        }

        const double agg_cpu =
            replay.instructions / (config_.ghz * 1e9 * config_.ipc);
        const double agg_mem =
            replay.dramBytes / config_.irregularBytesPerSec;
        // Irregular gathers barely overlap with compute: the stall
        // and instruction streams add rather than hide each other.
        agg_seconds += agg_cpu + agg_mem +
                       2.0 * config_.frameworkOpSeconds;
        agg_instr += replay.instructions;
        agg_dram += replay.dramBytes;
        cache_bytes += replay.cacheAccesses * 64.0;
        agg_l2m += replay.l2Misses;
        agg_l3m += replay.l3Misses;
        agg_ops += static_cast<double>(replay.edges) * f_agg;

        // Combination: MLP stages as GEMM rooflines.
        int f_in = layer.inFeatures;
        for (int f_out : layer.mlpDims) {
            const double flops = 2.0 * v * f_in * f_out;
            comb_seconds += flops / gemm_rate /
                                (1.0 - config_.syncOverhead) +
                            config_.frameworkOpSeconds;
            comb_flops += flops;
            comb_dram += static_cast<double>(v) * (f_in + f_out) *
                             kElemBytes +
                         static_cast<double>(f_in) * f_out * kElemBytes;
            f_in = f_out;
        }
    }

    if (model.isDiffPool) {
        // Pooling products X' = C^T Z, A' = C^T (A C) batched as GEMM.
        const double k = model.clusters;
        const double flops =
            2.0 * v * k * k * 2.0 +
            2.0 * static_cast<double>(graph.numEdges()) * k;
        comb_seconds += flops / gemm_rate + config_.frameworkOpSeconds;
        comb_flops += flops;
        comb_dram += static_cast<double>(v) * k * kElemBytes * 3.0;
    }

    comb_instr = comb_flops / 8.0 * 1.5;

    const double total_seconds = agg_seconds + comb_seconds;
    report.cycles =
        static_cast<Cycle>(total_seconds * config_.ghz * 1e9);

    // --- Statistics --------------------------------------------------
    report.stats.set(Gauge::PhaseAggSeconds, agg_seconds);
    report.stats.set(Gauge::PhaseCombSeconds, comb_seconds);
    report.stats.set(Gauge::PhaseAggFraction,
                     total_seconds > 0 ? agg_seconds / total_seconds
                                       : 0.0);
    report.stats.add(Counter::DramReadBytes,
                     static_cast<std::uint64_t>(agg_dram + comb_dram));
    report.stats.add(Counter::CpuAggDramBytes,
                     static_cast<std::uint64_t>(agg_dram));
    report.stats.add(Counter::CpuCombDramBytes,
                     static_cast<std::uint64_t>(comb_dram));
    report.stats.add(Counter::CpuAggInstructions,
                     static_cast<std::uint64_t>(agg_instr));
    report.stats.add(Counter::CpuCombInstructions,
                     static_cast<std::uint64_t>(comb_instr));
    report.stats.set(Gauge::CpuAggBytesPerOp,
                     agg_ops > 0 ? agg_dram / agg_ops : 0.0);
    report.stats.set(Gauge::CpuCombBytesPerOp,
                     comb_flops > 0 ? comb_dram / (comb_flops / 2.0)
                                    : 0.0);
    report.stats.set(Gauge::CpuAggL2Mpki,
                     agg_instr > 0 ? agg_l2m / agg_instr * 1000.0 : 0.0);
    report.stats.set(Gauge::CpuAggL3Mpki,
                     agg_instr > 0 ? agg_l3m / agg_instr * 1000.0 : 0.0);
    // Combination misses are streaming, estimated from its traffic.
    report.stats.set(
        Gauge::CpuCombL2Mpki,
        comb_instr > 0 ? (comb_dram / 64.0 * 1.8) / comb_instr * 1000.0
                       : 0.0);
    report.stats.set(
        Gauge::CpuCombL3Mpki,
        comb_instr > 0 ? (comb_dram / 64.0) / comb_instr * 1000.0 : 0.0);
    report.stats.set(Gauge::CpuSyncRatio, config_.syncOverhead);

    // --- Energy ------------------------------------------------------
    const EnergyTable e{};
    report.energy.charge(Energy::CpuCompute,
                         (agg_ops + comb_flops) * e.cpuOp);
    report.energy.charge(Energy::CpuCache, cache_bytes * e.cpuCachePerByte);
    report.energy.charge(Energy::Dram,
                         (agg_dram + comb_dram) * e.ddr4PerByte());
    report.energy.charge(Energy::CpuStatic,
                         total_seconds * config_.packagePowerWatt * 1e12);
    report.stats.set(
        Gauge::CpuAggDramEnergyPerOpNj,
        agg_ops > 0 ? agg_dram * e.ddr4PerByte() / agg_ops * 1e-3 : 0.0);
    report.stats.set(
        Gauge::CpuCombDramEnergyPerOpNj,
        comb_flops > 0
            ? comb_dram * e.ddr4PerByte() / (comb_flops / 2.0) * 1e-3
            : 0.0);
    return report;
}

} // namespace hygcn
