#include "baseline/cpu_model.hpp"

#include <algorithm>
#include <cmath>

#include "graph/partition.hpp"
#include "graph/window.hpp"
#include "model/layer.hpp"
#include "sim/codegen.hpp"

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

/**
 * Replay the gather pattern of one layer: for every edge, touch the
 * source vertex's feature lines. When the estimated access count
 * exceeds the cap, destinations are stride-sampled and statistics
 * scaled back up. Where rows are whole aligned blocks of lines (see
 * planBlockReplay), one access per block through the widened
 * hierarchy stands in, exactly, for the block's per-line accesses.
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
    const std::uint64_t block_bytes = 64ull * block.lines;
    const std::uint64_t blocks_per_feat = lines_per_feat / block.lines;
    CacheHierarchy caches(block.l1, block.l2, block.l3);
    EdgeId simulated_edges = 0;

    auto touch_edge = [&](VertexId src) {
        const Addr base = feat_base + static_cast<Addr>(src) * feat_bytes;
        for (std::uint64_t k = 0; k < blocks_per_feat; ++k)
            caches.access(base + k * block_bytes);
        ++simulated_edges;
    };

    if (!partitioned) {
        for (VertexId dst = 0; dst < view.numVertices; dst += stride) {
            for (VertexId src : view.sources(dst))
                touch_edge(src);
        }
    } else {
        // Interval/shard traversal sized to half the L2 per the
        // paper's algorithm optimization.
        const VertexId rows = static_cast<VertexId>(std::max<std::uint64_t>(
            1, (config.l2.capacityBytes / 2) / std::max<std::uint64_t>(
                                                   1, feat_bytes)));
        const WindowPlan plan =
            buildWindowPlan(view, rows, rows, static_cast<EdgeId>(-1),
                            WindowMode::SlideShrink);
        for (const IntervalWork &work : plan.intervals) {
            if ((work.dstBegin / std::max<VertexId>(1, rows)) % stride != 0)
                continue;
            for (const Window &w : work.windows) {
                for (VertexId dst = work.dstBegin; dst < work.dstEnd;
                     ++dst) {
                    auto srcs = view.sources(dst);
                    auto lo = std::lower_bound(srcs.begin(), srcs.end(),
                                               w.srcBegin);
                    auto hi = std::lower_bound(lo, srcs.end(), w.srcEnd);
                    for (auto it = lo; it != hi; ++it)
                        touch_edge(*it);
                }
            }
        }
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
    report.stats.set("phase.agg_seconds", agg_seconds);
    report.stats.set("phase.comb_seconds", comb_seconds);
    report.stats.set("phase.agg_fraction",
                     total_seconds > 0 ? agg_seconds / total_seconds
                                       : 0.0);
    report.stats.add("dram.read_bytes",
                     static_cast<std::uint64_t>(agg_dram + comb_dram));
    report.stats.add("cpu.agg_dram_bytes",
                     static_cast<std::uint64_t>(agg_dram));
    report.stats.add("cpu.comb_dram_bytes",
                     static_cast<std::uint64_t>(comb_dram));
    report.stats.add("cpu.agg_instructions",
                     static_cast<std::uint64_t>(agg_instr));
    report.stats.add("cpu.comb_instructions",
                     static_cast<std::uint64_t>(comb_instr));
    report.stats.set("cpu.agg_bytes_per_op",
                     agg_ops > 0 ? agg_dram / agg_ops : 0.0);
    report.stats.set("cpu.comb_bytes_per_op",
                     comb_flops > 0 ? comb_dram / (comb_flops / 2.0)
                                    : 0.0);
    report.stats.set(
        "cpu.agg_l2_mpki",
        agg_instr > 0 ? agg_l2m / agg_instr * 1000.0 : 0.0);
    report.stats.set(
        "cpu.agg_l3_mpki",
        agg_instr > 0 ? agg_l3m / agg_instr * 1000.0 : 0.0);
    // Combination misses are streaming, estimated from its traffic.
    report.stats.set(
        "cpu.comb_l2_mpki",
        comb_instr > 0 ? (comb_dram / 64.0 * 1.8) / comb_instr * 1000.0
                       : 0.0);
    report.stats.set(
        "cpu.comb_l3_mpki",
        comb_instr > 0 ? (comb_dram / 64.0) / comb_instr * 1000.0 : 0.0);
    report.stats.set("cpu.sync_ratio", config_.syncOverhead);

    // --- Energy ------------------------------------------------------
    const EnergyTable e{};
    report.energy.charge("cpu.compute",
                         (agg_ops + comb_flops) * e.cpuOp);
    report.energy.charge("cpu.cache", cache_bytes * e.cpuCachePerByte);
    report.energy.charge("dram",
                         (agg_dram + comb_dram) * e.ddr4PerByte());
    report.energy.charge("cpu.static", total_seconds *
                                           config_.packagePowerWatt *
                                           1e12);
    report.stats.set(
        "cpu.agg_dram_energy_per_op_nj",
        agg_ops > 0 ? agg_dram * e.ddr4PerByte() / agg_ops * 1e-3 : 0.0);
    report.stats.set(
        "cpu.comb_dram_energy_per_op_nj",
        comb_flops > 0
            ? comb_dram * e.ddr4PerByte() / (comb_flops / 2.0) * 1e-3
            : 0.0);
    return report;
}

} // namespace hygcn
