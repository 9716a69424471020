#include "baseline/gpu_model.hpp"

#include <algorithm>
#include <cmath>

#include "model/layer.hpp"
#include "sim/energy.hpp"

namespace hygcn {

namespace {

/**
 * PyG materializes per-edge messages (scatter path) whenever the
 * aggregator is not a plain spmm-expressible Add-after-Combine:
 * Max/Min reductions and aggregate-first models (GIN). This drives
 * both extra traffic and the paper's out-of-memory failures.
 */
bool
materializesMessages(const ModelConfig &model, const LayerConfig &layer)
{
    return layer.aggOp != AggOp::Add || !model.cpuCombineFirst;
}

} // namespace

GpuModel::GpuModel(GpuConfig config) : config_(config) {}

SimReport
GpuModel::run(const Dataset &dataset, const ModelConfig &model,
              std::uint64_t sample_seed, const GpuRunOptions &options)
{
    SimReport report;
    report.platform =
        options.partitionOptimized ? "PyG-GPU-OP" : "PyG-GPU";
    report.clockHz = config_.clockGhz * 1e9;

    const Graph &graph = dataset.graph;
    const double v = graph.numVertices();

    double agg_seconds = 0.0, comb_seconds = 0.0;
    double agg_bytes = 0.0, comb_bytes = 0.0;
    double flops_total = 0.0;
    std::uint64_t peak_working_set =
        static_cast<std::uint64_t>(v) * dataset.featureLen * kElemBytes +
        graph.numEdges() * 12ull;

    const double gemm_rate = config_.peakFlops * config_.gemmEfficiency;
    const double gather_rate =
        config_.memBytesPerSec * config_.gatherEfficiency;

    for (std::size_t li = 0; li < model.layers.size(); ++li) {
        const LayerConfig &layer = model.layers[li];
        const EdgeSet edges = buildLayerEdges(
            graph, layer, layerSampleSeed(sample_seed, li));
        const double e = static_cast<double>(edges.numEdges());
        const int f_agg = model.cpuCombineFirst ? layer.outFeatures()
                                                : layer.inFeatures;

        // --- Aggregation: gather-bound scatter kernels.
        double bytes = e * f_agg * kElemBytes   // neighbor reads
                       + e * 8.0               // edge indices
                       + v * f_agg * kElemBytes; // result writes
        if (materializesMessages(model, layer)) {
            // Materialized message tensor: write + read back.
            bytes += 2.0 * e * f_agg * kElemBytes;
            peak_working_set += static_cast<std::uint64_t>(
                e * f_agg * kElemBytes);
        }
        agg_bytes += bytes;

        if (!options.partitionOptimized) {
            agg_seconds += bytes / gather_rate +
                           config_.kernelsPerAggregation *
                               config_.kernelLaunchSeconds;
        } else {
            // Partitioned execution: the CPU-oriented interval/shard
            // schedule (partitions sized to the host L2) is ported
            // as-is, so each shard becomes a tiny kernel batch that
            // cannot fill 5120 cores (occupancy collapse, Fig 10b).
            const std::uint64_t part_rows = std::max<std::uint64_t>(
                1, (256ull * 1024 / 2) /
                       std::max<std::uint64_t>(
                           1, static_cast<std::uint64_t>(f_agg) *
                                  kElemBytes));
            const double parts =
                std::ceil(v / static_cast<double>(part_rows));
            const double occ = std::min(
                1.0, static_cast<double>(part_rows) * f_agg /
                         config_.saturationThreads);
            agg_seconds += bytes / (gather_rate * std::max(occ, 0.05)) +
                           parts * config_.kernelsPerAggregation *
                               config_.kernelLaunchSeconds;
        }

        // --- Combination: cuBLAS GEMM roofline.
        int f_in = layer.inFeatures;
        for (int f_out : layer.mlpDims) {
            const double flops = 2.0 * v * f_in * f_out;
            flops_total += flops;
            comb_bytes += v * (f_in + f_out) * kElemBytes;
            comb_seconds += flops / gemm_rate *
                                (1.0 + config_.copySyncOverhead) +
                            config_.kernelsPerCombination *
                                config_.kernelLaunchSeconds;
            f_in = f_out;
        }
    }

    if (model.isDiffPool) {
        const double k = model.clusters;
        const double flops =
            4.0 * v * k * k +
            2.0 * static_cast<double>(graph.numEdges()) * k;
        flops_total += flops;
        comb_seconds += flops / gemm_rate + config_.kernelLaunchSeconds;
        comb_bytes += v * k * kElemBytes * 3.0;
    }

    const bool oom = peak_working_set > config_.memCapacityBytes;
    const double total_seconds = agg_seconds + comb_seconds;
    report.cycles = static_cast<Cycle>(total_seconds * report.clockHz);

    report.stats.set(Gauge::PhaseAggSeconds, agg_seconds);
    report.stats.set(Gauge::PhaseCombSeconds, comb_seconds);
    report.stats.set(Gauge::GpuOom, oom ? 1.0 : 0.0);
    report.stats.add(Counter::DramReadBytes,
                     static_cast<std::uint64_t>(agg_bytes + comb_bytes));
    report.stats.set(Gauge::GpuBandwidthUtilization,
                     total_seconds > 0
                         ? (agg_bytes + comb_bytes) / total_seconds /
                               config_.memBytesPerSec
                         : 0.0);

    const EnergyTable e{};
    report.energy.charge(Energy::GpuCompute, flops_total * e.gpuOp);
    report.energy.charge(Energy::GpuDram, (agg_bytes + comb_bytes) * 8.0 *
                                              config_.hbm2PjPerBit);
    report.energy.charge(Energy::GpuStatic,
                         total_seconds * config_.staticPowerWatt * 1e12);
    return report;
}

} // namespace hygcn
