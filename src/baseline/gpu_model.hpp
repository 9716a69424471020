/**
 * @file
 * PyG-GPU baseline cost model (README.md modelling substitution 4): NVIDIA
 * V100 roofline — 14 TFLOPS SP, ~900 GB/s HBM2 — with an
 * irregular-gather efficiency factor for Aggregation, kernel-launch
 * and thread copy/synchronization overheads, and an occupancy model
 * explaining why the graph-partitioned "optimization" *slows down*
 * the GPU (Fig 10b): small partitions cannot fill 5120 cores.
 */

#ifndef HYGCN_BASELINE_GPU_MODEL_HPP
#define HYGCN_BASELINE_GPU_MODEL_HPP

#include <cstdint>

#include "graph/dataset.hpp"
#include "model/models.hpp"
#include "sim/report.hpp"

namespace hygcn {

/** V100 platform constants. */
struct GpuConfig
{
    double clockGhz = 1.25;
    double peakFlops = 14e12;
    double memBytesPerSec = 900e9;
    /** Achieved fraction of GEMM peak (cuBLAS, medium shapes). */
    double gemmEfficiency = 0.40;
    /** Achieved fraction of bandwidth for irregular gathers. */
    double gatherEfficiency = 0.10;
    /** Launch latency per kernel. */
    double kernelLaunchSeconds = 10e-6;
    /** Kernels dispatched per aggregation pass (PyG scatter path). */
    double kernelsPerAggregation = 12.0;
    /** Kernels dispatched per Combination MLP stage. */
    double kernelsPerCombination = 6.0;
    /** Fraction of Combination lost to data copy + thread sync. */
    double copySyncOverhead = 0.25;
    /** Threads needed to saturate the device. */
    double saturationThreads = 163840.0;
    /** Idle/static board power charged for the run duration. */
    double staticPowerWatt = 30.0;
    /** HBM2 access energy per bit. */
    double hbm2PjPerBit = 4.0;
    /** Device memory capacity; exceeding it reports out-of-memory. */
    std::uint64_t memCapacityBytes = 16ull * 1024 * 1024 * 1024;
};

/** Per-run options. */
struct GpuRunOptions
{
    /** Graph-partitioned execution (Fig 10b study). */
    bool partitionOptimized = false;
};

/** The PyG-GPU platform model. */
class GpuModel
{
  public:
    explicit GpuModel(GpuConfig config = {});

    /**
     * Model one inference. If the working set exceeds device memory
     * the report carries gauge "gpu.oom" = 1 (the paper's OoM cases:
     * GraphSage/GIN on Reddit).
     */
    SimReport run(const Dataset &dataset, const ModelConfig &model,
                  std::uint64_t sample_seed,
                  const GpuRunOptions &options = {});

    const GpuConfig &config() const { return config_; }

  private:
    GpuConfig config_;
};

} // namespace hygcn

#endif // HYGCN_BASELINE_GPU_MODEL_HPP
