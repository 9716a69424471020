/**
 * @file
 * PyG-CPU baseline cost model (README.md modelling substitution 3): an
 * execution-driven model of PyTorch Geometric on a dual-socket Xeon
 * E5-2680 v3. The irregular Aggregation phase is replayed through a
 * set-associative L1/L2/L3 simulator (yielding the Table 2 MPKI and
 * DRAM-bytes-per-op characterization); the regular Combination phase
 * is a GEMM roofline with the paper's observed 36% synchronization
 * overhead. The "partition optimized" variant (Fig 10a) replays
 * aggregation in interval/shard order sized to the L2 cache.
 */

#ifndef HYGCN_BASELINE_CPU_MODEL_HPP
#define HYGCN_BASELINE_CPU_MODEL_HPP

#include <cstdint>

#include "baseline/cache.hpp"
#include "graph/dataset.hpp"
#include "model/models.hpp"
#include "sim/report.hpp"

namespace hygcn {

/** Xeon E5-2680 v3 x2 platform constants. */
struct CpuConfig
{
    double ghz = 2.5;
    std::uint32_t cores = 24;
    /** Retired instructions per cycle for the scatter thread. */
    double ipc = 2.0;
    /** SP FLOPs per cycle per core at AVX2 FMA. */
    double simdFlopsPerCycle = 32.0;
    /** Aggregate DDR4 bandwidth (Table 6: 136.5 GB/s). */
    double ddrBytesPerSec = 136.5e9;
    /** Latency-bound effective bandwidth of the gather thread. */
    double irregularBytesPerSec = 5e9;
    /** Achieved fraction of GEMM peak (MKL, medium shapes). */
    double gemmEfficiency = 0.12;
    /** Fraction of Combination lost to copies/synchronization. */
    double syncOverhead = 0.36;
    /** Framework dispatch cost per tensor operator. */
    double frameworkOpSeconds = 1.5e-3;
    /** Retired instructions per aggregated feature element. */
    double instrPerElement = 6.0;
    /** Fixed per-edge bookkeeping instructions (index math). */
    double instrPerEdge = 50.0;
    /** Ineffectual-prefetch multiplier on DRAM traffic (section 3.1). */
    double prefetchWaste = 1.9;
    /** Average package power under load, for the energy model. */
    double packagePowerWatt = 120.0;
    /** Cap on simulated cache accesses; beyond it, destinations are
     *  sampled and statistics scaled (keeps Reddit tractable). */
    std::uint64_t maxSimulatedAccesses = 40'000'000;

    CacheLevelConfig l1{32ull * 1024, 8, 64};
    CacheLevelConfig l2{256ull * 1024, 8, 64};
    CacheLevelConfig l3{30ull * 1024 * 1024, 20, 64};
};

/** Per-run options. */
struct CpuRunOptions
{
    /** Interval/shard-partitioned aggregation (the paper's Fig 10a). */
    bool partitionOptimized = false;
};

/** The PyG-CPU platform model. */
class CpuModel
{
  public:
    explicit CpuModel(CpuConfig config = {});

    /**
     * Model one inference of @p model over @p dataset. The report's
     * stats include per-phase seconds ("phase.agg_seconds",
     * "phase.comb_seconds"), instruction counts, and L2/L3 MPKI.
     */
    SimReport run(const Dataset &dataset, const ModelConfig &model,
                  std::uint64_t sample_seed,
                  const CpuRunOptions &options = {});

    const CpuConfig &config() const { return config_; }

  private:
    CpuConfig config_;
};

} // namespace hygcn

#endif // HYGCN_BASELINE_CPU_MODEL_HPP
