/**
 * @file
 * SimReport: the result record returned by every platform model
 * (HyGCN accelerator, CPU baseline, GPU baseline). Carries cycles,
 * statistic counters, and the energy ledger, plus derived metrics
 * used by the benchmark harnesses.
 */

#ifndef HYGCN_SIM_REPORT_HPP
#define HYGCN_SIM_REPORT_HPP

#include <string>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace hygcn {

/** Execution result of one inference run on one platform. */
struct SimReport
{
    /** Human-readable platform name ("HyGCN", "PyG-CPU", ...). */
    std::string platform;

    /** Total execution time in platform clock cycles. */
    Cycle cycles = 0;

    /** Platform clock frequency in Hz (for seconds conversion). */
    double clockHz = 1e9;

    /**
     * Energy (picojoules) of the batch-invariant weight-load phase,
     * whose critical-path cycles are the "comb.weight_load_cycles"
     * counter: the weight DRAM fetches plus the Weight Buffer fills
     * they land in. A weights-resident pipeline serving B co-batched
     * graphs pays it once; the remaining energy -
     * combWeightLoadEnergyPj is per-graph work. 0 for platforms
     * without the phase.
     */
    PicoJoule combWeightLoadEnergyPj = 0.0;

    /** Event counters (DRAM traffic, ops, row hits, ...). */
    StatGroup stats;

    /** Energy per component, picojoules. */
    EnergyLedger energy;

    /** Execution time in seconds. */
    double seconds() const
    { return static_cast<double>(cycles) / clockHz; }

    /** Total energy in joules. */
    double joules() const { return energy.total() * 1e-12; }

    /** Batch-invariant weight-load energy in joules. */
    double weightLoadJoules() const
    { return combWeightLoadEnergyPj * 1e-12; }

    /** Total off-chip traffic in bytes (reads + writes). */
    std::uint64_t dramBytes() const
    {
        return stats.get(Counter::DramReadBytes) +
               stats.get(Counter::DramWriteBytes);
    }

    /**
     * Achieved off-chip bandwidth utilization in [0,1], given the
     * platform peak in bytes/second.
     */
    double bandwidthUtilization(double peak_bytes_per_sec) const
    {
        const double secs = seconds();
        if (secs <= 0.0 || peak_bytes_per_sec <= 0.0)
            return 0.0;
        return static_cast<double>(dramBytes()) / secs / peak_bytes_per_sec;
    }
};

/** Format a wall-time value with engineering units for harness output. */
std::string formatSeconds(double seconds);

/** Format an energy value with engineering units for harness output. */
std::string formatJoules(double joules);

/** Format a byte count with binary units for harness output. */
std::string formatBytes(double bytes);

} // namespace hygcn

#endif // HYGCN_SIM_REPORT_HPP
