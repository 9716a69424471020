/**
 * @file
 * HyGCN accelerator configuration, defaulting to the paper's Table 6
 * system: 32 SIMD16 cores, 8 systolic modules of 4x128 PEs, 1 GHz,
 * eDRAM buffers 128 KB (Input) / 2 MB (Edge) / 2 MB (Weight) /
 * 4 MB (Output) / 16 MB (Aggregation), HBM 1.0 at 256 GB/s.
 */

#ifndef HYGCN_CORE_CONFIG_HPP
#define HYGCN_CORE_CONFIG_HPP

#include <cstdint>

#include "graph/window.hpp"
#include "mem/coordinator.hpp"
#include "mem/dram.hpp"
#include "sim/energy.hpp"
#include "sim/types.hpp"

namespace hygcn {

/** Inter-engine pipeline flavor (paper section 4.5.1). */
enum class PipelineMode
{
    /** Independent systolic modules, small groups, lowest latency. */
    LatencyAware,
    /** Cooperative modules, large groups, lowest energy. */
    EnergyAware,
};

/** Aggregation Engine processing mode (paper Fig 4). */
enum class AggMode
{
    /** All SIMD cores share one vertex's elements (paper's choice). */
    VertexDisperse,
    /** One vertex per core; suffers load imbalance (baseline). */
    VertexConcentrated,
};

/** Full accelerator configuration. */
struct HyGCNConfig
{
    // --- Aggregation Engine -------------------------------------
    std::uint32_t simdCores = 32;
    std::uint32_t simdWidth = 16;
    AggMode aggMode = AggMode::VertexDisperse;

    // --- Combination Engine -------------------------------------
    /** Number of systolic modules (8 in Table 6). */
    std::uint32_t systolicModules = 8;
    /** PE rows per module (dot-product direction). */
    std::uint32_t moduleRows = 4;
    /** PE columns per module (output-feature direction). */
    std::uint32_t moduleCols = 128;

    // --- On-chip buffers (bytes) --------------------------------
    std::uint64_t inputBufBytes = 128ull * 1024;
    std::uint64_t edgeBufBytes = 2ull * 1024 * 1024;
    std::uint64_t weightBufBytes = 2ull * 1024 * 1024;
    std::uint64_t outputBufBytes = 4ull * 1024 * 1024;
    std::uint64_t aggBufBytes = 16ull * 1024 * 1024;

    // --- Off-chip memory ----------------------------------------
    HbmConfig hbm;

    // --- Optimizations under study ------------------------------
    /** Window sliding + shrinking (section 4.3.3). */
    bool sparsityElimination = true;
    /** Inter-engine pipelining via ping-pong Aggregation Buffer. */
    bool interEnginePipeline = true;
    /** Priority reorder + low-bit address remap (section 4.5.2). */
    bool memoryCoordination = true;
    PipelineMode pipelineMode = PipelineMode::LatencyAware;

    /** Clock frequency (paper: synthesized at 1 GHz). */
    double clockHz = 1e9;

    /** Energy constants. */
    EnergyTable energy;

    /** Total SIMD lanes across cores. */
    std::uint32_t totalLanes() const { return simdCores * simdWidth; }

    /** Total PEs in the Combination Engine. */
    std::uint32_t totalPes() const
    { return systolicModules * moduleRows * moduleCols; }

    /** Sum of on-chip buffer capacities. */
    std::uint64_t totalBufferBytes() const
    {
        return inputBufBytes + edgeBufBytes + weightBufBytes +
               outputBufBytes + aggBufBytes;
    }

    /**
     * Reject configurations the hardware could not be built with
     * (zero-sized engines or buffers). Throws std::invalid_argument.
     */
    void validate() const;

    /** Window plan mode honoring the sparsity-elimination flag. */
    WindowMode windowMode() const
    {
        return sparsityElimination ? WindowMode::SlideShrink
                                   : WindowMode::Grid;
    }

    /** Derived HBM config honoring the coordination flag. */
    HbmConfig effectiveHbm() const
    {
        HbmConfig h = hbm;
        h.lowBitChannelInterleave = memoryCoordination;
        return h;
    }

    /** Derived coordinator config honoring the coordination flag. */
    CoordinatorConfig effectiveCoordinator() const
    {
        CoordinatorConfig c;
        c.priorityReorder = memoryCoordination;
        return c;
    }
};

} // namespace hygcn

#endif // HYGCN_CORE_CONFIG_HPP
