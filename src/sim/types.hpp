/**
 * @file
 * Fundamental scalar types shared by every HyGCN module.
 */

#ifndef HYGCN_SIM_TYPES_HPP
#define HYGCN_SIM_TYPES_HPP

#include <cstdint>

namespace hygcn {

/** Simulation time, measured in accelerator clock cycles (1 GHz). */
using Cycle = std::uint64_t;

/** Vertex identifier within a graph. */
using VertexId = std::uint32_t;

/** Edge identifier (index into the edge arrays). */
using EdgeId = std::uint64_t;

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Energy in picojoules. */
using PicoJoule = double;

/** Invalid vertex sentinel. */
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/** Size of one DRAM access line in bytes (HBM burst granularity). */
inline constexpr std::uint64_t kLineBytes = 64;

/** Bytes used to store one feature element (32-bit fixed point). */
inline constexpr std::uint64_t kElemBytes = 4;

/** Bytes used to store one edge (source index + metadata). */
inline constexpr std::uint64_t kEdgeBytes = 8;

} // namespace hygcn

#endif // HYGCN_SIM_TYPES_HPP
