/**
 * @file
 * Per-operation energy model. Substitutes for the paper's Synopsys
 * PrimeTime PX + Cacti 6.5 flow (TSMC 12 nm, scaled): the simulator
 * counts architectural events and this table converts them into
 * picojoules. Constants are calibrated so that the *relative*
 * breakdowns of the paper (Table 7, Fig 11/12) are reproduced; see
 * README.md, "Modelling substitutions", 1.
 */

#ifndef HYGCN_SIM_ENERGY_HPP
#define HYGCN_SIM_ENERGY_HPP

#include <cstdint>

#include "sim/types.hpp"

namespace hygcn {

/**
 * Energy cost table for 12 nm operations, all values in picojoules.
 * One global instance with defaults is used unless a test overrides
 * individual entries.
 */
struct EnergyTable
{
    /** One 32-bit fixed-point MAC inside a systolic PE. */
    PicoJoule macOp = 0.6;
    /** One 32-bit SIMD ALU operation (add/max/min/mean step). */
    PicoJoule simdOp = 0.3;
    /** One activation (ReLU/softmax step) per element. */
    PicoJoule activationOp = 0.1;
    /** Scheduling/control overhead per dispatched task. */
    PicoJoule controlOp = 0.05;

    /** eDRAM access energy per byte for a small (<=256 KB) buffer. */
    PicoJoule edramSmallPerByte = 0.08;
    /** eDRAM access energy per byte for a mid (<=4 MB) buffer. */
    PicoJoule edramMidPerByte = 0.30;
    /** eDRAM access energy per byte for a large (>4 MB) buffer. */
    PicoJoule edramLargePerByte = 0.35;

    /** HBM 1.0 access energy per bit (paper: 7 pJ/bit). */
    PicoJoule hbmPerBit = 7.0;

    /** DDR4 access energy per bit, for the CPU baseline platform. */
    PicoJoule ddr4PerBit = 20.0;
    /** CPU cache access energy per byte (L2/L3 average, 22 nm). */
    PicoJoule cpuCachePerByte = 1.2;
    /** CPU scalar/vector op energy (Xeon-class core overheads). */
    PicoJoule cpuOp = 60.0;
    /** GPU op energy (V100 fp32 FLOP, amortized). */
    PicoJoule gpuOp = 12.0;
    /** GPU on-chip access energy per byte. */
    PicoJoule gpuSramPerByte = 2.0;

    /** Energy for one HBM byte. */
    PicoJoule hbmPerByte() const { return hbmPerBit * 8.0; }
    /** Energy for one DDR4 byte. */
    PicoJoule ddr4PerByte() const { return ddr4PerBit * 8.0; }

    /** eDRAM energy per byte for a buffer of @p bytes capacity. */
    PicoJoule edramPerByte(std::uint64_t bytes) const;
};

} // namespace hygcn

#endif // HYGCN_SIM_ENERGY_HPP
