/**
 * @file
 * Set-associative LRU cache hierarchy simulator. Backs the PyG-CPU
 * baseline characterization (Table 2: L2/L3 MPKI, DRAM bytes per
 * operation) by replaying the aggregation phase's irregular feature
 * accesses.
 */

#ifndef HYGCN_BASELINE_CACHE_HPP
#define HYGCN_BASELINE_CACHE_HPP

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace hygcn {

/** Geometry of one cache level. */
struct CacheLevelConfig
{
    std::uint64_t capacityBytes = 32 * 1024;
    std::uint32_t associativity = 8;
    std::uint32_t lineBytes = 64;
};

/** One set-associative LRU cache level. */
class CacheLevel
{
  public:
    /**
     * @throws std::invalid_argument if @p config has associativity 0
     *         or a lineBytes that is 0 or not a power of two.
     */
    explicit CacheLevel(const CacheLevelConfig &config);

    /** Access @p addr; returns true on hit. Fills on miss. */
    bool access(Addr addr);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t numSets() const { return numSets_; }
    std::uint32_t lineBytes() const { return config_.lineBytes; }

    /** Drop all contents and counters. */
    void reset();

  private:
    CacheLevelConfig config_;
    std::uint64_t numSets_ = 1;
    /** log2(lineBytes): line = addr >> lineShift_. */
    unsigned lineShift_ = 0;
    /** numSets_ - 1 if numSets_ is a power of two (set = line & mask). */
    std::uint64_t setMask_ = 0;
    bool setsPow2_ = true;
    /**
     * numSets_ x associativity line numbers, one row per set. The
     * first fill_[set] entries of a row are valid, in LRU order
     * (front = most recent).
     */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> fill_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/** Three-level hierarchy (lookup cascades on miss). */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheLevelConfig &l1, const CacheLevelConfig &l2,
                   const CacheLevelConfig &l3);

    /**
     * Access @p addr; returns the level that hit (1..3) or 4 for
     * memory. All levels above the hit are filled (inclusive-ish).
     */
    int access(Addr addr);

    const CacheLevel &level(int idx) const { return levels_[idx - 1]; }

    /** Bytes fetched from DRAM (L3 misses x L3 line size). */
    std::uint64_t dramBytes() const;

    void reset();

  private:
    std::vector<CacheLevel> levels_;
};

} // namespace hygcn

#endif // HYGCN_BASELINE_CACHE_HPP
