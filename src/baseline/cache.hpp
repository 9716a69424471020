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

/**
 * Geometry for replaying a row-structured stream one aligned block of
 * lines per access (README.md modelling substitution 3).
 */
struct BlockReplay
{
    /** Lines per block, b; 1 means per-line replay. */
    std::uint32_t lines = 1;
    /** The levels with lineBytes widened b-fold (capacity and ways kept). */
    CacheLevelConfig l1, l2, l3;
};

/**
 * Plan block replay for a stream that touches every @p accessBytes
 * chunk of rows of @p rowBytes placed back to back from @p base, one
 * row at a time. Returns the largest power of two b such that
 * @p rowBytes and @p base are multiples of b * accessBytes, every
 * level's lineBytes equals @p accessBytes, and b divides every
 * level's set count. All b lines of a block then map to sibling sets
 * that see the same sequence of rows, so they hit or miss together at
 * every level: per-level accesses and misses are b times those of the
 * widened hierarchy, and dramBytes() is equal. Otherwise b = 1.
 */
BlockReplay planBlockReplay(const CacheLevelConfig &l1,
                            const CacheLevelConfig &l2,
                            const CacheLevelConfig &l3, std::uint64_t rowBytes,
                            Addr base, std::uint32_t accessBytes);

// Defined inline: the CPU model's replay calls them once per simulated
// access.

inline bool
CacheLevel::access(Addr addr)
{
    ++accesses_;
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t set = setsPow2_ ? (line & setMask_) : line % numSets_;
    std::uint64_t *ways = tags_.data() + set * config_.associativity;
    std::uint32_t &fill = fill_[set];

    // Move-to-front in one pass: each entry ahead of the match (or,
    // on a miss, every entry) shifts one way toward the LRU end.
    std::uint64_t carry = line;
    for (std::uint32_t i = 0; i < fill; ++i) {
        const std::uint64_t cur = ways[i];
        ways[i] = carry;
        if (cur == line)
            return true;
        carry = cur;
    }
    ++misses_;
    // Miss: a full set drops its LRU entry (the last carry).
    if (fill < config_.associativity)
        ways[fill++] = carry;
    return false;
}

inline int
CacheHierarchy::access(Addr addr)
{
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        if (levels_[i].access(addr))
            return static_cast<int>(i) + 1;
    }
    return static_cast<int>(levels_.size()) + 1;
}

} // namespace hygcn

#endif // HYGCN_BASELINE_CACHE_HPP
