/**
 * @file
 * Set-associative LRU cache hierarchy simulator. Backs the PyG-CPU
 * baseline characterization (Table 2: L2/L3 MPKI, DRAM bytes per
 * operation) by replaying the aggregation phase's irregular feature
 * accesses.
 */

#ifndef HYGCN_BASELINE_CACHE_HPP
#define HYGCN_BASELINE_CACHE_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
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

/**
 * One set-associative LRU cache level.
 *
 * Each set is one row of whole 64-byte groups of eight ways (the
 * 20-way L3 uses three groups, the last with four pad lanes), and
 * every row starts on a 64-byte boundary. A row holds line numbers in
 * LRU order, most recent first; its first fill_[set] ways are valid.
 * An access walks the valid ways front to back in steps of W ways,
 * moving each step's ways one way toward the LRU end (its first way
 * takes the previous step's last, or the line itself), until a step
 * finds the line; on a miss every valid way has moved, which drops
 * the LRU way of a full set. That is move-to-front in one pass.
 *
 * W is a template parameter: 8 compares a whole group at once with
 * GCC vector extensions (one lane permute shifts it, one blend stops
 * the shift at a hit), which is one zmm register in an AVX-512 clone;
 * 1 is the same walk a way at a time, which suits every other ISA
 * (see replayEdges in cpu_model.cpp). No tag value is reserved as
 * "empty": a compare only counts lanes below fill_[set], so a pad
 * lane, or a way left over from before reset(), never hits, and a
 * line number may take every 64-bit value. Every W gives the hits,
 * misses and row order of a plain move-to-front list; test_cache
 * checks both widths against one, access by access.
 */
class CacheLevel
{
  public:
    /**
     * @throws std::invalid_argument if @p config has associativity 0
     *         or a lineBytes that is 0 or not a power of two.
     */
    explicit CacheLevel(const CacheLevelConfig &config);

    /**
     * Access @p addr, comparing W ways per step (1 or 8); returns true
     * on hit. Fills on miss.
     */
    template <unsigned W = 1> bool access(Addr addr);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t numSets() const { return numSets_; }
    std::uint32_t lineBytes() const { return config_.lineBytes; }

    /** Drop all contents and counters. */
    void reset();

  private:
    /** Ways per group: 8 x 8 B is one 64-byte row segment. */
    static constexpr std::uint32_t kGroupWays = 8;

    /** Eight ways of one set, 64-byte aligned. */
    struct alignas(64) WayGroup
    {
        std::uint64_t way[kGroupWays];
    };

    CacheLevelConfig config_;
    std::uint64_t numSets_ = 1;
    /** log2(lineBytes): line = addr >> lineShift_. */
    unsigned lineShift_ = 0;
    /** numSets_ - 1 if numSets_ is a power of two (set = line & mask). */
    std::uint64_t setMask_ = 0;
    bool setsPow2_ = true;
    /** Groups per set: ceil(associativity / 8). */
    std::uint32_t groups_ = 1;
    /** numSets_ x groups_ groups, one row per set. */
    std::vector<WayGroup> tags_;
    /** Valid ways per set: the first fill_[set] of its row. */
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
     * Access @p addr at every level down to the first that hits,
     * comparing W ways per step; returns that level (1..3) or 4 for
     * memory. All levels above the hit are filled (inclusive-ish).
     */
    template <unsigned W = 1> int access(Addr addr);

    /** Level @p idx, 1..3. */
    const CacheLevel &level(int idx) const
    {
        return idx == 1 ? l1_ : idx == 2 ? l2_ : l3_;
    }

    /** Bytes fetched from DRAM (L3 misses x L3 line size). */
    std::uint64_t dramBytes() const;

    void reset();

  private:
    CacheLevel l1_, l2_, l3_;
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

namespace cache_lanes {

/** W ways of a row as one value: a vector, or at W = 1 an integer. */
template <unsigned W>
struct Ways
{
    typedef std::uint64_t Tags __attribute__((vector_size(8 * W)));
};
template <>
struct Ways<1>
{
    typedef std::uint64_t Tags;
};

// The helpers pass vectors by reference and are always inlined: a
// vector passed or returned by value would change the calling
// convention between clones.

/** One byte per lane of @p ways, 0xff where it equals @p probe. */
template <unsigned W>
__attribute__((always_inline)) inline std::uint64_t
matchBytes(const typename Ways<W>::Tags &ways,
           const typename Ways<W>::Tags &probe)
{
    static_assert(W == 1 || W == 8, "a step compares 1 or 8 ways");
    if constexpr (W == 1) {
        return ways == probe ? 0xff : 0;
    } else {
        typedef std::int8_t Bytes __attribute__((vector_size(8)));
        const Bytes eq = __builtin_convertvector(ways == probe, Bytes);
        std::uint64_t bytes;
        std::memcpy(&bytes, &eq, sizeof bytes);
        return bytes;
    }
}

/** @p ways one lane up into @p out, lane 0 taking the last lane of
 *  @p carry. */
template <unsigned W>
__attribute__((always_inline)) inline void
moveUp(const typename Ways<W>::Tags &ways,
       const typename Ways<W>::Tags &carry, typename Ways<W>::Tags &out)
{
    if constexpr (W == 1)
        out = carry;
    else
        out = __builtin_shufflevector(ways, carry, 15, 0, 1, 2, 3, 4, 5, 6);
}

/** Lanes 0..@p last of @p ways become those of @p moved. */
template <unsigned W>
__attribute__((always_inline)) inline void
moveThrough(const typename Ways<W>::Tags &moved, std::uint32_t last,
            typename Ways<W>::Tags &ways)
{
    if constexpr (W == 1) {
        ways = moved;
    } else {
        typedef std::int64_t Lanes __attribute__((vector_size(64)));
        const Lanes lane = {0, 1, 2, 3, 4, 5, 6, 7};
        ways = lane <= static_cast<std::int64_t>(last) ? moved : ways;
    }
}

/** The last lane of @p ways. */
template <unsigned W>
__attribute__((always_inline)) inline std::uint64_t
lastLane(const typename Ways<W>::Tags &ways)
{
    if constexpr (W == 1)
        return ways;
    else
        return ways[W - 1];
}

} // namespace cache_lanes

// Defined inline, and always inlined: the CPU model's replay calls
// them once per simulated access from an ISA-dispatched loop
// (HYGCN_TARGET_CLONES), so the vector code compiles at each clone's
// width.

template <unsigned W>
__attribute__((always_inline)) inline bool
CacheLevel::access(Addr addr)
{
    using Tags = typename cache_lanes::Ways<W>::Tags;
    ++accesses_;
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t set = setsPow2_ ? (line & setMask_) : line % numSets_;
    std::uint64_t *const row = tags_[set * groups_].way;
    std::uint32_t &fill_ref = fill_[set];
    const std::uint32_t fill = fill_ref;

    const Tags probe = Tags{} + line;
    Tags carry = probe;
    for (std::uint32_t i = 0; i < fill; i += W) {
        Tags ways, moved;
        std::memcpy(&ways, row + i, sizeof ways);
        cache_lanes::moveUp<W>(ways, carry, moved);
        std::uint64_t match = cache_lanes::matchBytes<W>(ways, probe);
        // Lanes at or past fill are stale or pad: they never match.
        if (W > 1 && fill - i < W)
            match &= (std::uint64_t{1} << (8 * (fill - i))) - 1;
        if (match != 0) {
            const std::uint32_t hit_lane =
                static_cast<std::uint32_t>(std::countr_zero(match)) / 8;
            cache_lanes::moveThrough<W>(moved, hit_lane, ways);
            std::memcpy(row + i, &ways, sizeof ways);
            return true;
        }
        std::memcpy(row + i, &moved, sizeof moved);
        carry = ways;
    }
    ++misses_;
    // A set with a free way keeps its old LRU way: a step that ended
    // inside a group has moved it into way fill already, otherwise the
    // carry holds it (or, in an empty set, the line).
    if (fill < config_.associativity) {
        if (fill % W == 0)
            row[fill] = cache_lanes::lastLane<W>(carry);
        fill_ref = fill + 1;
    }
    return false;
}

template <unsigned W>
__attribute__((always_inline)) inline int
CacheHierarchy::access(Addr addr)
{
    if (l1_.access<W>(addr))
        return 1;
    if (l2_.access<W>(addr))
        return 2;
    return l3_.access<W>(addr) ? 3 : 4;
}

} // namespace hygcn

#endif // HYGCN_BASELINE_CACHE_HPP
