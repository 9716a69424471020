#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/cache.hpp"
#include "sim/rng.hpp"

using namespace hygcn;

namespace {

/**
 * Plainly written reference LRU: one std::list of line numbers per
 * set, most recent at the front, move-to-front on hit.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheLevelConfig &config) : config_(config)
    {
        const std::uint64_t lines = config.capacityBytes / config.lineBytes;
        sets_.resize(std::max<std::uint64_t>(1, lines / config.associativity));
    }

    bool access(Addr addr)
    {
        ++accesses_;
        const std::uint64_t line = addr / config_.lineBytes;
        std::list<std::uint64_t> &set = sets_[line % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        ++misses_;
        set.push_front(line);
        if (set.size() > config_.associativity)
            set.pop_back();
        return false;
    }

    void reset()
    {
        for (auto &set : sets_)
            set.clear();
        accesses_ = 0;
        misses_ = 0;
    }

    std::uint64_t numSets() const { return sets_.size(); }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    CacheLevelConfig config_;
    std::vector<std::list<std::uint64_t>> sets_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Seeded address stream: three in four addresses reuse a region half
 * the capacity (hits and LRU reordering), the rest are uniform over
 * several capacities (eviction).
 */
std::vector<Addr>
addressStream(const CacheLevelConfig &config, std::size_t n,
              std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t hot = config.capacityBytes / 2 + config.lineBytes;
    const std::uint64_t cold = 8 * config.capacityBytes + 4096;
    std::vector<Addr> stream;
    for (std::size_t i = 0; i < n; ++i) {
        const bool is_hot = rng.nextBounded(4) != 0;
        stream.push_back(rng.nextBounded(is_hot ? hot : cold));
    }
    return stream;
}

} // namespace

TEST(Cache, ColdMissThenHit)
{
    CacheLevel l({1024, 2, 64});
    EXPECT_FALSE(l.access(0));
    EXPECT_TRUE(l.access(0));
    EXPECT_TRUE(l.access(32)); // same line
    EXPECT_EQ(l.accesses(), 3u);
    EXPECT_EQ(l.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2-way, line 64, capacity 128 => 1 set.
    CacheLevel l({128, 2, 64});
    EXPECT_EQ(l.numSets(), 1u);
    l.access(0);
    l.access(64);
    l.access(128); // evicts line 0 (LRU)
    EXPECT_FALSE(l.access(0));
    EXPECT_TRUE(l.access(128));
}

TEST(Cache, LruUpdateOnHit)
{
    CacheLevel l({128, 2, 64});
    l.access(0);
    l.access(64);
    l.access(0);   // 0 becomes MRU
    l.access(128); // evicts 64
    EXPECT_TRUE(l.access(0));
    EXPECT_FALSE(l.access(64));
}

TEST(Cache, SetIndexing)
{
    // 2 sets: lines alternate sets.
    CacheLevel l({256, 2, 64});
    EXPECT_EQ(l.numSets(), 2u);
    l.access(0);   // set 0
    l.access(64);  // set 1
    l.access(128); // set 0
    l.access(192); // set 1
    // All four fit (2 per set).
    EXPECT_TRUE(l.access(0));
    EXPECT_TRUE(l.access(64));
}

TEST(Cache, ResetClears)
{
    CacheLevel l({1024, 4, 64});
    l.access(0);
    l.reset();
    EXPECT_EQ(l.accesses(), 0u);
    EXPECT_FALSE(l.access(0));
}

TEST(CacheHierarchy, CascadesOnMiss)
{
    CacheHierarchy h({128, 2, 64}, {512, 4, 64}, {4096, 8, 64});
    EXPECT_EQ(h.access(0), 4); // memory
    EXPECT_EQ(h.access(0), 1); // L1 hit
    // Evict from L1 by filling its single... access distinct lines.
    for (Addr a = 64; a < 64 * 10; a += 64)
        h.access(a);
    // Line 0 should be gone from L1 but still in L2 or L3.
    const int level = h.access(0);
    EXPECT_GT(level, 1);
    EXPECT_LT(level, 4);
}

TEST(CacheHierarchy, DramBytesFromL3Misses)
{
    CacheHierarchy h({128, 2, 64}, {512, 4, 64}, {4096, 8, 64});
    for (Addr a = 0; a < 64 * 100; a += 64)
        h.access(a);
    EXPECT_EQ(h.dramBytes(), h.level(3).misses() * 64);
    EXPECT_GT(h.dramBytes(), 0u);
}

TEST(CacheHierarchy, WorkingSetFitsAfterWarmup)
{
    CacheHierarchy h({1024, 4, 64}, {8192, 8, 64}, {65536, 16, 64});
    // Working set of 8 lines fits in L1.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < 8 * 64; a += 64)
            h.access(a);
    EXPECT_EQ(h.level(1).misses(), 8u);
}

TEST(Cache, RejectsMalformedGeometry)
{
    EXPECT_THROW(CacheLevel({1024, 0, 64}), std::invalid_argument);
    EXPECT_THROW(CacheLevel({1024, 2, 0}), std::invalid_argument);
    EXPECT_THROW(CacheLevel({1024, 2, 48}), std::invalid_argument);
    EXPECT_NO_THROW(CacheLevel({1024, 1, 1}));
    EXPECT_NO_THROW(CacheLevel({1024, 3, 128}));

    const CacheLevelConfig ok{4096, 8, 64};
    const CacheLevelConfig no_ways{512, 0, 64};
    const CacheLevelConfig odd_line{4096, 8, 96};
    EXPECT_THROW(CacheHierarchy(ok, no_ways, ok), std::invalid_argument);
    EXPECT_THROW(CacheHierarchy(ok, ok, odd_line), std::invalid_argument);
}

TEST(CacheHierarchy, DramBytesUseL3LineSize)
{
    CacheHierarchy h({1024, 2, 64}, {4096, 4, 64}, {16384, 8, 128});
    for (Addr a = 0; a < 128 * 1000; a += 64)
        h.access(a);
    EXPECT_GT(h.level(3).misses(), 0u);
    EXPECT_EQ(h.dramBytes(), h.level(3).misses() * 128);
}

/** CacheLevel against ReferenceLru, access by access. */
TEST(Cache, MatchesReferenceLruAccessByAccess)
{
    std::vector<CacheLevelConfig> geometries;
    // One set; then one set holding fewer lines than ways.
    geometries.push_back({128, 2, 64});
    geometries.push_back({64, 8, 64});
    // Direct mapped (64 sets) and 2-way (64 sets).
    geometries.push_back({4096, 1, 64});
    geometries.push_back({8192, 2, 64});
    // The CPU model's L1 (64 sets) and L2 (512 sets), both 8-way.
    geometries.push_back({32ull * 1024, 8, 64});
    geometries.push_back({256ull * 1024, 8, 64});
    // 20-way with 16 sets, and 12 sets (not a power of two).
    geometries.push_back({20ull * 64 * 16, 20, 64});
    geometries.push_back({3ull * 1024, 8, 32});
    // The CPU model's L3: 30 MiB at 20-way is 24576 sets.
    geometries.push_back({30ull * 1024 * 1024, 20, 64});

    for (std::size_t g = 0; g < geometries.size(); ++g) {
        SCOPED_TRACE("geometry " + std::to_string(g));
        const CacheLevelConfig &config = geometries[g];
        CacheLevel level(config);
        ReferenceLru ref(config);
        ASSERT_EQ(level.numSets(), ref.numSets());

        const bool big = config.capacityBytes > (1u << 20);
        const std::vector<Addr> stream =
            addressStream(config, big ? 400000 : 20000, g + 1);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            if (i == stream.size() / 2) {
                // reset() mid-stream drops every line and counter.
                EXPECT_EQ(level.accesses(), ref.accesses());
                EXPECT_EQ(level.misses(), ref.misses());
                level.reset();
                ref.reset();
            }
            ASSERT_EQ(level.access(stream[i]), ref.access(stream[i]))
                << "access " << i;
        }
        EXPECT_EQ(level.accesses(), ref.accesses());
        EXPECT_EQ(level.misses(), ref.misses());
        EXPECT_GT(level.misses(), 0u);
        EXPECT_LT(level.misses(), level.accesses());
    }
}

TEST(CacheHierarchy, MatchesChainedReferenceLevels)
{
    const CacheLevelConfig l1{32ull * 1024, 8, 64};
    const CacheLevelConfig l2{256ull * 1024, 8, 64};
    const CacheLevelConfig l3{30ull * 1024 * 1024, 20, 64};
    CacheHierarchy h(l1, l2, l3);
    std::vector<ReferenceLru> ref;
    for (const CacheLevelConfig &config : {l1, l2, l3})
        ref.emplace_back(config);

    // Hot addresses fall in a region the L2 holds; cold ones span
    // several L3 capacities.
    Rng rng(42);
    for (int i = 0; i < 300000; ++i) {
        const bool is_hot = rng.nextBounded(4) != 0;
        const std::uint64_t range =
            is_hot ? l2.capacityBytes : 4 * l3.capacityBytes;
        const Addr addr = rng.nextBounded(range);
        // The reference cascade stops at the first level that hits.
        int expected = 4;
        for (int lvl = 1; lvl <= 3; ++lvl) {
            if (ref[lvl - 1].access(addr)) {
                expected = lvl;
                break;
            }
        }
        ASSERT_EQ(h.access(addr), expected) << "access " << i;
    }
    for (int lvl = 1; lvl <= 3; ++lvl) {
        EXPECT_EQ(h.level(lvl).accesses(), ref[lvl - 1].accesses());
        EXPECT_EQ(h.level(lvl).misses(), ref[lvl - 1].misses());
        EXPECT_GT(h.level(lvl).misses(), 0u);
    }
    EXPECT_EQ(h.dramBytes(), ref[2].misses() * 64);
}
