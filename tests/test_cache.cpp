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

namespace {

/**
 * Replay @p touches row touches of @p row_bytes rows placed from
 * @p base through a per-line hierarchy and through the block-replay
 * one planned for them, comparing each block's hit level with its b
 * per-line accesses, then every per-level counter.
 */
void
expectBlockReplayExact(const CacheLevelConfig &l1, const CacheLevelConfig &l2,
                       const CacheLevelConfig &l3, std::uint64_t row_bytes,
                       Addr base, std::uint32_t expected_lines, int touches,
                       std::uint64_t seed)
{
    const BlockReplay plan = planBlockReplay(l1, l2, l3, row_bytes, base, 64);
    ASSERT_EQ(plan.lines, expected_lines);
    CacheHierarchy narrow(l1, l2, l3);
    CacheHierarchy wide(plan.l1, plan.l2, plan.l3);

    const std::uint64_t b = plan.lines;
    // Rows in a region the L2 holds (drawn half the time), one half the
    // L3 holds, and four L3 capacities.
    const std::uint64_t regions[] = {
        l2.capacityBytes / row_bytes, l2.capacityBytes / row_bytes,
        l3.capacityBytes / 2 / row_bytes, 4 * l3.capacityBytes / row_bytes};
    Rng rng(seed);
    for (int t = 0; t < touches; ++t) {
        const std::uint64_t row = rng.nextBounded(regions[rng.nextBounded(4)]);
        const Addr row_base = base + row * row_bytes;
        for (std::uint64_t k = 0; k < row_bytes / (64 * b); ++k) {
            const Addr block = row_base + k * 64 * b;
            const int level = wide.access(block);
            for (std::uint64_t j = 0; j < b; ++j)
                ASSERT_EQ(narrow.access(block + j * 64), level)
                    << "touch " << t << " block " << k << " line " << j;
        }
    }
    for (int lvl = 1; lvl <= 3; ++lvl) {
        SCOPED_TRACE("level " + std::to_string(lvl));
        EXPECT_EQ(narrow.level(lvl).accesses(),
                  b * wide.level(lvl).accesses());
        EXPECT_EQ(narrow.level(lvl).misses(), b * wide.level(lvl).misses());
        EXPECT_GT(narrow.level(lvl).misses(), 0u);
        EXPECT_LT(narrow.level(lvl).misses(), narrow.level(lvl).accesses());
    }
    EXPECT_EQ(narrow.dramBytes(), wide.dramBytes());
}

} // namespace

TEST(BlockReplay, MatchesPerLineReplayAtTheCpuModelGeometry)
{
    // The CPU model's L1/L2/L3: 64, 512 and 24576 sets. 512-B rows
    // (128 features) give b = 8; 2-KB rows give b = 32, where the
    // L1's 64 sets bound b next. Each block's lines land in sibling
    // sets of the 24576-set L3 even though it is not a power of two.
    const CacheLevelConfig l1{32ull * 1024, 8, 64};
    const CacheLevelConfig l2{256ull * 1024, 8, 64};
    const CacheLevelConfig l3{30ull * 1024 * 1024, 20, 64};
    expectBlockReplayExact(l1, l2, l3, 512, Addr{1} << 40, 8, 400000, 1);
    expectBlockReplayExact(l1, l2, l3, 2048, 0, 32, 100000, 2);
    // A 3-line row cannot be blocked and replays line by line.
    expectBlockReplayExact(l1, l2, l3, 192, 0, 1, 100000, 3);
}

TEST(BlockReplay, MatchesPerLineReplayAtSmallGeometries)
{
    // 16, 32 and 24 sets: the L3's 24 = 3 x 8 sets bound b at 8 even
    // for 1-KB rows, and 256-B rows give b = 4.
    const CacheLevelConfig l1{2048, 2, 64};
    const CacheLevelConfig l2{8192, 4, 64};
    const CacheLevelConfig l3{24ull * 4 * 64, 4, 64};
    expectBlockReplayExact(l1, l2, l3, 1024, 4096, 8, 50000, 4);
    expectBlockReplayExact(l1, l2, l3, 256, 1024, 4, 50000, 5);
    // A 1-KB-aligned base holding 1-KB rows still gives b = 8; a
    // 128-B-aligned one caps b at 2.
    expectBlockReplayExact(l1, l2, l3, 1024, 128, 2, 50000, 6);
}

TEST(BlockReplay, FallsBackToPerLineReplay)
{
    const CacheLevelConfig l1{32ull * 1024, 8, 64};
    const CacheLevelConfig l2{256ull * 1024, 8, 64};
    const CacheLevelConfig l3{30ull * 1024 * 1024, 20, 64};
    auto lines = [](const CacheLevelConfig &a, const CacheLevelConfig &b,
                    const CacheLevelConfig &c, std::uint64_t row_bytes,
                    Addr base) {
        return planBlockReplay(a, b, c, row_bytes, base, 64).lines;
    };
    EXPECT_EQ(lines(l1, l2, l3, 512, 0), 8u);

    // Unaligned bases.
    EXPECT_EQ(lines(l1, l2, l3, 512, 64), 1u);
    EXPECT_EQ(lines(l1, l2, l3, 512, 32), 1u);
    EXPECT_EQ(lines(l1, l2, l3, 512, 256), 4u);
    // Rows that are not a whole number of lines (GIN's first layer on
    // Cora: 1433 features) or of blocks.
    EXPECT_EQ(lines(l1, l2, l3, 1433 * 4, 0), 1u);
    EXPECT_EQ(lines(l1, l2, l3, 96, 0), 1u);
    EXPECT_EQ(lines(l1, l2, l3, 384, 0), 2u);
    EXPECT_EQ(lines(l1, l2, l3, 0, 0), 1u);
    // Set counts b does not divide: an odd L3 (12289 sets), and an L1
    // of 2 x 5 sets.
    const CacheLevelConfig odd_l3{64ull * 16 * 12289, 16, 64};
    EXPECT_EQ(lines(l1, l2, odd_l3, 512, 0), 1u);
    const CacheLevelConfig l1_10_sets{10 * 8 * 64, 8, 64};
    EXPECT_EQ(lines(l1_10_sets, l2, l3, 512, 0), 2u);
    // Lines that differ from the 64-B access size, at one level or
    // at all of them.
    const CacheLevelConfig l3_128{30ull * 1024 * 1024, 20, 128};
    EXPECT_EQ(lines(l1, l2, l3_128, 512, 0), 1u);
    const CacheLevelConfig l1_128{32ull * 1024, 8, 128};
    const CacheLevelConfig l2_128{256ull * 1024, 8, 128};
    EXPECT_EQ(lines(l1_128, l2_128, l3_128, 512, 0), 1u);
    const BlockReplay kept =
        planBlockReplay(l1_128, l2_128, l3_128, 512, 0, 64);
    EXPECT_EQ(kept.l3.lineBytes, 128u);

    // The fallback keeps the configs; a block plan widens only lines.
    const BlockReplay same = planBlockReplay(l1, l2, odd_l3, 512, 0, 64);
    EXPECT_EQ(same.l3.capacityBytes, odd_l3.capacityBytes);
    EXPECT_EQ(same.l3.associativity, odd_l3.associativity);
    EXPECT_EQ(same.l3.lineBytes, 64u);
    const BlockReplay wide = planBlockReplay(l1, l2, l3, 512, 0, 64);
    EXPECT_EQ(wide.l1.lineBytes, 512u);
    EXPECT_EQ(wide.l2.lineBytes, 512u);
    EXPECT_EQ(wide.l3.lineBytes, 512u);
    EXPECT_EQ(wide.l3.capacityBytes, l3.capacityBytes);
    EXPECT_EQ(wide.l3.associativity, l3.associativity);
    EXPECT_EQ(CacheLevel(wide.l3).numSets(), 24576u / 8);
}
