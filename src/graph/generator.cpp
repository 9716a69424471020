#include "graph/generator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <vector>

#include "sim/codegen.hpp"

namespace hygcn {

namespace {

/** Edge count of the complete graph on @p n vertices. */
EdgeId
completeEdges(VertexId n)
{
    return static_cast<EdgeId>(n) * (n - 1) / 2;
}

/**
 * Insert-only set of undirected edges over @p n vertices. It holds one
 * bit per vertex pair when the n(n-1)/2 bits fit in the open-addressing
 * table sized for the expected keys, and that table otherwise, so it
 * never takes more memory than the table. Both answer membership the
 * same way; only speed and footprint differ.
 */
class EdgeKeySet
{
  public:
    EdgeKeySet(VertexId n, std::size_t expected)
    {
        const std::uint64_t pairs = completeEdges(n);
        const std::size_t slots = slotsFor(expected);
        dense_ = pairs <= 64 * std::uint64_t{slots};
        if (dense_)
            bits_.assign((pairs + 63) / 64, 0);
        else
            slots_.assign(slots, kEmpty);
    }

    /** Insert edge {a, b} (a != b); true if it was not present. */
    bool insert(VertexId a, VertexId b)
    {
        if (a > b)
            std::swap(a, b);
        if (dense_) {
            const std::uint64_t bit = pairBit(a, b);
            std::uint64_t &word = bits_[bit / 64];
            const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
            const bool fresh = (word & mask) == 0;
            word |= mask;
            return fresh;
        }
        const std::uint64_t key = pairKey(a, b);
        if (size_ + 1 > maxLoad(slots_.size()))
            rehash(slotsFor(2 * (size_ + 1)));
        std::size_t i = home(key, slots_.size());
        while (slots_[i] != kEmpty) {
            if (slots_[i] == key)
                return false;
            if (++i == slots_.size())
                i = 0;
        }
        slots_[i] = key;
        ++size_;
        return true;
    }

    /** Start loading what insert(a, b) will touch (a != b, both < n). */
    void prefetch(VertexId a, VertexId b) const
    {
        if (a > b)
            std::swap(a, b);
        if (dense_)
            __builtin_prefetch(&bits_[pairBit(a, b) / 64]);
        else
            __builtin_prefetch(&slots_[home(pairKey(a, b), slots_.size())]);
    }

  private:
    static constexpr std::uint64_t kEmpty = 0xffffffff00000000ull;

    /** Pair {lo, hi} with lo < hi is bit hi(hi-1)/2 + lo. */
    static std::uint64_t pairBit(VertexId lo, VertexId hi)
    { return std::uint64_t{hi} * (hi - 1) / 2 + lo; }

    /** The smaller vertex goes in the high half, so kEmpty never
     *  collides with a key. */
    static std::uint64_t pairKey(VertexId lo, VertexId hi)
    { return (std::uint64_t{lo} << 32) | hi; }

    /** Keys allowed in @p slots slots (load factor 2/3). */
    static std::size_t maxLoad(std::size_t slots) { return slots * 2 / 3; }

    static std::size_t slotsFor(std::size_t keys)
    { return std::max<std::size_t>(16, keys + keys / 2 + 1); }

    static std::size_t home(std::uint64_t key, std::size_t slots)
    {
        // splitmix64 finalizer, then map onto [0, slots).
        key ^= key >> 30;
        key *= 0xbf58476d1ce4e5b9ull;
        key ^= key >> 27;
        key *= 0x94d049bb133111ebull;
        key ^= key >> 31;
        return static_cast<std::size_t>(
            (static_cast<unsigned __int128>(key) * slots) >> 64);
    }

    void rehash(std::size_t slots)
    {
        std::vector<std::uint64_t> old(slots, kEmpty);
        old.swap(slots_);
        for (std::uint64_t key : old) {
            if (key == kEmpty)
                continue;
            std::size_t i = home(key, slots);
            while (slots_[i] != kEmpty) {
                if (++i == slots)
                    i = 0;
            }
            slots_[i] = key;
        }
    }

    bool dense_ = false;
    /** Dense form: one bit per vertex pair. */
    std::vector<std::uint64_t> bits_;
    /**
     * Sparse form: linear-probing table of packed keys. Its slot count
     * follows the load rather than a power of two, so a key's home
     * slot is a multiply-high of its hash by the slot count.
     */
    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
};

// ---- R-MAT attempts in vector lanes --------------------------------
// Every R-MAT attempt draws exactly 2 * levels numbers, so attempt i
// is a pure function of the caller's state advanced 2 * levels * i
// draws. A round hands kLaneAttempts consecutive attempts to each of
// kLanes lanes: lane j starts from the round's state jumped by
// j * kLaneAttempts attempts' draws (Rng::jump). The lanes run the
// scalar generator's exact integer and double operations, so a serial
// pass over the round's buffer sees the serial generator's attempts.

constexpr std::size_t kLanes = 8;
constexpr std::size_t kLaneAttempts = 256;
constexpr std::size_t kRoundAttempts = kLanes * kLaneAttempts;

/** R-MAT quadrant probabilities a, b, c (d = 1 - a - b - c). */
constexpr double kRmatA = 0.57, kRmatB = 0.19, kRmatC = 0.19;

/** W lanes of 64-bit words and of doubles. */
template <std::size_t W>
struct Lanes
{
    typedef std::uint64_t U64 __attribute__((vector_size(8 * W)));
    typedef double F64 __attribute__((vector_size(8 * W)));
};

// The lane helpers return through reference parameters because a
// vector return value would change the calling convention between
// clones.

/** Rng::next()'s state update in every lane; @p s holds the lanes'
 *  state words. */
template <typename U64>
__attribute__((always_inline)) inline void
laneStep(U64 (&s)[4])
{
    const U64 t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
}

/** Rng::nextDouble() in every lane, bit for bit. */
template <typename U64, typename F64>
__attribute__((always_inline)) inline void
laneNextDouble(U64 (&s)[4], F64 &out)
{
    // next()'s multiplies by 5 and 9 as shift-adds: no 64-bit vector
    // multiply exists below AVX-512DQ.
    const U64 x = s[1] + (s[1] << 2);
    const U64 r = (x << 7) | (x >> 57);
    const U64 result = r + (r << 3);
    laneStep(s);

    // (double)(result >> 11) without AVX-512DQ's conversion: a 52-bit
    // value v converts exactly as the double 2^52 + v, whose bits are v
    // ORed into those of 2^52, minus 2^52. The 53-bit result >> 11 is
    // twice its top 52 bits plus its low bit; every step is exact.
    constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;
    const F64 hi = (F64)((result >> 12) | kTwo52Bits) - 0x1.0p52;
    const F64 lo = (F64)(((result >> 11) & 1) | kTwo52Bits) - 0x1.0p52;
    out = (hi * 2.0 + lo) * 0x1.0p-53;
}

/** rmatRound() for the W lanes at @p lanes, writing from @p out. */
template <std::size_t W>
__attribute__((always_inline)) inline void
rmatLanes(Rng::State *lanes, const Rng::Jump &skip, int levels,
          std::uint64_t *out)
{
    using U64 = typename Lanes<W>::U64;
    using F64 = typename Lanes<W>::F64;
    U64 s[4];
    for (std::size_t j = 0; j < W; ++j)
        for (int w = 0; w < 4; ++w)
            s[w][j] = lanes[j][w];
    for (std::size_t i = 0; i < kLaneAttempts; ++i) {
        U64 src = {}, dst = {};
        for (int level = 0; level < levels; ++level) {
            F64 p, q;
            laneNextDouble(s, p);
            // Per-level noise so degrees are not perfectly nested.
            laneNextDouble(s, q);
            const F64 aa = kRmatA + 0.05 * (q - 0.5);
            const F64 ab = aa + kRmatB;
            // Quadrant [0, aa): none; [aa, aa+b): dst; [aa+b, aa+b+c):
            // src; above: both. p < x is the sign bit of p - x, exactly
            // for finite values; unlike a vector double compare, it
            // vectorizes in every clone.
            const U64 lt_aa = (U64)(p - aa) >> 63;
            const U64 lt_ab = (U64)(p - ab) >> 63;
            const U64 lt_abc = (U64)(p - (ab + kRmatC)) >> 63;
            const U64 dst_bit = (lt_aa ^ 1) & (lt_ab | (lt_abc ^ 1));
            src = (src << 1) | (lt_ab ^ 1);
            dst = (dst << 1) | dst_bit;
        }
        const U64 packed = (src << 32) | dst;
        for (std::size_t j = 0; j < W; ++j)
            out[j * kLaneAttempts + i] = packed[j];
    }

    // Rng::jump(skip) in every lane, with the word loop written out so
    // the sums stay in registers.
    const auto &poly = skip.polynomial();
    U64 sum[4] = {};
    for (int i = 0; i < 256; ++i) {
        const std::uint64_t take = 0 - ((poly[i / 64] >> (i % 64)) & 1);
        sum[0] ^= s[0] & take;
        sum[1] ^= s[1] & take;
        sum[2] ^= s[2] & take;
        sum[3] ^= s[3] & take;
        laneStep(s);
    }
    for (std::size_t j = 0; j < W; ++j)
        for (int w = 0; w < 4; ++w)
            lanes[j][w] = sum[w][j];
}

/**
 * Generate one round into @p out: lane j writes its kLaneAttempts
 * attempts to out[j * kLaneAttempts ...], each as src << 32 | dst.
 * @p lanes holds each lane's first state. On return it holds the next
 * round's: each lane ends where the next one started, and @p skip then
 * jumps it over the other lanes' share of the next round.
 */
HYGCN_TARGET_CLONES void
rmatRound(Rng::State *lanes, const Rng::Jump &skip, int levels,
          std::uint64_t *out)
{
    // Eight lanes' state is one register per word at AVX-512 width.
    // Narrower registers would spill it, so they take the lanes four
    // at a time.
    if (HYGCN_CLONE_HAS("avx512f")) {
        rmatLanes<8>(lanes, skip, levels, out);
    } else {
        rmatLanes<4>(lanes, skip, levels, out);
        rmatLanes<4>(lanes + 4, skip, levels, out + 4 * kLaneAttempts);
    }
}

} // namespace

EdgeList
generateUniform(VertexId num_vertices, EdgeId num_edges, Rng &rng)
{
    assert(num_vertices >= 2);
    num_edges = std::min(num_edges, completeEdges(num_vertices));

    EdgeList edges;
    edges.reserve(num_edges);
    EdgeKeySet seen(num_vertices, num_edges);
    while (edges.size() < num_edges) {
        const auto a = static_cast<VertexId>(rng.nextBounded(num_vertices));
        const auto b = static_cast<VertexId>(rng.nextBounded(num_vertices));
        if (a == b)
            continue;
        if (seen.insert(a, b))
            edges.emplace_back(a, b);
    }
    return edges;
}

EdgeList
generateRmat(VertexId num_vertices, EdgeId num_edges, Rng &rng)
{
    assert(num_vertices >= 2);
    num_edges = std::min(num_edges, completeEdges(num_vertices));
    int levels = 0;
    while ((VertexId(1) << levels) < num_vertices)
        ++levels;

    EdgeList edges;
    edges.reserve(num_edges);
    EdgeKeySet seen(num_vertices, num_edges);

    // Rounds of lane-generated attempts, each deduped serially in
    // attempt order. A round's last attempts may go unused; the
    // caller's rng then ends just past the last attempt used.
    const std::uint64_t draws = 2 * static_cast<std::uint64_t>(levels);
    const std::uint64_t lane_draws = kLaneAttempts * draws;
    const Rng::Jump next_lane(lane_draws);
    std::array<Rng::State, kLanes> lanes;
    Rng lane = rng;
    for (Rng::State &start : lanes) {
        start = lane.state();
        lane.jump(next_lane);
    }
    const Rng::Jump skip((kLanes - 1) * lane_draws);
    // How far ahead the dedupe pass prefetches an attempt's key.
    constexpr std::size_t kAhead = 32;
    std::vector<std::uint64_t> round(kRoundAttempts);
    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = num_edges * 64ull + 1024;
    while (edges.size() < num_edges && attempts < max_attempts) {
        const std::array<Rng::State, kLanes> starts = lanes;
        rmatRound(lanes.data(), skip, levels, round.data());

        // Use the attempts in order until the edges are found or the
        // attempt budget is spent.
        const std::uint64_t budget = max_attempts - attempts;
        const auto limit = std::min<std::uint64_t>(kRoundAttempts, budget);
        std::size_t used = 0;
        for (; used < limit && edges.size() < num_edges; ++used) {
            if (used + kAhead < kRoundAttempts) {
                const std::uint64_t ahead = round[used + kAhead];
                const auto s = static_cast<VertexId>(ahead >> 32);
                const auto d = static_cast<VertexId>(ahead);
                if (s < num_vertices && d < num_vertices && s != d)
                    seen.prefetch(s, d);
            }
            const auto src = static_cast<VertexId>(round[used] >> 32);
            const auto dst = static_cast<VertexId>(round[used]);
            if (src >= num_vertices || dst >= num_vertices || src == dst)
                continue;
            if (seen.insert(src, dst))
                edges.emplace_back(src, dst);
        }
        attempts += used;
        if (used == kRoundAttempts) {
            rng = Rng(lanes[0]);
        } else {
            rng = Rng(starts[used / kLaneAttempts]);
            rng.jump(used % kLaneAttempts * draws);
        }
    }
    // Top up with uniform edges if R-MAT saturated (tiny graphs).
    while (edges.size() < num_edges) {
        const auto s = static_cast<VertexId>(rng.nextBounded(num_vertices));
        const auto d = static_cast<VertexId>(rng.nextBounded(num_vertices));
        if (s == d)
            continue;
        if (seen.insert(s, d))
            edges.emplace_back(s, d);
    }
    return edges;
}

EdgeList
generateCommunity(VertexId num_vertices, EdgeId num_edges, Rng &rng)
{
    // Dense community: start from a ring (guarantees connectivity),
    // then fill with uniform random internal edges.
    const EdgeId target = std::min(num_edges, completeEdges(num_vertices));
    EdgeList edges;
    EdgeKeySet seen(num_vertices, target);
    if (num_vertices >= 3) {
        for (VertexId v = 0; v < num_vertices; ++v) {
            const VertexId u = (v + 1) % num_vertices;
            if (seen.insert(v, u))
                edges.emplace_back(v, u);
        }
    } else if (num_vertices == 2) {
        edges.emplace_back(0, 1);
        seen.insert(0, 1);
    }
    while (edges.size() < target) {
        const auto a = static_cast<VertexId>(rng.nextBounded(num_vertices));
        const auto b = static_cast<VertexId>(rng.nextBounded(num_vertices));
        if (a == b)
            continue;
        if (seen.insert(a, b))
            edges.emplace_back(a, b);
    }
    return edges;
}

EdgeList
assembleComponents(const std::vector<VertexId> &component_sizes,
                   const std::vector<EdgeId> &component_edges,
                   Rng &rng, std::vector<VertexId> &boundaries)
{
    assert(component_sizes.size() == component_edges.size());
    EdgeList all;
    boundaries.clear();
    boundaries.push_back(0);
    VertexId offset = 0;
    for (std::size_t i = 0; i < component_sizes.size(); ++i) {
        EdgeList part =
            generateCommunity(component_sizes[i], component_edges[i], rng);
        for (auto &[s, d] : part)
            all.emplace_back(s + offset, d + offset);
        offset += component_sizes[i];
        boundaries.push_back(offset);
    }
    return all;
}

} // namespace hygcn
