#include "graph/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

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
            // Pair {lo, hi} with lo < hi is bit hi(hi-1)/2 + lo.
            const std::uint64_t bit = std::uint64_t{b} * (b - 1) / 2 + a;
            std::uint64_t &word = bits_[bit / 64];
            const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
            const bool fresh = (word & mask) == 0;
            word |= mask;
            return fresh;
        }
        // The smaller vertex goes in the high half, so kEmpty never
        // collides with a key.
        const std::uint64_t key = (std::uint64_t{a} << 32) | b;
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

  private:
    static constexpr std::uint64_t kEmpty = 0xffffffff00000000ull;

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

    constexpr double a = 0.57, b = 0.19, c = 0.19;
    EdgeList edges;
    edges.reserve(num_edges);
    EdgeKeySet seen(num_vertices, num_edges);

    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = num_edges * 64ull + 1024;
    while (edges.size() < num_edges && attempts < max_attempts) {
        ++attempts;
        VertexId src = 0, dst = 0;
        for (int level = 0; level < levels; ++level) {
            const double p = rng.nextDouble();
            // Add per-level noise so degrees are not perfectly nested.
            const double jitter = 0.05 * (rng.nextDouble() - 0.5);
            const double aa = a + jitter;
            // Quadrant [0, aa): none; [aa, aa+b): dst; [aa+b, aa+b+c):
            // src; above: both. Selected without branches, since p is
            // random and each branch would mispredict half the time.
            const double ab = aa + b;
            const VertexId src_bit = p >= ab;
            const VertexId dst_bit = (p >= aa) & ((p < ab) | (p >= ab + c));
            src = (src << 1) | src_bit;
            dst = (dst << 1) | dst_bit;
        }
        if (src >= num_vertices || dst >= num_vertices || src == dst)
            continue;
        if (seen.insert(src, dst))
            edges.emplace_back(src, dst);
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
