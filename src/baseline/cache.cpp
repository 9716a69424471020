#include "baseline/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace hygcn {

CacheLevel::CacheLevel(const CacheLevelConfig &config) : config_(config)
{
    if (config_.associativity == 0)
        throw std::invalid_argument("cache associativity must be >= 1");
    if (!std::has_single_bit(config_.lineBytes))
        throw std::invalid_argument(
            "cache lineBytes must be a non-zero power of two");
    const std::uint64_t lines = config_.capacityBytes / config_.lineBytes;
    numSets_ = std::max<std::uint64_t>(1, lines / config_.associativity);
    lineShift_ = static_cast<unsigned>(std::countr_zero(config_.lineBytes));
    setsPow2_ = std::has_single_bit(numSets_);
    setMask_ = setsPow2_ ? numSets_ - 1 : 0;
    tags_.assign(numSets_ * config_.associativity, 0);
    fill_.assign(numSets_, 0);
}

bool
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

void
CacheLevel::reset()
{
    std::fill(fill_.begin(), fill_.end(), 0);
    accesses_ = 0;
    misses_ = 0;
}

CacheHierarchy::CacheHierarchy(const CacheLevelConfig &l1,
                               const CacheLevelConfig &l2,
                               const CacheLevelConfig &l3)
{
    levels_.emplace_back(l1);
    levels_.emplace_back(l2);
    levels_.emplace_back(l3);
}

int
CacheHierarchy::access(Addr addr)
{
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        if (levels_[i].access(addr))
            return static_cast<int>(i) + 1;
    }
    return static_cast<int>(levels_.size()) + 1;
}

std::uint64_t
CacheHierarchy::dramBytes() const
{
    return levels_.back().misses() * levels_.back().lineBytes();
}

void
CacheHierarchy::reset()
{
    for (auto &level : levels_)
        level.reset();
}

} // namespace hygcn
