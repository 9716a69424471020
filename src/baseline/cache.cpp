#include "baseline/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace hygcn {

namespace {

std::uint64_t
setCount(const CacheLevelConfig &config)
{
    const std::uint64_t lines = config.capacityBytes / config.lineBytes;
    return std::max<std::uint64_t>(1, lines / config.associativity);
}

} // namespace

CacheLevel::CacheLevel(const CacheLevelConfig &config) : config_(config)
{
    if (config_.associativity == 0)
        throw std::invalid_argument("cache associativity must be >= 1");
    if (!std::has_single_bit(config_.lineBytes))
        throw std::invalid_argument(
            "cache lineBytes must be a non-zero power of two");
    numSets_ = setCount(config_);
    lineShift_ = static_cast<unsigned>(std::countr_zero(config_.lineBytes));
    setsPow2_ = std::has_single_bit(numSets_);
    setMask_ = setsPow2_ ? numSets_ - 1 : 0;
    tags_.assign(numSets_ * config_.associativity, 0);
    fill_.assign(numSets_, 0);
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

BlockReplay
planBlockReplay(const CacheLevelConfig &l1, const CacheLevelConfig &l2,
                const CacheLevelConfig &l3, std::uint64_t rowBytes, Addr base,
                std::uint32_t accessBytes)
{
    BlockReplay plan{1, l1, l2, l3};
    CacheLevelConfig *const levels[] = {&plan.l1, &plan.l2, &plan.l3};
    for (const CacheLevelConfig *level : levels) {
        if (accessBytes == 0 || level->lineBytes != accessBytes ||
            level->associativity == 0)
            return plan;
    }
    // Each condition that fails for b fails for every larger power of
    // two, so the first failure ends the search.
    for (std::uint64_t b = 2; rowBytes != 0; b *= 2) {
        const std::uint64_t wide = b * accessBytes;
        bool fits = wide <= std::numeric_limits<std::uint32_t>::max() &&
                    rowBytes % wide == 0 && base % wide == 0;
        for (const CacheLevelConfig *level : levels) {
            CacheLevelConfig widened = *level;
            widened.lineBytes = static_cast<std::uint32_t>(wide);
            fits = fits && setCount(widened) * b == setCount(*level);
        }
        if (!fits)
            break;
        plan.lines = static_cast<std::uint32_t>(b);
    }
    for (CacheLevelConfig *level : levels)
        level->lineBytes = accessBytes * plan.lines;
    return plan;
}

} // namespace hygcn
