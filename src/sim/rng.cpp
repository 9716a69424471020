#include "sim/rng.hpp"

namespace hygcn {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

float
Rng::nextFloat(float lo, float hi)
{
    return lo + static_cast<float>(nextDouble()) * (hi - lo);
}

} // namespace hygcn
