/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * dataset synthesis and sampling. A thin wrapper over xoshiro256**
 * so that results do not depend on the standard library's
 * implementation-defined distributions.
 */

#ifndef HYGCN_SIM_RNG_HPP
#define HYGCN_SIM_RNG_HPP

#include <bit>
#include <cstdint>

namespace hygcn {

/**
 * Deterministic 64-bit PRNG (xoshiro256**). Identical sequences on
 * every platform for a given seed, unlike std::mt19937 + std
 * distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using rejection-free mapping. */
    std::uint64_t nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Multiply-shift mapping (Lemire); bias is negligible for our
        // uses and determinism matters more than perfect uniformity.
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform float in [lo, hi). */
    float nextFloat(float lo, float hi);

  private:
    std::uint64_t state_[4];
};

} // namespace hygcn

#endif // HYGCN_SIM_RNG_HPP
