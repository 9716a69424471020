/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * dataset synthesis and sampling. A thin wrapper over xoshiro256**
 * so that results do not depend on the standard library's
 * implementation-defined distributions.
 */

#ifndef HYGCN_SIM_RNG_HPP
#define HYGCN_SIM_RNG_HPP

#include <array>
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
    /** The four xoshiro256 state words. */
    using State = std::array<std::uint64_t, 4>;

    /**
     * A jump by a fixed number of draws. It is precomputed once, so it
     * can be applied to many states at the cost of 256 next() calls.
     */
    class Jump
    {
      public:
        /** Jump by @p n draws. */
        explicit Jump(std::uint64_t n);

        /**
         * x^n modulo xoshiro256's characteristic polynomial, bit i the
         * coefficient of x^i. The state n draws ahead is the XOR of
         * the states i draws ahead over every set bit i.
         */
        const std::array<std::uint64_t, 4> &polynomial() const
        { return poly_; }

      private:
        std::array<std::uint64_t, 4> poly_;
    };

    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Construct at @p state; Rng(r.state()) continues r's sequence. */
    explicit Rng(const State &state) : state_(state) {}

    /** The current state. */
    const State &state() const { return state_; }

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

    /**
     * Advance the state as @p n calls to next() would. xoshiro256 is
     * linear over GF(2), so this takes O(log n) polynomial squarings
     * rather than n steps.
     */
    void jump(std::uint64_t n) { jump(Jump(n)); }

    /** Advance the state by @p jump's distance. */
    void jump(const Jump &jump);

  private:
    State state_;
};

} // namespace hygcn

#endif // HYGCN_SIM_RNG_HPP
