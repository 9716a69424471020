#include "sim/rng.hpp"

#include <bit>
#include <cassert>
#include <vector>

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

/** A polynomial over GF(2) of degree below 256; bit i is x^i. */
using Poly = std::array<std::uint64_t, 4>;

/**
 * Coefficients of x^0..x^255 of xoshiro256's characteristic
 * polynomial, whose x^256 coefficient is 1. Berlekamp-Massey recovers
 * it from 512 steps of one state bit: the polynomial is primitive, so
 * any nonzero bit sequence of the state has it as minimal polynomial.
 */
Poly
deriveCharPoly()
{
    constexpr int kDegree = 256;
    constexpr int kBits = 2 * kDegree;
    std::vector<std::uint8_t> seq(kBits);
    Rng rng;
    for (auto &bit : seq) {
        bit = rng.state()[0] & 1;
        rng.next();
    }
    // Connection polynomial c with seq[n] = sum_{i=1..len} c[i]
    // seq[n-i], and b, c's value before the last length change.
    std::vector<std::uint8_t> c(kBits + 1, 0), b(kBits + 1, 0);
    c[0] = b[0] = 1;
    int len = 0, shift = 1;
    for (int n = 0; n < kBits; ++n) {
        std::uint8_t discrepancy = seq[n];
        for (int i = 1; i <= len; ++i)
            discrepancy ^= c[i] & seq[n - i];
        if (discrepancy == 0) {
            ++shift;
            continue;
        }
        const std::vector<std::uint8_t> prev = c;
        for (int i = 0; i + shift <= kBits; ++i)
            c[i + shift] ^= b[i];
        if (2 * len <= n) {
            len = n + 1 - len;
            b = prev;
            shift = 1;
        } else {
            ++shift;
        }
    }
    assert(len == kDegree);
    // The characteristic polynomial is c reversed: x^256 c(1/x).
    Poly poly{};
    for (int j = 0; j < kDegree; ++j)
        poly[j / 64] |= std::uint64_t{c[kDegree - j]} << (j % 64);
    return poly;
}

const Poly &
charPoly()
{
    static const Poly poly = deriveCharPoly();
    return poly;
}

/** @p a times x, modulo the characteristic polynomial @p mod. */
Poly
timesX(Poly a, const Poly &mod)
{
    const std::uint64_t carry = 0 - (a[3] >> 63);
    for (int w = 3; w > 0; --w)
        a[w] = (a[w] << 1) | (a[w - 1] >> 63);
    a[0] <<= 1;
    for (int w = 0; w < 4; ++w)
        a[w] ^= mod[w] & carry;
    return a;
}

/** Bits 0..31 of @p w spread to the even bits: bit i moves to 2i. */
std::uint64_t
spreadHalf(std::uint64_t w)
{
    w &= 0xffffffffull;
    w = (w | (w << 16)) & 0x0000ffff0000ffffull;
    w = (w | (w << 8)) & 0x00ff00ff00ff00ffull;
    w = (w | (w << 4)) & 0x0f0f0f0f0f0f0f0full;
    w = (w | (w << 2)) & 0x3333333333333333ull;
    w = (w | (w << 1)) & 0x5555555555555555ull;
    return w;
}

/**
 * Reduction table for squaring: entry [k][v] is v x^(256 + 4k) modulo
 * the characteristic polynomial, for each nibble position k of a
 * product's upper 256 bits and each nibble value v (32 KiB).
 */
using NibbleTable = std::array<std::array<Poly, 16>, 64>;

const NibbleTable &
highNibbles()
{
    static const NibbleTable table = [] {
        const Poly &mod = charPoly();
        NibbleTable t{};
        // p = x^256 + mod over GF(2), so x^256 = mod modulo p.
        Poly power = mod;
        for (auto &row : t) {
            for (int b = 0; b < 4; ++b) {
                row[1 << b] = power;
                power = timesX(power, mod);
            }
            for (int v = 3; v < 16; ++v) {
                const int low = v & -v;
                if (v != low)
                    for (int w = 0; w < 4; ++w)
                        row[v][w] = row[low][w] ^ row[v - low][w];
            }
        }
        return t;
    }();
    return table;
}

/** @p a squared, modulo the characteristic polynomial. Squaring over
 *  GF(2) moves bit i to bit 2i; the upper half then folds back down
 *  one nibble at a time. */
Poly
square(const Poly &a)
{
    Poly low, high;
    for (int w = 0; w < 2; ++w) {
        low[2 * w] = spreadHalf(a[w]);
        low[2 * w + 1] = spreadHalf(a[w] >> 32);
        high[2 * w] = spreadHalf(a[w + 2]);
        high[2 * w + 1] = spreadHalf(a[w + 2] >> 32);
    }
    const NibbleTable &table = highNibbles();
    for (int k = 0; k < 64; ++k) {
        const Poly &fold = table[k][(high[k / 16] >> (4 * (k % 16))) & 15];
        for (int w = 0; w < 4; ++w)
            low[w] ^= fold[w];
    }
    return low;
}

} // namespace

Rng::Jump::Jump(std::uint64_t n) : poly_{1, 0, 0, 0}
{
    // Square-and-multiply for x^n, from n's top bit down.
    const Poly &mod = charPoly();
    for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
        poly_ = square(poly_);
        if ((n >> bit) & 1)
            poly_ = timesX(poly_, mod);
    }
}

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

void
Rng::jump(const Jump &jump)
{
    // With T the one-step state map and x^n = sum c_i x^i modulo its
    // characteristic polynomial p, T^n = sum c_i T^i since p(T) = 0.
    const auto &poly = jump.polynomial();
    State sum{};
    for (int i = 0; i < 256; ++i) {
        const std::uint64_t take = 0 - ((poly[i / 64] >> (i % 64)) & 1);
        for (int w = 0; w < 4; ++w)
            sum[w] ^= state_[w] & take;
        next();
    }
    state_ = sum;
}

} // namespace hygcn
