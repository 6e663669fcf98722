/**
 * @file
 * Deterministic pseudo-random number generators.
 *
 * Everything random in memtier (graph generation, sampling jitter, access
 * interleaving tie-breaks) draws from these seeded generators so that a run
 * is exactly reproducible, which the test suite depends on. The draws
 * are defined inline: graph generation makes one per R-MAT bit, so a
 * call per draw would dominate the out-of-core build.
 */

#ifndef MEMTIER_BASE_RNG_H_
#define MEMTIER_BASE_RNG_H_

#include <cstdint>

namespace memtier {

/** SplitMix64: used to seed Xoshiro and for cheap standalone streams. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Xoshiro256** by Blackman & Vigna: fast, high-quality generator used as
 * the workhorse RNG for graph generation and sampling.
 */
class Rng
{
  public:
    /** Seed the generator deterministically from @p seed via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9d2c5680)
    {
        SplitMix64 sm(seed);
        for (auto &word : s)
            word = sm.next();
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire rejection-free mapping. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // 128-bit multiply-shift mapping (Lemire); slight modulo bias is
        // irrelevant at our bounds (< 2^40) but the mapping is
        // branch-free.
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform double in [0, 1): exactly (next() >> 11) * 2^-53. */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

}  // namespace memtier

#endif  // MEMTIER_BASE_RNG_H_
