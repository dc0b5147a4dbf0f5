/**
 * @file
 * Deterministic pseudo-random number generation (PCG32).
 *
 * The simulator never uses std::rand or unseeded std::mt19937 so that
 * every run is exactly reproducible from its configuration. PCG32 is
 * small, fast and has good statistical quality for workload generation.
 */

#ifndef PIRANHA_SIM_RNG_H
#define PIRANHA_SIM_RNG_H

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace piranha {

/** Minimal PCG32 generator (O'Neill, pcg-random.org; public domain). */
class Pcg32
{
  public:
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        _state = 0;
        _inc = (stream << 1) | 1u;
        next();
        _state += seed;
        next();
    }

    /** Uniform 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = _state;
        _state = old * kMultiplier + _inc;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
    }

    /** Uniform value in [0, bound); bound == 0 returns 0. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        if (bound == 0)
            return 0;
        // Debiased modulo via rejection sampling.
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next64()
    {
        return (static_cast<std::uint64_t>(next()) << 32) | next();
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Positive integer with mean about @p mean, for think times and
     * burst lengths. The exact contract, which every stream's draw
     * sequence (and so the behaviour fingerprint) rests on: @p mean
     * <= 1 returns 1 without drawing; otherwise draw until
     * chance(1 / mean) holds or ceil(64 * mean) draws are spent, and
     * return the number of draws. chance(p) is next() * 2^-32 < p,
     * and both next() * 2^-32 and p * 2^32 are exact in double, so
     * it holds exactly when next() < T with T = ceil(p * 2^32); the
     * loop `n = 1; while (!chance(p) && n < 64 * mean) ++n` stops at
     * n = ceil(64 * mean) at the latest. Hence geometric(mean) is
     * drawsUntilBelow(T, ceil(64 * mean)). @p mean must stay below
     * 2^26 so that the cap fits in 32 bits.
     */
    std::uint32_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        double p = 1.0 / mean;
        auto threshold =
            static_cast<std::uint64_t>(std::ceil(p * 4294967296.0));
        auto cap = static_cast<std::uint32_t>(
            std::min(std::ceil(64.0 * mean), 4294967295.0));
        return drawsUntilBelow(threshold, cap);
    }

    /**
     * Number of draws up to and including the first whose next() is
     * below @p threshold, with at most @p cap draws (cap when none
     * is). Advances the state by exactly that many steps.
     *
     * Runs expected to be short (threshold >= 2^27, fewer than 32
     * draws on average, as OLTP's think times) take the inline loop:
     * at a mean of 18 the scan saved under 10% a call. Longer ones,
     * as DSS's 300-draw rows, take the AVX-512 scan when the host has
     * it (about 3x faster there); it returns the same count and
     * leaves the same state.
     */
    std::uint32_t
    drawsUntilBelow(std::uint64_t threshold, std::uint32_t cap)
    {
        if (threshold < kScanBelow && scanSupported())
            return scanUntilBelow(static_cast<std::uint32_t>(threshold),
                                  cap);
        return loopUntilBelow(threshold, cap);
    }

    /** drawsUntilBelow one draw at a time: the only path on hosts
     *  without AVX-512, and the reference the scan is tested against. */
    std::uint32_t
    loopUntilBelow(std::uint64_t threshold, std::uint32_t cap)
    {
        std::uint32_t n = 0;
        while (n < cap) {
            ++n;
            if (next() < threshold)
                return n;
        }
        return cap;
    }

    /**
     * drawsUntilBelow over 16 consecutive states at a time with
     * AVX-512 (src/sim/rng.cc). Call only when scanSupported().
     */
    std::uint32_t scanUntilBelow(std::uint32_t threshold,
                                 std::uint32_t cap);

    /** Whether this host runs scanUntilBelow: x86-64 with AVX-512
     *  F, VL and DQ, checked once per process. */
    static bool scanSupported();

  private:
    static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;
    static constexpr std::uint64_t kScanBelow = std::uint64_t{1} << 27;

    std::uint64_t _state;
    std::uint64_t _inc;
};

} // namespace piranha

#endif // PIRANHA_SIM_RNG_H
