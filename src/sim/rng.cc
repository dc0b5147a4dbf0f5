#include "sim/rng.h"

#if defined(__x86_64__)
#include <immintrin.h>

#include <array>
#include <bit>
#endif

namespace piranha {

#if defined(__x86_64__)

namespace {

/** Eight PCG states, and eight 32-bit outputs, as GCC vectors: the
 *  arithmetic below reads as Pcg32::next() and compiles to AVX-512.
 *  (GCC 12's unmasked shift and narrowing intrinsics would also trip
 *  -Wmaybe-uninitialized.) */
using State8 = std::uint64_t __attribute__((vector_size(64)));
using Out8 = std::uint32_t __attribute__((vector_size(32)));

/** Lane k of a block is the state k steps on, a^k * s +
 *  (a^(k-1) + ... + 1) * inc for block state s; entry 16 is the jump
 *  from one block to the next. */
struct JumpTable
{
    std::array<std::uint64_t, 17> mul{};
    std::array<std::uint64_t, 17> incMul{};
};

constexpr JumpTable
makeJumps(std::uint64_t a)
{
    JumpTable t;
    t.mul[0] = 1;
    for (int k = 1; k <= 16; ++k) {
        t.mul[k] = t.mul[k - 1] * a;
        t.incMul[k] = t.incMul[k - 1] * a + 1;
    }
    return t;
}

/** Bit i set when the XSH-RR output of state @p old[i] (as computed
 *  by Pcg32::next()) is below @p threshold. */
__attribute__((target("avx512f,avx512vl,avx512dq"))) inline unsigned
belowMask(State8 old, Out8 threshold)
{
    auto xorshifted = __builtin_convertvector(((old >> 18) ^ old) >> 27,
                                              Out8);
    auto rot = __builtin_convertvector(old >> 59, Out8);
    __m256i out = _mm256_rorv_epi32(__m256i(xorshifted), __m256i(rot));
    return _mm256_cmplt_epu32_mask(out, __m256i(threshold));
}

} // namespace

__attribute__((target("avx512f,avx512vl,avx512dq"))) std::uint32_t
Pcg32::scanUntilBelow(std::uint32_t threshold, std::uint32_t cap)
{
    static constexpr JumpTable kJumps = makeJumps(kMultiplier);

    // lo holds the states that make draws n+1..n+8, hi n+9..n+16.
    State8 lo, hi;
    for (int k = 0; k < 8; ++k) {
        lo[k] = kJumps.mul[k] * _state + kJumps.incMul[k] * _inc;
        hi[k] = kJumps.mul[k + 8] * _state + kJumps.incMul[k + 8] * _inc;
    }
    const std::uint64_t jump_add = kJumps.incMul[16] * _inc;
    const Out8 t = Out8{} + threshold;

    std::uint32_t n = 0;
    for (; cap - n >= 16; n += 16) {
        unsigned below = belowMask(lo, t) | belowMask(hi, t) << 8;
        if (below) {
            int lane = std::countr_zero(below);
            std::uint64_t old = lane < 8 ? lo[lane] : hi[lane - 8];
            _state = old * kMultiplier + _inc;
            return n + static_cast<std::uint32_t>(lane) + 1;
        }
        lo = lo * kJumps.mul[16] + jump_add;
        hi = hi * kJumps.mul[16] + jump_add;
    }
    _state = lo[0];
    return n + loopUntilBelow(threshold, cap - n);
}

bool
Pcg32::scanSupported()
{
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512vl") &&
               __builtin_cpu_supports("avx512dq");
    }();
    return supported;
}

#else

std::uint32_t
Pcg32::scanUntilBelow(std::uint32_t threshold, std::uint32_t cap)
{
    return loopUntilBelow(threshold, cap);
}

bool
Pcg32::scanSupported()
{
    return false;
}

#endif

} // namespace piranha
