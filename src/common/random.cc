#include "common/random.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tcpni
{

namespace
{

uint32_t
rotl(uint32_t x, int k)
{
    return (x << k) | (x >> (32 - k));
}

/** One xoshiro128** step on the state @p s. */
uint32_t
step(uint32_t *s)
{
    uint32_t result = rotl(s[1] * 5, 7) * 9;
    uint32_t t = s[1] << 9;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 11);

    return result;
}

} // namespace

Random::Random(uint64_t seed_val)
{
    seed(seed_val);
}

void
Random::seed(uint64_t seed_val)
{
    // SplitMix64 to expand the seed into the xoshiro state; this is the
    // initialization recommended by the xoshiro authors.
    uint64_t z = seed_val;
    for (int i = 0; i < 4; i += 2) {
        z += 0x9e3779b97f4a7c15ULL;
        uint64_t w = z;
        w = (w ^ (w >> 30)) * 0xbf58476d1ce4e5b9ULL;
        w = (w ^ (w >> 27)) * 0x94d049bb133111ebULL;
        w = w ^ (w >> 31);
        s_[i] = static_cast<uint32_t>(w);
        s_[i + 1] = static_cast<uint32_t>(w >> 32);
    }
    // All-zero state is invalid for xoshiro; nudge it if it happens.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

uint32_t
Random::next32()
{
    return step(s_);
}

uint64_t
Random::geometric(uint32_t m)
{
    if (m <= 1)
        return 1;
    const uint64_t c = divisorConstant(m);
    // Run the trials on a local copy of the state so it stays in
    // registers across the loop.
    uint32_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    uint64_t g = 1;
    while (!divisibleBy(step(s), c))
        ++g;
    std::copy(s, s + 4, s_);
    return g;
}

uint64_t
Random::next64()
{
    uint64_t hi = next32();
    uint64_t lo = next32();
    return (hi << 32) | lo;
}

uint32_t
Random::uniform(uint32_t lo, uint32_t hi)
{
    tcpni_assert(lo <= hi);
    uint64_t range = static_cast<uint64_t>(hi) - lo + 1;
    // Lemire's multiply-and-shift rejection-free mapping is adequate
    // here; tiny bias over a 32-bit range does not matter for workloads.
    return lo + static_cast<uint32_t>((next32() * range) >> 32);
}

double
Random::uniformDouble()
{
    // 53 random bits into [0, 1).
    uint64_t v = next64() >> 11;
    return static_cast<double>(v) * (1.0 / 9007199254740992.0);
}

double
Random::exponential(double mean)
{
    double u = uniformDouble();
    // Guard against log(0).
    if (u <= 0.0)
        u = 1e-300;
    return -mean * std::log(u);
}

bool
Random::chance(double p)
{
    return uniformDouble() < p;
}

} // namespace tcpni
