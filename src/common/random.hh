/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (the Gamteb photon-transport
 * workload, randomized traffic generators, property-test inputs) draws
 * from this generator so that runs are reproducible from a seed.  The
 * core is xoshiro128**, a small, fast, well-distributed 32-bit PRNG.
 */

#ifndef TCPNI_COMMON_RANDOM_HH
#define TCPNI_COMMON_RANDOM_HH

#include <cstdint>

namespace tcpni
{

/** A small deterministic PRNG (xoshiro128**). */
class Random
{
  public:
    /** Construct from a 64-bit seed; any seed (including 0) is valid. */
    explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Reseed the generator, restoring a deterministic stream. */
    void seed(uint64_t seed);

    /** Next raw 32-bit value. */
    uint32_t next32();

    /** Next raw 64-bit value. */
    uint64_t next64();

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    uint32_t uniform(uint32_t lo, uint32_t hi);

    /** Uniform double in [0, 1). */
    double uniformDouble();

    /** Exponentially distributed double with the given mean. */
    double exponential(double mean);

    /** Bernoulli trial: true with probability p. */
    bool chance(double p);

    /**
     * Geometric draw with mean @p m: the number of next32() draws up
     * to and including the first multiple of @p m.  For m <= 1 it
     * returns 1 and draws nothing.  The draws (and so the stream
     * position afterwards) are exactly those of the trial loop
     * `g = 1; while (m > 1 && next32() % m) ++g;`, but each trial is
     * tested with a multiply instead of a divide (see divisibleBy()).
     */
    uint64_t geometric(uint32_t m);

    /**
     * Divisibility constant of @p m >= 1 for divisibleBy():
     * ceil(2^64 / m), which wraps to 0 for m == 1.
     */
    static constexpr uint64_t divisorConstant(uint32_t m) {
        return UINT64_MAX / m + 1;
    }

    /**
     * True iff @p x is a multiple of the m whose divisorConstant() is
     * @p c (Lemire, Kaser & Kurz, "Faster Remainder by Direct
     * Computation", 2019).  Exact for every 32-bit x and m >= 1: the
     * paper's condition 64 >= 32 + log2(m) holds for any 32-bit m.
     */
    static constexpr bool divisibleBy(uint32_t x, uint64_t c) {
        return static_cast<uint64_t>(x) * c <= c - 1;
    }

  private:
    uint32_t s_[4];
};

} // namespace tcpni

#endif // TCPNI_COMMON_RANDOM_HH
