#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.hh"

using namespace tcpni;

TEST(Random, DeterministicFromSeed)
{
    Random a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next32() == b.next32())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Random, ReseedRestoresStream)
{
    Random a(99);
    std::vector<uint32_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.next32());
    a.seed(99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next32(), first[i]);
}

TEST(Random, UniformRespectsBounds)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i) {
        uint32_t v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, UniformCoversRange)
{
    Random r(7);
    std::set<uint32_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.uniform(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, UniformSingleValue)
{
    Random r(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.uniform(5, 5), 5u);
}

TEST(Random, UniformDoubleInUnitInterval)
{
    Random r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    // Mean of U(0,1) is 0.5; a 10k-sample mean should be near it.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, ExponentialMean)
{
    Random r(13);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Random, ChanceExtremes)
{
    Random r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Random, ZeroSeedIsValid)
{
    Random r(0);
    // Must not get stuck producing zeros.
    int nonzero = 0;
    for (int i = 0; i < 100; ++i) {
        if (r.next32() != 0)
            ++nonzero;
    }
    EXPECT_GT(nonzero, 90);
}

namespace
{

/** The divisors the geometric tests sweep: tiny, the serving
 *  harness's ~472-tick incast gap, a power of two, a Fermat prime and
 *  the edges of the 32-bit range. */
const uint32_t kDivisors[] = {2,         3,          7,
                              472,       1000,       4096,
                              65537,     0x7fffffffu, 0x80000001u,
                              0xffffffffu};

/** The trial loop Random::geometric replaces. */
uint64_t
referenceGeometric(Random &r, uint32_t m)
{
    uint64_t g = 1;
    while (m > 1 && r.next32() % m)
        ++g;
    return g;
}

} // namespace

TEST(Random, DivisibleByAgreesWithRemainderAtTheEdges)
{
    for (uint32_t m : kDivisors) {
        SCOPED_TRACE(m);
        const uint64_t c = Random::divisorConstant(m);
        std::vector<uint32_t> xs = {0, m - 1, m, m + 1, UINT32_MAX};
        // k*m and its neighbours, for the first and last multiples.
        const uint64_t last = UINT32_MAX / m;
        for (uint64_t k : {uint64_t(1), uint64_t(2), uint64_t(3),
                           last / 2, last - 1, last}) {
            if (k == 0 || k > last)
                continue;
            const uint64_t km = k * m;
            xs.push_back(static_cast<uint32_t>(km));
            xs.push_back(static_cast<uint32_t>(km - 1));
            if (km < UINT32_MAX)
                xs.push_back(static_cast<uint32_t>(km + 1));
        }
        for (uint32_t x : xs)
            EXPECT_EQ(Random::divisibleBy(x, c), x % m == 0) << x;
    }
}

TEST(Random, DivisibleByAgreesWithRemainderOnRandomValues)
{
    Random r(2019);
    for (uint32_t m : kDivisors) {
        SCOPED_TRACE(m);
        const uint64_t c = Random::divisorConstant(m);
        uint64_t mismatches = 0;
        for (int i = 0; i < 1'000'000; ++i) {
            const uint32_t x = r.next32();
            mismatches += Random::divisibleBy(x, c) != (x % m == 0);
        }
        EXPECT_EQ(mismatches, 0u);
    }
}

TEST(Random, DivisibleByOneHoldsForEveryValue)
{
    // ceil(2^64 / 1) wraps to 0; every value is a multiple of 1.
    const uint64_t c = Random::divisorConstant(1);
    EXPECT_EQ(c, 0u);
    for (uint32_t x : {0u, 1u, 472u, UINT32_MAX})
        EXPECT_TRUE(Random::divisibleBy(x, c)) << x;
}

TEST(Random, GeometricMatchesTheTrialLoopDrawForDraw)
{
    for (uint64_t seed : {1ULL, 7ULL, 20261017ULL, 0x9e3779b97f4a7c15ULL}) {
        for (uint32_t m : {0u, 1u, 2u, 3u, 472u, 1000u, 65537u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", m " +
                         std::to_string(m));
            Random fast(seed), ref(seed);
            // Fewer calls for the large divisor: each one takes
            // ~65537 draws.
            const int calls = m > 4096 ? 20 : 2000;
            for (int i = 0; i < calls; ++i) {
                ASSERT_EQ(fast.geometric(m), referenceGeometric(ref, m))
                    << "call " << i;
                // Same stream position afterwards.
                ASSERT_EQ(fast.next32(), ref.next32()) << "call " << i;
            }
        }
    }
}

TEST(Random, GeometricOfZeroOrOneDrawsNothing)
{
    Random a(5), b(5);
    EXPECT_EQ(a.geometric(0), 1u);
    EXPECT_EQ(a.geometric(1), 1u);
    EXPECT_EQ(a.next32(), b.next32());
}
