#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"

using namespace tcpni;
using namespace tcpni::stats;

TEST(Vector, GrowsOnDemand)
{
    Vector v;
    v[3] = 7;
    EXPECT_EQ(v.size(), 4u);
    EXPECT_EQ(v.at(3), 7);
    EXPECT_EQ(v.at(0), 0);
    EXPECT_EQ(v.at(100), 0);    // out-of-range reads as 0
}

TEST(Vector, Total)
{
    Vector v(4);
    v[0] = 1;
    v[1] = 2;
    v[3] = 4;
    EXPECT_EQ(v.total(), 7);
    v.reset();
    EXPECT_EQ(v.total(), 0);
}

TEST(Distribution, MeanAndBounds)
{
    Distribution d(0, 100, 10);
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_EQ(d.count(), 3);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 30.0);
}

TEST(Distribution, Stddev)
{
    Distribution d(0, 100, 10);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    // Known sample stddev of this set is ~2.138 (n-1 denominator).
    EXPECT_NEAR(d.stddev(), 2.138, 0.01);
}

TEST(Distribution, Buckets)
{
    Distribution d(0, 10, 10);
    d.sample(0.5);
    d.sample(5.5);
    d.sample(5.7);
    d.sample(9.9);
    EXPECT_EQ(d.buckets()[0], 1);
    EXPECT_EQ(d.buckets()[5], 2);
    EXPECT_EQ(d.buckets()[9], 1);
}

TEST(Distribution, OverflowUnderflow)
{
    Distribution d(10, 20, 5);
    d.sample(5);
    d.sample(25);
    d.sample(15);
    EXPECT_EQ(d.underflow(), 1);
    EXPECT_EQ(d.overflow(), 1);
    EXPECT_EQ(d.count(), 3);
}

TEST(Distribution, EmptyIsWellDefined)
{
    Distribution d(0, 100, 10);
    EXPECT_EQ(d.count(), 0);
    // No samples: the moments must be 0, never NaN or a division by
    // zero.
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_FALSE(std::isnan(d.mean()));
    EXPECT_FALSE(std::isnan(d.stddev()));
}

TEST(Distribution, SingleSampleStddevIsZero)
{
    Distribution d(0, 100, 10);
    d.sample(42.0);
    // count < 2: the n-1 denominator would divide by zero; the guard
    // must return 0 instead.
    EXPECT_EQ(d.count(), 1);
    EXPECT_DOUBLE_EQ(d.mean(), 42.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_FALSE(std::isnan(d.stddev()));
}

TEST(Distribution, WeightedSamples)
{
    Distribution d(0, 10, 10);
    d.sample(2.0, 3);
    EXPECT_EQ(d.count(), 3);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

TEST(JsonEscape, SpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
}
