#include <gtest/gtest.h>

#include "common/stats.hh"

using namespace tcpni;
using namespace tcpni::stats;

TEST(JsonEscape, SpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
}
