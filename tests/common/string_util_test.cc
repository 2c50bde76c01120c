#include "src/common/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace auditdb {
namespace {

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_EQ(ToUpper("AbC123"), "ABC123");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t\na b\n"), "a b");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "SELEC"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("P-Personal", "P-"));
  EXPECT_FALSE(StartsWith("P", "P-"));
}

// The one numeric grammar for wire fields, files and flags: whole-string
// decimal `-?[0-9]+` (unsigned `[0-9]+`), range-checked.
TEST(StringUtilTest, IntegerParsersAcceptOnlyWholeDecimals) {
  const std::string int64_min =
      std::to_string(std::numeric_limits<int64_t>::min());
  const std::string int64_max =
      std::to_string(std::numeric_limits<int64_t>::max());
  const std::string uint64_max =
      std::to_string(std::numeric_limits<uint64_t>::max());

  int64_t i = 7;
  EXPECT_TRUE(ParseInt64("0", &i));
  EXPECT_EQ(i, 0);
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_TRUE(ParseInt64(int64_min, &i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(ParseInt64(int64_max, &i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::max());

  uint64_t u = 7;
  EXPECT_TRUE(ParseUint64("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(ParseUint64(uint64_max, &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());

  const std::string rejected_by_both[] = {
      "", "-", "+1", " 1", "1 ", "0x10", "1e3", "1.5", "abc",
      "-9223372036854775809",   // INT64_MIN - 1
      "18446744073709551616",   // UINT64_MAX + 1
  };
  for (const std::string& text : rejected_by_both) {
    i = 7;
    EXPECT_FALSE(ParseInt64(text, &i)) << "'" << text << "'";
    EXPECT_EQ(i, 7) << "failure must leave the output untouched";
    u = 7;
    EXPECT_FALSE(ParseUint64(text, &u)) << "'" << text << "'";
    EXPECT_EQ(u, 7u) << "failure must leave the output untouched";
  }
  // INT64_MAX + 1 is out of the signed range but inside the unsigned one.
  EXPECT_FALSE(ParseInt64("9223372036854775808", &i));
  EXPECT_TRUE(ParseUint64("9223372036854775808", &u));
  EXPECT_EQ(u, 9223372036854775808ull);
  // The unsigned parser refuses a sign instead of wrapping it.
  u = 7;
  EXPECT_FALSE(ParseUint64("-1", &u));
  EXPECT_FALSE(ParseUint64("-0", &u));
  EXPECT_FALSE(ParseUint64(int64_min, &u));
  EXPECT_EQ(u, 7u);
}

TEST(StringUtilTest, ParseIntInRangeChecksBothBounds) {
  int n = 7;
  EXPECT_TRUE(ParseIntInRange("0", 0, 65535, &n));
  EXPECT_EQ(n, 0);
  EXPECT_TRUE(ParseIntInRange("65535", 0, 65535, &n));
  EXPECT_EQ(n, 65535);
  n = 7;
  for (const char* text : {"65536", "-1", "abc", "", "12abc",
                           "99999999999999999999"}) {
    EXPECT_FALSE(ParseIntInRange(text, 0, 65535, &n)) << "'" << text << "'";
  }
  EXPECT_EQ(n, 7) << "failure must leave the output untouched";
}

TEST(StringUtilTest, ParseDoubleTakesTheWholeString) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("0.250000", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_TRUE(ParseDouble("-3", &d));
  EXPECT_DOUBLE_EQ(d, -3.0);
  EXPECT_TRUE(ParseDouble("1e3", &d));
  EXPECT_DOUBLE_EQ(d, 1000.0);
  d = 7;
  EXPECT_FALSE(ParseDouble("", &d));
  EXPECT_FALSE(ParseDouble("0.5x", &d));
  EXPECT_FALSE(ParseDouble("abc", &d));
  EXPECT_FALSE(ParseDouble("1e999", &d));  // out of range
  EXPECT_EQ(d, 7);
}

}  // namespace
}  // namespace auditdb
