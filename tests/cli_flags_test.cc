#include "cli_flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace deepod::tools::cli {
namespace {

// Runs one "--flag value" pair through SizeValue; false when it rejects.
bool ParseSize(const std::string& value, size_t* out) {
  std::vector<std::string> args = {"tool", "--threads", value};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  FlagCursor flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.Next());
  return flags.SizeValue(out);
}

TEST(FlagCursorTest, SizeValueAcceptsUnsignedDecimals) {
  size_t v = 99;
  ASSERT_TRUE(ParseSize("0", &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(ParseSize("7", &v));
  EXPECT_EQ(v, 7u);
  ASSERT_TRUE(ParseSize("18446744073709551615", &v));
  EXPECT_EQ(v, static_cast<size_t>(18446744073709551615ull));
}

TEST(FlagCursorTest, SizeValueRejectsSignsSpacesAndGarbage) {
  for (const char* bad : {"-1", "-0", "+7", " 5", "", "5 ", "5x", "x",
                          "18446744073709551616"}) {
    size_t v = 42;
    EXPECT_FALSE(ParseSize(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42u) << "'" << bad << "' wrote the output";
  }
}

// Runs one "--flag value" pair through IntValue; false when it rejects.
bool ParseInt(const std::string& value, int* out) {
  std::vector<std::string> args = {"tool", "--epochs", value};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  FlagCursor flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.Next());
  return flags.IntValue(out);
}

TEST(FlagCursorTest, IntValueAcceptsTheIntRange) {
  int v = 99;
  ASSERT_TRUE(ParseInt("0", &v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(ParseInt("-5", &v));
  EXPECT_EQ(v, -5);
  ASSERT_TRUE(ParseInt("2147483647", &v));
  EXPECT_EQ(v, 2147483647);
  ASSERT_TRUE(ParseInt("-2147483648", &v));
  EXPECT_EQ(v, -2147483647 - 1);
}

TEST(FlagCursorTest, IntValueRejectsValuesOutsideTheIntRange) {
  // "4294967297" used to become 1 (--epochs trained one epoch) and
  // "2147483648" to become negative (--assert-max-errors turned off).
  for (const char* bad : {"2147483648", "-2147483649", "4294967297",
                          "99999999999999999999", "", "x", "5x"}) {
    int v = 42;
    EXPECT_FALSE(ParseInt(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42) << "'" << bad << "' wrote the output";
  }
}

// Runs one "--network-ids value" pair through NetworkIdsValue; false when
// it rejects.
bool ParseIds(const std::string& value, std::vector<uint32_t>* out) {
  std::vector<std::string> args = {"tool", "--network-ids", value};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  FlagCursor flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.Next());
  return flags.NetworkIdsValue(out);
}

TEST(FlagCursorTest, NetworkIdsAcceptsUnsigned32BitLists) {
  std::vector<uint32_t> ids;
  ASSERT_TRUE(ParseIds("4294967295", &ids));
  EXPECT_EQ(ids, std::vector<uint32_t>{4294967295u});
  ASSERT_TRUE(ParseIds("1,2,0", &ids));
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 2, 0}));
}

TEST(FlagCursorTest, NetworkIdsRejectsSignsSpacesAndWrappingIds) {
  // "-1" used to become 4294967295 and "4294967296" to wrap to 0.
  for (const char* bad : {"-1", " 5", "+3", "4294967296", "", "1,", ",1",
                          "1,,2", "1, 2", "1,-1", "7x"}) {
    std::vector<uint32_t> ids = {42};
    EXPECT_FALSE(ParseIds(bad, &ids)) << "'" << bad << "'";
    EXPECT_EQ(ids, std::vector<uint32_t>{42}) << "'" << bad << "' wrote";
  }
}

// Runs one "--flag value" pair through PositiveValue (or NonNegativeValue);
// false when it rejects.
bool ParseDouble(const std::string& value, bool positive, double* out) {
  std::vector<std::string> args = {"tool", "--speed-grid-m", value};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  FlagCursor flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.Next());
  return positive ? flags.PositiveValue(out) : flags.NonNegativeValue(out);
}

TEST(FlagCursorTest, PositiveValueRejectsNanInfinityAndNonPositive) {
  double v = 42.0;
  ASSERT_TRUE(ParseDouble("200", true, &v));
  EXPECT_EQ(v, 200.0);
  ASSERT_TRUE(ParseDouble("1e-300", true, &v));
  EXPECT_EQ(v, 1e-300);
  // Finite, so the flag takes it; RunLoadgen refuses it as a duration
  // (see server_test).
  ASSERT_TRUE(ParseDouble("1e300", true, &v));
  EXPECT_EQ(v, 1e300);
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                          "1e999", "0", "-0", "-1", "", "5x"}) {
    v = 42.0;
    EXPECT_FALSE(ParseDouble(bad, true, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42.0) << "'" << bad << "' wrote the output";
  }
}

TEST(FlagCursorTest, NonNegativeValueRejectsNanInfinityAndNegative) {
  double v = 42.0;
  ASSERT_TRUE(ParseDouble("0", false, &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(ParseDouble("1000.5", false, &v));
  EXPECT_EQ(v, 1000.5);
  ASSERT_TRUE(ParseDouble("0.8", false, &v));  // a deepod_loadgen fraction
  EXPECT_EQ(v, 0.8);
  for (const char* bad :
       {"nan", "-nan", "inf", "-inf", "1e999", "-1", "-1e-300", "", "x"}) {
    v = 42.0;
    EXPECT_FALSE(ParseDouble(bad, false, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42.0) << "'" << bad << "' wrote the output";
  }
}

}  // namespace
}  // namespace deepod::tools::cli
