#include "cli_flags.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace deepod::tools::cli
