// Tests for the one JSON writer (common/json.h) against independent
// references: printf's "%.17g" and strtod for numbers, std::to_string for
// integers, and a snprintf-built table for the escapes.

#include "common/json.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace culinary::json {
namespace {

std::string Printf17g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// The printer gives the bytes of "%.17g", and strtod reads them back to
/// the same bits.
::testing::AssertionResult PrintsLikePrintfAndRoundTrips(double value) {
  std::string printed;
  AppendNumber(printed, value);
  if (printed != Printf17g(value)) {
    return ::testing::AssertionFailure()
           << "printed " << printed << ", %.17g gives " << Printf17g(value);
  }
  const double back = std::strtod(printed.c_str(), nullptr);
  if (std::bit_cast<uint64_t>(back) != std::bit_cast<uint64_t>(value)) {
    return ::testing::AssertionFailure()
           << printed << " reads back as " << Printf17g(back);
  }
  return ::testing::AssertionSuccess();
}

TEST(JsonNumberTest, EdgeValuesMatchPrintfAndRoundTrip) {
  for (const double value :
       {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 0.1, 1e21,
        1e-7, 1.0, 14.4, 0.999, 1e16, 1e17, 123456.789}) {
    EXPECT_TRUE(PrintsLikePrintfAndRoundTrips(value));
  }
}

TEST(JsonNumberTest, RandomFiniteBitPatternsMatchPrintfAndRoundTrip) {
  std::mt19937_64 rng(20180416);
  int checked = 0;
  while (checked < 1000000) {
    const double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    ASSERT_TRUE(PrintsLikePrintfAndRoundTrips(value));
    ++checked;
  }
  // Bit patterns rarely land where the answers live, so also draw N_s-sized
  // values, which %.17g prints without an exponent.
  std::uniform_real_distribution<double> typical(0.0, 1000.0);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(PrintsLikePrintfAndRoundTrips(typical(rng)));
  }
}

TEST(JsonNumberTest, NonFiniteDoublesPrintAsStrings) {
  const auto print = [](double value) {
    std::string out;
    AppendNumber(out, value);
    return out;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(print(kInf), "\"inf\"");
  EXPECT_EQ(print(-kInf), "\"-inf\"");
  EXPECT_EQ(print(kNaN), "\"nan\"");
  EXPECT_EQ(print(-kNaN), "\"nan\"");
}

TEST(JsonNumberTest, IntegersPrintExactly) {
  std::string out;
  AppendNumber(out, std::numeric_limits<uint64_t>::max());
  out += ',';
  AppendNumber(out, std::numeric_limits<int64_t>::min());
  out += ',';
  AppendNumber(out, int32_t{-7});
  EXPECT_EQ(out, std::to_string(std::numeric_limits<uint64_t>::max()) + "," +
                     std::to_string(std::numeric_limits<int64_t>::min()) +
                     ",-7");
}

TEST(JsonEscapeTest, EscapesEveryControlByte) {
  for (int byte = 0; byte < 0x20; ++byte) {
    char expected[8];
    std::snprintf(expected, sizeof(expected), "\\u%04x", byte);
    if (byte == '\n') std::snprintf(expected, sizeof(expected), "\\n");
    if (byte == '\t') std::snprintf(expected, sizeof(expected), "\\t");
    if (byte == '\r') std::snprintf(expected, sizeof(expected), "\\r");
    std::string out = "x";
    AppendEscaped(out, std::string(1, static_cast<char>(byte)));
    EXPECT_EQ(out, std::string("x") + expected) << "byte " << byte;
  }
}

TEST(JsonEscapeTest, QuotesAndBackslashesEscapedOtherBytesPassThrough) {
  std::string out;
  AppendEscaped(out, "a\"b\\c");
  EXPECT_EQ(out, "a\\\"b\\\\c");
  for (int byte = 0x20; byte <= 0xFF; ++byte) {
    if (byte == '"' || byte == '\\') continue;
    const std::string text(1, static_cast<char>(byte));
    out.clear();
    AppendEscaped(out, text);
    EXPECT_EQ(out, text) << "byte " << byte;
  }
}

}  // namespace
}  // namespace culinary::json
