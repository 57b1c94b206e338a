#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "common/bits.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/status.h"

namespace dwm {
namespace {

TEST(BitsTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(4));
  EXPECT_FALSE(IsPowerOfTwo(6));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
  EXPECT_FALSE(IsPowerOfTwo((uint64_t{1} << 63) + 1));
}

TEST(BitsTest, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(3), 1);
  EXPECT_EQ(Log2Floor(4), 2);
  EXPECT_EQ(Log2Floor(1023), 9);
  EXPECT_EQ(Log2Floor(1024), 10);
}

TEST(BitsTest, Log2Exact) {
  for (int i = 0; i < 63; ++i) {
    EXPECT_EQ(Log2Exact(uint64_t{1} << i), i);
  }
}

TEST(BitsTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(BitsTest, NextPowerOfTwoTopOfRange) {
  // The largest representable power of two and its whole preceding
  // non-power range round up to 2^63 (a shift by 64 here would be UB; the
  // implementation CHECK-guards the x > 2^63 inputs instead of wrapping).
  EXPECT_EQ(NextPowerOfTwo(uint64_t{1} << 63), uint64_t{1} << 63);
  EXPECT_EQ(NextPowerOfTwo((uint64_t{1} << 63) - 1), uint64_t{1} << 63);
  EXPECT_EQ(NextPowerOfTwo((uint64_t{1} << 62) + 1), uint64_t{1} << 63);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i) differ += a.NextUint64() != b.NextUint64();
  EXPECT_GE(differ, 15);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  const Status s = Status::InvalidArgument("bad n");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad n");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad n");
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
}

// The one parse rule (common/parse.h): the whole string, base 10, no
// whitespace, no '+', no hex, '-' only for signed types, no overflow,
// finite doubles.
TEST(ParseTest, IntegersFollowTheOneRule) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr uint64_t kUMax = std::numeric_limits<uint64_t>::max();
  struct Case {
    const char* text;
    std::optional<int64_t> as_int;
    std::optional<uint64_t> as_uint;
  };
  const Case cases[] = {
      {"0", 0, 0u},
      {"42", 42, 42u},
      {"007", 7, 7u},
      {"-3", -3, std::nullopt},
      {"-0", 0, std::nullopt},
      {"9223372036854775807", kMax, static_cast<uint64_t>(kMax)},
      {"9223372036854775808", std::nullopt, uint64_t{1} << 63},
      {"-9223372036854775808", kMin, std::nullopt},
      {"-9223372036854775809", std::nullopt, std::nullopt},
      {"18446744073709551615", std::nullopt, kUMax},
      {"18446744073709551616", std::nullopt, std::nullopt},
      {"", std::nullopt, std::nullopt},
      {" 4", std::nullopt, std::nullopt},
      {"4 ", std::nullopt, std::nullopt},
      {"\t4", std::nullopt, std::nullopt},
      {"4\n", std::nullopt, std::nullopt},
      {"+4", std::nullopt, std::nullopt},
      {"++2", std::nullopt, std::nullopt},
      {"--2", std::nullopt, std::nullopt},
      {"-", std::nullopt, std::nullopt},
      {"0x10", std::nullopt, std::nullopt},
      {"12abc", std::nullopt, std::nullopt},
      {"abc", std::nullopt, std::nullopt},
      {"1e3", std::nullopt, std::nullopt},
      {"1.0", std::nullopt, std::nullopt},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse::Number<int64_t>(c.text), c.as_int) << "'" << c.text
                                                        << "'";
    EXPECT_EQ(parse::Number<uint64_t>(c.text), c.as_uint) << "'" << c.text
                                                          << "'";
  }
}

TEST(ParseTest, DoublesFollowTheOneRule) {
  struct Case {
    const char* text;
    std::optional<double> value;
  };
  const Case cases[] = {
      {"0", 0.0},
      {"1.5", 1.5},
      {"-2.25", -2.25},
      {".5", 0.5},
      {"5.", 5.0},
      {"1e3", 1000.0},
      {"1E-3", 0.001},
      {"007", 7.0},
      {"", std::nullopt},
      {" 1", std::nullopt},
      {"1 ", std::nullopt},
      {"+1", std::nullopt},
      {"0x1p3", std::nullopt},
      {"inf", std::nullopt},
      {"-inf", std::nullopt},
      {"infinity", std::nullopt},
      {"nan", std::nullopt},
      {"NaN", std::nullopt},
      {"1e400", std::nullopt},
      {"-1e400", std::nullopt},
      {"1.5x", std::nullopt},
      {"abc", std::nullopt},
      {".", std::nullopt},
      {"1e", std::nullopt},
      {"-", std::nullopt},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse::Number<double>(c.text), c.value) << "'" << c.text << "'";
  }
}

TEST(ParseTest, EnvKeepsTheCallerRangeAndWarnsOncePerKnob) {
  const char* knob = "DWM_PARSE_TEST_KNOB";
  const auto read = [knob] {
    return parse::Env<uint64_t>(
        knob, 1, 64, "a power of two in [1, 64]", "keeping default",
        [](uint64_t v) { return IsPowerOfTwo(v); });
  };
  ASSERT_EQ(unsetenv(knob), 0);
  log::ScopedCapture capture;
  EXPECT_EQ(read(), std::nullopt);  // unset: silent
  ASSERT_EQ(setenv(knob, "32", 1), 0);
  EXPECT_EQ(read(), 32u);
  for (const char* bad : {"48", "128", "0", "+32", " 32", "32abc", "-1"}) {
    ASSERT_EQ(setenv(knob, bad, 1), 0);
    EXPECT_EQ(read(), std::nullopt) << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv(knob), 0);
  const std::string& text = capture.text();
  const std::string record =
      "{\"lvl\":\"warn\",\"event\":\"env_parse_error\",\"knob\":"
      "\"DWM_PARSE_TEST_KNOB\",\"value\":\"48\",\"want\":\"a power of two "
      "in [1, 64]\",\"action\":\"keeping default\"";
  EXPECT_EQ(text.find(record), 0u) << text;
  EXPECT_EQ(text.find("env_parse_error", record.size()), std::string::npos)
      << text;
}

}  // namespace
}  // namespace dwm
