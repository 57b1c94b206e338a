#include "dist/dmin_haar_space.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/min_haar_space.h"
#include "test_util.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

class DmhsEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(DmhsEquivalenceTest, MatchesCentralizedCountAndError) {
  const int64_t n = int64_t{1} << std::get<0>(GetParam());
  const int64_t fan = int64_t{1} << std::get<1>(GetParam());
  const double eps = std::get<2>(GetParam());
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n) + 17, 40.0);
  const MhsOptions opts{eps, 0.5};
  const MhsResult central = MinHaarSpace(data, opts);
  const DmhsResult dist =
      DMinHaarSpace(data, {eps, 0.5, fan}, FastCluster());
  ASSERT_EQ(central.feasible, dist.result.feasible);
  if (!central.feasible) return;
  // The DP is deterministic and the combine tree is associative: identical
  // counts and identical tracked errors regardless of the partitioning.
  EXPECT_EQ(central.count, dist.result.count);
  EXPECT_DOUBLE_EQ(central.max_abs_error, dist.result.max_abs_error);
  // And the distributed synopsis honors the bound exactly.
  EXPECT_LE(MaxAbsError(data, dist.result.synopsis), eps + 1e-9);
  EXPECT_NEAR(MaxAbsError(data, dist.result.synopsis),
              dist.result.max_abs_error, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DmhsEquivalenceTest,
    ::testing::Combine(::testing::Values(4, 6, 9, 12),
                       ::testing::Values(1, 3, 6),
                       ::testing::Values(2.0, 8.0, 30.0)));

TEST(DmhsTest, InfeasibleGridPropagates) {
  const auto data = testing::RandomData(64, 5, 10.0);
  const DmhsResult r = DMinHaarSpace(data, {0.01, 1000.0, 4}, FastCluster());
  EXPECT_FALSE(r.result.feasible);
}

TEST(DmhsTest, JobCountGrowsWithDepth) {
  const auto data = testing::RandomData(1 << 12, 6, 20.0);
  // fan 2 -> many layers; fan 1024 -> 1 bottom-up + 1 top-down job.
  const DmhsResult deep = DMinHaarSpace(data, {10.0, 0.5, 2}, FastCluster());
  const DmhsResult shallow =
      DMinHaarSpace(data, {10.0, 0.5, 1 << 11}, FastCluster());
  EXPECT_GT(deep.report.total_jobs(), shallow.report.total_jobs());
  EXPECT_EQ(deep.result.count, shallow.result.count);
}

TEST(DmhsTest, CommunicationShrinksWithLargerSubtrees) {
  // Equation 6: boundary rows halve as the sub-tree height grows.
  const auto data = testing::RandomData(1 << 12, 7, 20.0);
  const DmhsResult small_fan =
      DMinHaarSpace(data, {8.0, 0.5, 4}, FastCluster());
  const DmhsResult large_fan =
      DMinHaarSpace(data, {8.0, 0.5, 64}, FastCluster());
  EXPECT_GT(small_fan.report.total_shuffle_bytes(),
            large_fan.report.total_shuffle_bytes());
}

TEST(DmhsTest, HugeEpsilonNeedsNoCoefficients) {
  const auto data = testing::RandomData(256, 8, 10.0);
  const DmhsResult r = DMinHaarSpace(data, {1000.0, 1.0, 8}, FastCluster());
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.result.count, 0);
  EXPECT_EQ(r.result.synopsis.size(), 0);
}

TEST(DmhsSweepTest, UpThenDownEqualsOneRun) {
  const auto data = testing::RandomData(1 << 10, 9, 40.0);
  const DmhsOptions options = {12.0, 0.5, 8};
  const DmhsResult whole = DMinHaarSpace(data, options, FastCluster());
  ASSERT_TRUE(whole.status.ok());
  ASSERT_TRUE(whole.result.feasible);

  const DmhsUpSweep up = DMinHaarSpaceUp(data, options, FastCluster());
  ASSERT_TRUE(up.status.ok());
  ASSERT_TRUE(up.feasible);
  // The up sweep alone knows the optimum's count and error.
  EXPECT_EQ(up.count, whole.result.count);
  EXPECT_EQ(up.max_abs_error, whole.result.max_abs_error);
  for (const mr::JobStats& job : up.report.jobs) {
    EXPECT_EQ(job.name.rfind("dmhs_up_", 0), 0u) << job.name;
  }

  const DmhsResult down = DMinHaarSpaceDown(data, up, FastCluster());
  ASSERT_TRUE(down.status.ok()) << down.status.ToString();
  EXPECT_EQ(down.result.synopsis.coefficients(),
            whole.result.synopsis.coefficients());
  EXPECT_EQ(up.report.total_jobs() + down.report.total_jobs(),
            whole.report.total_jobs());
}

TEST(DmhsSweepTest, DownRefusesAnInfeasibleSweep) {
  const auto data = testing::RandomData(64, 5, 10.0);
  const DmhsUpSweep up = DMinHaarSpaceUp(data, {0.01, 1000.0, 4}, FastCluster());
  ASSERT_TRUE(up.status.ok());
  ASSERT_FALSE(up.feasible);
  const DmhsResult down = DMinHaarSpaceDown(data, up, FastCluster());
  EXPECT_EQ(down.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(down.report.total_jobs(), 0);
}

// Option errors are a Status at the entry point, never a CHECK-abort.
void ExpectInvalid(const std::vector<double>& data, const DmhsOptions& options) {
  const DmhsResult r = DMinHaarSpace(data, options, FastCluster());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
      << r.status.ToString();
  EXPECT_FALSE(r.result.feasible);
  EXPECT_EQ(r.report.total_jobs(), 0);
  const DmhsUpSweep up = DMinHaarSpaceUp(data, options, FastCluster());
  EXPECT_EQ(up.status.code(), StatusCode::kInvalidArgument)
      << up.status.ToString();
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DmhsValidateTest, NNotAPowerOfTwo) {
  ExpectInvalid(testing::RandomData(12, 1, 10.0), {5.0, 1.0, 2});
}

TEST(DmhsValidateTest, NBelowFour) {
  ExpectInvalid(testing::RandomData(2, 1, 10.0), {5.0, 1.0, 2});
  ExpectInvalid({}, {5.0, 1.0, 2});
}

TEST(DmhsValidateTest, SubtreeInputsNotAPowerOfTwo) {
  const auto data = testing::RandomData(64, 1, 10.0);
  for (const int64_t s : {int64_t{-4}, int64_t{0}, int64_t{1}, int64_t{6}}) {
    ExpectInvalid(data, {5.0, 1.0, s});
  }
}

TEST(DmhsValidateTest, QuantumNotPositiveAndFinite) {
  const auto data = testing::RandomData(64, 1, 10.0);
  for (const double q : {0.0, -1.0, kNan, kInf}) ExpectInvalid(data, {5.0, q, 4});
}

TEST(DmhsValidateTest, EpsNegativeOrNan) {
  const auto data = testing::RandomData(64, 1, 10.0);
  for (const double eps : {-1.0, kNan, kInf}) ExpectInvalid(data, {eps, 1.0, 4});
}

TEST(DmhsValidateTest, BoundaryValuesAreValid) {
  EXPECT_TRUE((DmhsOptions{0.0, 1e-9, 2}.Validate(4)).ok());
}

}  // namespace
}  // namespace dwm
