#include "dist/dindirect_haar.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/log.h"
#include "core/indirect_haar.h"
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

class DIndirectHaarTest : public ::testing::TestWithParam<int> {};

TEST_P(DIndirectHaarTest, MatchesCentralizedIndirectHaar) {
  const int64_t n = int64_t{1} << GetParam();
  const auto data = testing::RandomData(n, static_cast<uint64_t>(n), 50.0);
  const int64_t b = n / 8;
  const IndirectHaarResult central = IndirectHaar(data, {b, 0.5, 40});
  const DIndirectHaarResult dist =
      DIndirectHaar(data, {b, 0.5, 16, 40}, FastCluster());
  ASSERT_EQ(central.converged, dist.search.converged);
  if (!central.converged) return;
  // Same deterministic search over the same Problem-2 DP; the bound jobs may
  // differ by floating-point ulps, so allow a one-grid-step divergence.
  EXPECT_NEAR(central.max_abs_error, dist.search.max_abs_error, 0.5);
  EXPECT_LE(dist.search.synopsis.size(), b);
  EXPECT_NEAR(MaxAbsError(data, dist.search.synopsis),
              dist.search.max_abs_error, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DIndirectHaarTest,
                         ::testing::Values(4, 6, 9, 11));

TEST(DIndirectHaarJobsTest, MultipleDistributedJobsPerRun) {
  const auto data = testing::RandomData(1 << 9, 3, 60.0);
  const DIndirectHaarResult r =
      DIndirectHaar(data, {64, 0.5, 16, 40}, FastCluster());
  ASSERT_TRUE(r.search.converged);
  // Bound jobs (CON + eval + lower bound) plus >= 1 probe of >= 2 jobs.
  EXPECT_GE(r.report.total_jobs(), 5);
  EXPECT_GE(r.search.solver_runs, 1);
}

TEST(DIndirectHaarJobsTest, CoarseQuantumFails) {
  const auto data = testing::RandomData(1 << 8, 4, 1.0);
  const DIndirectHaarResult r =
      DIndirectHaar(data, {16, 1e6, 8, 10}, FastCluster());
  EXPECT_FALSE(r.search.converged);
}

// Probes run the up sweep only; one down sweep materializes the winner.
TEST(DIndirectHaarJobsTest, OnlyTheWinnerRunsADownSweep) {
  const auto data = testing::RandomData(1 << 9, 3, 60.0);
  const DIndirectHaarResult r =
      DIndirectHaar(data, {64, 0.5, 16, 40}, FastCluster());
  ASSERT_TRUE(r.status.ok());
  ASSERT_TRUE(r.search.converged);
  int64_t up_0 = 0;
  int64_t down_0 = 0;
  for (const mr::JobStats& job : r.report.jobs) {
    up_0 += job.name == "dmhs_up_0";
    down_0 += job.name == "dmhs_down_0";
  }
  EXPECT_EQ(up_0, r.search.solver_runs);
  EXPECT_EQ(down_0, 1);
}

TEST(DIndirectHaarJobsTest, LogsOneRecordPerProbe) {
  const auto data = testing::RandomData(1 << 9, 3, 60.0);
  log::ScopedCapture capture;
  const DIndirectHaarResult r =
      DIndirectHaar(data, {64, 0.5, 16, 40}, FastCluster());
  ASSERT_TRUE(r.status.ok());
  const std::string& text = capture.text();
  int records = 0;
  for (size_t at = text.find("\"event\":\"dih_probe\"");
       at != std::string::npos;
       at = text.find("\"event\":\"dih_probe\"", at + 1)) {
    ++records;
  }
  EXPECT_EQ(records, r.search.solver_runs);
  EXPECT_NE(text.find("{\"lvl\":\"info\",\"event\":\"dih_probe\",\"probe\":1,"
                      "\"eps\":"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"fits_budget\":true"), std::string::npos);
  EXPECT_NE(text.find(",\"seconds\":"), std::string::npos);
  // The seconds are measured, so the stable projection drops them.
  EXPECT_EQ(log::StableProjection(text).find("seconds"), std::string::npos);
}

void ExpectInvalid(const std::vector<double>& data,
                   const DIndirectHaarOptions& options) {
  const DIndirectHaarResult r = DIndirectHaar(data, options, FastCluster());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
      << r.status.ToString();
  EXPECT_FALSE(r.search.converged);
  EXPECT_EQ(r.report.total_jobs(), 0);
}

TEST(DIndirectHaarValidateTest, NNotAPowerOfTwo) {
  ExpectInvalid(testing::RandomData(24, 1, 10.0), {4, 0.5, 2, 10});
}

TEST(DIndirectHaarValidateTest, NBelowEight) {
  ExpectInvalid(testing::RandomData(4, 1, 10.0), {1, 0.5, 2, 10});
}

TEST(DIndirectHaarValidateTest, SubtreeInputsNotAPowerOfTwo) {
  const auto data = testing::RandomData(64, 1, 10.0);
  for (const int64_t s : {int64_t{0}, int64_t{1}, int64_t{6}}) {
    ExpectInvalid(data, {4, 0.5, s, 10});
  }
}

TEST(DIndirectHaarValidateTest, QuantumNotPositiveAndFinite) {
  const auto data = testing::RandomData(64, 1, 10.0);
  for (const double q : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    ExpectInvalid(data, {4, q, 4, 10});
  }
}

TEST(DIndirectHaarValidateTest, NegativeBudget) {
  ExpectInvalid(testing::RandomData(64, 1, 10.0), {-1, 0.5, 4, 10});
}

TEST(DIndirectHaarValidateTest, LargestBudgetKeepsEverything) {
  const auto data = testing::RandomData(64, 1, 10.0);
  const DIndirectHaarResult r = DIndirectHaar(
      data, {std::numeric_limits<int64_t>::max(), 0.5, 4, 10}, FastCluster());
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.search.converged);
  EXPECT_LE(r.search.max_abs_error, 1e-9);
}

}  // namespace
}  // namespace dwm
