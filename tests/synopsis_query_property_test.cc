// Randomized property test for the synopsis query path: for every one of
// the eight distributed builders, the synopsis it produces must answer
// PointEstimate, RangeSum and ReconstructRange consistently with the exact
// full reconstruction (Reconstruct()). This pins the merged-walk point
// query and the two-path range walk against the ground truth for both
// restricted (Haar-valued) and unrestricted (arbitrary-valued) synopses.
//
// A second suite pins RangeSum and ReconstructRange bit for bit against the
// implementations that preceded the shared galloping cursor, over random
// sparse and dense synopses at every domain size up to 2^12.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist/dcon.h"
#include "dist/dgreedy.h"
#include "dist/dindirect_haar.h"
#include "dist/dmin_haar_space.h"
#include "dist/dmin_max_var.h"
#include "dist/hwtopk.h"
#include "dist/send_coef.h"
#include "dist/send_v.h"
#include "mr/cluster.h"
#include "test_util.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace dwm {
namespace {

constexpr int64_t kN = 1 << 10;
constexpr int64_t kBudget = 128;
constexpr int64_t kBaseLeaves = 128;

mr::ClusterConfig FastCluster() {
  mr::ClusterConfig config;
  config.task_startup_seconds = 0.1;
  config.job_overhead_seconds = 1.0;
  return config;
}

// One synopsis builder under test: runs end to end on `data` and returns
// the synopsis it would ship to the serving layer.
struct BuilderCase {
  const char* name;
  std::function<Synopsis(const std::vector<double>&)> build;
};

std::vector<BuilderCase> AllBuilders() {
  return {
      {"dcon",
       [](const std::vector<double>& data) {
         auto r = RunCon(data, kBudget, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"send_v",
       [](const std::vector<double>& data) {
         auto r = RunSendV(data, kBudget, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"send_coef",
       [](const std::vector<double>& data) {
         auto r = RunSendCoef(data, kBudget, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"hwtopk",
       [](const std::vector<double>& data) {
         auto r = RunHWTopk(data, kBudget, /*levels=*/5, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"dgreedy_abs",
       [](const std::vector<double>& data) {
         DGreedyOptions options;
         options.budget = kBudget;
         options.base_leaves = kBaseLeaves;
         auto r = DGreedyAbs(data, options, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"dgreedy_rel",
       [](const std::vector<double>& data) {
         DGreedyOptions options;
         options.budget = kBudget;
         options.base_leaves = kBaseLeaves;
         auto r = DGreedyRel(data, options, /*sanity=*/1.0, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.synopsis;
       }},
      {"dindirect_haar",
       [](const std::vector<double>& data) {
         DIndirectHaarOptions options;
         options.budget = kBudget;
         options.quantum = 0.5;
         options.subtree_inputs = 64;
         auto r = DIndirectHaar(data, options, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         EXPECT_TRUE(r.search.converged);
         return r.search.synopsis;
       }},
      {"dmin_haar_space",
       [](const std::vector<double>& data) {
         auto r = DMinHaarSpace(data,
                                {/*error_bound=*/10.0, /*quantum=*/1.0,
                                 /*subtree_inputs=*/8},
                                FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         EXPECT_TRUE(r.result.feasible);
         return r.result.synopsis;
       }},
      {"dmin_max_var",
       [](const std::vector<double>& data) {
         const MinMaxVarOptions options{/*budget=*/kBudget, /*resolution=*/4,
                                        /*seed=*/42};
         auto r = DMinMaxVar(data, options, kBaseLeaves, FastCluster());
         EXPECT_TRUE(r.status.ok()) << r.status.ToString();
         return r.result.synopsis;
       }},
  };
}

class SynopsisQueryPropertyTest : public ::testing::TestWithParam<BuilderCase> {
 protected:
  Synopsis BuildSynopsis() {
    const auto data = testing::PiecewiseData(kN, /*seed=*/43, 100.0);
    return GetParam().build(data);
  }
};

TEST_P(SynopsisQueryPropertyTest, PointEstimateMatchesReconstruct) {
  const Synopsis s = BuildSynopsis();
  ASSERT_EQ(s.domain_size(), kN);
  const std::vector<double> exact = s.Reconstruct();
  for (int64_t j = 0; j < kN; ++j) {
    ASSERT_NEAR(s.PointEstimate(j), exact[static_cast<size_t>(j)], 1e-9)
        << GetParam().name << " leaf " << j;
  }
}

TEST_P(SynopsisQueryPropertyTest, RangeSumMatchesReconstruct) {
  const Synopsis s = BuildSynopsis();
  const std::vector<double> exact = s.Reconstruct();
  Rng rng(/*seed=*/7);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.NextBounded(kN));
    int64_t hi = static_cast<int64_t>(rng.NextBounded(kN));
    if (lo > hi) std::swap(lo, hi);
    double expected = 0.0;
    for (int64_t j = lo; j <= hi; ++j) expected += exact[static_cast<size_t>(j)];
    ASSERT_NEAR(s.RangeSum(lo, hi), expected,
                1e-6 * (1.0 + std::abs(expected)))
        << GetParam().name << " [" << lo << ", " << hi << "]";
  }
  // The two boundary ranges every serving shard must answer: a single leaf
  // and the full domain.
  ASSERT_NEAR(s.RangeSum(0, 0), exact[0], 1e-9) << GetParam().name;
  double total = 0.0;
  for (double v : exact) total += v;
  ASSERT_NEAR(s.RangeSum(0, kN - 1), total, 1e-6 * (1.0 + std::abs(total)))
      << GetParam().name;
}

TEST_P(SynopsisQueryPropertyTest, ReconstructRangeMatchesReconstruct) {
  const Synopsis s = BuildSynopsis();
  const std::vector<double> exact = s.Reconstruct();
  for (int64_t count : {int64_t{1}, int64_t{32}, int64_t{256}, kN}) {
    for (int64_t first = 0; first < kN; first += count) {
      const std::vector<double> slice = s.ReconstructRange(first, count);
      ASSERT_EQ(static_cast<int64_t>(slice.size()), count);
      for (int64_t i = 0; i < count; ++i) {
        ASSERT_NEAR(slice[static_cast<size_t>(i)],
                    exact[static_cast<size_t>(first + i)], 1e-9)
            << GetParam().name << " count=" << count << " first=" << first;
      }
    }
  }
  EXPECT_TRUE(s.ReconstructRange(0, 0).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, SynopsisQueryPropertyTest,
    ::testing::ValuesIn(AllBuilders()),
    [](const ::testing::TestParamInfo<BuilderCase>& param_info) {
      return std::string(param_info.param.name);
    });

// ---------------------------------------------------------------------------
// Bit identity against the pre-cursor query code.
// ---------------------------------------------------------------------------

// RangeSum as it was before the cursor: one lower_bound over the whole
// coefficient array per path node. Verbatim apart from reading the synopsis
// through its public API; the precondition CHECKs are left to the callers.
double RangeSumReference(const Synopsis& s, int64_t lo, int64_t hi) {
  const int64_t domain_size = s.domain_size();
  double sum = 0.0;
  auto contribution = [&](int64_t node) {
    const double c = s.CoefficientValue(node);
    if (c == 0.0) return;
    if (node == 0) {
      sum += static_cast<double>(hi - lo + 1) * c;
      return;
    }
    const LeafRange r = NodeLeafRange(domain_size, node);
    const int64_t mid = r.first + r.count / 2;
    const int64_t left_overlap =
        std::max<int64_t>(0, std::min(hi, mid - 1) - std::max(lo, r.first) + 1);
    const int64_t right_overlap = std::max<int64_t>(
        0, std::min(hi, r.first + r.count - 1) - std::max(lo, mid) + 1);
    sum += static_cast<double>(left_overlap - right_overlap) * c;
  };
  int64_t a = LeafParent(domain_size, lo);
  int64_t b = LeafParent(domain_size, hi);
  while (a != b) {
    if (a > b) {
      contribution(a);
      a >>= 1;
    } else {
      contribution(b);
      b >>= 1;
    }
  }
  for (; a >= 1; a >>= 1) contribution(a);
  contribution(0);
  return sum;
}

// ReconstructRange as it was before the cursor: every retained coefficient
// climbed to the root to find whether it lies in the slice's subtree.
std::vector<double> ReconstructRangeReference(const Synopsis& s, int64_t first,
                                              int64_t count) {
  const int64_t domain_size = s.domain_size();
  if (count == 0) return {};
  if (count == domain_size) return s.Reconstruct();
  const int64_t root = domain_size / count + first / count;
  std::vector<double> local(static_cast<size_t>(count), 0.0);
  ForEachPathNode(domain_size, first, [&](int64_t node) {
    if (node >= root) return;
    const double c = s.CoefficientValue(node);
    if (c != 0.0) local[0] += LeafSign(domain_size, node, first) * c;
  });
  for (const Coefficient& c : s.coefficients()) {
    int64_t g = c.index;
    if (g < root) continue;
    int64_t local_slot = 0;
    int64_t top = g;
    int depth = 0;
    while (top > root) {
      top >>= 1;
      ++depth;
    }
    if (top != root) continue;
    local_slot = (int64_t{1} << depth) + (g - root * (int64_t{1} << depth));
    if (local_slot < count) local[static_cast<size_t>(local_slot)] = c.value;
  }
  return InverseHaar(local);
}

// A random synopsis over `n` values keeping each coefficient with
// probability `density`. Values are signed non-integers, with retained
// exact zeros of both signs mixed in to exercise the skip-zero branches.
Synopsis RandomSynopsis(int64_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<Coefficient> coefficients;
  for (int64_t i = 0; i < n; ++i) {
    if (rng.NextDouble() >= density) continue;
    const double roll = rng.NextDouble();
    const double value = roll < 0.05   ? 0.0
                         : roll < 0.1 ? -0.0
                                      : rng.NextDouble() * 200.0 - 100.0;
    coefficients.push_back({i, value});
  }
  return Synopsis(n, std::move(coefficients));
}

// Every synopsis the bit-identity tests run over: empty, sparse and dense
// at each domain 1, 2, 4, ..., 2^12.
struct NamedSynopsis {
  std::string name;
  Synopsis synopsis;
};

std::vector<NamedSynopsis> BitIdentityCases() {
  std::vector<NamedSynopsis> cases;
  for (int log_n = 0; log_n <= 12; ++log_n) {
    const int64_t n = int64_t{1} << log_n;
    const std::string tag = "n=" + std::to_string(n);
    cases.push_back({tag + " empty", Synopsis(n, {})});
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      const uint64_t mix = seed * 1000 + static_cast<uint64_t>(log_n);
      cases.push_back({tag + " sparse seed=" + std::to_string(seed),
                       RandomSynopsis(n, 0.1, mix)});
      cases.push_back({tag + " dense seed=" + std::to_string(seed),
                       RandomSynopsis(n, 1.0, mix + 500)});
    }
  }
  return cases;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(SynopsisBitIdentityTest, ReconstructRangeMatchesScanReference) {
  for (const NamedSynopsis& c : BitIdentityCases()) {
    const Synopsis& s = c.synopsis;
    const int64_t n = s.domain_size();
    EXPECT_TRUE(s.ReconstructRange(0, 0).empty()) << c.name;
    EXPECT_TRUE(s.ReconstructRange(n, 0).empty()) << c.name;
    for (int64_t count = 1; count <= n; count <<= 1) {
      for (int64_t first = 0; first < n; first += count) {
        const std::vector<double> got = s.ReconstructRange(first, count);
        const std::vector<double> want =
            ReconstructRangeReference(s, first, count);
        ASSERT_EQ(got.size(), want.size()) << c.name;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(want[i]))
              << c.name << " first=" << first << " count=" << count
              << " slot=" << i << ": " << got[i] << " vs " << want[i];
        }
      }
    }
  }
}

TEST(SynopsisBitIdentityTest, RangeSumMatchesLowerBoundReference) {
  for (const NamedSynopsis& c : BitIdentityCases()) {
    const Synopsis& s = c.synopsis;
    const int64_t n = s.domain_size();
    const auto check = [&](int64_t lo, int64_t hi) {
      const double got = s.RangeSum(lo, hi);
      const double want = RangeSumReference(s, lo, hi);
      ASSERT_EQ(Bits(got), Bits(want))
          << c.name << " [" << lo << ", " << hi << "]: " << got << " vs "
          << want;
    };
    if (n <= 64) {
      // Every (lo, hi) pair.
      for (int64_t lo = 0; lo < n; ++lo) {
        for (int64_t hi = lo; hi < n; ++hi) check(lo, hi);
      }
      continue;
    }
    Rng rng(static_cast<uint64_t>(n));
    const uint64_t bound = static_cast<uint64_t>(n);
    for (int trial = 0; trial < 2000; ++trial) {
      int64_t lo = static_cast<int64_t>(rng.NextBounded(bound));
      int64_t hi = static_cast<int64_t>(rng.NextBounded(bound));
      if (lo > hi) std::swap(lo, hi);
      check(lo, hi);
    }
    check(0, 0);
    check(n - 1, n - 1);
    check(0, n - 1);
  }
}

}  // namespace
}  // namespace dwm
