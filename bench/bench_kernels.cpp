// Kernel micro suite: raw single-node timings of the hot kernels the
// distributed cost model charges per task — the Haar transform (forward and
// inverse), the MinHaarSpace bottom-up combine (arena BuildRowHeap), the
// GreedyAbs discard loop, and the synopsis queries (point, range sum and
// subtree reconstruction: the serving hot and miss paths). Each kernel
// reports one BenchReporter label (kernels/haar-forward,
// kernels/haar-inverse, kernels/mhs-combine, kernels/greedy-run,
// kernels/synopsis-point, kernels/synopsis-range,
// kernels/synopsis-reconstruct); kernels with a scalar/naive reference also
// time it under a -ref suffix, so a recorded baseline shows the
// optimized-vs-reference speedup next to byte-identical deterministic
// checksums (the metrics snapshot is a pure function of the input, so
// tools/bench_compare.py compares it exactly while the measured makespans
// get the usual ratio tolerance).
//
// CI runs this binary under DWM_SCALE=-7 DWM_BENCH_SUITE=micro next to the
// fig5c/5d harnesses, folding the kernel labels into the same
// BENCH_micro.json regression gate (see EXPERIMENTS.md for the baseline
// refresh recipe).
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/greedy_abs.h"
#include "core/min_haar_space.h"
#include "data/generators.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace {

// Fastest observed run, repeating until ~50 ms of total measurement (at
// least 3 runs): min-of-reps is stable enough at DWM_SCALE=-7 sizes for the
// CI self-diff's makespan ratio gate.
template <typename Fn>
double MinSeconds(Fn&& fn) {
  double best = 1e300;
  double total = 0.0;
  for (int reps = 0; reps < 3 || (total < 0.05 && reps < 10000); ++reps) {
    const double s = dwm::bench::WallSeconds(fn);
    best = std::min(best, s);
    total += s;
  }
  return best;
}

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

// Naive point query: one lower_bound over the whole coefficient array per
// path node (the pre-merged-walk implementation), the reference the
// synopsis-point kernel is paired against.
double PointEstimateReference(const dwm::Synopsis& synopsis, int64_t leaf) {
  double value = 0.0;
  dwm::ForEachPathNode(synopsis.domain_size(), leaf, [&](int64_t node) {
    const double c = synopsis.CoefficientValue(node);
    if (c != 0.0) {
      value += dwm::LeafSign(synopsis.domain_size(), node, leaf) * c;
    }
  });
  return value;
}

// Range sum with one lower_bound over the whole coefficient array per path
// node (the pre-cursor implementation), the reference the synopsis-range
// kernel is paired against. Same additions in the same order as RangeSum.
double RangeSumReference(const dwm::Synopsis& synopsis, int64_t lo,
                         int64_t hi) {
  const int64_t n = synopsis.domain_size();
  double sum = 0.0;
  auto contribution = [&](int64_t node) {
    const double c = synopsis.CoefficientValue(node);
    if (c == 0.0) return;
    if (node == 0) {
      sum += static_cast<double>(hi - lo + 1) * c;
      return;
    }
    const dwm::LeafRange r = dwm::NodeLeafRange(n, node);
    const int64_t mid = r.first + r.count / 2;
    const int64_t left_overlap =
        std::max<int64_t>(0, std::min(hi, mid - 1) - std::max(lo, r.first) + 1);
    const int64_t right_overlap = std::max<int64_t>(
        0, std::min(hi, r.first + r.count - 1) - std::max(lo, mid) + 1);
    sum += static_cast<double>(left_overlap - right_overlap) * c;
  };
  int64_t a = dwm::LeafParent(n, lo);
  int64_t b = dwm::LeafParent(n, hi);
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

// Subtree reconstruction that climbs every retained coefficient to the root
// to test membership in the slice's subtree (the pre-cursor implementation),
// the reference the synopsis-reconstruct kernel is paired against.
std::vector<double> ReconstructRangeReference(const dwm::Synopsis& synopsis,
                                              int64_t first, int64_t count) {
  const int64_t n = synopsis.domain_size();
  const int64_t root = n / count + first / count;
  std::vector<double> local(static_cast<size_t>(count), 0.0);
  dwm::ForEachPathNode(n, first, [&](int64_t node) {
    if (node >= root) return;
    const double c = synopsis.CoefficientValue(node);
    if (c != 0.0) local[0] += dwm::LeafSign(n, node, first) * c;
  });
  for (const dwm::Coefficient& c : synopsis.coefficients()) {
    if (c.index < root) continue;
    int64_t top = c.index;
    int depth = 0;
    while (top > root) {
      top >>= 1;
      ++depth;
    }
    if (top != root) continue;  // not inside this subtree
    const int64_t slot =
        (int64_t{1} << depth) + (c.index - root * (int64_t{1} << depth));
    if (slot < count) local[static_cast<size_t>(slot)] = c.value;
  }
  return dwm::InverseHaar(local);
}

}  // namespace

int main() {
  dwm::bench::PrintHeader(
      "bench_kernels",
      "kernel micro suite (Haar forward/inverse, MinHaarSpace combine, "
      "GreedyAbs discard loop, synopsis point/range/reconstruct queries)",
      "optimized kernels match their scalar references bit for bit; "
      "timings feed the BENCH_micro regression gate");
  dwm::bench::BenchReporter reporter("kernels");

  const int64_t n_haar = std::max<int64_t>(8, dwm::bench::ScaledN(20));
  const int64_t n_dp = std::max<int64_t>(8, dwm::bench::ScaledN(16));
  const double eps = 50.0;
  const double quantum = 5.0;
  const auto data_haar = dwm::MakeUniform(n_haar, 1000.0, /*seed=*/1);
  const auto data_dp = dwm::MakeUniform(n_dp, 1000.0, /*seed=*/1);
  const auto coeffs_haar = dwm::ForwardHaar(data_haar);
  const auto coeffs_dp = dwm::ForwardHaar(data_dp);

  const auto report = [&](const char* label, int64_t n, double run_eps,
                          double seconds,
                          std::vector<std::pair<std::string, double>> metrics) {
    dwm::bench::BenchRun run;
    run.label = std::string("kernels/") + label;
    run.dataset = "uniform";
    run.n = n;
    run.eps = run_eps;
    run.makespan_seconds = seconds;
    run.metrics = std::move(metrics);
    reporter.Report(run);
    std::printf("%-26s n=%-9lld %12.6f s\n", label, static_cast<long long>(n),
                seconds);
  };

  // Haar forward: optimized (fused SIMD passes) vs the scalar reference.
  // The checksum is the plain left-to-right coefficient sum — byte-identical
  // outputs make the optimized and -ref values match exactly.
  {
    double checksum = 0.0;
    const double sec = MinSeconds([&] {
      checksum = Sum(dwm::ForwardHaar(data_haar));
    });
    report("haar-forward", n_haar, 0.0, sec, {{"checksum", checksum}});
    double ref_checksum = 0.0;
    const double ref_sec = MinSeconds([&] {
      ref_checksum = Sum(dwm::ForwardHaarScalar(data_haar));
    });
    report("haar-forward-ref", n_haar, 0.0, ref_sec,
           {{"checksum", ref_checksum}});
    dwm::bench::PrintShapeCheck(checksum == ref_checksum,
                                "forward checksum == scalar reference");
  }

  // Haar inverse, same pairing.
  {
    double checksum = 0.0;
    const double sec = MinSeconds([&] {
      checksum = Sum(dwm::InverseHaar(coeffs_haar));
    });
    report("haar-inverse", n_haar, 0.0, sec, {{"checksum", checksum}});
    double ref_checksum = 0.0;
    const double ref_sec = MinSeconds([&] {
      ref_checksum = Sum(dwm::InverseHaarScalar(coeffs_haar));
    });
    report("haar-inverse-ref", n_haar, 0.0, ref_sec,
           {{"checksum", ref_checksum}});
    dwm::bench::PrintShapeCheck(checksum == ref_checksum,
                                "inverse checksum == scalar reference");
  }

  // MinHaarSpace combine: pair rows for the whole domain, then the full
  // bottom-up arena build vs folding CombineRowsReference level by level.
  {
    std::vector<dwm::mhs::Row> pairs(static_cast<size_t>(n_dp / 2));
    for (int64_t u = 0; u < n_dp / 2; ++u) {
      pairs[static_cast<size_t>(u)] =
          dwm::mhs::PairRow(data_dp[static_cast<size_t>(2 * u)],
                            data_dp[static_cast<size_t>(2 * u + 1)], eps,
                            quantum);
    }
    const auto row_metrics = [](const dwm::mhs::Row& root) {
      int64_t min_count = dwm::mhs::Cell::kInfCount;
      for (const dwm::mhs::Cell& cell : root.cells) {
        min_count = std::min<int64_t>(min_count, cell.count);
      }
      return std::vector<std::pair<std::string, double>>{
          {"root_lo", static_cast<double>(root.lo)},
          {"root_cells", static_cast<double>(root.cells.size())},
          {"root_min_count", static_cast<double>(min_count)}};
    };
    dwm::mhs::Row root;
    const double sec = MinSeconds([&] {
      root = dwm::mhs::BuildRowHeap(pairs).CopyRow(1);
    });
    report("mhs-combine", n_dp, eps, sec, row_metrics(root));
    dwm::mhs::Row ref_root;
    const double ref_sec = MinSeconds([&] {
      std::vector<dwm::mhs::Row> level = pairs;
      while (level.size() > 1) {
        std::vector<dwm::mhs::Row> next(level.size() / 2);
        for (size_t i = 0; i < next.size(); ++i) {
          next[i] =
              dwm::mhs::CombineRowsReference(level[2 * i], level[2 * i + 1]);
        }
        level = std::move(next);
      }
      ref_root = std::move(level[0]);
    });
    report("mhs-combine-ref", n_dp, eps, ref_sec, row_metrics(ref_root));
    dwm::bench::PrintShapeCheck(
        root.lo == ref_root.lo && root.cells.size() == ref_root.cells.size(),
        "arena root row == reference root row");
  }

  // GreedyAbs discard loop over the full error tree (the Run() kernel the
  // centralized and distributed algorithms share).
  {
    dwm::HeapDiscardEvent first{};
    dwm::HeapDiscardEvent last{};
    const double sec = MinSeconds([&] {
      dwm::GreedyAbsTree tree(coeffs_dp, /*has_average=*/true,
                              /*initial_error=*/0.0);
      const auto events = tree.Run();
      first = events.front();
      last = events.back();
    });
    report("greedy-run", n_dp, 0.0, sec,
           {{"first_slot", static_cast<double>(first.slot)},
            {"last_error", last.error}});
  }

  // Synopsis point query (the serving hot path): merged-walk PointEstimate
  // over every leaf vs the per-path-node lower_bound reference. The
  // checksum is the left-to-right sum of all point estimates; the two must
  // match bit for bit.
  {
    const dwm::Synopsis synopsis =
        dwm::GreedyAbs(data_dp, /*budget=*/std::max<int64_t>(n_dp / 32, 1))
            .synopsis;
    double checksum = 0.0;
    const double sec = MinSeconds([&] {
      double sum = 0.0;
      for (int64_t j = 0; j < n_dp; ++j) sum += synopsis.PointEstimate(j);
      checksum = sum;
    });
    report("synopsis-point", n_dp, 0.0, sec, {{"checksum", checksum}});
    double ref_checksum = 0.0;
    const double ref_sec = MinSeconds([&] {
      double sum = 0.0;
      for (int64_t j = 0; j < n_dp; ++j) {
        sum += PointEstimateReference(synopsis, j);
      }
      ref_checksum = sum;
    });
    report("synopsis-point-ref", n_dp, 0.0, ref_sec,
           {{"checksum", ref_checksum}});
    dwm::bench::PrintShapeCheck(checksum == ref_checksum,
                                "point checksum == lower_bound reference");

    // Range sum over n_dp fixed random [lo, hi] ranges: the per-path
    // cursors vs one lower_bound per path node. Checksum as above.
    std::vector<std::pair<int64_t, int64_t>> ranges;
    dwm::Rng rng(/*seed=*/3);
    for (int64_t q = 0; q < n_dp; ++q) {
      int64_t lo = static_cast<int64_t>(rng.NextBounded(
          static_cast<uint64_t>(n_dp)));
      int64_t hi = static_cast<int64_t>(rng.NextBounded(
          static_cast<uint64_t>(n_dp)));
      if (lo > hi) std::swap(lo, hi);
      ranges.emplace_back(lo, hi);
    }
    double range_checksum = 0.0;
    const double range_sec = MinSeconds([&] {
      double sum = 0.0;
      for (const auto& [lo, hi] : ranges) sum += synopsis.RangeSum(lo, hi);
      range_checksum = sum;
    });
    report("synopsis-range", n_dp, 0.0, range_sec,
           {{"checksum", range_checksum}});
    double range_ref_checksum = 0.0;
    const double range_ref_sec = MinSeconds([&] {
      double sum = 0.0;
      for (const auto& [lo, hi] : ranges) {
        sum += RangeSumReference(synopsis, lo, hi);
      }
      range_ref_checksum = sum;
    });
    report("synopsis-range-ref", n_dp, 0.0, range_ref_sec,
           {{"checksum", range_ref_checksum}});
    dwm::bench::PrintShapeCheck(range_checksum == range_ref_checksum,
                                "range checksum == lower_bound reference");

    // Subtree reconstruction (the serve engine's cache-miss path): every
    // aligned slice of every size 1..n_dp/2, slice cursor vs full
    // coefficient scan. The checksum is the left-to-right sum of every
    // reconstructed value.
    const auto all_slices = [&](auto&& reconstruct) {
      double sum = 0.0;
      for (int64_t count = 1; count < n_dp; count <<= 1) {
        for (int64_t first = 0; first < n_dp; first += count) {
          sum += Sum(reconstruct(first, count));
        }
      }
      return sum;
    };
    double rec_checksum = 0.0;
    const double rec_sec = MinSeconds([&] {
      rec_checksum = all_slices([&](int64_t first, int64_t count) {
        return synopsis.ReconstructRange(first, count);
      });
    });
    report("synopsis-reconstruct", n_dp, 0.0, rec_sec,
           {{"checksum", rec_checksum}});
    double rec_ref_checksum = 0.0;
    const double rec_ref_sec = MinSeconds([&] {
      rec_ref_checksum = all_slices([&](int64_t first, int64_t count) {
        return ReconstructRangeReference(synopsis, first, count);
      });
    });
    report("synopsis-reconstruct-ref", n_dp, 0.0, rec_ref_sec,
           {{"checksum", rec_ref_checksum}});
    dwm::bench::PrintShapeCheck(rec_checksum == rec_ref_checksum,
                                "reconstruct checksum == full-scan reference");
  }
  return 0;
}
