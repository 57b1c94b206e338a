// Library-independent helpers of the benchmark driver (perfbench.cc):
// percentile selection, failure accounting, metric-name rules, the result
// line's JSON, and span self time. Kept header-only and free of the
// dwmaxerr libraries so selftest.cc can check them in isolation.
#ifndef DWMAXERR_PERFBENCH_BENCH_CORE_H_
#define DWMAXERR_PERFBENCH_BENCH_CORE_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// A percentile picked from a sample: the value, the quantile it actually
// is, the sample count, and how many samples lie above it.
struct TailPercentile {
  double value = 0.0;
  double quantile = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
};

// The highest nearest-rank percentile at or below `wanted` that still has
// at least `min_beyond` samples above it, so a tail latency is never read
// off a handful of points. With too few samples for any such percentile it
// falls back to the lowest sample (quantile 1/n); an empty sample gives
// all zeros.
inline TailPercentile SelectTailPercentile(std::vector<double> samples,
                                           double wanted, int64_t min_beyond) {
  TailPercentile out;
  const int64_t n = static_cast<int64_t>(samples.size());
  out.samples = n;
  if (n == 0) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest index i with (i + 1) / n >= wanted.
  int64_t index =
      static_cast<int64_t>(std::ceil(wanted * static_cast<double>(n))) - 1;
  index = std::min(index, n - 1 - min_beyond);
  index = std::clamp<int64_t>(index, 0, n - 1);
  out.value = samples[static_cast<size_t>(index)];
  out.quantile = static_cast<double>(index + 1) / static_cast<double>(n);
  out.beyond = n - 1 - index;
  return out;
}

// Median (mean of the middle two for an even count); 0 for an empty sample.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

// A tail percentile taken per window of `window` consecutive samples, and
// the median over the windows: one disturbed stretch of a run moves it by
// at most one window's rank. A partial last window is dropped, unless no
// window is full; then the whole sample is the one window. `per_window` is
// the first window's selection (every full window has the same quantile
// and count beyond).
struct WindowedTail {
  double value = 0.0;
  int64_t windows = 0;
  TailPercentile per_window;
};

inline WindowedTail SelectWindowedTail(const std::vector<double>& samples,
                                       size_t window, double wanted,
                                       int64_t min_beyond) {
  WindowedTail out;
  if (window == 0 || samples.size() < window) {
    out.per_window = SelectTailPercentile(samples, wanted, min_beyond);
    out.value = out.per_window.value;
    out.windows = samples.empty() ? 0 : 1;
    return out;
  }
  std::vector<double> tails;
  for (size_t first = 0; first + window <= samples.size(); first += window) {
    const TailPercentile t = SelectTailPercentile(
        std::vector<double>(samples.begin() + static_cast<ptrdiff_t>(first),
                            samples.begin() +
                                static_cast<ptrdiff_t>(first + window)),
        wanted, min_beyond);
    if (tails.empty()) out.per_window = t;
    tails.push_back(t.value);
  }
  out.windows = static_cast<int64_t>(tails.size());
  out.value = Median(std::move(tails));
  return out;
}

// Operations attempted and failed over a run. An operation is one build
// call or one answered query; it fails when its call returns an error or
// its output does not check out.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// Relative tolerance of an answer that may differ from its expected value
// by rounding: |answer - expected| <= kRoundingTolerance * max(1, |expected|).
// The library's own tests hold two evaluations of one synopsis to the same
// 1e-9.
constexpr double kRoundingTolerance = 1e-9;

// Records one operation per query: answer i must equal expected[i] exactly
// (the same double) when exact[i] is set, and up to kRoundingTolerance when
// it is not (the answer comes from another summation order of the same
// coefficients). within_bound[i] must be set too (the caller clears it for
// a point answer outside the builder's error bound). A missing answer
// fails. Returns the number of failed queries; *first_failed (if given)
// gets the index of the first, or -1.
inline int64_t CheckAnswers(const std::vector<double>& answers,
                            const std::vector<double>& expected,
                            const std::vector<char>& exact,
                            const std::vector<char>& within_bound,
                            Tally* tally, int64_t* first_failed = nullptr) {
  int64_t mismatches = 0;
  if (first_failed != nullptr) *first_failed = -1;
  for (size_t i = 0; i < expected.size(); ++i) {
    bool ok = i < answers.size() && i < exact.size() &&
              i < within_bound.size() && within_bound[i] != 0;
    if (ok) {
      ok = exact[i] != 0
               ? answers[i] == expected[i]
               : std::fabs(answers[i] - expected[i]) <=
                     kRoundingTolerance * std::max(1.0, std::fabs(expected[i]));
    }
    tally->Record(ok);
    if (ok) continue;
    if (mismatches == 0 && first_failed != nullptr) {
      *first_failed = static_cast<int64_t>(i);
    }
    ++mismatches;
  }
  return mismatches;
}

// Metric names: 1 to 64 letters, digits, '_', '.' and '-', starting with a
// letter or a digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// Units: 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Shortest decimal that reads back as exactly `value` (all its digits,
// nothing invented).
inline std::string JsonNumber(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

// The benchmark's last stdout line:
//   {"correct": true, "attempted": N, "failed": M,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// Returns false (and leaves *out empty) when a metric has an invalid or
// repeated name, an invalid unit, or a non-finite value, which JSON cannot
// carry.
inline bool ResultJson(bool correct, const Tally& tally,
                       const std::vector<Metric>& metrics, std::string* out) {
  out->clear();
  std::vector<std::string_view> seen;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!ValidMetricName(m.name) || !ValidUnit(m.unit) ||
        !std::isfinite(m.value) ||
        std::find(seen.begin(), seen.end(), m.name) != seen.end()) {
      return false;
    }
    seen.push_back(m.name);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  *out = std::move(json);
  return true;
}

// One recorded span; `parent` indexes the same span vector (-1 = root).
struct Span {
  std::string name;
  int64_t parent = -1;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

// Self time of every span: its duration minus the part of its interval
// that its children cover (overlapping children count once; a child that
// sticks out of its parent counts only inside it).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_seconds,
                                                           s.end_seconds);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_seconds;
    const double hi = spans[i].end_seconds;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, reach);
      const double b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

}  // namespace perfbench

#endif  // DWMAXERR_PERFBENCH_BENCH_CORE_H_
