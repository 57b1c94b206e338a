// Self-tests of the benchmark's own helpers (bench_core.h): tail
// percentile selection (whole and windowed), failure accounting, metric-name rules, the result
// line's schema and span self time. perfbench/run.py runs this binary
// before every benchmark run and refuses to measure if any check fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_core.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void TestTailPercentile() {
  using perfbench::SelectTailPercentile;
  // 1000 samples: p99 is the 990th value and leaves exactly 10 above it.
  auto p = SelectTailPercentile(OneTo(1000), 0.99, 10);
  Expect(p.value == 990 && p.beyond == 10 && p.samples == 1000,
         "p99 of 1000 samples is the 990th with 10 beyond");
  Expect(p.quantile == 0.99, "p99 of 1000 samples reports quantile 0.99");
  // 500 samples: p99 would leave 5 above, so it steps down to the 490th.
  p = SelectTailPercentile(OneTo(500), 0.99, 10);
  Expect(p.value == 490 && p.beyond == 10, "p99 of 500 steps down to 10 beyond");
  Expect(std::fabs(p.quantile - 0.98) < 1e-12, "stepped-down quantile is 0.98");
  // Too few samples for any percentile with 10 beyond: the smallest value.
  p = SelectTailPercentile(OneTo(5), 0.99, 10);
  Expect(p.value == 1 && p.beyond == 4, "5 samples fall back to the minimum");
  p = SelectTailPercentile({}, 0.99, 10);
  Expect(p.samples == 0 && p.value == 0, "empty sample gives zeros");
  // Nearest rank, not interpolation: p50 of 1..4 is 2.
  p = SelectTailPercentile(OneTo(4), 0.5, 0);
  Expect(p.value == 2, "nearest-rank p50 of 1..4 is 2");
  Expect(perfbench::Median(OneTo(4)) == 2.5, "median of 1..4 is 2.5");
  Expect(perfbench::Median(OneTo(5)) == 3, "median of 1..5 is 3");
}

void TestWindowedTail() {
  using perfbench::SelectWindowedTail;
  // Three windows of 1000; the middle one is disturbed tenfold.
  std::vector<double> xs;
  for (int w = 0; w < 3; ++w) {
    for (double x : OneTo(1000)) xs.push_back(w == 1 ? 10 * x : x);
  }
  xs.push_back(1e9);  // a partial last window is dropped
  auto t = SelectWindowedTail(xs, 1000, 0.99, 10);
  Expect(t.windows == 3 && t.value == 990,
         "median of per-window p99s ignores one disturbed window");
  Expect(t.per_window.samples == 1000 && t.per_window.beyond == 10,
         "per-window selection is reported");
  // Fewer samples than one window: the whole sample is the window.
  t = SelectWindowedTail(OneTo(500), 1000, 0.99, 10);
  Expect(t.windows == 1 && t.value == 490, "short sample is one window");
  t = SelectWindowedTail({}, 1000, 0.99, 10);
  Expect(t.windows == 0 && t.value == 0, "empty sample gives zeros");
}

void TestFailureAccounting() {
  perfbench::Tally tally;
  const std::vector<double> expected = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> answers = expected;
  const std::vector<char> all_exact(4, 1);
  const std::vector<char> all_in_bound(4, 1);
  int64_t first = 0;
  Expect(perfbench::CheckAnswers(answers, expected, all_exact, all_in_bound,
                                 &tally, &first) == 0 && first == -1,
         "exact answers pass");
  answers[2] = std::nextafter(3.0, 4.0);  // deliberately wrong by one ulp
  Expect(perfbench::CheckAnswers(answers, expected, all_exact, all_in_bound,
                                 &tally, &first) == 1 && first == 2,
         "a one-ulp wrong answer fails where exactness is required");
  std::vector<char> rounded = all_exact;
  rounded[2] = 0;
  Expect(perfbench::CheckAnswers(answers, expected, rounded, all_in_bound,
                                 &tally) == 0,
         "a one-ulp difference passes where rounding is allowed");
  answers[2] = 3.0 + 1e-6;
  Expect(perfbench::CheckAnswers(answers, expected, rounded, all_in_bound,
                                 &tally) == 1,
         "a difference beyond rounding fails where rounding is allowed");
  answers[2] = std::nan("");
  Expect(perfbench::CheckAnswers(answers, expected, rounded, all_in_bound,
                                 &tally) == 1,
         "a NaN answer fails where rounding is allowed");
  std::vector<char> one_out_of_bound = all_in_bound;
  one_out_of_bound[0] = 0;
  Expect(perfbench::CheckAnswers(expected, expected, all_exact,
                                 one_out_of_bound, &tally, &first) == 1 &&
             first == 0,
         "an answer outside the error bound fails");
  Expect(perfbench::CheckAnswers({1.0}, expected, all_exact, all_in_bound,
                                 &tally) == 3,
         "missing answers fail");
  Expect(tally.attempted == 28 && tally.failed == 7,
         "each query counts once: 28 attempted, 7 failed");
  Expect(tally.fail_ratio() == 7.0 / 28.0, "fail_ratio = failed / attempted");
  tally.Record(true);
  Expect(tally.attempted == 29 && tally.failed == 7, "Record(true) attempts only");
  Expect(perfbench::Tally{}.fail_ratio() == 0.0, "nothing attempted: ratio 0");
}

void TestMetricNames() {
  using perfbench::ValidMetricName;
  Expect(ValidMetricName("serve_batch_p99_us"), "plain name");
  Expect(ValidMetricName("mr.shuffle_bytes_per_value"), "dotted name");
  Expect(ValidMetricName("0-x"), "leading digit and dash");
  Expect(ValidMetricName(std::string(64, 'a')), "64 characters");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters rejected");
  Expect(!ValidMetricName(""), "empty rejected");
  Expect(!ValidMetricName("_x"), "leading underscore rejected");
  Expect(!ValidMetricName(".x"), "leading dot rejected");
  Expect(!ValidMetricName("a b"), "space rejected");
  Expect(!ValidMetricName("a/b"), "slash rejected");
  Expect(!ValidMetricName("a\"b"), "quote rejected");
  Expect(perfbench::ValidUnit("1/s") && perfbench::ValidUnit("%") &&
             perfbench::ValidUnit("bytes/value"),
         "units 1/s, %, bytes/value");
  Expect(!perfbench::ValidUnit("") && !perfbench::ValidUnit("micro seconds") &&
             !perfbench::ValidUnit(std::string(17, 'u')),
         "empty, spaced and 17-character units rejected");
}

void TestResultSchema() {
  perfbench::Tally tally;
  tally.Record(true);
  tally.Record(false);
  std::string json;
  Expect(perfbench::ResultJson(false, tally,
                               {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.1, "s"}},
                               &json),
         "valid metrics serialize");
  Expect(json ==
             "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": "
             "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
             "\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}",
         "result line has exactly correct/attempted/failed/metrics");
  Expect(perfbench::ResultJson(true, tally, {{"x", 0.1 + 0.2, "s"}}, &json) &&
             json.find("0.30000000000000004") != std::string::npos,
         "values keep all their digits");
  Expect(!perfbench::ResultJson(true, tally, {{"bad name", 1, "s"}}, &json) &&
             json.empty(),
         "invalid name refused");
  Expect(!perfbench::ResultJson(true, tally, {{"x", NAN, "s"}}, &json),
         "non-finite value refused");
  Expect(!perfbench::ResultJson(true, tally, {{"x", 1, "s"}, {"x", 2, "s"}}, &json),
         "repeated name refused");
  Expect(!perfbench::ResultJson(true, tally, {{"x", 1, "a b"}}, &json),
         "invalid unit refused");
}

void TestSelfTimes() {
  // root [0,10] with children [1,4] and [3,6] (overlapping: cover [1,6])
  // and a grandchild [2,3] under the first child.
  const std::vector<perfbench::Span> spans = {
      {"root", -1, 0, 10}, {"a", 0, 1, 4}, {"b", 0, 3, 6}, {"c", 1, 2, 3},
      {"d", 0, 9, 12}};  // sticks out of root: only [9,10] counts
  const std::vector<double> self = perfbench::SelfTimes(spans);
  Expect(self[0] == 10 - 5 - 1, "root self time: overlap counted once, clipped");
  Expect(self[1] == 2, "child self time excludes the grandchild");
  Expect(self[2] == 3 && self[3] == 1 && self[4] == 3, "leaf self times");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestWindowedTail();
  TestFailureAccounting();
  TestMetricNames();
  TestResultSchema();
  TestSelfTimes();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
