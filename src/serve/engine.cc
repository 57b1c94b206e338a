#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "common/parse.h"

namespace dwm::serve {

const std::vector<double>& ServeLatencyBounds() {
  // Factor-2 exponential: 0.1us, 0.2us, ... ~0.84s (24 buckets + overflow).
  static const std::vector<double>* const bounds = new std::vector<double>(
      metrics::HistogramBuckets::Exponential(0.1, 2.0, 24));
  return *bounds;
}

EngineOptions EngineOptions::FromEnv() {
  EngineOptions options;
  options.cache_bytes =
      parse::Env<uint64_t>("DWM_SERVE_CACHE_BYTES", 0, UINT64_MAX,
                           "a non-negative byte count", "keeping default")
          .value_or(options.cache_bytes);
  if (const auto leaves = parse::Env<uint64_t>(
          "DWM_SERVE_BLOCK_LEAVES", 1, 1ULL << 62,
          "a positive power-of-two leaf count", "keeping default",
          &IsPowerOfTwo)) {
    options.block_leaves = static_cast<int64_t>(*leaves);
  }
  if (const auto us = parse::Env<uint64_t>(
          "DWM_SLOW_QUERY_US", 0, 1ULL << 62,
          "a non-negative microsecond threshold", "slow-query log disabled")) {
    options.slow_query_us = static_cast<int64_t>(*us);
  }
  return options;
}

QueryEngine::QueryEngine(EngineOptions options)
    : options_(options),
      cache_(options.cache_bytes),
      slow_log_(options.slow_query_log_per_second,
                std::max(1.0, 2.0 * options.slow_query_log_per_second)),
      queries_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_total", "Queries answered by the serve engine",
          {}, metrics::Stability::kStable)),
      cache_hits_(metrics::Default().GetCounter(
          "dwm_serve_cache_hits_total", "Subtree cache hits", {},
          metrics::Stability::kStable)),
      cache_misses_(metrics::Default().GetCounter(
          "dwm_serve_cache_misses_total", "Subtree cache misses", {},
          metrics::Stability::kStable)),
      cache_evictions_(metrics::Default().GetCounter(
          "dwm_serve_cache_evictions_total", "Subtree cache evictions", {},
          metrics::Stability::kStable)),
      point_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_by_type_total",
          "Queries answered by the serve engine, by query type",
          {{"type", "point"}}, metrics::Stability::kStable)),
      range_sum_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_by_type_total",
          "Queries answered by the serve engine, by query type",
          {{"type", "range_sum"}}, metrics::Stability::kStable)),
      range_avg_total_(metrics::Default().GetCounter(
          "dwm_serve_queries_by_type_total",
          "Queries answered by the serve engine, by query type",
          {{"type", "range_avg"}}, metrics::Stability::kStable)),
      latency_all_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "all"}},
          metrics::Stability::kMeasured)),
      latency_point_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "point"}},
          metrics::Stability::kMeasured)),
      latency_range_sum_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "range_sum"}},
          metrics::Stability::kMeasured)),
      latency_range_avg_(metrics::Default().GetHistogram(
          "dwm_serve_latency_us",
          "Per-query serve latency in microseconds (batch turnaround / "
          "batch size)",
          ServeLatencyBounds(), {{"type", "range_avg"}},
          metrics::Stability::kMeasured)) {
  DWM_CHECK_GT(options_.block_leaves, 0);
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(options_.block_leaves)));
}

Status QueryEngine::AnswerBatch(const ShardKey& key,
                                const std::vector<Query>& queries,
                                std::vector<double>* results) {
  const uint64_t request =
      next_request_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto wall_start = std::chrono::steady_clock::now();
  const bool tracing = tracer_.enabled();
  const bool slow_enabled = options_.slow_query_us >= 0;

  RequestTrace rt;
  if (tracing) {
    rt.request = request;
    rt.start_seconds = tracer_.NowSeconds();
  }
  auto begin_phase = [&](const char* name) {
    if (tracing) rt.phases.push_back({name, tracer_.NowSeconds(), 0.0});
  };
  auto end_phase = [&] {
    if (tracing) rt.phases.back().end_seconds = tracer_.NowSeconds();
  };

  begin_phase("lookup");
  const Shard* shard = registry_.Find(key);
  end_phase();
  if (shard == nullptr) {
    log::Warn("query_rejected")
        .U64("request", request)
        .Str("dataset", key.dataset)
        .Str("algo", key.algo)
        .I64("budget", key.budget)
        .I64("queries", static_cast<int64_t>(queries.size()))
        .Str("reason", "unknown_shard");
    return Status::FailedPrecondition("serve: no shard registered for (" +
                                      key.dataset + ", " + key.algo + ", B=" +
                                      std::to_string(key.budget) + ")");
  }
  const Synopsis& synopsis = shard->synopsis;
  const int64_t n = synopsis.domain_size();
  // Validate the whole batch before answering any of it: a rejected batch
  // must not leave half-filled results or perturb the cache state.
  begin_phase("validate");
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const int64_t hi = q.type == QueryType::kPoint ? q.lo : q.hi;
    if (q.lo < 0 || hi >= n || q.lo > hi) {
      end_phase();
      log::Warn("query_rejected")
          .U64("request", request)
          .Str("dataset", key.dataset)
          .Str("algo", key.algo)
          .I64("budget", key.budget)
          .I64("queries", static_cast<int64_t>(queries.size()))
          .Str("reason", "out_of_range")
          .I64("query", static_cast<int64_t>(i))
          .I64("lo", q.lo)
          .I64("hi", hi);
      return Status::OutOfRange(
          "serve: query " + std::to_string(i) + " [" + std::to_string(q.lo) +
          ", " + std::to_string(hi) + "] outside domain [0, " +
          std::to_string(n) + ")");
    }
  }
  end_phase();

  std::vector<double> answers(queries.size(), 0.0);
  // Point queries grouped by block; (block, original position) pairs sorted
  // so every block is resolved exactly once and results land back in
  // request order. Stable outcome regardless of the queries' interleaving.
  const int64_t block = std::min<int64_t>(options_.block_leaves, n);
  int64_t range_sums = 0;
  int64_t range_avgs = 0;
  std::vector<std::pair<int64_t, size_t>> points;
  begin_phase("ranges");
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.type) {
      case QueryType::kPoint:
        points.emplace_back(q.lo / block * block, i);
        break;
      case QueryType::kRangeSum:
        ++range_sums;
        answers[i] = synopsis.RangeSum(q.lo, q.hi);
        break;
      case QueryType::kRangeAvg:
        ++range_avgs;
        answers[i] =
            synopsis.RangeSum(q.lo, q.hi) / static_cast<double>(q.hi - q.lo + 1);
        break;
    }
  }
  end_phase();
  const int64_t point_count = static_cast<int64_t>(points.size());
  std::sort(points.begin(), points.end());

  int64_t request_hits = 0;
  int64_t request_misses = 0;
  int64_t reconstructed_leaves = 0;
  std::vector<int64_t> blocks_touched;  // distinct, resolution order
  begin_phase("points");
  if (!points.empty()) {
    const std::lock_guard<std::mutex> lock(mu_);
    const SubtreeCache::Stats before = cache_.stats();
    const std::vector<double>* cached = nullptr;
    std::vector<double> local;  // fallback when the cache declines the block
    int64_t current = -1;
    for (const auto& [first, pos] : points) {
      if (first != current) {
        current = first;
        if (tracing || slow_enabled) blocks_touched.push_back(first);
        const SubtreeCache::Key cache_key{shard->id, first};
        cached = cache_.Get(cache_key);
        if (cached == nullptr) {
          const double rec_start = tracing ? tracer_.NowSeconds() : 0.0;
          local = synopsis.ReconstructRange(first, block);
          reconstructed_leaves += block;
          if (tracing) {
            rt.reconstructs.push_back(
                {first, block, rec_start, tracer_.NowSeconds()});
          }
          cached = cache_.Put(cache_key, std::move(local));
          if (cached == nullptr) {
            // Block bigger than the whole cache (or cache_bytes == 0):
            // Put left `local` untouched, answer from the local copy.
            cached = &local;
          }
        }
      }
      answers[pos] = (*cached)[static_cast<size_t>(queries[pos].lo - current)];
    }
    // Sync cache stats into the global counters as deltas, so several
    // engines (tests) can share the process-wide registry.
    const SubtreeCache::Stats now = cache_.stats();
    request_hits = static_cast<int64_t>(now.hits - before.hits);
    request_misses = static_cast<int64_t>(now.misses - before.misses);
    cache_hits_->Increment(request_hits);
    cache_misses_->Increment(request_misses);
    cache_evictions_->Increment(
        static_cast<int64_t>(now.evictions - before.evictions));
  }
  end_phase();

  queries_total_->Increment(static_cast<int64_t>(queries.size()));
  if (point_count > 0) {
    point_total_->Increment(point_count);
    point_queries_.fetch_add(point_count, std::memory_order_relaxed);
  }
  if (range_sums > 0) {
    range_sum_total_->Increment(range_sums);
    range_sum_queries_.fetch_add(range_sums, std::memory_order_relaxed);
  }
  if (range_avgs > 0) {
    range_avg_total_->Increment(range_avgs);
    range_avg_queries_.fetch_add(range_avgs, std::memory_order_relaxed);
  }

  // Per-query latency attribution, matching the closed-loop load
  // generator's external measurement: batch turnaround / batch size, every
  // query of the batch observing the same value.
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  if (!queries.empty()) {
    const double per_query_us =
        elapsed_us / static_cast<double>(queries.size());
    latency_all_->ObserveN(per_query_us,
                           static_cast<int64_t>(queries.size()));
    latency_point_->ObserveN(per_query_us, point_count);
    latency_range_sum_->ObserveN(per_query_us, range_sums);
    latency_range_avg_->ObserveN(per_query_us, range_avgs);
  }

  if (tracing) {
    rt.dataset = key.dataset;
    rt.algo = key.algo;
    rt.budget = key.budget;
    rt.queries = static_cast<int64_t>(queries.size());
    rt.points = point_count;
    rt.range_sums = range_sums;
    rt.range_avgs = range_avgs;
    rt.cache_hits = request_hits;
    rt.cache_misses = request_misses;
    rt.reconstructed_leaves = reconstructed_leaves;
    rt.end_seconds = tracer_.NowSeconds();
    tracer_.Record(std::move(rt));
  }

  if (slow_enabled &&
      elapsed_us >= static_cast<double>(options_.slow_query_us) &&
      slow_log_.Allow()) {
    // Volatile: whether a batch crosses the threshold is a wall-clock
    // outcome, so the whole line is dropped from the stable projection.
    std::string blocks;
    constexpr size_t kMaxListedBlocks = 16;
    for (size_t i = 0; i < blocks_touched.size() && i < kMaxListedBlocks;
         ++i) {
      if (!blocks.empty()) blocks += ',';
      blocks += std::to_string(blocks_touched[i]);
    }
    if (blocks_touched.size() > kMaxListedBlocks) {
      blocks += ",+" +
                std::to_string(blocks_touched.size() - kMaxListedBlocks) +
                " more";
    }
    log::Warn("slow_query")
        .Volatile()
        .U64("request", request)
        .Str("dataset", key.dataset)
        .Str("algo", key.algo)
        .I64("budget", key.budget)
        .I64("queries", static_cast<int64_t>(queries.size()))
        .I64("points", point_count)
        .I64("range_sums", range_sums)
        .I64("range_avgs", range_avgs)
        .I64("cache_hits", request_hits)
        .I64("cache_misses", request_misses)
        .I64("reconstructed_leaves", reconstructed_leaves)
        .I64("threshold_us", options_.slow_query_us)
        .Str("blocks", blocks)
        .MeasuredF64("elapsed_us", elapsed_us)
        .MeasuredI64("suppressed", slow_log_.TakeSuppressed());
  }

  *results = std::move(answers);
  return Status::OK();
}

Status QueryEngine::Answer(const ShardKey& key, const Query& query,
                           double* result) {
  std::vector<double> results;
  DWM_RETURN_NOT_OK(AnswerBatch(key, {query}, &results));
  *result = results.front();
  return Status::OK();
}

SubtreeCache::Stats QueryEngine::CacheStats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cache_.stats();
}

QueryEngine::TypeCounts QueryEngine::QueryCounts() const {
  return {point_queries_.load(std::memory_order_relaxed),
          range_sum_queries_.load(std::memory_order_relaxed),
          range_avg_queries_.load(std::memory_order_relaxed)};
}

void QueryEngine::ObserveAchievedError(const ShardKey& key, double abs_error) {
  if (!std::isfinite(abs_error)) return;
  const Shard* shard = registry_.Find(key);
  if (shard == nullptr) return;
  const metrics::Labels labels = {{"dataset", key.dataset},
                                  {"algo", key.algo},
                                  {"budget", std::to_string(key.budget)}};
  metrics::Gauge* achieved = metrics::Default().GetGauge(
      "dwm_serve_achieved_error",
      "Largest externally verified absolute answer error per shard", labels,
      metrics::Stability::kStable);
  if (abs_error > achieved->value()) achieved->Set(abs_error);
  if (std::isfinite(shard->error_bound)) {
    metrics::Default()
        .GetGauge("dwm_serve_error_bound",
                  "Builder-guaranteed maximum absolute point error per shard",
                  labels, metrics::Stability::kStable)
        ->Set(shard->error_bound);
  }
}

}  // namespace dwm::serve
