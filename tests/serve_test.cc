// Tests for the serving layer (src/serve/): on-disk frame format
// (roundtrip, truncation, corruption, version skew, legacy fallback —
// every malformed file must surface as a Status, never an abort), the
// byte-capacity subtree LRU, the shard registry's id bumping, and the
// query engine's batching, validation, cache counters and observability
// surface (slow-query log, per-type tallies, achieved-vs-bound gauges,
// env knob parsing).
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/metrics.h"
#include "data/io.h"
#include "serve/engine.h"
#include "serve/format.h"
#include "serve/lru_cache.h"
#include "serve/registry.h"
#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace dwm::serve {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dwm_serve_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Mirrors the format's FNV-1a trailer so tests can re-seal a frame they
// edited (otherwise every edit lands in the checksum-mismatch path instead
// of the one actually under test).
uint64_t TestFnv1a(const std::vector<uint8_t>& bytes, size_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void Reseal(std::vector<uint8_t>* bytes) {
  const size_t body = bytes->size() - sizeof(uint64_t);
  const uint64_t checksum = TestFnv1a(*bytes, body);
  std::memcpy(bytes->data() + body, &checksum, sizeof(checksum));
}

Synopsis TestSynopsis(int64_t n = 64, uint64_t seed = 5) {
  const auto data = testing::PiecewiseData(n, seed);
  auto coeffs = ForwardHaar(data);
  std::vector<Coefficient> kept;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 2 == 0 && coeffs[static_cast<size_t>(i)] != 0.0) {
      kept.push_back({i, coeffs[static_cast<size_t>(i)]});
    }
  }
  return Synopsis(n, std::move(kept));
}

SynopsisFrame TestFrame() {
  SynopsisFrame frame;
  frame.dataset = "piecewise";
  frame.algo = "test_builder";
  frame.budget = 32;
  frame.synopsis = TestSynopsis();
  return frame;
}

TEST(SynopsisFrameTest, RoundTrip) {
  const std::string path = TestDir("roundtrip") + "/frame.dwms";
  const SynopsisFrame original = TestFrame();
  ASSERT_TRUE(SaveSynopsisFrame(path, original).ok());

  SynopsisFrame loaded;
  ASSERT_TRUE(LoadSynopsisFrame(path, &loaded).ok());
  EXPECT_EQ(loaded.version, kSynopsisFormatVersion);
  EXPECT_EQ(loaded.dataset, original.dataset);
  EXPECT_EQ(loaded.algo, original.algo);
  EXPECT_EQ(loaded.budget, original.budget);
  EXPECT_EQ(loaded.synopsis.domain_size(), original.synopsis.domain_size());
  EXPECT_EQ(loaded.synopsis.coefficients(),
            original.synopsis.coefficients());
}

TEST(SynopsisFrameTest, MissingFileIsIOError) {
  SynopsisFrame frame;
  const Status status =
      LoadSynopsisFrame(TestDir("missing") + "/nope.dwms", &frame);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(SynopsisFrameTest, TruncatedFileIsRejected) {
  const std::string dir = TestDir("truncated");
  const std::string path = dir + "/frame.dwms";
  ASSERT_TRUE(SaveSynopsisFrame(path, TestFrame()).ok());
  const std::vector<uint8_t> bytes = ReadAll(path);
  // Every strict prefix must be rejected — the trailer no longer matches,
  // or the file is shorter than magic + trailer.
  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{15}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::string cut = dir + "/cut.dwms";
    WriteAll(cut, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    SynopsisFrame frame;
    frame.budget = -99;  // sentinel: must stay untouched on failure
    const Status status = LoadSynopsisFrame(cut, &frame);
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(frame.budget, -99) << "keep=" << keep;
  }
}

TEST(SynopsisFrameTest, BitFlipIsRejectedEverywhere) {
  const std::string dir = TestDir("bitflip");
  const std::string path = dir + "/frame.dwms";
  ASSERT_TRUE(SaveSynopsisFrame(path, TestFrame()).ok());
  const std::vector<uint8_t> bytes = ReadAll(path);
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0x40;
    const std::string bad = dir + "/bad.dwms";
    WriteAll(bad, flipped);
    SynopsisFrame frame;
    EXPECT_FALSE(LoadSynopsisFrame(bad, &frame).ok()) << "byte " << i;
  }
}

TEST(SynopsisFrameTest, VersionSkewIsRejected) {
  const std::string path = TestDir("skew") + "/frame.dwms";
  ASSERT_TRUE(SaveSynopsisFrame(path, TestFrame()).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  // The u32 version sits right after the 8-byte magic; bump it and re-seal
  // so the checksum passes and the loader exercises the version gate.
  const uint32_t future = kSynopsisFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  Reseal(&bytes);
  WriteAll(path, bytes);
  SynopsisFrame frame;
  const Status status = LoadSynopsisFrame(path, &frame);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(SynopsisFrameTest, InvalidCoefficientsAreRejectedNotTrusted) {
  // A checksummed, well-formed frame whose coefficients are duplicated:
  // the loader must reject it through Synopsis::Create, not abort.
  const std::string path = TestDir("dupes") + "/frame.dwms";
  SynopsisFrame frame = TestFrame();
  ASSERT_TRUE(SaveSynopsisFrame(path, frame).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_GE(frame.synopsis.size(), 2);
  // Coefficient pairs are the last size() * 16 bytes before the trailer;
  // copy pair 0's index over pair 1's.
  const size_t pairs =
      bytes.size() - sizeof(uint64_t) -
      static_cast<size_t>(frame.synopsis.size()) * 16;
  std::memcpy(bytes.data() + pairs + 16, bytes.data() + pairs, 8);
  Reseal(&bytes);
  WriteAll(path, bytes);
  SynopsisFrame loaded;
  const Status status = LoadSynopsisFrame(path, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(SynopsisFrameTest, LegacyFallbackServesOldFiles) {
  const std::string dir = TestDir("legacy");
  const std::string path = dir + "/legacy.dwm";
  const Synopsis synopsis = TestSynopsis();
  ASSERT_TRUE(WriteSynopsis(path, synopsis).ok());
  SynopsisFrame frame;
  ASSERT_TRUE(LoadServableSynopsis(path, &frame).ok());
  EXPECT_EQ(frame.synopsis.coefficients(), synopsis.coefficients());
  EXPECT_TRUE(frame.dataset.empty());
  // And garbage that is neither format is a Status, not a crash.
  WriteAll(dir + "/junk.bin", std::vector<uint8_t>(64, 0xAB));
  EXPECT_FALSE(LoadServableSynopsis(dir + "/junk.bin", &frame).ok());
}

TEST(SubtreeCacheTest, EvictsLeastRecentlyUsedByBytes) {
  // Each 8-value block charges 64 + 64 = 128 bytes; capacity for two.
  SubtreeCache cache(256);
  const SubtreeCache::Key a{1, 0}, b{1, 8}, c{1, 16};
  ASSERT_NE(cache.Put(a, std::vector<double>(8, 1.0)), nullptr);
  ASSERT_NE(cache.Put(b, std::vector<double>(8, 2.0)), nullptr);
  EXPECT_NE(cache.Get(a), nullptr);  // promotes a over b
  ASSERT_NE(cache.Put(c, std::vector<double>(8, 3.0)), nullptr);
  EXPECT_EQ(cache.Get(b), nullptr);  // b was LRU
  EXPECT_NE(cache.Get(a), nullptr);
  EXPECT_NE(cache.Get(c), nullptr);
  const SubtreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 256u);
}

TEST(SubtreeCacheTest, OversizedBlockIsDeclinedAndInputKept) {
  SubtreeCache cache(128);
  std::vector<double> big(1024, 7.0);
  EXPECT_EQ(cache.Put({1, 0}, std::move(big)), nullptr);
  // The decline contract: the input survives for the caller's local use.
  EXPECT_EQ(big.size(), 1024u);
  EXPECT_DOUBLE_EQ(big[0], 7.0);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SubtreeCacheTest, ReplacingAKeyDoesNotLeakBytes) {
  SubtreeCache cache(1024);
  const SubtreeCache::Key k{3, 0};
  ASSERT_NE(cache.Put(k, std::vector<double>(8, 1.0)), nullptr);
  ASSERT_NE(cache.Put(k, std::vector<double>(16, 2.0)), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 64u + 16u * sizeof(double));
  EXPECT_DOUBLE_EQ((*cache.Get(k))[0], 2.0);
}

TEST(SubtreeCacheTest, MaxBytesKeepsTheLifetimeHighWaterMark) {
  SubtreeCache cache(1024);
  const SubtreeCache::Key k{3, 0};
  // 16 doubles charge 64 + 128 = 192 bytes; replacing with 8 drops the
  // occupancy to 128 but the high-water mark must keep the peak.
  ASSERT_NE(cache.Put(k, std::vector<double>(16, 1.0)), nullptr);
  EXPECT_EQ(cache.stats().max_bytes, 64u + 16u * sizeof(double));
  ASSERT_NE(cache.Put(k, std::vector<double>(8, 2.0)), nullptr);
  EXPECT_EQ(cache.stats().bytes, 64u + 8u * sizeof(double));
  EXPECT_EQ(cache.stats().max_bytes, 64u + 16u * sizeof(double));
}

TEST(ShardRegistryTest, RegisterFindAndIdBump) {
  ShardRegistry registry;
  const ShardKey key{"ds", "algo", 16};
  const uint64_t id1 = registry.Register(key, TestSynopsis(64, 1));
  const Shard* shard = registry.Find(key);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->id, id1);
  // Re-registering the same key replaces the shard under a NEW id, so
  // cache entries keyed by the old id can never serve the new version.
  const uint64_t id2 = registry.Register(key, TestSynopsis(64, 2));
  EXPECT_GT(id2, id1);
  EXPECT_EQ(registry.Find(key)->id, id2);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Find({"ds", "algo", 17}), nullptr);
}

TEST(ShardRegistryTest, RegisterFileUsesFrameProvenance) {
  const std::string dir = TestDir("registry");
  SynopsisFrame frame = TestFrame();
  ASSERT_TRUE(SaveSynopsisFrame(dir + "/f.dwms", frame).ok());
  ASSERT_TRUE(WriteSynopsis(dir + "/l.dwm", TestSynopsis()).ok());

  ShardRegistry registry;
  ASSERT_TRUE(
      registry.RegisterFile(dir + "/f.dwms", {"fb", "fb_algo", 1}).ok());
  EXPECT_NE(registry.Find({"piecewise", "test_builder", 32}), nullptr);
  // Legacy file carries no provenance; the fallback key fills in.
  ASSERT_TRUE(
      registry.RegisterFile(dir + "/l.dwm", {"fb", "fb_algo", 0}).ok());
  const std::vector<ShardKey> keys = registry.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].dataset, "fb");
  // A bad file must leave the registry unchanged.
  EXPECT_FALSE(
      registry.RegisterFile(dir + "/nope.dwms", {"x", "y", 0}).ok());
  EXPECT_EQ(registry.size(), 2u);
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : scoped_(&registry_) {}

  EngineOptions SmallCacheOptions(uint64_t bytes) {
    EngineOptions options;
    options.cache_bytes = bytes;
    options.block_leaves = 8;
    return options;
  }

  metrics::Registry registry_;
  metrics::ScopedRegistry scoped_;
};

TEST_F(QueryEngineTest, AnswersMatchSynopsisQueries) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const Synopsis synopsis = TestSynopsis(64, 11);
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, synopsis);

  std::vector<Query> queries;
  for (int64_t j = 0; j < 64; ++j) {
    queries.push_back({QueryType::kPoint, j, j});
  }
  queries.push_back({QueryType::kRangeSum, 3, 40});
  queries.push_back({QueryType::kRangeAvg, 8, 15});
  queries.push_back({QueryType::kRangeSum, 0, 63});
  std::vector<double> results;
  ASSERT_TRUE(engine.AnswerBatch(key, queries, &results).ok());
  ASSERT_EQ(results.size(), queries.size());
  for (int64_t j = 0; j < 64; ++j) {
    EXPECT_DOUBLE_EQ(results[static_cast<size_t>(j)],
                     synopsis.PointEstimate(j))
        << j;
  }
  EXPECT_DOUBLE_EQ(results[64], synopsis.RangeSum(3, 40));
  EXPECT_DOUBLE_EQ(results[65], synopsis.RangeSum(8, 15) / 8.0);
  EXPECT_DOUBLE_EQ(results[66], synopsis.RangeSum(0, 63));
}

TEST_F(QueryEngineTest, BatchingResolvesEachBlockOnce) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 12));
  // 16 point queries over exactly two 8-leaf blocks, interleaved: the
  // batch must resolve each block once (2 misses, 0 hits), and a repeat
  // batch must hit both.
  std::vector<Query> queries;
  for (int64_t j = 0; j < 8; ++j) {
    queries.push_back({QueryType::kPoint, j, j});
    queries.push_back({QueryType::kPoint, j + 8, j + 8});
  }
  std::vector<double> results;
  ASSERT_TRUE(engine.AnswerBatch(key, queries, &results).ok());
  EXPECT_EQ(engine.CacheStats().misses, 2u);
  EXPECT_EQ(engine.CacheStats().hits, 0u);
  ASSERT_TRUE(engine.AnswerBatch(key, queries, &results).ok());
  EXPECT_EQ(engine.CacheStats().misses, 2u);
  EXPECT_EQ(engine.CacheStats().hits, 2u);
  // Counters mirrored into the metrics registry.
  EXPECT_EQ(registry_
                .GetCounter("dwm_serve_cache_hits_total", "", {},
                            metrics::Stability::kStable)
                ->value(),
            2);
  EXPECT_EQ(registry_
                .GetCounter("dwm_serve_queries_total", "", {},
                            metrics::Stability::kStable)
                ->value(),
            32);
}

TEST_F(QueryEngineTest, RejectedBatchLeavesResultsAndCacheUntouched) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 13));
  std::vector<double> results = {123.0};
  // Unknown shard.
  EXPECT_EQ(engine.AnswerBatch({"no", "no", 0}, {{QueryType::kPoint, 0, 0}},
                               &results)
                .code(),
            StatusCode::kFailedPrecondition);
  // Out-of-domain point / inverted range — batch rejected wholesale even
  // though other entries are valid.
  for (const Query bad : {Query{QueryType::kPoint, 64, 64},
                          Query{QueryType::kPoint, -1, -1},
                          Query{QueryType::kRangeSum, 5, 3},
                          Query{QueryType::kRangeSum, 0, 64}}) {
    EXPECT_EQ(engine
                  .AnswerBatch(key, {{QueryType::kPoint, 1, 1}, bad},
                               &results)
                  .code(),
              StatusCode::kOutOfRange);
  }
  EXPECT_EQ(results, std::vector<double>({123.0}));
  EXPECT_EQ(engine.CacheStats().misses, 0u);
}

TEST_F(QueryEngineTest, ZeroCacheBytesStillAnswersCorrectly) {
  QueryEngine engine(SmallCacheOptions(0));
  const ShardKey key{"ds", "a", 8};
  const Synopsis synopsis = TestSynopsis(64, 14);
  engine.registry().Register(key, synopsis);
  double result = 0.0;
  ASSERT_TRUE(engine.Answer(key, {QueryType::kPoint, 9, 9}, &result).ok());
  EXPECT_DOUBLE_EQ(result, synopsis.PointEstimate(9));
  EXPECT_EQ(engine.CacheStats().entries, 0u);
}

TEST_F(QueryEngineTest, ReRegisteringAShardInvalidatesItsCachedBlocks) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 15));
  double stale = 0.0;
  ASSERT_TRUE(engine.Answer(key, {QueryType::kPoint, 0, 0}, &stale).ok());
  // Replace the shard with a different synopsis under the same key: the new
  // shard id misses the old cache entry and must answer from the new data.
  const Synopsis replacement = TestSynopsis(64, 16);
  engine.registry().Register(key, replacement);
  double fresh = 0.0;
  ASSERT_TRUE(engine.Answer(key, {QueryType::kPoint, 0, 0}, &fresh).ok());
  EXPECT_DOUBLE_EQ(fresh, replacement.PointEstimate(0));
  EXPECT_EQ(engine.CacheStats().hits, 0u);
  EXPECT_EQ(engine.CacheStats().misses, 2u);
}

TEST_F(QueryEngineTest, SlowQueryThresholdZeroLogsEveryBatch) {
  EngineOptions options = SmallCacheOptions(1 << 16);
  options.slow_query_us = 0;             // every batch crosses the threshold
  options.slow_query_log_per_second = 0.0;  // no rate limit in the test
  QueryEngine engine(options);
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 21));
  log::ScopedCapture capture;
  std::vector<double> results;
  ASSERT_TRUE(engine
                  .AnswerBatch(key,
                               {{QueryType::kPoint, 1, 1},
                                {QueryType::kPoint, 9, 9},
                                {QueryType::kRangeSum, 0, 7}},
                               &results)
                  .ok());
  const std::string& text = capture.text();
  EXPECT_NE(text.find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(text.find("\"queries\":3"), std::string::npos);
  EXPECT_NE(text.find("\"points\":2"), std::string::npos);
  EXPECT_NE(text.find("\"blocks\":\"0,8\""), std::string::npos);
  // Wall-clock-triggered, so the whole line must carry the volatile marker
  // and vanish from the stable projection.
  EXPECT_NE(text.find("\"stable\":false"), std::string::npos);
  EXPECT_EQ(log::StableProjection(text).find("slow_query"),
            std::string::npos);
}

TEST_F(QueryEngineTest, SlowQueryLogDisabledByDefault) {
  QueryEngine engine(SmallCacheOptions(1 << 16));  // slow_query_us = -1
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 22));
  log::ScopedCapture capture;
  std::vector<double> results;
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 0, 0}}, &results).ok());
  EXPECT_EQ(capture.text().find("slow_query"), std::string::npos);
}

TEST_F(QueryEngineTest, RejectionsEmitStructuredWarnings) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 23));
  log::ScopedCapture capture;
  std::vector<double> results;
  EXPECT_FALSE(engine
                   .AnswerBatch({"no", "no", 0}, {{QueryType::kPoint, 0, 0}},
                                &results)
                   .ok());
  EXPECT_FALSE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 64, 64}}, &results).ok());
  const std::string& text = capture.text();
  EXPECT_NE(text.find("\"reason\":\"unknown_shard\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"out_of_range\""), std::string::npos);
}

TEST_F(QueryEngineTest, CountsQueriesByTypeAndRequests) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 24));
  std::vector<double> results;
  ASSERT_TRUE(engine
                  .AnswerBatch(key,
                               {{QueryType::kPoint, 0, 0},
                                {QueryType::kPoint, 1, 1},
                                {QueryType::kRangeSum, 0, 7},
                                {QueryType::kRangeAvg, 0, 3}},
                               &results)
                  .ok());
  // A rejected batch consumes a request id but tallies no queries.
  EXPECT_FALSE(engine
                   .AnswerBatch({"no", "no", 0}, {{QueryType::kPoint, 0, 0}},
                                &results)
                   .ok());
  const QueryEngine::TypeCounts counts = engine.QueryCounts();
  EXPECT_EQ(counts.points, 2);
  EXPECT_EQ(counts.range_sums, 1);
  EXPECT_EQ(counts.range_avgs, 1);
  EXPECT_EQ(engine.Requests(), 2u);
  EXPECT_EQ(registry_
                .GetCounter("dwm_serve_queries_by_type_total", "",
                            {{"type", "point"}}, metrics::Stability::kStable)
                ->value(),
            2);
  EXPECT_EQ(registry_
                .GetCounter("dwm_serve_queries_by_type_total", "",
                            {{"type", "range_avg"}},
                            metrics::Stability::kStable)
                ->value(),
            1);
}

TEST_F(QueryEngineTest, AchievedErrorGaugeKeepsTheMaxNextToTheBound) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 25), 10.0);
  engine.ObserveAchievedError(key, 2.5);
  engine.ObserveAchievedError(key, 1.0);            // below the max: kept out
  engine.ObserveAchievedError(key, std::nan(""));   // ignored
  engine.ObserveAchievedError({"no", "no", 0}, 99.0);  // unknown key: ignored
  const metrics::Labels labels = {
      {"dataset", "ds"}, {"algo", "a"}, {"budget", "8"}};
  EXPECT_DOUBLE_EQ(registry_
                       .GetGauge("dwm_serve_achieved_error", "", labels,
                                 metrics::Stability::kStable)
                       ->value(),
                   2.5);
  EXPECT_DOUBLE_EQ(registry_
                       .GetGauge("dwm_serve_error_bound", "", labels,
                                 metrics::Stability::kStable)
                       ->value(),
                   10.0);
}

TEST_F(QueryEngineTest, BlockLeavesEnvOverrideParsesStrictly) {
  ASSERT_EQ(setenv("DWM_SERVE_BLOCK_LEAVES", "64", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().block_leaves, 64);
  log::ScopedCapture capture;
  // Not a power of two: keep the default and warn once per process (the
  // later malformed value exercises the warn-once path silently).
  ASSERT_EQ(setenv("DWM_SERVE_BLOCK_LEAVES", "48", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().block_leaves, 256);
  ASSERT_EQ(setenv("DWM_SERVE_BLOCK_LEAVES", "64kb", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().block_leaves, 256);
  ASSERT_EQ(unsetenv("DWM_SERVE_BLOCK_LEAVES"), 0);
  EXPECT_EQ(EngineOptions::FromEnv().block_leaves, 256);
  const std::string& text = capture.text();
  EXPECT_NE(text.find("\"event\":\"env_parse_error\""), std::string::npos);
  EXPECT_NE(text.find("DWM_SERVE_BLOCK_LEAVES"), std::string::npos);
}

TEST_F(QueryEngineTest, SlowQueryEnvOverrideParsesStrictly) {
  ASSERT_EQ(setenv("DWM_SLOW_QUERY_US", "250", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, 250);
  ASSERT_EQ(setenv("DWM_SLOW_QUERY_US", "0", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, 0);
  ASSERT_EQ(setenv("DWM_SLOW_QUERY_US", "-5", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, -1);  // default: disabled
  ASSERT_EQ(unsetenv("DWM_SLOW_QUERY_US"), 0);
  EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, -1);
}

TEST_F(QueryEngineTest, CacheBytesEnvOverrideParsesStrictly) {
  const uint64_t fallback = EngineOptions().cache_bytes;
  ASSERT_EQ(setenv("DWM_SERVE_CACHE_BYTES", "4096", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().cache_bytes, 4096u);
  ASSERT_EQ(setenv("DWM_SERVE_CACHE_BYTES", "0", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().cache_bytes, 0u);
  // "-1" must not wrap to 2^64 - 1 (an unbounded cache); '+' and a leading
  // space are not base-10 digits. Each keeps the default.
  for (const char* bad : {"-1", "+4096", " 4096", "4096 ", "16MiB"}) {
    ASSERT_EQ(setenv("DWM_SERVE_CACHE_BYTES", bad, 1), 0);
    EXPECT_EQ(EngineOptions::FromEnv().cache_bytes, fallback)
        << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv("DWM_SERVE_CACHE_BYTES"), 0);
  EXPECT_EQ(EngineOptions::FromEnv().cache_bytes, fallback);
}

TEST_F(QueryEngineTest, TracerRecordsOneSpanTreePerRequest) {
  QueryEngine engine(SmallCacheOptions(1 << 16));
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 26));
  engine.tracer().Enable();
  std::vector<double> results;
  ASSERT_TRUE(engine
                  .AnswerBatch(key,
                               {{QueryType::kPoint, 0, 0},
                                {QueryType::kRangeSum, 0, 7}},
                               &results)
                  .ok());
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 1, 1}}, &results).ok());
  engine.tracer().Disable();
  // Disabled collector: no further requests recorded.
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 2, 2}}, &results).ok());
  EXPECT_EQ(engine.tracer().size(), 2u);
  const mr::Trace trace = engine.tracer().Snapshot();
  int roots = 0;
  int reconstructs = 0;
  for (const mr::TraceSpan& span : trace.spans) {
    EXPECT_EQ(span.kind, mr::SpanKind::kServe);
    if (span.args_json.find("\"queries\"") != std::string::npos) ++roots;
    if (span.name.find("/reconstruct@") != std::string::npos) ++reconstructs;
  }
  EXPECT_EQ(roots, 2);
  EXPECT_EQ(reconstructs, 1);  // block 0 misses once, then hits
}

}  // namespace
}  // namespace dwm::serve
