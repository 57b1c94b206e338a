// perfbench: the repository benchmark. One process links the dwmaxerr
// libraries, calls their public functions on a named workload, times each
// call from outside, checks every output, and prints one JSON result line
// on stdout (everything else goes to stderr).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call (plus the SimReport jobs and the engine's request trees),
// writes them to <dir>/trace-<workload>-seed<n>.json at exit, and prints
// the per-layer metrics. perfbench/README.md maps each metric to its layer
// and to the end-to-end metric it should move.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_core.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/greedy_abs.h"
#include "data/generators.h"
#include "dist/dgreedy.h"
#include "dist/dindirect_haar.h"
#include "mr/cluster.h"
#include "mr/faults.h"
#include "mr/trace.h"
#include "serve/engine.h"
#include "serve/format.h"
#include "wavelet/metrics.h"
#include "wavelet/synopsis.h"

extern char** environ;

namespace {

using perfbench::Median;
using perfbench::Metric;
using perfbench::Tally;

enum class Kind { kDGreedy, kDih, kServe };

struct Workload {
  const char* name;
  Kind kind;
  int log2_n;
  // Serve query mix: 85% of point queries on a hot 1/16 of the domain
  // (serve_bench's mix) when set, uniform points otherwise.
  bool hot_points;
  // Batches answered before timing starts (fills the subtree cache), and
  // the fixed batch count whose cache hits and evictions are reported (a
  // fixed count, so the ratio repeats exactly for a seed).
  int64_t warmup_batches;
  int64_t counted_batches;
  // Set-ups per run; setup_s is their median. A build workload's set-up
  // takes tens of milliseconds, so it repeats more to steady the median.
  int setup_repeats;
  const char* why;
};

// Every workload builds a synopsis and then serves it, so every end-to-end
// metric exists on every workload; each stresses a different layer.
constexpr Workload kWorkloads[] = {
    {"dgreedy_nyct", Kind::kDGreedy, 18, true, 1024, 4096, 15,
     "DGreedyAbs, NYCT-like, N=2^18, L=4096: shuffle- and reduce-bound "
     "(the histogram job holds nearly all the wall time); the DP kernel "
     "does not run"},
    {"dih_wd", Kind::kDih, 17, true, 1024, 4096, 15,
     "DIndirectHaar, WD-like, N=2^17: the paper's Problem-1 algorithm, "
     "bound by the MinHaarSpace DP in map closures and by per-job cost; "
     "the shuffle is nearly idle"},
    {"serve_hot", Kind::kServe, 20, true, 2048, 4096, 3,
     "serve GreedyAbs zipf(0.7), N=2^20: the working set fits the default "
     "cache, so nearly every lookup hits; measures the hit path and engine "
     "overhead"},
    {"serve_cold", Kind::kServe, 22, false, 256, 256, 3,
     "serve GreedyAbs zipf(0.7), N=2^22, uniform points: the working set is "
     "about twice the default cache, so about half the lookups miss and "
     "rebuild a block; measures the miss path"},
};

// Engine worker threads of every build (see PaperCluster).
constexpr int kWorkerThreads = 4;
// Timed builds a build workload makes even when one outlasts the run's
// time, so build_wall_s is never a single sample.
constexpr size_t kMinTimedBuilds = 2;
constexpr int64_t kBatchSize = 64;
// Serve batches answered after each build of a build workload: first some
// untimed ones, so the build's aftermath (cold CPU caches, memory being
// returned) stays out of the serve latencies, then the timed ones.
constexpr int64_t kSettleBatches = 1024;
constexpr int64_t kBuildServeBatches = 32768;
// Tail latency percentile and the samples it must leave above it.
constexpr double kTailQuantile = 0.99;
constexpr int64_t kMinBeyond = 10;
// The tail is taken per window of this many consecutive timed batches and
// reported as the median over windows (one window when a run has fewer).
constexpr size_t kTailWindowBatches = 4096;
// Request trees written to the trace file (all are used for self times).
constexpr size_t kMaxWrittenRequests = 1000;
// Wrong answers printed on stderr per serve phase.
constexpr int64_t kMaxReportedFailures = 5;
// Blocks timed for wavelet.block_reconstruct_us.
constexpr int kReconstructSamples = 256;

// Fixed cluster model: the paper figures' cluster (40 map / 16 reduce
// slots, compute_scale 2) with a fixed thread count, no faults, no
// quarantine and no checkpoints, whatever the environment says.
dwm::mr::ClusterConfig PaperCluster() {
  dwm::mr::ClusterConfig config;
  config.map_slots = 40;
  config.reduce_slots = 16;
  config.task_startup_seconds = 1.0;
  config.job_overhead_seconds = 6.0;
  config.network_bytes_per_second = 100.0e6;
  config.storage_bytes_per_second = 400.0e6;
  config.compute_scale = 2.0;
  config.worker_threads = kWorkerThreads;
  config.max_task_attempts = 4;
  config.max_job_attempts = 1;
  config.max_skipped_bad_records = 0;
  config.faults = dwm::mr::FaultPlan::Disabled();
  return config;
}

// Pinned (checksum, max_abs_error) of the synopsis each build workload
// builds, for seeds 0-20; every run prints its own as a `pin:` line on
// stderr, in this format. A run whose seed has no pin here is checked by
// the invariants and the run-to-run agreement only.
struct Pin {
  const char* workload;
  uint64_t seed;
  uint64_t checksum;
  double max_abs_error;
};
constexpr Pin kPins[] = {
    {"dgreedy_nyct", 0, 0x2b898759d766addeULL, 0x1.db7455560ab95p+10},
    {"dgreedy_nyct", 1, 0xa76489e37cd6bcfdULL, 0x1.e1c20f9a04c24p+10},
    {"dgreedy_nyct", 2, 0x8c57f906d86ef679ULL, 0x1.dfe8c365a5b98p+10},
    {"dgreedy_nyct", 3, 0x874d3e95bdfbdc3aULL, 0x1.dc2588998e621p+10},
    {"dgreedy_nyct", 4, 0xab2bdc92291f0500ULL, 0x1.dd8ae5350eedap+10},
    {"dgreedy_nyct", 5, 0x0a17f9e35e032b3dULL, 0x1.e31678bc2f01p+10},
    {"dgreedy_nyct", 6, 0xaf56bedbefcf54a1ULL, 0x1.dd01edf24bba1p+10},
    {"dgreedy_nyct", 7, 0x89723f43fada25beULL, 0x1.da2c5162e19cp+10},
    {"dgreedy_nyct", 8, 0x0fc23ac73f815c77ULL, 0x1.dcddc9e53d3d9p+10},
    {"dgreedy_nyct", 9, 0xc31f643d88859e2aULL, 0x1.e19bdf43e814cp+10},
    {"dgreedy_nyct", 10, 0xde2666a88b544a9bULL, 0x1.da00656c50d5ap+10},
    {"dgreedy_nyct", 11, 0x74f1ef377b0fd4b6ULL, 0x1.dcbf84b5d6a15p+10},
    {"dgreedy_nyct", 12, 0x9980f605fddfccabULL, 0x1.db50f3d711b17p+10},
    {"dgreedy_nyct", 13, 0x1b3c36a4e255461bULL, 0x1.dd7a03cf2c395p+10},
    {"dgreedy_nyct", 14, 0x437a599623525613ULL, 0x1.dc9a41fe4f63bp+10},
    {"dgreedy_nyct", 15, 0xaf6a2577eb317b2fULL, 0x1.d8ce85f323fa4p+10},
    {"dgreedy_nyct", 16, 0xab7dbdfc8d9a0df1ULL, 0x1.e54fae2ce403dp+10},
    {"dgreedy_nyct", 17, 0xe9fd737e28d7cf60ULL, 0x1.e28125496f004p+10},
    {"dgreedy_nyct", 18, 0xd0bd0e2841b54cdaULL, 0x1.df1b5890ca4f9p+10},
    {"dgreedy_nyct", 19, 0x59dae31f43adf487ULL, 0x1.dccd861cdd644p+10},
    {"dgreedy_nyct", 20, 0x4cba438b7c1038d3ULL, 0x1.d7dcc5189bd4dp+10},
    {"dih_wd", 0, 0x718a8cdb0fd9815fULL, 0x1.278a39e6da584p+5},
    {"dih_wd", 1, 0xb9d83ba472c6740cULL, 0x1.26989c305503p+5},
    {"dih_wd", 2, 0xc75e33c8d5c78206ULL, 0x1.2e67124659c1cp+5},
    {"dih_wd", 3, 0x0aef01daba902be6ULL, 0x1.2abb88102e54p+5},
    {"dih_wd", 4, 0x16f101fd0f942473ULL, 0x1.2e20bcced425cp+5},
    {"dih_wd", 5, 0x0a63baac138f077cULL, 0x1.2643a2473e2bp+5},
    {"dih_wd", 6, 0x1100da497210f166ULL, 0x1.1a9e9ac0fda44p+5},
    {"dih_wd", 7, 0x28a56875927b689cULL, 0x1.14ad23cc8badap+5},
    {"dih_wd", 8, 0x8e7a7079304c900fULL, 0x1.1e85f08599e31p+5},
    {"dih_wd", 9, 0xaa0c56ab22ec1114ULL, 0x1.1709fc26d0438p+5},
    {"dih_wd", 10, 0x9fccf4a37f8b2c40ULL, 0x1.13010b1942178p+5},
    {"dih_wd", 11, 0x4083c9efcb1277e5ULL, 0x1.1d78fc127f65cp+5},
    {"dih_wd", 12, 0xf0d901d0c3ceb627ULL, 0x1.1ecbc3c7b0e88p+5},
    {"dih_wd", 13, 0xbf0bac29799280aaULL, 0x1.22062215cc6bcp+5},
    {"dih_wd", 14, 0x6cc82b7ed78bef9cULL, 0x1.1c6c5374d3ec8p+5},
    {"dih_wd", 15, 0x2da889d8e50a4bc0ULL, 0x1.1f27d94f2d8ep+5},
    {"dih_wd", 16, 0x79e6a5a5e764f6bcULL, 0x1.18aac1fa7ef9p+5},
    {"dih_wd", 17, 0x9778c492877ab5a1ULL, 0x1.22464e9299b33p+5},
    {"dih_wd", 18, 0x6e3dfe007f669e6eULL, 0x1.219330b329fdp+5},
    {"dih_wd", 19, 0xc0b9d839a2c1bd97ULL, 0x1.296ec237cfebp+5},
    {"dih_wd", 20, 0x97539fc646361f08ULL, 0x1.14e221ac4cee8p+5},
};

// ---------------------------------------------------------------------------
// Process measures.

double ProcessCpuSeconds() {
  std::timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t SynopsisChecksum(const dwm::Synopsis& synopsis) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(synopsis.domain_size()));
  for (const dwm::Coefficient& c : synopsis.coefficients()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &c.value, sizeof(bits));
    mix(static_cast<uint64_t>(c.index));
    mix(bits);
  }
  return h;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

// ---------------------------------------------------------------------------
// In-memory spans of the traced run, written to a file at exit.

class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {}
  bool on() const { return on_; }

  double Now() const { return clock_.ElapsedSeconds(); }

  int64_t Add(std::string name, int64_t parent, double start, double end,
              std::string args = "") {
    if (!on_) return -1;
    spans_.push_back({std::move(name), parent, start, end});
    args_.push_back(std::move(args));
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  // Opens a span now; Close sets its end.
  int64_t Open(std::string name, int64_t parent = -1) {
    return Add(std::move(name), parent, Now(), Now());
  }
  void Close(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_seconds = Now();
  }

  bool Write(const std::string& path, const std::string& workload,
             uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"spans\": [\n", workload.c_str(), seed);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const perfbench::Span& s = spans_[i];
      std::string name;
      dwm::log::AppendJsonEscaped(&name, s.name);
      std::fprintf(f,
                   "%s{\"id\": %zu, \"parent\": %" PRId64
                   ", \"name\": \"%s\", \"start_us\": %s, \"dur_us\": %s%s%s}",
                   i == 0 ? "" : ",\n", i, s.parent, name.c_str(),
                   perfbench::JsonNumber(s.start_seconds * 1e6).c_str(),
                   perfbench::JsonNumber((s.end_seconds - s.start_seconds) * 1e6)
                       .c_str(),
                   args_[i].empty() ? "" : ", \"args\": {",
                   args_[i].empty() ? "" : (args_[i] + "}").c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  dwm::Stopwatch clock_;
  std::vector<perfbench::Span> spans_;
  std::vector<std::string> args_;
};

// ---------------------------------------------------------------------------
// Inputs.

std::vector<double> MakeData(const Workload& w, uint64_t seed) {
  const int64_t n = int64_t{1} << w.log2_n;
  switch (w.kind) {
    case Kind::kDGreedy:
      return dwm::MakeNyctLike(n, seed);
    case Kind::kDih:
      return dwm::MakeWdLike(n, seed);
    case Kind::kServe:
      return dwm::MakeZipf(n, 0.7, 1000, seed);
  }
  return {};
}

// serve_bench's query mix: 85% point queries, the rest split evenly
// between range-sum and range-avg over uniform endpoints.
class QueryStream {
 public:
  QueryStream(int64_t n, bool hot_points, uint64_t seed)
      : n_(n), hot_span_(hot_points ? std::max<int64_t>(n / 16, 1) : 0),
        rng_(seed ^ 0x5eed5eed5eed5eedULL) {}

  void NextBatch(std::vector<dwm::serve::Query>* batch) {
    batch->resize(static_cast<size_t>(kBatchSize));
    for (dwm::serve::Query& q : *batch) {
      const double roll = rng_.NextDouble();
      if (roll < 0.85) {
        const bool hot = hot_span_ > 0 && rng_.NextDouble() < 0.85;
        q.type = dwm::serve::QueryType::kPoint;
        q.lo = Uniform(hot ? hot_span_ : n_);
        q.hi = q.lo;
      } else {
        q.type = roll < 0.925 ? dwm::serve::QueryType::kRangeSum
                              : dwm::serve::QueryType::kRangeAvg;
        const int64_t a = Uniform(n_);
        const int64_t b = Uniform(n_);
        q.lo = std::min(a, b);
        q.hi = std::max(a, b);
      }
    }
  }

 private:
  int64_t Uniform(int64_t span) {
    return static_cast<int64_t>(rng_.NextBounded(static_cast<uint64_t>(span)));
  }

  int64_t n_;
  int64_t hot_span_;
  dwm::Rng rng_;
};

// ---------------------------------------------------------------------------
// Builds.

// Measured thread-CPU of a job's committed map and reduce attempts (the
// closures; framework work around them is not in it).
struct ClosureCpu {
  double map = 0.0;
  double reduce = 0.0;
  std::vector<double> map_tasks;
};

ClosureCpu JobClosureCpu(const dwm::mr::JobStats& job) {
  ClosureCpu cpu;
  for (const dwm::mr::TaskExecution& t : job.map_attempts) {
    if (t.attempts.empty()) continue;
    cpu.map += t.attempts.back().cpu_seconds;
    cpu.map_tasks.push_back(t.attempts.back().cpu_seconds);
  }
  for (const dwm::mr::TaskExecution& t : job.reduce_attempts) {
    if (!t.attempts.empty()) cpu.reduce += t.attempts.back().cpu_seconds;
  }
  return cpu;
}

struct BuildRun {
  bool ok = false;
  std::string error;
  dwm::Synopsis synopsis;
  double max_abs_error = 0.0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double sim_seconds = 0.0;
  dwm::mr::SimReport report;  // empty for the centralized build
  int64_t dih_probes = 0;
  int64_t frontier_points = 0;
  double trace_seconds = 0.0;  // recording this build's spans (traced runs)
};

// One timed build call plus its checks. The metrics registry is scoped to
// the call so the driver's counters and gauges read per build.
BuildRun RunBuild(const Workload& w, const std::vector<double>& data,
                  Recorder* rec, int64_t parent) {
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t budget = n / 64;
  const dwm::mr::ClusterConfig cluster = PaperCluster();
  dwm::metrics::Registry registry;
  const dwm::metrics::ScopedRegistry scoped(&registry);
  BuildRun out;
  double bound = 0.0;  // the builder's own error claim, checked below
  const double span_start = rec->Now();
  const double cpu_start = ProcessCpuSeconds();
  const dwm::Stopwatch wall;
  auto stop_clocks = [&] {
    out.wall_seconds = wall.ElapsedSeconds();
    out.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  };
  const char* call = "";
  switch (w.kind) {
    case Kind::kDGreedy: {
      call = "DGreedyAbs";
      dwm::DGreedyOptions options;
      options.budget = budget;
      options.base_leaves = 4096;
      options.level2_workers = 4;
      dwm::DGreedyResult r = dwm::DGreedyAbs(data, options, cluster);
      stop_clocks();
      out.ok = r.status.ok();
      if (!out.ok) out.error = r.status.ToString();
      bound = r.estimated_error;
      out.synopsis = std::move(r.synopsis);
      out.report = std::move(r.report);
      break;
    }
    case Kind::kDih: {
      call = "DIndirectHaar";
      dwm::DIndirectHaarOptions options;
      options.budget = budget;
      options.quantum = 0.5;
      options.subtree_inputs = 256;
      dwm::DIndirectHaarResult r = dwm::DIndirectHaar(data, options, cluster);
      stop_clocks();
      out.ok = r.status.ok() && r.search.converged;
      if (!r.status.ok()) out.error = r.status.ToString();
      if (r.status.ok() && !r.search.converged) out.error = "did not converge";
      bound = r.search.max_abs_error;
      out.synopsis = std::move(r.search.synopsis);
      out.report = std::move(r.report);
      break;
    }
    case Kind::kServe: {
      call = "GreedyAbs";
      dwm::GreedyAbsResult r = dwm::GreedyAbs(data, budget);
      stop_clocks();
      out.ok = true;
      bound = r.max_abs_error;
      out.synopsis = std::move(r.synopsis);
      break;
    }
  }
  if (w.kind == Kind::kServe) {
    // A centralized build has no SimReport; the figure harnesses model its
    // time as its CPU time times the cluster's compute_scale.
    out.sim_seconds = out.cpu_seconds * cluster.compute_scale;
  } else {
    out.sim_seconds = out.report.total_sim_seconds();
    out.dih_probes =
        registry
            .GetCounter("dwm_dih_probes_total", "", {{"algo", "dindirect_haar"}})
            ->value();
    out.frontier_points = static_cast<int64_t>(
        registry
            .GetGauge("dwm_dgreedy_frontier_points", "",
                      {{"algo", "dgreedy_abs"}})
            ->value());
  }
  const dwm::Stopwatch trace_clock;
  const int64_t call_span = rec->Add(call, parent, span_start, rec->Now());
  if (rec->on()) {
    // SimReport jobs and driver spans as children, laid end to end in the
    // order they ran (the report keeps durations, not start times).
    double cursor = span_start;
    size_t next_driver = 0;
    const auto& drivers = out.report.driver_spans;
    auto add_drivers_before = [&](int64_t job) {
      while (next_driver < drivers.size() &&
             drivers[next_driver].after_job <= job) {
        const dwm::mr::DriverSpan& d = drivers[next_driver++];
        rec->Add("driver/" + d.name, call_span, cursor, cursor + d.seconds);
        cursor += d.seconds;
      }
    };
    for (size_t j = 0; j < out.report.jobs.size(); ++j) {
      add_drivers_before(static_cast<int64_t>(j));
      const dwm::mr::JobStats& job = out.report.jobs[j];
      const ClosureCpu cpu = JobClosureCpu(job);
      const std::string args =
          "\"real_seconds\": " + perfbench::JsonNumber(job.real_seconds) +
          ", \"map_cpu_seconds\": " + perfbench::JsonNumber(cpu.map) +
          ", \"reduce_cpu_seconds\": " + perfbench::JsonNumber(cpu.reduce) +
          ", \"shuffle_bytes\": " + std::to_string(job.shuffle_bytes);
      rec->Add("job/" + job.name, call_span, cursor, cursor + job.real_seconds,
               args);
      cursor += job.real_seconds;
    }
    add_drivers_before(static_cast<int64_t>(out.report.jobs.size()));
    out.trace_seconds = trace_clock.ElapsedSeconds();
  }

  if (!out.ok) return out;
  const int64_t check_span = rec->Open("MaxAbsError", parent);
  out.max_abs_error = dwm::MaxAbsError(data, out.synopsis);
  rec->Close(check_span);
  // Invariants that hold for any seed: the budget is respected, and the
  // builder's error claim matches the synopsis (DGreedyAbs reports a
  // bucket floor, at or below the exact error).
  const bool within_budget = out.synopsis.size() <= budget;
  const bool claim_ok = w.kind == Kind::kDGreedy
                            ? bound <= out.max_abs_error * (1.0 + 1e-12)
                            : NearlyEqual(out.max_abs_error, bound);
  if (!within_budget || !claim_ok) {
    out.ok = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "check failed: %lld coefficients (budget %lld), error %.17g "
                  "vs builder claim %.17g",
                  static_cast<long long>(out.synopsis.size()),
                  static_cast<long long>(budget), out.max_abs_error, bound);
    out.error = buf;
  }
  return out;
}

// What every build of one run must reproduce.
struct BuildIdentity {
  uint64_t checksum = 0;
  double max_abs_error = 0.0;
};

// Checks a build against the pin for (workload, seed), when there is one,
// and against the run's first build (*first, set by that first call).
bool CheckPinned(const Workload& w, uint64_t seed, const BuildRun& run,
                 std::optional<BuildIdentity>* first) {
  const BuildIdentity id{SynopsisChecksum(run.synopsis), run.max_abs_error};
  if (!first->has_value()) *first = id;
  if (id.checksum != (*first)->checksum ||
      id.max_abs_error != (*first)->max_abs_error) {
    std::fprintf(stderr, "perfbench: build differs from the run's first\n");
    return false;
  }
  for (const Pin& pin : kPins) {
    if (std::string_view(pin.workload) == w.name && pin.seed == seed) {
      if (pin.checksum == id.checksum && pin.max_abs_error == id.max_abs_error) {
        return true;
      }
      std::fprintf(stderr,
                   "perfbench: pin mismatch: checksum 0x%016" PRIx64
                   " (pinned 0x%016" PRIx64 "), max_abs_error %a (pinned %a)\n",
                   id.checksum, pin.checksum, id.max_abs_error,
                   pin.max_abs_error);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Serving.

struct ServeSetup {
  double seconds = 0.0;  // wall time of this whole set-up
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  double register_seconds = 0.0;
  int64_t frame_bytes = 0;
  double rss_before_warmup_mb = 0.0;
};

struct ServeState {
  std::unique_ptr<dwm::serve::QueryEngine> engine;
  dwm::serve::ShardKey key;
  const dwm::Synopsis* synopsis = nullptr;  // owned by the engine's registry
  double error_bound = 0.0;
  std::unique_ptr<QueryStream> stream;
};

struct ServePhase {
  int64_t batches = 0;
  int64_t queries = 0;
  int64_t points = 0;
  int64_t ranges = 0;
  std::vector<double> batch_seconds;
  std::vector<int64_t> batch_spans;  // the client's AnswerBatch spans
  double engine_seconds = 0.0;
  double direct_point_seconds = 0.0;
  double direct_range_seconds = 0.0;
  dwm::serve::SubtreeCache::Stats counted_start{};  // at the first batch
  int64_t counted_hits = 0;
  int64_t counted_misses = 0;
  int64_t counted_evictions = 0;
  int64_t reported_failures = 0;  // wrong answers printed on stderr
};

// Frame save, load and registration of `synopsis`, then a warm-up pass.
// Everything is timed into *setup and checked into *tally.
bool SetUpServing(const Workload& w, uint64_t seed, const std::string& frame_path,
                  const dwm::Synopsis& synopsis, double error_bound,
                  ServeState* state, ServeSetup* setup, Tally* tally,
                  Recorder* rec) {
  const int64_t n = synopsis.domain_size();
  dwm::serve::SynopsisFrame frame;
  frame.dataset = w.name;
  frame.algo = w.kind == Kind::kDGreedy ? "dgreedy_abs"
               : w.kind == Kind::kDih   ? "dih"
                                        : "greedy_abs";
  frame.budget = n / 64;
  frame.synopsis = synopsis;

  const int64_t save_span = rec->Open("SaveSynopsisFrame");
  dwm::Stopwatch clock;
  dwm::Status status = dwm::serve::SaveSynopsisFrame(frame_path, frame);
  setup->save_seconds = clock.ElapsedSeconds();
  rec->Close(save_span);
  std::error_code ec;
  setup->frame_bytes =
      static_cast<int64_t>(std::filesystem::file_size(frame_path, ec));
  tally->Record(status.ok());
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return false;
  }

  const int64_t load_span = rec->Open("LoadSynopsisFrame");
  clock.Restart();
  dwm::serve::SynopsisFrame loaded;
  status = dwm::serve::LoadSynopsisFrame(frame_path, &loaded);
  setup->load_seconds = clock.ElapsedSeconds();
  rec->Close(load_span);
  const bool same = status.ok() && loaded.synopsis.coefficients() ==
                                       synopsis.coefficients() &&
                    loaded.synopsis.domain_size() == n;
  tally->Record(same);
  if (!same) {
    std::fprintf(stderr, "perfbench: frame round trip failed: %s\n",
                 status.ToString().c_str());
    return false;
  }

  // Library defaults, not EngineOptions::FromEnv().
  state->engine = std::make_unique<dwm::serve::QueryEngine>(
      dwm::serve::EngineOptions{});
  state->key = {loaded.dataset, loaded.algo, loaded.budget};
  state->error_bound = error_bound;
  const int64_t register_span = rec->Open("ShardRegistry::Register");
  clock.Restart();
  state->engine->registry().Register(state->key, std::move(loaded.synopsis),
                                     error_bound);
  setup->register_seconds = clock.ElapsedSeconds();
  rec->Close(register_span);
  state->synopsis = &state->engine->registry().Find(state->key)->synopsis;
  state->stream = std::make_unique<QueryStream>(n, w.hot_points, seed);

  setup->rss_before_warmup_mb = CurrentRssMb();
  const int64_t warmup_span = rec->Open("warm-up");
  std::vector<dwm::serve::Query> batch;
  std::vector<double> results;
  for (int64_t b = 0; b < w.warmup_batches; ++b) {
    state->stream->NextBatch(&batch);
    status = state->engine->AnswerBatch(state->key, batch, &results);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      tally->Record(false);
      return false;
    }
  }
  rec->Close(warmup_span);
  return true;
}

// Answers batches from the stream until this call answered `min_batches`
// and `seconds` passed, timing each AnswerBatch call into *out (which
// accumulates over calls). Every answer is checked against the direct
// Synopsis evaluation (timed separately) and every point answer against
// the builder's bound. A range answer must be the same double as RangeSum,
// which the engine calls too; a point answer may differ from PointEstimate
// by rounding only, because the engine reads it off a reconstructed block
// (ReconstructRange), which sums the same coefficients in another order.
// Cache hits, misses and evictions are counted over the phase's first
// `counted_batches`.
void RunServePhase(ServeState* state, const std::vector<double>& data,
                   int64_t min_batches, double seconds, int64_t counted_batches,
                   Recorder* rec, ServePhase* out, Tally* tally) {
  dwm::serve::QueryEngine& engine = *state->engine;
  const dwm::Synopsis& synopsis = *state->synopsis;
  const double tolerance = state->error_bound * (1.0 + 1e-9) + 1e-9;
  if (out->batches == 0) out->counted_start = engine.CacheStats();
  const dwm::serve::SubtreeCache::Stats& start = out->counted_start;
  std::vector<dwm::serve::Query> batch;
  std::vector<double> results;
  std::vector<double> expected;
  std::vector<char> exact;
  std::vector<char> within_bound;
  const dwm::Stopwatch phase_clock;
  for (int64_t answered = 0;
       answered < min_batches || phase_clock.ElapsedSeconds() < seconds;
       ++answered) {
    state->stream->NextBatch(&batch);
    const int64_t span = rec->Open("AnswerBatch");
    const dwm::Stopwatch turn;
    const dwm::Status status = engine.AnswerBatch(state->key, batch, &results);
    const double turn_seconds = turn.ElapsedSeconds();
    rec->Close(span);
    if (span >= 0) out->batch_spans.push_back(span);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      results.clear();
    }
    out->batch_seconds.push_back(turn_seconds);
    out->engine_seconds += turn_seconds;
    ++out->batches;
    out->queries += static_cast<int64_t>(batch.size());
    if (out->batches == counted_batches) {
      const dwm::serve::SubtreeCache::Stats now = engine.CacheStats();
      out->counted_hits = static_cast<int64_t>(now.hits - start.hits);
      out->counted_misses = static_cast<int64_t>(now.misses - start.misses);
      out->counted_evictions =
          static_cast<int64_t>(now.evictions - start.evictions);
    }

    // Direct evaluation: points, then ranges, each pass timed as a block.
    expected.assign(batch.size(), 0.0);
    exact.assign(batch.size(), 1);
    within_bound.assign(batch.size(), 1);
    const dwm::Stopwatch points_clock;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].type == dwm::serve::QueryType::kPoint) {
        expected[i] = synopsis.PointEstimate(batch[i].lo);
      }
    }
    out->direct_point_seconds += points_clock.ElapsedSeconds();
    const dwm::Stopwatch ranges_clock;
    for (size_t i = 0; i < batch.size(); ++i) {
      const dwm::serve::Query& q = batch[i];
      if (q.type == dwm::serve::QueryType::kRangeSum) {
        expected[i] = synopsis.RangeSum(q.lo, q.hi);
      } else if (q.type == dwm::serve::QueryType::kRangeAvg) {
        expected[i] =
            synopsis.RangeSum(q.lo, q.hi) / static_cast<double>(q.hi - q.lo + 1);
      }
    }
    out->direct_range_seconds += ranges_clock.ElapsedSeconds();
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].type == dwm::serve::QueryType::kPoint) {
        ++out->points;
        exact[i] = 0;
        if (i < results.size()) {
          const double deviation =
              std::fabs(results[i] - data[static_cast<size_t>(batch[i].lo)]);
          within_bound[i] = deviation <= tolerance ? 1 : 0;
        }
      } else {
        ++out->ranges;
      }
    }
    int64_t first_failed = -1;
    perfbench::CheckAnswers(results, expected, exact, within_bound, tally,
                            &first_failed);
    if (first_failed >= 0 && out->reported_failures < kMaxReportedFailures) {
      ++out->reported_failures;
      const size_t i = static_cast<size_t>(first_failed);
      std::fprintf(stderr,
                   "perfbench: wrong answer: query type %d [%lld, %lld]: "
                   "engine %.17g, direct %.17g, source %.17g, bound %.17g\n",
                   static_cast<int>(batch[i].type),
                   static_cast<long long>(batch[i].lo),
                   static_cast<long long>(batch[i].hi),
                   i < results.size() ? results[i] : std::nan(""), expected[i],
                   data[static_cast<size_t>(batch[i].lo)], tolerance);
    }
  }
}

// Per-layer self time of the engine's request trees (lookup, validate,
// ranges, points, reconstruct), summed over requests. Each request's spans
// come from tracer().Snapshot() as "req<id>", "req<id>/<phase>" and
// "req<id>/reconstruct@<block>"; a child's parent is the smallest span of
// its request that contains it.
struct EngineLayers {
  double lookup = 0.0;
  double validate = 0.0;
  double ranges = 0.0;
  double points = 0.0;
  double reconstruct = 0.0;
};

EngineLayers EngineSelfTimes(const dwm::mr::Trace& trace,
                             const std::vector<int64_t>& batch_spans,
                             Recorder* rec) {
  EngineLayers layers;
  size_t request = 0;
  size_t i = 0;
  while (i < trace.spans.size()) {
    size_t end = i + 1;
    while (end < trace.spans.size() &&
           trace.spans[end].name.find('/') != std::string::npos) {
      ++end;
    }
    std::vector<perfbench::Span> spans;
    std::vector<std::string> layer;
    for (size_t k = i; k < end; ++k) {
      const dwm::mr::TraceSpan& t = trace.spans[k];
      const size_t slash = t.name.find('/');
      layer.push_back(slash == std::string::npos
                          ? "request"
                          : t.name.substr(slash + 1,
                                          t.name.find('@') - slash - 1));
      spans.push_back({t.name, -1, t.start_seconds, t.end_seconds});
    }
    for (size_t c = 1; c < spans.size(); ++c) {
      int64_t best = 0;
      for (size_t p = 1; p < spans.size(); ++p) {
        if (p == c || layer[p] == "reconstruct") continue;
        const bool contains = spans[p].start_seconds <= spans[c].start_seconds &&
                              spans[c].end_seconds <= spans[p].end_seconds;
        const auto length = [&](size_t s) {
          return spans[s].end_seconds - spans[s].start_seconds;
        };
        if (contains && length(p) <= length(static_cast<size_t>(best))) {
          best = static_cast<int64_t>(p);
        }
      }
      spans[c].parent = best;
    }
    const std::vector<double> self = perfbench::SelfTimes(spans);
    for (size_t k = 0; k < spans.size(); ++k) {
      if (layer[k] == "lookup") layers.lookup += self[k];
      if (layer[k] == "validate") layers.validate += self[k];
      if (layer[k] == "ranges") layers.ranges += self[k];
      if (layer[k] == "points") layers.points += self[k];
      if (layer[k] == "reconstruct") layers.reconstruct += self[k];
    }
    if (request < kMaxWrittenRequests && request < batch_spans.size()) {
      // Re-based onto the client span's clock: the request root starts
      // where the client's AnswerBatch span starts.
      const int64_t client = batch_spans[request];
      std::vector<int64_t> ids(spans.size(), -1);
      for (size_t k = 0; k < spans.size(); ++k) {
        const int64_t parent = spans[k].parent < 0
                                   ? client
                                   : ids[static_cast<size_t>(spans[k].parent)];
        ids[k] = rec->Add(spans[k].name, parent, spans[k].start_seconds,
                          spans[k].end_seconds);
      }
    }
    ++request;
    i = end;
  }
  return layers;
}

double ReconstructMedianSeconds(const dwm::Synopsis& synopsis, uint64_t seed) {
  dwm::Rng rng(seed ^ 0xb10cb10cb10cb10cULL);
  const int64_t block = dwm::serve::EngineOptions{}.block_leaves;
  const int64_t blocks = synopsis.domain_size() / block;
  std::vector<double> seconds;
  for (int i = 0; i < kReconstructSamples; ++i) {
    const int64_t first =
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(blocks))) *
        block;
    const dwm::Stopwatch clock;
    const std::vector<double> leaves = synopsis.ReconstructRange(first, block);
    seconds.push_back(clock.ElapsedSeconds());
    if (leaves.size() != static_cast<size_t>(block)) return -1.0;
  }
  return Median(seconds);
}


// ---------------------------------------------------------------------------
// Workload runs.

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
};

template <typename T, typename F>
std::vector<double> Collect(const std::vector<T>& items, F field) {
  std::vector<double> out;
  for (const T& item : items) out.push_back(field(item));
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per-layer metrics of the MR runtime and the dist driver for one build
// (all zero for the centralized build of the serve workloads).
void AddBuildLayers(const BuildRun& run, int64_t n, std::vector<Metric>* m) {
  const dwm::mr::SimReport& report = run.report;
  double job_real = 0.0;
  double map_cpu = 0.0;
  double reduce_cpu = 0.0;
  int64_t records = 0;
  int64_t tasks = 0;
  std::vector<double> map_task_cpu;
  const dwm::mr::JobStats* heaviest = nullptr;
  for (const dwm::mr::JobStats& job : report.jobs) {
    job_real += job.real_seconds;
    records += job.shuffle_records;
    tasks += job.map_tasks + job.reduce_tasks;
    const ClosureCpu cpu = JobClosureCpu(job);
    map_cpu += cpu.map;
    reduce_cpu += cpu.reduce;
    map_task_cpu.insert(map_task_cpu.end(), cpu.map_tasks.begin(),
                        cpu.map_tasks.end());
    if (heaviest == nullptr || job.shuffle_bytes > heaviest->shuffle_bytes) {
      heaviest = &job;
    }
  }
  const bool has_jobs = !report.jobs.empty();
  const double framework_cpu =
      has_jobs ? run.cpu_seconds - map_cpu - reduce_cpu - report.driver_seconds
               : 0.0;
  const double utilization =
      has_jobs ? Ratio(run.cpu_seconds, run.wall_seconds * kWorkerThreads) : 0.0;
  const double map_cpu_max =
      map_task_cpu.empty()
          ? 0.0
          : *std::max_element(map_task_cpu.begin(), map_task_cpu.end());
  m->push_back({"dist.jobs", static_cast<double>(report.total_jobs()), "count"});
  m->push_back({"dist.dih_probes", static_cast<double>(run.dih_probes), "count"});
  m->push_back({"dist.driver_s", report.driver_seconds, "s"});
  m->push_back(
      {"dist.frontier_points", static_cast<double>(run.frontier_points), "count"});
  m->push_back({"mr.job_real_s", job_real, "s"});
  m->push_back({"mr.map_cpu_s", map_cpu, "s"});
  m->push_back({"mr.reduce_cpu_s", reduce_cpu, "s"});
  m->push_back({"mr.framework_cpu_s", framework_cpu, "s"});
  m->push_back({"mr.cpu_utilization", utilization, "ratio"});
  m->push_back({"mr.shuffle_bytes_per_value",
                Ratio(static_cast<double>(report.total_shuffle_bytes()),
                      static_cast<double>(n)),
                "bytes/value"});
  m->push_back({"mr.shuffle_records", static_cast<double>(records), "count"});
  m->push_back({"mr.tasks", static_cast<double>(tasks), "count"});
  m->push_back({"mr.map_task_cpu_p50_ms", Median(map_task_cpu) * 1e3, "ms"});
  m->push_back({"mr.map_task_cpu_max_ms", map_cpu_max * 1e3, "ms"});
  m->push_back({"mr.reducer_skew",
                heaviest == nullptr ? 0.0 : dwm::mr::ReducerSkew(*heaviest).ratio,
                "ratio"});
}

int Run(const Args& args, Outcome* outcome) {
  const Workload& w = *args.workload;
  Tally& tally = outcome->tally;
  Recorder rec(args.trace);
  Recorder off(false);
  const bool is_build = w.kind != Kind::kServe;
  const std::string frame_path =
      args.work_dir + "/" + std::string(w.name) + ".frame";

  // Set-up, repeated: input generation, and for the serve workloads the
  // GreedyAbs build, frame save and load, registration and warm-up.
  std::vector<double> gen_seconds;
  std::vector<double> setup_seconds;
  std::vector<double> data;
  std::vector<BuildRun> builds;  // the builds that end-to-end times come from
  std::vector<BuildRun> traced_builds;
  ServeState serve;
  std::vector<ServeSetup> serve_setups;
  std::optional<BuildIdentity> first_build;
  auto record_build = [&](BuildRun run, std::vector<BuildRun>* into) {
    if (!run.ok) {
      tally.Record(false);
      std::fprintf(stderr, "perfbench: %s failed: %s\n", w.name,
                   run.error.c_str());
      return false;
    }
    tally.Record(CheckPinned(w, args.seed, run, &first_build));
    into->push_back(std::move(run));
    return true;
  };
  for (int r = 0; r < w.setup_repeats; ++r) {
    const int64_t gen_span = rec.Open("data/generate");
    const dwm::Stopwatch clock;
    data = MakeData(w, args.seed);
    gen_seconds.push_back(clock.ElapsedSeconds());
    rec.Close(gen_span);
    setup_seconds.push_back(gen_seconds.back());
    if (is_build) continue;
    if (!record_build(RunBuild(w, data, &rec, -1), &builds)) return 1;
    ServeSetup setup;
    if (!SetUpServing(w, args.seed, frame_path, builds.back().synopsis,
                      builds.back().max_abs_error, &serve, &setup, &tally,
                      &rec)) {
      return 1;
    }
    setup.seconds = clock.ElapsedSeconds();
    setup_seconds.back() = setup.seconds;
    serve_setups.push_back(setup);
  }

  // Build workloads: an untimed warm-up build first (the first build in a
  // process also pays for faulting in the heap that later builds reuse);
  // its synopsis gets the serve set-up, repeated like the rest.
  std::vector<BuildRun> warmup;
  if (is_build) {
    if (!record_build(RunBuild(w, data, &off, -1), &warmup)) return 1;
    for (int r = 0; r < w.setup_repeats; ++r) {
      const dwm::Stopwatch clock;
      ServeSetup setup;
      if (!SetUpServing(w, args.seed, frame_path, warmup.front().synopsis,
                        warmup.front().max_abs_error, &serve, &setup, &tally,
                        &rec)) {
        return 1;
      }
      setup.seconds = clock.ElapsedSeconds();
      setup_seconds[static_cast<size_t>(r)] += setup.seconds;
      serve_setups.push_back(setup);
    }
  }

  // Measurement: untraced, then in a traced run traced, each for half the
  // run's time. Serve workloads serve for the whole time. Build workloads
  // alternate one build with a fixed slice of serve batches, so serving is
  // sampled across the run rather than in one short window.
  auto measure = [&](Recorder* r, double seconds, size_t min_builds,
                     std::vector<BuildRun>* runs, ServePhase* phase) {
    if (!is_build) {
      RunServePhase(&serve, data, w.counted_batches, seconds, w.counted_batches,
                    r, phase, &tally);
      return true;
    }
    const dwm::Stopwatch loop;
    do {
      const int64_t span = r->Open("build");
      const bool ok = record_build(RunBuild(w, data, r, span), runs);
      r->Close(span);
      if (!ok) return false;
      ServePhase settle;
      RunServePhase(&serve, data, kSettleBatches, 0.0, 0, &off, &settle, &tally);
      RunServePhase(&serve, data, kBuildServeBatches, 0.0, w.counted_batches, r,
                    phase, &tally);
    } while (loop.ElapsedSeconds() < seconds || runs->size() < min_builds);
    return true;
  };
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  ServePhase plain;
  if (!measure(&off, untraced_seconds, kMinTimedBuilds, &builds, &plain)) {
    return 1;
  }
  const double rss_growth_mb =
      CurrentRssMb() - serve_setups.back().rss_before_warmup_mb;
  ServePhase traced;
  EngineLayers layers;
  if (args.trace) {
    dwm::serve::ServeTraceCollector& tracer = serve.engine->tracer();
    tracer.Clear();
    tracer.Enable();
    if (!measure(&rec, args.seconds - untraced_seconds, 1, &traced_builds,
                 &traced)) {
      return 1;
    }
    tracer.Disable();
    layers = EngineSelfTimes(tracer.Snapshot(), traced.batch_spans, &rec);
  }
  const BuildRun& build = builds.front();
  std::fprintf(stderr, "pin: {\"%s\", %" PRIu64 ", 0x%016" PRIx64 "ULL, %a},\n",
               w.name, args.seed, SynopsisChecksum(build.synopsis),
               build.max_abs_error);

  const perfbench::WindowedTail tail = perfbench::SelectWindowedTail(
      plain.batch_seconds, kTailWindowBatches, kTailQuantile, kMinBeyond);
  std::fprintf(stderr, "%s: build wall seconds:", w.name);
  for (const BuildRun& b : builds) std::fprintf(stderr, " %.3f", b.wall_seconds);
  std::fprintf(stderr,
               "\n%s: %lld batches (%lld queries); batch tail: median over "
               "%lld window(s) of quantile %.4f of %lld samples, %lld beyond\n",
               w.name, static_cast<long long>(plain.batches),
               static_cast<long long>(plain.queries),
               static_cast<long long>(tail.windows), tail.per_window.quantile,
               static_cast<long long>(tail.per_window.samples),
               static_cast<long long>(tail.per_window.beyond));

  std::vector<Metric>& m = outcome->metrics;
  const int64_t n = int64_t{1} << w.log2_n;
  const auto wall_of = [](const BuildRun& b) { return b.wall_seconds; };
  if (!args.trace) {
    m.push_back({"setup_s", Median(setup_seconds), "s"});
    m.push_back({"build_wall_s", Median(Collect(builds, wall_of)), "s"});
    m.push_back({"build_cpu_s",
                 Median(Collect(builds, [](const BuildRun& b) { return b.cpu_seconds; })),
                 "s"});
    m.push_back({"sim_makespan_s",
                 Median(Collect(builds, [](const BuildRun& b) { return b.sim_seconds; })),
                 "s"});
    m.push_back({"max_abs_error", build.max_abs_error, "data_units"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    m.push_back({"serve_qps",
                 Ratio(static_cast<double>(plain.queries), plain.engine_seconds),
                 "1/s"});
    m.push_back({"serve_batch_p50_us", Median(plain.batch_seconds) * 1e6, "us"});
    m.push_back({"serve_batch_p99_us", tail.value * 1e6, "us"});
    m.push_back({"success_ratio", 1.0 - tally.fail_ratio(), "ratio"});
    return 0;
  }

  m.push_back({"data.gen_s", Median(gen_seconds), "s"});
  AddBuildLayers(is_build ? traced_builds.back() : builds.back(), n, &m);
  const double direct_seconds =
      plain.direct_point_seconds + plain.direct_range_seconds;
  m.push_back({"wavelet.point_ns",
               Ratio(plain.direct_point_seconds, static_cast<double>(plain.points)) * 1e9,
               "ns"});
  m.push_back({"wavelet.range_sum_ns",
               Ratio(plain.direct_range_seconds, static_cast<double>(plain.ranges)) * 1e9,
               "ns"});
  m.push_back({"wavelet.block_reconstruct_us",
               ReconstructMedianSeconds(*serve.synopsis, args.seed) * 1e6, "us"});
  const ServeSetup& setup = serve_setups.back();
  m.push_back({"serve.frame_bytes", static_cast<double>(setup.frame_bytes), "bytes"});
  m.push_back({"serve.frame_save_ms",
               Median(Collect(serve_setups, [](const ServeSetup& s) { return s.save_seconds; })) * 1e3,
               "ms"});
  m.push_back({"serve.frame_load_ms",
               Median(Collect(serve_setups, [](const ServeSetup& s) { return s.load_seconds; })) * 1e3,
               "ms"});
  m.push_back({"serve.register_ms",
               Median(Collect(serve_setups, [](const ServeSetup& s) { return s.register_seconds; })) * 1e3,
               "ms"});
  m.push_back({"serve.cache_hit_ratio",
               Ratio(static_cast<double>(plain.counted_hits),
                     static_cast<double>(plain.counted_hits + plain.counted_misses)),
               "ratio"});
  m.push_back({"serve.cache_evictions", static_cast<double>(plain.counted_evictions),
               "count"});
  m.push_back({"serve.rss_growth_mb", rss_growth_mb, "MB"});
  m.push_back({"serve.engine_overhead_ratio", Ratio(plain.engine_seconds, direct_seconds),
               "ratio"});
  const double batches = static_cast<double>(traced.batches);
  m.push_back({"serve.lookup_us", Ratio(layers.lookup, batches) * 1e6, "us"});
  m.push_back({"serve.validate_us", Ratio(layers.validate, batches) * 1e6, "us"});
  m.push_back({"serve.ranges_us", Ratio(layers.ranges, batches) * 1e6, "us"});
  m.push_back({"serve.points_us", Ratio(layers.points, batches) * 1e6, "us"});
  m.push_back({"serve.reconstruct_us", Ratio(layers.reconstruct, batches) * 1e6, "us"});
  const double overhead =
      is_build
          ? Ratio(Median(Collect(traced_builds,
                                 [](const BuildRun& b) {
                                   return b.wall_seconds + b.trace_seconds;
                                 })),
                  Median(Collect(builds, wall_of)))
          : Ratio(Ratio(traced.engine_seconds, batches),
                  Ratio(plain.engine_seconds, static_cast<double>(plain.batches)));
  m.push_back({"common.trace_overhead_ratio", overhead, "ratio"});

  const std::string trace_path = args.work_dir + "/trace-" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  if (!rec.Write(trace_path, w.name, args.seed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  return 0;
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <n> --trace <0|1> --work-dir <dir>\nworkloads:",
               message);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Every DWM_* knob (faults, checkpoints, quarantine, serve cache and
  // block size, slow-query log, tracing, log file, threads) would change
  // what is measured; refuse rather than measure something else.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DWM_", 4) == 0) {
      const std::string var(*env, std::strcspn(*env, "="));
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   var.c_str());
      return 2;
    }
  }

  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::string_view(w.name) == value) args.workload = &w;
      }
      if (args.workload == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &number) &&
               number <= 3600) {
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      args.trace = number == 1;
      have_trace = true;
    } else if (flag == "--work-dir" && *value != '\0') {
      args.work_dir = value;
    } else {
      return Usage("bad argument");
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      args.work_dir.empty()) {
    return Usage("missing argument");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage("cannot create the work directory");

  Outcome outcome;
  const int rc = Run(args, &outcome);
  if (rc != 0) return rc;
  std::string json;
  if (!perfbench::ResultJson(outcome.tally.failed == 0, outcome.tally,
                             outcome.metrics, &json)) {
    std::fprintf(stderr, "perfbench: a metric is not reportable\n");
    for (const Metric& metric : outcome.metrics) {
      std::fprintf(stderr, "  %s = %g %s\n", metric.name.c_str(), metric.value,
                   metric.unit.c_str());
    }
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
