#include "dist/dindirect_haar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/audit.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/log.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "dist/dcon.h"
#include "dist/dist_common.h"
#include "dist/dmin_haar_space.h"
#include "dist/tree_partition.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/error_tree.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

// Audit post-conditions for a finished binary search: a converged run must
// fit the budget and report exactly the reconstruction error of the
// synopsis it returns (Problem 1's objective).
void AuditSearchResult(const std::vector<double>& data, int64_t budget,
                       const IndirectHaarResult& search) {
  if constexpr (audit::kEnabled) {
    if (!search.converged) return;
    DWM_AUDIT_CHECK(search.synopsis.size() <= budget);
    const double exact = MaxAbsError(data, search.synopsis);
    DWM_AUDIT_CHECK(std::abs(exact - search.max_abs_error) <= 1e-9);
  }
}

// Job computing e_l: every worker emits its largest local coefficient
// magnitudes (at most B+1 of them); the reducer merges them with the root
// sub-tree coefficients built from the slice averages (Algorithm 2 line 2).
Status LowerBoundJob(const std::vector<double>& data, int64_t budget,
                     int64_t base_leaves, mr::JobChain* chain, double* e_l) {
  const int64_t n = static_cast<int64_t>(data.size());
  const TreePartition partition = MakeTreePartition(n, base_leaves);
  std::vector<double> averages(static_cast<size_t>(partition.num_base), 0.0);
  std::vector<double> magnitudes;

  mr::JobSpec<int64_t, int64_t, double, int64_t> spec;
  spec.name = "dih_lower_bound";
  spec.num_reducers = 1;
  spec.split_bytes = [&](const int64_t&) {
    return static_cast<double>(base_leaves) * sizeof(double);
  };
  spec.map = [&](int64_t, const int64_t& t, const auto& emit) {
    std::vector<double> slice(data.begin() + t * base_leaves,
                              data.begin() + (t + 1) * base_leaves);
    std::vector<double> local = ForwardHaar(slice);
    emit(-(t + 1), local[0]);
    std::vector<double> mags(local.begin() + 1, local.end());
    for (double& m : mags) m = std::abs(m);
    // min before +1: any budget >= 0 is valid, INT64_MAX included.
    const int64_t keep =
        std::min<int64_t>(budget, static_cast<int64_t>(mags.size()) - 1) + 1;
    std::nth_element(mags.begin(), mags.begin() + (keep - 1), mags.end(),
                     std::greater<double>());
    for (int64_t i = 0; i < keep; ++i) emit(0, mags[static_cast<size_t>(i)]);
  };
  spec.reduce = [&](const int64_t& key, std::vector<double>& values,
                    std::vector<int64_t>*) {
    if (key < 0) {
      // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
      averages[static_cast<size_t>(-key - 1)] = values[0];
    } else {
      // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
      magnitudes.insert(magnitudes.end(), values.begin(), values.end());
    }
  };
  std::vector<int64_t> splits(static_cast<size_t>(partition.num_base));
  for (int64_t t = 0; t < partition.num_base; ++t) {
    splits[static_cast<size_t>(t)] = t;
  }
  std::vector<int64_t> unused;
  DWM_RETURN_NOT_OK(chain->RunJob(spec, splits, &unused));

  for (double c : ForwardHaar(averages)) magnitudes.push_back(std::abs(c));
  *e_l = 0.0;
  if (budget < static_cast<int64_t>(magnitudes.size())) {
    std::nth_element(magnitudes.begin(), magnitudes.begin() + budget,
                     magnitudes.end(), std::greater<double>());
    *e_l = magnitudes[static_cast<size_t>(budget)];
  }
  return Status::OK();
}

// Job computing the exact max_abs of a broadcast synopsis: every worker
// reconstructs its aligned slice locally (Algorithm 2 line 1's bottom-up
// max_abs computation with the B-term synopsis in memory).
Status MaxAbsJob(const std::vector<double>& data, const Synopsis& synopsis,
                 int64_t base_leaves, mr::JobChain* chain,
                 const std::string& name, double* out_max) {
  const int64_t n = static_cast<int64_t>(data.size());
  double global_max = 0.0;
  mr::JobSpec<int64_t, int64_t, double, int64_t> spec;
  spec.name = name;
  spec.num_reducers = 1;
  spec.split_bytes = [&](const int64_t&) {
    return static_cast<double>(base_leaves) * sizeof(double);
  };
  spec.map = [&](int64_t, const int64_t& t, const auto& emit) {
    const std::vector<double> rec =
        synopsis.ReconstructRange(t * base_leaves, base_leaves);
    double local_max = 0.0;
    for (int64_t i = 0; i < base_leaves; ++i) {
      local_max = std::max(
          local_max, std::abs(rec[static_cast<size_t>(i)] -
                              data[static_cast<size_t>(t * base_leaves + i)]));
    }
    emit(0, local_max);
  };
  spec.reduce = [&](const int64_t&, std::vector<double>& values,
                    std::vector<int64_t>*) {
    // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
    for (double v : values) global_max = std::max(global_max, v);
  };
  std::vector<int64_t> splits(static_cast<size_t>(n / base_leaves));
  for (size_t t = 0; t < splits.size(); ++t) {
    splits[t] = static_cast<int64_t>(t);
  }
  std::vector<int64_t> unused;
  DWM_RETURN_NOT_OK(chain->RunJob(spec, splits, &unused));
  *out_max = global_max;
  return Status::OK();
}

}  // namespace

Status DIndirectHaarOptions::Validate(int64_t n) const {
  if (n < 8 || !IsPowerOfTwo(static_cast<uint64_t>(n))) {
    return Status::InvalidArgument(
        "DIndirectHaar: n must be a power of two >= 8, got " +
        std::to_string(n));
  }
  if (budget < 0) {
    return Status::InvalidArgument(
        "DIndirectHaar: budget must be >= 0, got " + std::to_string(budget));
  }
  // The probes' own checks, less eps (the search picks every probe's).
  const DmhsOptions probe = {0.0, quantum, subtree_inputs};
  return probe.Validate(n);
}

DIndirectHaarResult DIndirectHaar(const std::vector<double>& data,
                                  const DIndirectHaarOptions& options,
                                  const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DIndirectHaarResult out;
  out.status = options.Validate(n);
  if (!out.status.ok()) return out;
  const int64_t base_leaves = 2 * std::min(options.subtree_inputs, n / 4);

  // Sub-runs (CON and the DMHS probes) manage their own chains; scoping
  // their checkpoint files under "<scope>/dih/..." keeps them from
  // colliding with a standalone run of the same algorithm in the same
  // checkpoint directory.
  const std::string scope = cluster.checkpoint_scope.empty()
                                ? "dih"
                                : cluster.checkpoint_scope + "/dih";
  mr::JobChain chain(
      "dih", cluster, &out.report, nullptr,
      mr::CheckpointFingerprint(
          data, {options.budget, std::bit_cast<int64_t>(options.quantum),
                 options.subtree_inputs}));

  // Line 1: e_u via the conventional synopsis (CON) plus an evaluation job.
  Synopsis con_synopsis;
  double e_u = 0.0;
  chain.RunStage(
      "upper_bound",
      [&]() -> Status {
        mr::ClusterConfig scoped = cluster;
        scoped.checkpoint_scope = scope;
        DistSynopsisResult con =
            RunCon(data, options.budget, base_leaves, scoped);
        out.report.Append(con.report);
        DWM_RETURN_NOT_OK(con.status);
        con_synopsis = std::move(con.synopsis);
        return MaxAbsJob(data, con_synopsis, base_leaves, &chain,
                         "dih_upper_bound", &e_u);
      },
      [&](mr::ByteBuffer& buffer) {
        dist_internal::PutSynopsis(buffer, con_synopsis);
        mr::Serde<double>::Put(buffer, e_u);
      },
      [&](mr::ByteReader& in) {
        Synopsis restored;
        if (!dist_internal::GetSynopsis(in, n, &restored)) return false;
        const double bound = mr::Serde<double>::Get(in);
        if (!in.ok()) return false;
        con_synopsis = std::move(restored);
        e_u = bound;
        return true;
      });
  // Line 2: e_l, the (B+1)-largest coefficient.
  double e_l = 0.0;
  chain.RunStage(
      "lower_bound",
      [&]() -> Status {
        return LowerBoundJob(data, options.budget, base_leaves, &chain, &e_l);
      },
      [&](mr::ByteBuffer& buffer) { mr::Serde<double>::Put(buffer, e_l); },
      [&](mr::ByteReader& in) {
        const double bound = mr::Serde<double>::Get(in);
        if (!in.ok()) return false;
        e_l = bound;
        return true;
      });
  if (!chain.ok()) {
    out.status = chain.status();
    return out;
  }

  if (e_u <= 1e-12) {
    out.search.converged = true;
    out.search.synopsis = con_synopsis;
    out.search.max_abs_error = e_u;
    AuditSearchResult(data, options.budget, out.search);
    PublishSynopsisQuality("dindirect_haar", out.search.synopsis,
                           out.search.max_abs_error);
    return out;
  }
  if (e_u <= options.quantum / 2.0) {
    out.search.upper_bound = e_u;
    return out;  // delta coarser than the search range (Section 6.2)
  }

  // Probes run up sweeps only. The solver keeps the up-sweep state of the
  // probe the search keeps, by the search's own acceptance rule, and the
  // winner's synopsis is materialized once, after the search. An accepted
  // probe's error is <= its eps < e_high <= the kept error, so each
  // accepted probe replaces (and frees) its predecessor's state.
  std::optional<DmhsUpSweep> winner;
  int probe_index = 0;
  Problem2Solver solver = [&](double eps) {
    // Once a probe job has died, later probes would die identically (fault
    // decisions are a pure function of job name/task/attempt); answer
    // "infeasible" without running so the search winds down cheaply.
    if (!out.status.ok()) return MhsResult{};
    const int probe = ++probe_index;
    // Each probe gets its own checkpoint namespace: probes reuse the dmhs_*
    // job names with different eps, so sharing files would make every probe
    // invalidate its predecessor's frames.
    mr::ClusterConfig probe_cluster = cluster;
    probe_cluster.checkpoint_scope = scope + "/probe" + std::to_string(probe);
    const Stopwatch clock;
    DmhsUpSweep run = DMinHaarSpaceUp(
        data, {eps, options.quantum, options.subtree_inputs}, probe_cluster);
    const double seconds = clock.ElapsedSeconds();
    // A zero-length marker span names the binary-search iteration, then the
    // probe's jobs and driver spans splice in at this point in the pipeline
    // (probe jobs reuse the dmhs_* names, so the marker is what tells
    // iterations apart in the trace).
    out.report.AddDriverSpan("dih_probe" + std::to_string(probe), 0.0);
    metrics::Default()
        .GetCounter("dwm_dih_probes_total",
                    "DMinHaarSpace feasibility probes issued by the "
                    "indirect binary search",
                    {{"algo", "dindirect_haar"}})
        ->Increment();
    out.report.Append(run.report);
    if (!run.status.ok()) {
      out.status = run.status;
      return MhsResult{};
    }
    const bool fits = run.feasible && run.count <= options.budget;
    log::Info("dih_probe")
        .I64("probe", probe)
        .F64("eps", eps)
        .I64("count", run.count)
        .F64("max_abs_error", run.max_abs_error)
        .Bool("fits_budget", fits)
        .MeasuredF64("seconds", seconds);
    const MhsResult answer{run.feasible, Synopsis(), run.count,
                           run.max_abs_error};
    if (fits && (!winner || run.max_abs_error < winner->max_abs_error)) {
      winner = std::move(run);
    }
    return answer;
  };
  out.search =
      IndirectHaarSearch(solver, std::min(e_l, e_u), e_u, options.budget,
                         options.quantum, options.max_iterations);
  if (!out.status.ok()) return out;  // a probe died; the search is unusable
  if (out.search.converged) {
    if (!winner) {
      out.status = Status::Internal(
          "DIndirectHaar: the search converged but no probe was kept");
      return out;
    }
    // The winner's down sweep, in a checkpoint scope of its own (its frames
    // are keyed by the winner's eps).
    mr::ClusterConfig materialize_cluster = cluster;
    materialize_cluster.checkpoint_scope = scope + "/materialize";
    DmhsResult built = DMinHaarSpaceDown(data, *winner, materialize_cluster);
    out.report.Append(built.report);
    if (!built.status.ok()) {
      out.status = built.status;
      return out;
    }
    // The search recorded the kept probe's count and error; the synopsis
    // must have exactly those.
    if (built.result.synopsis.size() != winner->count ||
        built.result.max_abs_error != out.search.max_abs_error) {
      out.status = Status::Internal(
          "DIndirectHaar: the materialized synopsis has " +
          std::to_string(built.result.synopsis.size()) +
          " coefficients at error " +
          std::to_string(built.result.max_abs_error) + ", the search kept " +
          std::to_string(winner->count) + " at " +
          std::to_string(out.search.max_abs_error));
      return out;
    }
    out.search.synopsis = std::move(built.result.synopsis);
  }
  AuditSearchResult(data, options.budget, out.search);
  PublishSynopsisQuality("dindirect_haar", out.search.synopsis,
                         out.search.max_abs_error);
  return out;
}

}  // namespace dwm
