#include "dist/dmin_haar_space.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "common/audit.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "dist/dist_common.h"
#include "dist/serde.h"
#include "mr/bytes.h"
#include "mr/checkpoint.h"
#include "mr/job.h"
#include "mr/pipeline.h"
#include "wavelet/error_tree.h"
#include "wavelet/metrics.h"

namespace dwm {
namespace {

double RowBytes(const mhs::Row& row) {
  return 16.0 + 12.0 * static_cast<double>(row.cells.size());
}

// Binds a sweep's checkpoint frames to its data, eps, quantum and fan.
uint64_t SweepFingerprint(const std::vector<double>& data,
                          const DmhsUpSweep& up) {
  return mr::CheckpointFingerprint(
      data, {std::bit_cast<int64_t>(up.eps), std::bit_cast<int64_t>(up.quantum),
             up.fan});
}

DmhsUpSweep NewSweep(int64_t n, const DmhsOptions& options) {
  DmhsUpSweep up;
  up.eps = options.error_bound;
  up.quantum = options.quantum;
  up.fan = std::min(options.subtree_inputs, n / 2);
  return up;
}

// The bottom-up jobs on `chain` (which records into `report`), then the
// driver's choice of c_0. Fills `up`'s answer and its down-sweep state;
// an infeasible eps leaves up->feasible false with an OK status.
Status RunUpSweep(const std::vector<double>& data, mr::JobChain* chain,
                  mr::SimReport* report, DmhsUpSweep* up) {
  const int64_t n = static_cast<int64_t>(data.size());
  const double eps = up->eps;
  const double q = up->quantum;
  const int64_t fan = up->fan;
  const mr::ClusterConfig& cluster = chain->config();

  // ---------------- Bottom-up phase (Algorithm 1). ----------------
  // Stage s has tasks[s] workers; worker i of stage s produces the M-row of
  // global node tasks[s] + i. stage_inputs[s] are the rows consumed by
  // stage s's workers (s >= 1; stage 0 reads raw data).
  std::vector<int64_t>& tasks = up->tasks;  // tasks per stage
  tasks.push_back(std::max<int64_t>(1, n / (2 * fan)));
  while (tasks.back() > 1) {
    tasks.push_back(std::max<int64_t>(1, tasks.back() / fan));
  }
  const int num_stages = static_cast<int>(tasks.size());

  // stage_inputs[s][task] -> input rows (only for s >= 1).
  auto& stage_inputs = up->stage_inputs;
  stage_inputs.resize(static_cast<size_t>(num_stages));
  for (int s = 1; s < num_stages; ++s) {
    stage_inputs[static_cast<size_t>(s)].resize(
        static_cast<size_t>(tasks[static_cast<size_t>(s)]));
  }
  std::vector<mhs::Row> final_rows;  // inputs of the (single) top task

  for (int s = 0; s < num_stages; ++s) {
    const int64_t num_tasks = tasks[static_cast<size_t>(s)];
    const bool last = s + 1 == num_stages;
    std::vector<int64_t> splits(static_cast<size_t>(num_tasks));
    for (int64_t i = 0; i < num_tasks; ++i) splits[static_cast<size_t>(i)] = i;

    chain->RunStage(
        "up_" + std::to_string(s),
        [&]() -> Status {
          // Emitted key: the consuming task of the next stage; value:
          // (position within that task, row). The last stage emits to the
          // driver (key 0).
          mr::JobSpec<int64_t, int64_t, std::pair<int64_t, mhs::Row>, int64_t>
              spec;
    spec.name = "dmhs_up_" + std::to_string(s);
    spec.num_reducers = static_cast<int>(std::min<int64_t>(
        last ? 1 : tasks[static_cast<size_t>(s + 1)], cluster.reduce_slots));
    spec.partition = [&spec](const int64_t& key) {
      return static_cast<int>(key % spec.num_reducers);
    };
    if (s == 0) {
      spec.split_bytes = [&](const int64_t&) {
        return static_cast<double>(2 * fan) * sizeof(double);
      };
    } else {
      spec.split_bytes = [&, s](const int64_t& task) {
        double bytes = 0.0;
        for (const mhs::Row& row :
             stage_inputs[static_cast<size_t>(s)][static_cast<size_t>(task)]) {
          bytes += RowBytes(row);
        }
        return bytes;
      };
    }
    spec.map = [&, s, last](int64_t, const int64_t& task, const auto& emit) {
      mhs::Row row;
      if (s == 0) {
        const int64_t leaves = 2 * fan;
        row = mhs::ComputeRowOverData(data.data() + task * leaves, leaves, eps,
                                      q);
      } else {
        std::vector<mhs::Row> inputs =
            stage_inputs[static_cast<size_t>(s)][static_cast<size_t>(task)];
        row = mhs::BuildRowHeap(std::move(inputs)).CopyRow(1);
      }
      emit(last ? 0 : task / fan, {last ? task : task % fan, std::move(row)});
    };
    spec.reduce = [&, s, last](const int64_t& key,
                               std::vector<std::pair<int64_t, mhs::Row>>& rows,
                               std::vector<int64_t>*) {
      if (last) {
        // dwm-analyze: allow(lambda-capture): last stage has one task, so one reducer
        final_rows.resize(rows.size());
        for (auto& [pos, row] : rows) {
          // dwm-analyze: allow(lambda-capture): last stage has one task, so one reducer
          final_rows[static_cast<size_t>(pos)] = std::move(row);
        }
      } else {
        // dwm-analyze: allow(lambda-capture): writes only stage_inputs[s+1][key]; key is reducer-partitioned, so concurrent reducers touch disjoint elements
        auto& inputs = stage_inputs[static_cast<size_t>(s + 1)]
                                   [static_cast<size_t>(key)];
        // The next stage's task consumes `fan` children, except when this
        // whole stage feeds a single final task with fewer outputs.
        // dwm-analyze: allow(lambda-capture): sizes only stage_inputs[s+1][key], this reducer's disjoint slot
        inputs.resize(static_cast<size_t>(
            std::min(fan, tasks[static_cast<size_t>(s)])));
        for (auto& [pos, row] : rows) {
          // dwm-analyze: allow(lambda-capture): writes only stage_inputs[s+1][key], this reducer's disjoint slot
          inputs[static_cast<size_t>(pos)] = std::move(row);
        }
      }
    };
          std::vector<int64_t> unused;
          const Status status = chain->RunJob(spec, splits, &unused);
          // Per-level DP communication, the number the MPC-on-trees line
          // tracks: one counter child per up/down stage, accumulated across
          // probes. Only live job runs count; a restored stage replays its
          // shuffle bytes through the SimReport, not this registry counter.
          const mr::JobStats& stats = report->jobs.back();
          metrics::Default()
              .GetCounter("dwm_dmhs_level_shuffle_bytes_total",
                          "Shuffle bytes per DP level (up/down sweep stages)",
                          {{"stage", stats.name}})
              ->Increment(stats.shuffle_bytes);
          return status;
        },
        [&](mr::ByteBuffer& buffer) {
          if (last) {
            mr::Serde<std::vector<mhs::Row>>::Put(buffer, final_rows);
            return;
          }
          const auto& produced = stage_inputs[static_cast<size_t>(s + 1)];
          buffer.PutScalar<uint64_t>(produced.size());
          for (const std::vector<mhs::Row>& rows : produced) {
            mr::Serde<std::vector<mhs::Row>>::Put(buffer, rows);
          }
        },
        [&](mr::ByteReader& in) {
          if (last) {
            std::vector<mhs::Row> rows =
                mr::Serde<std::vector<mhs::Row>>::Get(in);
            if (!in.ok()) return false;
            final_rows = std::move(rows);
            return true;
          }
          std::vector<std::vector<mhs::Row>> produced;
          const uint64_t count = in.GetScalar<uint64_t>();
          for (uint64_t i = 0; i < count && in.ok(); ++i) {
            produced.push_back(mr::Serde<std::vector<mhs::Row>>::Get(in));
          }
          auto& target = stage_inputs[static_cast<size_t>(s + 1)];
          if (!in.ok() || produced.size() != target.size()) return false;
          target = std::move(produced);
          return true;
        });
    if (!chain->ok()) return chain->status();
  }

  // ---------------- Driver: choose c_0 from the row of c_1. ----------------
  Stopwatch driver_clock;
  const mhs::Row row1 = mhs::BuildRowHeap(std::move(final_rows)).CopyRow(1);
  // An infeasible row has no cells: Find misses and the loop is empty.
  mhs::Cell best;
  int64_t best_z0 = 0;
  if (const mhs::Cell* cell = row1.Find(0)) {
    if (cell->feasible()) best = *cell;
  }
  for (int64_t g = row1.lo; g <= row1.hi(); ++g) {
    const mhs::Cell& cell = row1.cells[static_cast<size_t>(g - row1.lo)];
    if (!cell.feasible() || g == 0) continue;
    const mhs::Cell cand{cell.count + 1, cell.err};
    if (cand.Better(best)) {
      best = cand;
      best_z0 = g;
    }
  }
  report->AddDriverSpan("choose_c0", driver_clock.ElapsedSeconds());
  if (!best.feasible()) return Status::OK();
  up->feasible = true;
  up->count = best.count;
  up->max_abs_error = best.err;
  up->best_z0 = best_z0;
  return Status::OK();
}

// The top-down jobs over a feasible up sweep: re-enters each sub-tree layer
// by layer with the incoming value chosen above and collects the synopsis.
Status RunDownSweep(const std::vector<double>& data, const DmhsUpSweep& up,
                    mr::JobChain* chain, mr::SimReport* report,
                    MhsResult* result) {
  const int64_t n = static_cast<int64_t>(data.size());
  const double eps = up.eps;
  const double q = up.quantum;
  const int64_t fan = up.fan;
  const std::vector<int64_t>& tasks = up.tasks;
  const auto& stage_inputs = up.stage_inputs;
  const int num_stages = static_cast<int>(tasks.size());

  std::vector<Coefficient> coeffs;
  if (up.best_z0 != 0) {
    coeffs.push_back({0, static_cast<double>(up.best_z0) * q});
  }

  // Hand the chosen incoming value of c_1 to the topmost worker; the
  // top-down jobs below re-enter each sub-tree layer by layer. The count
  // below c_1 excludes c_0.
  std::map<int64_t, int64_t> assignments;  // task of stage (num_stages-1) -> v
  if (up.count - (up.best_z0 != 0 ? 1 : 0) > 0) assignments[0] = up.best_z0;

  // ---------------- Top-down phase: one job per stage. ----------------
  // Note stage (num_stages - 1) was already consumed by the driver when it
  // had a single task; otherwise assignments target it directly.
  for (int s = num_stages - 1; s >= 0 && !assignments.empty(); --s) {
    using Split = std::pair<int64_t, int64_t>;  // (task, incoming v)
    std::vector<Split> splits;
    splits.reserve(assignments.size());
    for (const auto& [task, v] : assignments) splits.push_back({task, v});
    std::map<int64_t, int64_t> next_assignments;

    chain->RunStage(
        "down_" + std::to_string(s),
        [&]() -> Status {
          // Keys: -1 carries a selected coefficient, otherwise the key is
          // the child task id and the value its incoming grid value.
          mr::JobSpec<Split, int64_t, std::pair<int64_t, double>, int64_t>
              spec;
    spec.name = "dmhs_down_" + std::to_string(s);
    spec.num_reducers = 1;
    if (s == 0) {
      spec.split_bytes = [&](const Split&) {
        return static_cast<double>(2 * fan) * sizeof(double);
      };
    } else {
      spec.split_bytes = [&, s](const Split& split) {
        double bytes = 0.0;
        for (const mhs::Row& row : stage_inputs[static_cast<size_t>(s)]
                                               [static_cast<size_t>(split.first)]) {
          bytes += RowBytes(row);
        }
        return bytes;
      };
    }
    spec.map = [&, s](int64_t, const Split& split, const auto& emit) {
      const auto [task, v] = split;
      const int64_t root_global = tasks[static_cast<size_t>(s)] + task;
      std::vector<Coefficient> local;
      if (s == 0) {
        // Rebuild the pair rows of this slice and select within.
        const int64_t leaves = 2 * fan;
        const double* slice = data.data() + task * leaves;
        std::vector<mhs::Row> pairs(static_cast<size_t>(fan));
        for (int64_t u = 0; u < fan; ++u) {
          pairs[static_cast<size_t>(u)] =
              mhs::PairRow(slice[2 * u], slice[2 * u + 1], eps, q);
        }
        if (fan == 1) {
          const mhs::Cell* cell = pairs[0].Find(v);
          DWM_CHECK(cell != nullptr && cell->feasible());
          if (cell->count == 1) {
            local.push_back({root_global, (slice[0] - slice[1]) / 2.0});
          }
        } else {
          const mhs::RowHeap heap = mhs::BuildRowHeap(std::move(pairs));
          mhs::SelectInHeap(heap, root_global, q, 1, v, &local,
                            [&](int64_t u, int64_t pv) {
                              const double a = slice[2 * u];
                              const double b = slice[2 * u + 1];
                              const mhs::Row row = mhs::PairRow(a, b, eps, q);
                              const mhs::Cell* cell = row.Find(pv);
                              DWM_CHECK(cell != nullptr && cell->feasible());
                              if (cell->count == 1) {
                                local.push_back(
                                    {LocalToGlobal(root_global, fan + u),
                                     (a - b) / 2.0});
                              }
                            });
        }
      } else {
        std::vector<mhs::Row> inputs =
            stage_inputs[static_cast<size_t>(s)][static_cast<size_t>(task)];
        const mhs::RowHeap heap = mhs::BuildRowHeap(std::move(inputs));
        mhs::SelectInHeap(heap, root_global, q, 1, v, &local,
                          [&](int64_t input, int64_t cv) {
                            emit(task * fan + input,
                                 {static_cast<int64_t>(cv), 0.0});
                          });
      }
      for (const Coefficient& c : local) {
        emit(-1, {c.index, c.value});
      }
    };
    spec.reduce = [&](const int64_t& key,
                      std::vector<std::pair<int64_t, double>>& values,
                      std::vector<int64_t>*) {
      if (key == -1) {
        for (const auto& [index, value] : values) {
          // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
          coeffs.push_back({index, value});
        }
      } else {
        DWM_CHECK_EQ(values.size(), 1u);
        // dwm-analyze: allow(lambda-capture): num_reducers == 1 serializes reduce()
        next_assignments[key] = values[0].first;
      }
    };
          std::vector<int64_t> unused;
          const Status status = chain->RunJob(spec, splits, &unused);
          const mr::JobStats& stats = report->jobs.back();
          metrics::Default()
              .GetCounter("dwm_dmhs_level_shuffle_bytes_total",
                          "Shuffle bytes per DP level (up/down sweep stages)",
                          {{"stage", stats.name}})
              ->Increment(stats.shuffle_bytes);
          return status;
        },
        [&](mr::ByteBuffer& buffer) {
          dist_internal::PutCoefficients(buffer, coeffs);
          buffer.PutScalar<uint64_t>(next_assignments.size());
          for (const auto& [task, v] : next_assignments) {
            mr::Serde<int64_t>::Put(buffer, task);
            mr::Serde<int64_t>::Put(buffer, v);
          }
        },
        [&](mr::ByteReader& in) {
          std::vector<Coefficient> new_coeffs;
          if (!dist_internal::GetCoefficients(in, &new_coeffs)) return false;
          std::map<int64_t, int64_t> new_assignments;
          const uint64_t count = in.GetScalar<uint64_t>();
          for (uint64_t i = 0; i < count && in.ok(); ++i) {
            const int64_t task = mr::Serde<int64_t>::Get(in);
            new_assignments[task] = mr::Serde<int64_t>::Get(in);
          }
          if (!in.ok() || new_assignments.size() != count) return false;
          coeffs = std::move(new_coeffs);
          next_assignments = std::move(new_assignments);
          return true;
        });
    if (!chain->ok()) return chain->status();
    assignments = std::move(next_assignments);
  }


  Synopsis synopsis(n, std::move(coeffs));
  if (synopsis.size() != up.count) {
    return Status::Internal(
        "DMinHaarSpace: the down sweep selected " +
        std::to_string(synopsis.size()) + " coefficients, the up sweep " +
        std::to_string(up.count));
  }
  result->feasible = true;
  result->count = up.count;
  result->max_abs_error = up.max_abs_error;
  result->synopsis = std::move(synopsis);
  if constexpr (audit::kEnabled) {
    // Synopsis post-conditions: the materialized synopsis must achieve the
    // DP-tracked error exactly (it is the same objective the DP optimized),
    // and that error must satisfy the requested bound.
    const double exact = MaxAbsError(data, result->synopsis);
    DWM_AUDIT_CHECK(std::abs(exact - result->max_abs_error) <= 1e-9);
    DWM_AUDIT_CHECK(exact <= eps + 1e-9);
  }
  PublishSynopsisQuality("dmin_haar_space", result->synopsis,
                         result->max_abs_error, eps);
  return Status::OK();
}

}  // namespace

Status DmhsOptions::Validate(int64_t n) const {
  if (n < 4 || !IsPowerOfTwo(static_cast<uint64_t>(n))) {
    return Status::InvalidArgument(
        "DMinHaarSpace: n must be a power of two >= 4, got " +
        std::to_string(n));
  }
  if (subtree_inputs < 2 ||
      !IsPowerOfTwo(static_cast<uint64_t>(subtree_inputs))) {
    return Status::InvalidArgument(
        "DMinHaarSpace: subtree_inputs must be a power of two >= 2, got " +
        std::to_string(subtree_inputs));
  }
  if (!(quantum > 0.0) || !std::isfinite(quantum)) {
    return Status::InvalidArgument(
        "DMinHaarSpace: quantum must be positive and finite, got " +
        std::to_string(quantum));
  }
  if (!(error_bound >= 0.0) || !std::isfinite(error_bound)) {
    return Status::InvalidArgument(
        "DMinHaarSpace: error_bound must be finite and >= 0, got " +
        std::to_string(error_bound));
  }
  return Status::OK();
}

DmhsResult DMinHaarSpace(const std::vector<double>& data,
                         const DmhsOptions& options,
                         const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DmhsResult out;
  out.status = options.Validate(n);
  if (!out.status.ok()) return out;
  DmhsUpSweep up = NewSweep(n, options);
  mr::JobChain chain("dmhs", cluster, &out.report, nullptr,
                     SweepFingerprint(data, up));
  out.status = RunUpSweep(data, &chain, &out.report, &up);
  if (!out.status.ok() || !up.feasible) return out;
  out.status = RunDownSweep(data, up, &chain, &out.report, &out.result);
  return out;
}

DmhsUpSweep DMinHaarSpaceUp(const std::vector<double>& data,
                            const DmhsOptions& options,
                            const mr::ClusterConfig& cluster) {
  const int64_t n = static_cast<int64_t>(data.size());
  DmhsUpSweep up = NewSweep(n, options);
  up.status = options.Validate(n);
  if (!up.status.ok()) return up;
  mr::JobChain chain("dmhs", cluster, &up.report, nullptr,
                     SweepFingerprint(data, up));
  up.status = RunUpSweep(data, &chain, &up.report, &up);
  return up;
}

DmhsResult DMinHaarSpaceDown(const std::vector<double>& data,
                             const DmhsUpSweep& up,
                             const mr::ClusterConfig& cluster) {
  DmhsResult out;
  if (!up.status.ok() || !up.feasible) {
    out.status = Status::InvalidArgument(
        "DMinHaarSpaceDown: the up sweep found no feasible synopsis");
    return out;
  }
  mr::JobChain chain("dmhs", cluster, &out.report, nullptr,
                     SweepFingerprint(data, up));
  out.status = RunDownSweep(data, up, &chain, &out.report, &out.result);
  return out;
}

}  // namespace dwm
