// DMHaarSpace (Section 4): the locality-preserving parallelization framework
// (Algorithm 1) applied to the MinHaarSpace DP. The error tree is cut into
// layers of sub-trees that each consume 2^h = `subtree_inputs` M-rows;
// every bottom-up stage is one MapReduce job whose workers run the DP over
// their sub-tree and emit only the local root's M-row (communication
// O(N * eps / (delta * 2^h)), Eq. 6). The synopsis is then extracted by a
// mirrored sequence of top-down jobs that re-enter each sub-tree with the
// incoming value chosen by the layer above, re-running the local DP.
//
// The two sweeps are separate entry points. The up sweep alone answers
// Problem 2's question — is eps feasible, with how many coefficients, at
// what error — and keeps the rows the down sweep needs. DIndirectHaar runs
// only up sweeps for its binary-search probes and runs the down sweep once,
// for the probe that wins. DMinHaarSpace runs both on one job chain, so a
// standalone run's checkpoint frames and trace are one sequence.
#ifndef DWMAXERR_DIST_DMIN_HAAR_SPACE_H_
#define DWMAXERR_DIST_DMIN_HAAR_SPACE_H_

#include <cstdint>
#include <vector>

#include "core/min_haar_space.h"
#include "common/status.h"
#include "mr/cluster.h"

namespace dwm {

struct DmhsOptions {
  double error_bound = 0.0;
  double quantum = 1.0;
  // Rows consumed per worker sub-tree (2^h in the paper; a power of two).
  // Each bottom-layer worker therefore covers 2 * subtree_inputs leaves.
  int64_t subtree_inputs = 256;

  // InvalidArgument unless n is a power of two >= 4, subtree_inputs a power
  // of two >= 2, quantum positive and finite, and error_bound finite and
  // >= 0.
  [[nodiscard]] Status Validate(int64_t n) const;
};

struct DmhsResult {
  MhsResult result;
  mr::SimReport report;
  // Non-OK when a stage job died (see DistSynopsisResult::status); the
  // result is then infeasible and `report` covers the completed jobs.
  Status status;
};

// The up sweep's answer plus the state the down sweep re-enters. At
// N=2^17 and subtree_inputs=256 the kept rows are 256 M-rows of ~150 cells.
struct DmhsUpSweep {
  Status status;
  mr::SimReport report;
  bool feasible = false;
  int64_t count = 0;         // retained coefficients of the optimum
  double max_abs_error = 0;  // its DP-tracked error

  // Down-sweep state. Stage s has tasks[s] workers; stage_inputs[s][task]
  // are the M-rows worker `task` of stage s >= 1 consumed (stage 0 reads
  // raw data). best_z0 is the chosen c_0, as a grid index.
  double eps = 0.0;
  double quantum = 1.0;
  int64_t fan = 0;
  std::vector<int64_t> tasks;
  std::vector<std::vector<std::vector<mhs::Row>>> stage_inputs;
  int64_t best_z0 = 0;
};

// Both sweeps on one job chain: the full Problem-2 solver.
[[nodiscard]] DmhsResult DMinHaarSpace(const std::vector<double>& data,
                                       const DmhsOptions& options,
                                       const mr::ClusterConfig& cluster);

// The bottom-up jobs and the driver's choice of c_0; no synopsis.
[[nodiscard]] DmhsUpSweep DMinHaarSpaceUp(const std::vector<double>& data,
                                          const DmhsOptions& options,
                                          const mr::ClusterConfig& cluster);

// The top-down jobs over a feasible up sweep of the same `data`, on a chain
// of their own (checkpoint frames keyed by the sweep's eps). Returns the
// synopsis; InvalidArgument when `up` is not feasible.
[[nodiscard]] DmhsResult DMinHaarSpaceDown(const std::vector<double>& data,
                                           const DmhsUpSweep& up,
                                           const mr::ClusterConfig& cluster);

}  // namespace dwm

#endif  // DWMAXERR_DIST_DMIN_HAAR_SPACE_H_
