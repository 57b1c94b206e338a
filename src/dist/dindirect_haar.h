// DIndirectHaar (Algorithm 2): solves Problem 1 by binary search over the
// error bound. Each probe runs DMHaarSpace's up sweep only (a multi-job
// distributed run that yields the count and error of Problem 2's optimum);
// the winning probe's synopsis is materialized once, by one down sweep
// after the search. The search bounds are themselves computed with two
// extra jobs: e_l = the (B+1)-largest coefficient magnitude and e_u = the
// max_abs of the conventional B-term synopsis. Every probe logs one
// `dih_probe` info record (probe, eps, count, max_abs_error, fits_budget;
// its seconds in "m").
#ifndef DWMAXERR_DIST_DINDIRECT_HAAR_H_
#define DWMAXERR_DIST_DINDIRECT_HAAR_H_

#include <cstdint>
#include <vector>

#include "core/indirect_haar.h"
#include "common/status.h"
#include "mr/cluster.h"

namespace dwm {

struct DIndirectHaarOptions {
  int64_t budget = 0;
  double quantum = 1.0;
  int64_t subtree_inputs = 256;  // DMHaarSpace worker sub-tree size
  int max_iterations = 40;

  // InvalidArgument unless n is a power of two >= 8, budget >= 0 and the
  // probes' options (quantum, subtree_inputs) pass DmhsOptions::Validate.
  [[nodiscard]] Status Validate(int64_t n) const;
};

struct DIndirectHaarResult {
  IndirectHaarResult search;
  mr::SimReport report;  // accumulated over every job of every probe
  // Non-OK when any bound/probe job died (see DistSynopsisResult::status);
  // the search result is then meaningless.
  Status status;
};

[[nodiscard]] DIndirectHaarResult DIndirectHaar(const std::vector<double>& data,
                                                const DIndirectHaarOptions& options,
                                                const mr::ClusterConfig& cluster);

}  // namespace dwm

#endif  // DWMAXERR_DIST_DINDIRECT_HAAR_H_
