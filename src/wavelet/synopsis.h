// Sparse wavelet synopsis: the subset of coefficients retained by a
// thresholding algorithm, plus reconstruction queries (Section 2.2/2.3).
#ifndef DWMAXERR_WAVELET_SYNOPSIS_H_
#define DWMAXERR_WAVELET_SYNOPSIS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dwm {

struct Coefficient {
  int64_t index = 0;
  double value = 0.0;

  friend bool operator==(const Coefficient&, const Coefficient&) = default;
};

// A set of retained wavelet coefficients over a domain of `domain_size`
// data values (a power of two). Coefficient values may be the original Haar
// values (restricted synopses: conventional, GreedyAbs) or arbitrary
// (unrestricted synopses: MinHaarSpace / IndirectHaar).
class Synopsis {
 public:
  Synopsis() = default;
  // Takes coefficients in any order; sorts by index. A non-power-of-two
  // domain, out-of-range indices or duplicate indices are programming
  // errors (CHECK-abort) on this path: algorithm output feeds it directly.
  // Data-driven input (files, network) must go through Create instead.
  Synopsis(int64_t domain_size, std::vector<Coefficient> coefficients);

  // Validating factory for untrusted input: sorts `coefficients`, rejects a
  // non-power-of-two `domain_size`, out-of-range indices and duplicate
  // indices with Status::InvalidArgument (leaving *out untouched), and
  // fills *out on success. This is what the serve-side loader uses so a
  // corrupt synopsis file can never abort a serving process.
  [[nodiscard]] static Status Create(int64_t domain_size,
                                     std::vector<Coefficient> coefficients,
                                     Synopsis* out);

  int64_t domain_size() const { return domain_size_; }
  int64_t size() const { return static_cast<int64_t>(coefficients_.size()); }
  const std::vector<Coefficient>& coefficients() const { return coefficients_; }

  // Value of coefficient `index`, or 0 if not retained. O(log size).
  double CoefficientValue(int64_t index) const;

  // The three queries below read the sorted coefficient array through one
  // forward galloping cursor (synopsis.cc): the error-tree indices they
  // need ascend root-to-leaf, so each lookup costs O(log gap) from the
  // previous one instead of a fresh O(log size) binary search.

  // Reconstructed value d_hat_j: sums the <= log n + 1 retained coefficients
  // on path_j (Section 2.2) in one cursor walk — this is the serving hot
  // path.
  double PointEstimate(int64_t leaf) const;

  // Range sum d(lo:hi), inclusive on both ends, using only coefficients on
  // path_lo and path_hi (Section 2.2), one cursor per path: O(log n) gallop
  // steps. lo == hi and the full domain [0, n-1] are both valid ranges.
  double RangeSum(int64_t lo, int64_t hi) const;

  // Dense coefficient array (zeros for dropped coefficients).
  std::vector<double> ToDense() const;

  // Full reconstruction of all domain_size values (inverse transform of the
  // dense array). O(n + size).
  std::vector<double> Reconstruct() const;

  // Reconstruction of the aligned slice [first, first + count): `count` must
  // be zero (an empty slice; returns an empty vector) or a power of two with
  // `first` a multiple of it (the slice is a subtree's leaf range).
  // The subtree's coefficients at each depth are one contiguous index
  // range, so the cursor visits the root's ancestors and then one slice per
  // depth: O(count + log n * log size), touching only the coefficients in
  // the slice and on the path above it. This is what a distributed worker
  // uses to evaluate its local partition and what the serve engine computes
  // on a block-cache miss.
  std::vector<double> ReconstructRange(int64_t first, int64_t count) const;

 private:
  int64_t domain_size_ = 0;
  std::vector<Coefficient> coefficients_;  // sorted by index
};

}  // namespace dwm

#endif  // DWMAXERR_WAVELET_SYNOPSIS_H_
