#include "wavelet/synopsis.h"

#include <algorithm>
#include <string>

#include "common/bits.h"
#include "common/check.h"
#include "wavelet/error_tree.h"
#include "wavelet/haar.h"

namespace dwm {
namespace {

void SortByIndex(std::vector<Coefficient>* coefficients) {
  std::sort(coefficients->begin(), coefficients->end(),
            [](const Coefficient& a, const Coefficient& b) {
              return a.index < b.index;
            });
}

// Validation shared by the trusting constructor (CHECK on failure) and the
// Create factory (Status on failure). Expects `coefficients` sorted.
Status ValidateSorted(int64_t domain_size,
                      const std::vector<Coefficient>& coefficients) {
  if (domain_size <= 0 ||
      !IsPowerOfTwo(static_cast<uint64_t>(domain_size))) {
    return Status::InvalidArgument(
        "synopsis domain size must be a power of two, got " +
        std::to_string(domain_size));
  }
  for (size_t i = 0; i < coefficients.size(); ++i) {
    const int64_t index = coefficients[i].index;
    if (index < 0 || index >= domain_size) {
      return Status::InvalidArgument(
          "coefficient index " + std::to_string(index) +
          " outside domain [0, " + std::to_string(domain_size) + ")");
    }
    if (i > 0 && coefficients[i - 1].index == index) {
      return Status::InvalidArgument("duplicate coefficient index " +
                                     std::to_string(index));
    }
  }
  return Status::OK();
}

// Forward-only cursor over a coefficient array sorted by index. Targets
// must be sought in non-decreasing order; each Seek gallops from the current
// position (doubling probes bound the target, then a binary search over the
// last octave pins it), so a walk over ascending indices costs O(log gap)
// per step instead of O(log size). PointEstimate, RangeSum and
// ReconstructRange all read the synopsis through it.
class CoefficientCursor {
 public:
  explicit CoefficientCursor(const std::vector<Coefficient>& coefficients)
      : pos_(coefficients.data()), end_(pos_ + coefficients.size()) {}

  // Moves to the first coefficient with ->index >= index.
  void Seek(int64_t index) {
    if (pos_ == end_ || pos_->index >= index) return;
    const size_t remaining = static_cast<size_t>(end_ - pos_);
    size_t step = 1;
    while (step < remaining && pos_[step].index < index) step <<= 1;
    pos_ = std::lower_bound(
        pos_ + (step >> 1), pos_ + std::min(step, remaining), index,
        [](const Coefficient& c, int64_t idx) { return c.index < idx; });
  }

  // Value of coefficient `index`, or 0 if not retained. Seeks to it.
  double Value(int64_t index) {
    Seek(index);
    return pos_ != end_ && pos_->index == index ? pos_->value : 0.0;
  }

  void Advance() { ++pos_; }
  bool Done() const { return pos_ == end_; }
  const Coefficient* operator->() const { return pos_; }

 private:
  const Coefficient* pos_;
  const Coefficient* end_;
};

}  // namespace

Synopsis::Synopsis(int64_t domain_size, std::vector<Coefficient> coefficients)
    : domain_size_(domain_size), coefficients_(std::move(coefficients)) {
  SortByIndex(&coefficients_);
  const Status valid = ValidateSorted(domain_size_, coefficients_);
  DWM_CHECK(valid.ok());
}

Status Synopsis::Create(int64_t domain_size,
                        std::vector<Coefficient> coefficients,
                        Synopsis* out) {
  SortByIndex(&coefficients);
  DWM_RETURN_NOT_OK(ValidateSorted(domain_size, coefficients));
  out->domain_size_ = domain_size;
  out->coefficients_ = std::move(coefficients);
  return Status::OK();
}

double Synopsis::CoefficientValue(int64_t index) const {
  auto it = std::lower_bound(coefficients_.begin(), coefficients_.end(), index,
                             [](const Coefficient& c, int64_t idx) {
                               return c.index < idx;
                             });
  if (it != coefficients_.end() && it->index == index) return it->value;
  return 0.0;
}

double Synopsis::PointEstimate(int64_t leaf) const {
  DWM_CHECK_GE(leaf, 0);
  DWM_CHECK_LT(leaf, domain_size_);
  if (coefficients_.empty()) return 0.0;
  // Degenerate one-value domain: the only node is the average c_0.
  if (domain_size_ == 1) {
    return coefficients_.front().index == 0 ? coefficients_.front().value : 0.0;
  }
  // Collect path_leaf bottom-up with the sign each node contributes (+1 when
  // the path descends into the node's left child). nodes[] ends up in
  // descending index order; walking it backwards visits the path top-down,
  // i.e. in ascending index order.
  int64_t nodes[64];
  int signs[64];
  int len = 0;
  int64_t node = LeafParent(domain_size_, leaf);
  nodes[len] = node;
  signs[len] = ((domain_size_ + leaf) & 1) != 0 ? -1 : +1;
  ++len;
  while (node > 1) {
    const int64_t child = node;
    node >>= 1;
    nodes[len] = node;
    signs[len] = (child & 1) != 0 ? -1 : +1;
    ++len;
  }
  CoefficientCursor cursor(coefficients_);
  double value = cursor.Value(int64_t{0});  // the average node c_0: +1
  for (int i = len - 1; i >= 0 && !cursor.Done(); --i) {
    const double c = cursor.Value(nodes[i]);
    if (c != 0.0) value += signs[i] * c;
  }
  return value;
}

double Synopsis::RangeSum(int64_t lo, int64_t hi) const {
  DWM_CHECK_LE(lo, hi);
  DWM_CHECK_GE(lo, 0);
  DWM_CHECK_LT(hi, domain_size_);
  // Collect the union of path_lo and path_hi; interior nodes fully contained
  // in [lo, hi] contribute |leftleaves| - |rightleaves| = 0 and are skipped
  // (Section 2.2).
  double sum = 0.0;
  auto contribution = [&](int64_t node, double c) {
    if (c == 0.0) return;
    if (node == 0) {
      sum += static_cast<double>(hi - lo + 1) * c;
      return;
    }
    const LeafRange r = NodeLeafRange(domain_size_, node);
    const int64_t mid = r.first + r.count / 2;
    // Overlap of [lo, hi] with the left and right child leaf ranges.
    const int64_t left_overlap =
        std::max<int64_t>(0, std::min(hi, mid - 1) - std::max(lo, r.first) + 1);
    const int64_t right_overlap = std::max<int64_t>(
        0, std::min(hi, r.first + r.count - 1) - std::max(lo, mid) + 1);
    sum += static_cast<double>(left_overlap - right_overlap) * c;
  };
  // Both paths bottom-up (ending at c_0), each looked up top-down by its
  // own cursor. Every leaf sits at the same depth, so the paths have the
  // same length.
  int64_t path_lo[64];
  int64_t path_hi[64];
  int len = 0;
  for (int64_t a = LeafParent(domain_size_, lo),
               b = LeafParent(domain_size_, hi);
       a >= 1; a >>= 1, b >>= 1, ++len) {
    path_lo[len] = a;
    path_hi[len] = b;
  }
  path_lo[len] = 0;
  path_hi[len] = 0;
  ++len;
  double values_lo[64];
  double values_hi[64];
  CoefficientCursor cursor_lo(coefficients_);
  CoefficientCursor cursor_hi(coefficients_);
  for (int i = len - 1; i >= 0; --i) {
    values_lo[i] = cursor_lo.Value(path_lo[i]);
    values_hi[i] = cursor_hi.Value(path_hi[i]);
  }
  // Walk both paths in lock-step from the bottom; they merge at the lowest
  // common ancestor, above which each node is visited once.
  int i = 0;
  int j = 0;
  while (path_lo[i] != path_hi[j]) {
    if (path_lo[i] > path_hi[j]) {
      contribution(path_lo[i], values_lo[i]);
      ++i;
    } else {
      contribution(path_hi[j], values_hi[j]);
      ++j;
    }
  }
  for (; i < len; ++i) contribution(path_lo[i], values_lo[i]);
  return sum;
}

std::vector<double> Synopsis::ToDense() const {
  std::vector<double> dense(static_cast<size_t>(domain_size_), 0.0);
  for (const Coefficient& c : coefficients_) {
    dense[static_cast<size_t>(c.index)] = c.value;
  }
  return dense;
}

std::vector<double> Synopsis::Reconstruct() const {
  return InverseHaar(ToDense());
}

std::vector<double> Synopsis::ReconstructRange(int64_t first,
                                               int64_t count) const {
  // count == 0 is an explicitly supported empty slice (a worker can be
  // assigned zero leaves), not an accident of the power-of-two check below:
  // IsPowerOfTwo(0) is false, so without this branch it would CHECK-abort.
  if (count == 0) {
    DWM_CHECK_GE(first, 0);
    DWM_CHECK_LE(first, domain_size_);
    return {};
  }
  if (count == domain_size_) {
    DWM_CHECK_EQ(first, 0);
    return Reconstruct();
  }
  DWM_CHECK(IsPowerOfTwo(static_cast<uint64_t>(count)));
  DWM_CHECK_EQ(first % count, 0);
  DWM_CHECK_GE(first, 0);
  DWM_CHECK_LE(first + count, domain_size_);
  // The slice is the leaf range of the subtree rooted at `root`. Build the
  // local dense coefficient array: slot 0 carries the incoming value from
  // the retained ancestors of `root`, slots 1..count-1 the retained
  // coefficients inside the subtree.
  const int64_t root = domain_size_ / count + first / count;
  std::vector<double> local(static_cast<size_t>(count), 0.0);
  // Strict ancestors of `root`, bottom-up and ending at c_0; looked up
  // top-down, then summed bottom-up.
  int64_t ancestors[64];
  double values[64];
  int len = 0;
  for (int64_t node = root >> 1; node >= 1; node >>= 1) ancestors[len++] = node;
  ancestors[len++] = 0;
  CoefficientCursor cursor(coefficients_);
  for (int i = len - 1; i >= 0; --i) values[i] = cursor.Value(ancestors[i]);
  for (int i = 0; i < len; ++i) {
    if (values[i] != 0.0) {
      local[0] += LeafSign(domain_size_, ancestors[i], first) * values[i];
    }
  }
  // The subtree's nodes `width` levels below `root` are the contiguous
  // global indices [root * width, (root + 1) * width), landing in local
  // slots [width, 2 * width). These index ranges ascend with depth, so the
  // same cursor sweeps them in order.
  for (int64_t width = 1; width < count; width <<= 1) {
    const int64_t begin = root * width;
    cursor.Seek(begin);
    for (; !cursor.Done() && cursor->index < begin + width; cursor.Advance()) {
      local[static_cast<size_t>(width + (cursor->index - begin))] =
          cursor->value;
    }
  }
  return InverseHaar(local);
}

}  // namespace dwm
