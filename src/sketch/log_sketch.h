// Logarithmic sketches (Sheng & Tao [14], restated in Section 4.1).
//
// The sketch of a set L of l values is an array of floor(lg l)+1 pivots; the
// j-th pivot is any element whose descending rank in L lies in [2^(j-1), 2^j).
// Sketches answer approximate rank queries within a factor 4 per set, and
// Lemma 7 combines m sketches into an approximate union-rank selection.

#ifndef TOKRA_SKETCH_LOG_SKETCH_H_
#define TOKRA_SKETCH_LOG_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/bits.h"
#include "util/check.h"

namespace tokra::sketch {

/// One pivot: an element value and the rank it had when (re)computed. The
/// live invariant is only rank-window membership, not the exact rank.
struct SketchPivot {
  double value = 0;
  std::uint64_t rank_hint = 0;
};

/// The rank a built pivot of level j takes in a set of l values:
/// min(l, floor(3/2 * 2^(j-1))), the middle of the window [2^(j-1), 2^j).
inline std::uint64_t PivotRank(std::uint32_t j, std::uint64_t l) {
  std::uint64_t lo = std::uint64_t{1} << (j - 1);
  return std::min<std::uint64_t>(l, lo + lo / 2);
}

/// Places the pivots of levels upto, upto-1, ..., 1 of the set `vals`
/// (any order; reordered in place) and calls emit(j, value, rank) for each,
/// with rank = PivotRank(j, l). Requires upto <= floor(lg l) + 1. Top-down:
/// each pivot is found by nth_element on the prefix above the previous one,
/// so the cost is O(l + PivotRank(upto, l)) expected, and the values are
/// the ones a full sort would pick. A level's value does not depend on
/// upto, so a caller that needs only the low levels (Lemma 7's sweep for a
/// small rank) stops at the level it can reach.
template <typename Emit>
void ForEachPivot(std::span<double> vals, std::uint32_t upto, Emit emit) {
  TOKRA_DCHECK(upto == 0 || upto <= FloorLog2(vals.size()) + 1);
  auto end = vals.end();
  for (std::uint32_t j = upto; j >= 1; --j) {
    std::uint64_t r = PivotRank(j, vals.size());
    TOKRA_DCHECK(r >= (std::uint64_t{1} << (j - 1)));
    auto nth = vals.begin() + static_cast<std::ptrdiff_t>(r - 1);
    std::nth_element(vals.begin(), nth, end, std::greater<>());
    emit(j, *nth, r);
    end = nth;
  }
}

/// Value-based logarithmic sketch of one set.
class LogSketch {
 public:
  LogSketch() = default;

  /// Builds from the set's values in any order: every level of
  /// ForEachPivot, so pivot j is the value of descending rank
  /// PivotRank(j, l) — the mid-window choice the paper uses when repairing
  /// pivots, giving maximal drift slack on both sides.
  static LogSketch Build(std::vector<double> vals) {
    LogSketch s;
    s.set_size_ = vals.size();
    s.pivots_.resize(vals.empty() ? 0 : FloorLog2(vals.size()) + 1);
    ForEachPivot(vals, s.levels(),
                 [&s](std::uint32_t j, double v, std::uint64_t r) {
                   s.pivots_[j - 1] = SketchPivot{v, r};
                 });
    return s;
  }

  std::uint64_t set_size() const { return set_size_; }
  std::uint32_t levels() const {
    return static_cast<std::uint32_t>(pivots_.size());
  }
  /// Pivot of level j (1-based).
  const SketchPivot& pivot(std::uint32_t j) const { return pivots_[j - 1]; }

  /// Lower bound on the descending rank of v in the set: 2^(j-1) for the
  /// deepest level j whose pivot is >= v; 0 if v exceeds the maximum.
  std::uint64_t RankLowerBound(double v) const {
    std::uint64_t lo = 0;
    for (std::uint32_t j = 1; j <= levels(); ++j) {
      if (pivots_[j - 1].value >= v) lo = std::uint64_t{1} << (j - 1);
    }
    return lo;
  }

  /// Matching upper bound: rank(v) < 4 * max(RankLowerBound(v), 1) and
  /// rank(v) <= set_size. Exactly 0 when v exceeds the maximum.
  std::uint64_t RankUpperBound(double v) const {
    std::uint64_t lo = RankLowerBound(v);
    if (lo == 0) return 0;
    return std::min<std::uint64_t>(set_size_, 4 * lo - 1);
  }

  /// Validates the window invariant against the live set (sorted descending).
  /// Test helper; O(l) CPU.
  void CheckAgainst(std::span<const double> sorted_desc) const {
    TOKRA_CHECK_EQ(set_size_, sorted_desc.size());
    for (std::uint32_t j = 1; j <= levels(); ++j) {
      // Descending rank of pivot value.
      std::uint64_t r = 0;
      for (double v : sorted_desc) {
        if (v >= pivots_[j - 1].value) ++r;
      }
      std::uint64_t lo = std::uint64_t{1} << (j - 1);
      TOKRA_CHECK(r >= lo);
      TOKRA_CHECK(r < 2 * lo);
      TOKRA_CHECK(r <= set_size_);
    }
  }

 private:
  std::vector<SketchPivot> pivots_;
  std::uint64_t set_size_ = 0;
};

}  // namespace tokra::sketch

#endif  // TOKRA_SKETCH_LOG_SKETCH_H_
