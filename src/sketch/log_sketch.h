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

/// Value-based logarithmic sketch of one set.
class LogSketch {
 public:
  LogSketch() = default;

  /// Builds from the set's values in any order. Each pivot j is the value of
  /// descending rank min(l, floor(3/2 * 2^(j-1))) — the mid-window choice
  /// the paper uses when repairing pivots, giving maximal drift slack on
  /// both sides. The pivots are placed top-down, each by nth_element on the
  /// prefix above the previous one: O(l) expected, and the same values a
  /// full sort would pick.
  static LogSketch Build(std::vector<double> vals) {
    LogSketch s;
    s.set_size_ = vals.size();
    if (s.set_size_ == 0) return s;
    std::uint32_t levels = FloorLog2(s.set_size_) + 1;
    s.pivots_.resize(levels);
    auto end = vals.end();
    for (std::uint32_t j = levels; j >= 1; --j) {
      std::uint64_t lo = std::uint64_t{1} << (j - 1);
      std::uint64_t r = std::min<std::uint64_t>(s.set_size_, lo + lo / 2);
      TOKRA_DCHECK(r >= lo);
      auto nth = vals.begin() + static_cast<std::ptrdiff_t>(r - 1);
      std::nth_element(vals.begin(), nth, end, std::greater<>());
      s.pivots_[j - 1] = SketchPivot{*nth, r};
      end = nth;
    }
    return s;
  }

  /// Reconstructs a sketch from stored pivot values (level j at index j-1).
  /// Used by structures that persist pivots in blocks; the rank hints are
  /// nominal mid-window values.
  static LogSketch FromPivots(std::vector<double> pivot_values,
                              std::uint64_t set_size) {
    LogSketch s;
    s.set_size_ = set_size;
    TOKRA_CHECK(set_size == 0 ||
                pivot_values.size() == FloorLog2(set_size) + 1);
    for (std::uint32_t j = 1; j <= pivot_values.size(); ++j) {
      std::uint64_t lo = std::uint64_t{1} << (j - 1);
      s.pivots_.push_back(SketchPivot{pivot_values[j - 1],
                                      std::min<std::uint64_t>(set_size,
                                                              lo + lo / 2)});
    }
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
