// Lemma 7: approximate union-rank selection from logarithmic sketches.
//
// Given sketches of m disjoint sets and k in [1, |union|], returns a value x
// whose descending rank in the union lies in [k, c3*k] with c3 = 8 (the
// lemma requires some constant c3 >= 2; see select7.cc for the derivation).
// x is either an element of the union (a pivot) or -infinity.
//
// The sketches come in flat: one array of (value, set, level) entries, the
// form a structure that persists pivots in blocks reads them in. The sweep
// heap-pops that array by value, so it pays O(log) per pivot it visits
// rather than a sort of every pivot; for a small k it stops after a few.

#ifndef TOKRA_SKETCH_SELECT7_H_
#define TOKRA_SKETCH_SELECT7_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bits.h"

namespace tokra::sketch {

/// Approximation constant achieved by SelectFromSketches: rank in [k, c3*k].
inline constexpr std::uint64_t kSelect7Factor = 8;

/// One pivot of one sketch: level j of set `set` has value `value`.
struct SketchEntry {
  double value = 0;
  std::uint32_t set = 0;
  std::uint32_t level = 0;
};

struct Select7Result {
  bool neg_inf = false;  ///< whole-union rank satisfied only by -inf
  double value = 0;      ///< the chosen pivot (valid unless neg_inf)
};

/// The levels 1..J of a built sketch of `set_size` >= 1 values that the
/// sweep for rank k can reach: J = min(floor(lg l) + 1, ceil(lg k) + 1),
/// the first level whose window [2^(J-1), 2^J) starts at or above k. A
/// built sketch's pivots do not increase with the level, so once the sweep
/// takes level J its total is at least 2^(J-1) >= k and it has returned.
inline std::uint32_t ReachableLevels(std::uint64_t set_size,
                                     std::uint64_t k) {
  return std::min(FloorLog2(set_size) + 1, CeilLog2(k) + 1);
}

/// Runs the Lemma 7 selection over in-memory sketches of `num_sets` sets,
/// given as their pivots in any order (every entry's set < num_sets). A
/// built sketch may list only its ReachableLevels(l, k); stored pivots that
/// drifted out of order must all be listed. CPU-only: the I/O cost ("O(m)
/// I/Os") is paid by whoever loads the m sketches into memory. Requires
/// 1 <= k; if k exceeds the union size the result is neg_inf.
Select7Result SelectFromSketches(std::vector<SketchEntry> pivots,
                                 std::uint32_t num_sets, std::uint64_t k);

}  // namespace tokra::sketch

#endif  // TOKRA_SKETCH_SELECT7_H_
