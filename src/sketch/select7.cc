#include "sketch/select7.h"

#include <algorithm>

#include "util/check.h"

namespace tokra::sketch {

// Correctness sketch (c3 = 8). For a value v let lo_i(v) = 2^(j-1) for the
// deepest level j of sketch i with pivot >= v (0 if none); the window
// invariant gives lo_i(v) <= rank_i(v) < 4*lo_i(v) (and rank_i(v) = 0 when
// lo_i(v) = 0, since the level-1 pivot is the set maximum). Summing,
// LO(v) <= rank(v) < 4*LO(v) in the union. We return the LARGEST pivot x
// with LO(x) >= k, so rank(x) >= k. Crossing one pivot at most doubles one
// set's contribution (+1 when it appears), so LO(x) <= 2*LO(x') + 1 <= 2k-1
// where x' is the next pivot above; hence rank(x) < 4(2k-1) < 8k. If no
// pivot reaches LO >= k, then LO at the smallest pivot — which is at least
// half the union size — is < k, so |union| < 2k and -infinity (rank =
// |union| in [k, 2k)) is a valid answer, matching the lemma's proviso that
// x may be -infinity.
//
// Equal values pop from the heap in any order, but the value returned is a
// sorted sweep's: the total before a group of equal values depends only on
// which values are above it, so the total first meets k inside the same
// group whatever the order within it.
Select7Result SelectFromSketches(std::vector<SketchEntry> pivots,
                                 std::uint32_t num_sets, std::uint64_t k) {
  TOKRA_CHECK(k >= 1);
  auto below = [](const SketchEntry& a, const SketchEntry& b) {
    return a.value < b.value;
  };
  std::make_heap(pivots.begin(), pivots.end(), below);
  std::vector<std::uint64_t> lo(num_sets, 0);
  std::uint64_t total = 0;  // LO(v), maintained incrementally as v sweeps down
  for (auto end = pivots.end(); end != pivots.begin(); --end) {
    std::pop_heap(pivots.begin(), end, below);
    const SketchEntry& c = end[-1];
    TOKRA_DCHECK(c.set < num_sets);
    std::uint64_t contrib = std::uint64_t{1} << (c.level - 1);
    if (contrib > lo[c.set]) {
      total += contrib - lo[c.set];
      lo[c.set] = contrib;
    }
    if (total >= k) return Select7Result{false, c.value};
  }
  return Select7Result{true, 0};
}

}  // namespace tokra::sketch
