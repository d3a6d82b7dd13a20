// The Lemma 4 structure (Section 3.3): approximate range k-selection for
// k = O(polylg n) with O(lg_B n) query and amortized update I/Os.
//
// A fanout-f base tree (f = sqrt(B lg n) in the paper; configurable here so
// tests exercise the machinery at laptop scale) over leaves that each hold a
// Sheng-Tao'12 selector instance on b = f*l*B points. Every internal node u
// keeps the (f, c2*l)-group G_u = (G_u1, ..., G_uf) — G_ui being the c2*l
// highest scores of child i's subtree — in a Lemma 6 FlGroup structure,
// which simultaneously provides the Rank operator (SelectApprox over a
// child interval) and the Max operator (per-set maxima are level-1 sketch
// pivots) that the AURS query of Lemma 5 consumes.
//
// A query decomposes [x1, x2] into O(lg_f n) covered multi-slabs plus at
// most two boundary leaves, runs AURS over the multi-slab sets, selects in
// the boundary leaves with their ST12 structures, and returns the maximum of
// the candidates — exactly the Section 3.3 algorithm. Decompose does the
// tree walk once and holds its result (RangeSelection), so a retry at a
// larger rank re-runs only AURS and the leaf selections.
//
// Documented deviations (constants / robustness, see DESIGN.md):
//  * AURS runs in non-strict mode with rho clamped per set, because multi-
//    slab set sizes are data-dependent; small sets weaken the constant, and
//    the TopkIndex reduction carries a retry loop as a safety net. A retry
//    re-selects on the held RangeSelection; it does not re-walk the tree.
//  * A boundary leaf with fewer than k points in [x1, x2] offers no
//    candidate: its own selection could rank below k in the union, so all
//    of its points simply qualify.
//  * G_u is not refilled on deletion (it decays until the next rebuild);
//    periodic global rebuilding bounds the decay, standing in for the
//    paper's unspecified "analogous" deletion maintenance and node-split
//    handling.

#ifndef TOKRA_LEMMA4_STRUCTURE_H_
#define TOKRA_LEMMA4_STRUCTURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "aurs/ranked_set.h"
#include "em/pager.h"
#include "flgroup/fl_group.h"
#include "st12/selector.h"
#include "util/point.h"
#include "util/status.h"

namespace tokra::lemma4 {

/// One range's canonical decomposition: the FlGroups of the visited nodes,
/// the multi-slab sets over them and each boundary leaf's ST12
/// decomposition. Select re-runs AURS (FlGroup reads) and the leaf
/// selections (CPU) without re-walking the tree. Valid until the selector's
/// next update, since the FlGroups read the pager.
class RangeSelection {
 public:
  /// |S ∩ [x1,x2]|, exact.
  std::uint64_t count() const { return count_; }

  /// A score whose rank among the scores of S ∩ [x1,x2] falls in
  /// [k, Lemma4Selector::kApproxFactor*k), or -inf (whole range
  /// qualifies). kInvalidArgument unless 1 <= k <= l; kOutOfRange when k
  /// exceeds what the multi-slab sets and boundary leaves hold.
  StatusOr<double> Select(std::uint64_t k) const;

 private:
  friend class Lemma4Selector;
  std::uint64_t l_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t slab_total_ = 0;  ///< sum of the multi-slab set sizes
  std::vector<std::unique_ptr<flgroup::FlGroup>> groups_;
  std::vector<std::unique_ptr<aurs::RankedSet>> slabs_;
  std::vector<st12::RangeSketches> leaves_;  ///< non-empty boundary leaves
};

class Lemma4Selector {
 public:
  struct Params {
    std::uint32_t fanout = 0;    ///< 0 = derive sqrt(B lg N)
    std::uint32_t l = 0;         ///< query rank capacity; 0 = derive B lg N
    std::uint32_t leaf_cap = 0;  ///< 0 = derive f*l*B capped at 1<<18
  };

  /// End-to-end approximation: returned rank in [k, kApproxFactor*k) under
  /// the documented conditions (verified empirically by property tests).
  static constexpr std::uint64_t kApproxFactor = 256;

  static Lemma4Selector Build(em::Pager* pager, std::vector<Point> points,
                              Params params);
  static Lemma4Selector Build(em::Pager* pager, std::vector<Point> points) {
    return Build(pager, std::move(points), Params());
  }
  static Lemma4Selector Open(em::Pager* pager, em::BlockId meta);

  em::BlockId meta_block() const { return meta_; }
  std::uint64_t size() const;
  std::uint32_t l() const;  ///< max supported k

  Status Insert(const Point& p);
  Status Delete(const Point& p);

  /// The canonical decomposition of [x1,x2] (empty if x1 > x2).
  /// O(lg_B n) I/Os.
  RangeSelection Decompose(double x1, double x2) const;

  /// Decompose(x1, x2).Select(k). Requires
  /// 1 <= k <= min(l, Decompose(x1, x2).count()).
  /// O(lg_B n) I/Os.
  StatusOr<double> SelectApprox(double x1, double x2, std::uint64_t k) const;

  void DestroyAll();
  void CheckInvariants() const;

 private:
  Lemma4Selector(em::Pager* pager, em::BlockId meta)
      : pager_(pager), meta_(meta) {}

  std::uint32_t B() const { return pager_->B(); }
  std::uint64_t MetaGet(std::size_t w) const;
  void MetaSet(std::size_t w, std::uint64_t v);

  em::BlockId BuildNode(const std::vector<Point>& by_x, std::uint32_t level,
                        double lo, double hi,
                        std::vector<double>* top_scores);
  void FreeNode(em::BlockId id);
  void CollectPoints(em::BlockId id, std::vector<Point>* out) const;
  void MaybeGlobalRebuild();
  void CheckNode(em::BlockId id, double lo, double hi,
                 std::uint64_t* count) const;

  em::Pager* pager_;
  em::BlockId meta_;
};

}  // namespace tokra::lemma4

#endif  // TOKRA_LEMMA4_STRUCTURE_H_
