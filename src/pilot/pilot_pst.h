// The Lemma 1 structure: an external priority search tree with pilot sets
// on a weight-balanced base tree (Section 2 of the paper).
//
//   space O(n/B) blocks; top-k query O(lg n + k/B) I/Os (log base 2);
//   insertion/deletion O(lg_B n) I/Os amortized.
//
// The structure answers top-k queries *directly* (no approximate-selection
// reduction); Theorem 1 uses it for the k >= B lg n regime, where
// O(lg n + k/B) = O(k/B) is optimal.
//
// Key objects (paper -> here):
//   base tree T (WBB, leaf cap B, branching B)     -> base nodes, node.h
//   secondary binary tree T(u) / big tree script-T -> TNodeRec arrays
//   pilot(v), B/2 <= |pilot| <= 2B, representative -> pilot blocks + rec
//   representative blocks of u                     -> the TNodeRec array
//   heap concatenation + Frederickson selection    -> select::SelectTop over
//                                                     a pager-charged view
//   insertion/deletion tokens (Lemma 3)            -> per-record counters
//                                                     checked when
//                                                     TOKRA_PARANOID is on

#ifndef TOKRA_PILOT_PILOT_PST_H_
#define TOKRA_PILOT_PILOT_PST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "em/pager.h"
#include "pilot/node.h"
#include "util/point.h"
#include "util/status.h"

namespace tokra::pilot {

/// Per-query instrumentation for experiments E3/E7/E10.
struct QueryStats {
  std::uint64_t q1_points = 0;       ///< path pilot points (Q1)
  std::uint64_t q2_points = 0;       ///< selected-subtree pilot points (Q2)
  std::uint64_t q3_points = 0;       ///< sibling/children pilot points (Q3)
  std::uint64_t reps_selected = 0;   ///< t = phi (lg n + k/B) realized
  std::uint64_t heap_nodes_visited = 0;
  std::uint64_t comparisons = 0;     ///< CPU-side (free in the model)
};

class PilotPst {
 public:
  struct Options {
    /// phi of Lemma 2; 16 makes the candidate set provably sufficient.
    std::uint32_t phi = 16;
    /// Base-tree branching parameter a (0 = derive max(4, B/16)).
    std::uint32_t branch = 0;
    /// Leaf capacity b (0 = derive B).
    std::uint32_t leaf_cap = 0;
  };

  /// Creates an empty structure.
  static PilotPst Create(em::Pager* pager, Options options);
  static PilotPst Create(em::Pager* pager) { return Create(pager, Options()); }

  /// Reopens from a persisted meta block.
  static PilotPst Open(em::Pager* pager, em::BlockId meta);

  /// Bulk-builds from arbitrary points (distinct x, distinct scores).
  /// O((n/B) lg n) I/Os.
  static PilotPst Build(em::Pager* pager, std::vector<Point> points,
                        Options options);
  static PilotPst Build(em::Pager* pager, std::vector<Point> points) {
    return Build(pager, std::move(points), Options());
  }

  em::BlockId meta_block() const { return meta_; }
  std::uint64_t size() const;  ///< live points

  /// Inserts p. O(lg_B n) I/Os amortized.
  Status Insert(const Point& p);

  /// Deletes p (x and score must both match the stored point).
  /// O(lg_B n) I/Os amortized.
  Status Delete(const Point& p);

  /// The k highest-scored points with x in [x1, x2], score-descending.
  /// Returns all of them if fewer than k. O(lg n + k/B) I/Os.
  StatusOr<std::vector<Point>> TopK(double x1, double x2, std::uint64_t k,
                                    QueryStats* stats = nullptr) const;

  /// Appends every point in [x1, x2] x [y, +inf). O(lg n + t/B) I/Os via
  /// max-score pruning: a visited covered node either reports its whole
  /// pilot set (>= B/2 points, charged to output) or terminates its branch.
  /// A boundary node, whose slab only partly overlaps [x1, x2], binary-
  /// searches its x-ordered set in place and pins only the blocks up to the
  /// first x > x2: O(1 + t_u/B) blocks for its t_u points in range. Covered
  /// nodes' sets are prefetched per wave; boundary nodes' are not.
  /// This serves as the Theorem 1 reduction's 3-sided reporting structure
  /// (substituting the Arge-Samoladas-Vitter PST; see DESIGN.md).
  Status Report3Sided(double x1, double x2, double y,
                      std::vector<Point>* out) const;

  /// Frees all blocks.
  void DestroyAll();

  /// Validates every structural invariant (weights, slab order, heap order
  /// of pilot sets, x order within each set, size rules, reachability of
  /// all live points). O(n).
  void CheckInvariants() const;

 private:
  friend class PilotHeapView;

  PilotPst(em::Pager* pager, em::BlockId meta) : pager_(pager), meta_(meta) {}

  // ---- parameters ----
  std::uint32_t B() const { return pager_->B(); }
  std::uint64_t MetaGet(std::size_t w) const;
  void MetaSet(std::size_t w, std::uint64_t v);
  std::uint32_t branch() const;    // a
  std::uint32_t leaf_cap() const;  // b
  /// Pilot fill target / size floor and ceiling.
  std::uint32_t PilotTarget() const { return B(); }
  std::uint32_t PilotMin() const { return B() / 2; }
  std::uint32_t PilotMax() const { return 2 * B(); }
  /// Weight ceiling of a level-i node: b * a^i.
  std::uint64_t WeightCap(std::uint32_t level) const;

  // ---- record I/O ----
  std::vector<TNodeRec> LoadTNodes(em::BlockId base) const;
  TNodeRec LoadTNode(const TRef& t) const;
  void StoreTNode(const TRef& t, const TNodeRec& rec);
  std::vector<Point> PilotRead(const TNodeRec& rec) const;
  /// Appends the points of rec's set in [x1, x2] x [y, +inf). Pins the
  /// blocks in x order, skips one that ends left of x1, and returns at the
  /// first x > x2 without pinning the blocks after it.
  void PilotScan(const TNodeRec& rec, double x1, double x2, double y,
                 std::vector<Point>* out) const;
  /// Prefetches the occupied pilot blocks of every record into the pool in
  /// one call, so the whole-set reads that follow hit the cache. Takes the
  /// (ref, record) pairs the query paths already hold.
  void PrefetchPilots(std::span<const std::pair<TRef, TNodeRec>> recs) const;
  /// Rewrites the pilot set of `t` and refreshes count/rep in its record.
  /// `pts` must be in strictly increasing x: every set is stored x-ordered.
  void PilotWrite(const TRef& t, TNodeRec* rec, const std::vector<Point>& pts);
  TRef RootTRef() const;
  /// Root T-node of the subtree hanging below slab record `rec`.
  TRef SlabChild(const TNodeRec& rec) const;

  // ---- construction ----
  em::BlockId NewLeaf(em::BlockId parent, std::uint64_t parent_slab,
                      const std::vector<double>& xs);
  em::BlockId NewInternal(em::BlockId parent, std::uint64_t parent_slab,
                          std::uint32_t level,
                          const std::vector<em::BlockId>& children,
                          const std::vector<double>& lo,
                          const std::vector<double>& hi,
                          const std::vector<std::uint64_t>& weights);
  /// Builds a balanced base subtree over sorted points; returns its root.
  /// Does not fill pilots.
  em::BlockId BuildSubtree(const std::vector<Point>& by_x, std::uint32_t level,
                           em::BlockId parent, std::uint64_t parent_slab,
                           double lo, double hi);
  /// Distributes points (sorted by score desc) into pilots from `t` down.
  void FillPilots(const TRef& t, std::vector<Point> by_score);
  void FreeSubtree(em::BlockId base);
  /// Frees everything of base node `base` and below except its header
  /// block: x blocks of a leaf; T-array, pilot blocks and child subtrees of
  /// an internal node.
  void FreeBelowHeader(em::BlockId base);
  /// Collects all live points in the T-subtree rooted at `t`.
  void CollectPilots(const TRef& t, std::vector<Point>* out) const;

  // ---- updates ----
  void PushDown(TRef t, std::vector<Point> carry);
  /// Remedies an underflow at `t` per Section 2 (up to two pull-ups,
  /// recursively fixing children between them).
  void FixUnderflow(TRef t);
  /// One pull-up; returns true if it was draining.
  bool PullUp(const TRef& t, TNodeRec* rec);
  bool Underflows(const TNodeRec& rec, const TRef& t) const;
  /// Inserts x into the base leaf on the descent path; returns the path of
  /// base ids visited (root first) for rebalancing.
  void Rebalance(const std::vector<em::BlockId>& path);
  void RebuildSubtree(em::BlockId base);
  void GlobalRebuild();

  // ---- validation ----
  void CheckBase(em::BlockId base, std::uint32_t expect_level, double lo,
                 double hi, std::uint64_t* weight, std::uint64_t* live) const;
  void CheckT(const TRef& t, double bound, double lo, double hi,
              std::uint64_t* live) const;

  em::Pager* pager_;
  em::BlockId meta_;
};

}  // namespace tokra::pilot

#endif  // TOKRA_PILOT_PILOT_PST_H_
