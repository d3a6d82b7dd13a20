// The Section 2 query algorithm: boundary paths (Q1), heap concatenation +
// selection over the covered subtrees (Q2), sibling/children augmentation
// (Q3), and a final top-k over the candidate union (Lemma 2: phi = 16 makes
// Q1 u Q2 u Q3 a superset of the true top-k).

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "pilot/pilot_pst.h"
#include "select/select.h"
#include "util/bits.h"
#include "util/check.h"

namespace tokra::pilot {
namespace {

struct TRefHash {
  std::size_t operator()(const TRef& t) const {
    return std::hash<std::uint64_t>()(t.base * 1000003u + t.idx);
  }
};

using TRefSet = std::unordered_set<TRef, TRefHash>;

}  // namespace

/// Max-heap view over the big tree script-T restricted to the Pi subtrees:
/// node key = representative score of its pilot set; children = T-children
/// with non-empty pilots (an empty pilot implies an empty subtree, so the
/// pruning is exact). Every view call costs O(1) block reads through the
/// pager, which is what gives the O(lg n + k/B) selection cost.
class PilotHeapView : public select::HeapView {
 public:
  PilotHeapView(const PilotPst* pst, std::vector<TRef> roots)
      : pst_(pst) {
    for (const TRef& r : roots) {
      TNodeRec rec = pst_->LoadTNode(r);
      if (rec.pilot_count == 0) continue;
      registry_.push_back(r);
      root_nodes_.push_back(
          select::HeapNode{registry_.size() - 1, rec.rep()});
    }
  }

  void Roots(std::vector<select::HeapNode>* out) const override {
    for (const auto& n : root_nodes_) out->push_back(n);
  }

  void Children(select::NodeId id,
                std::vector<select::HeapNode>* out) const override {
    TRef t = registry_[id];
    TNodeRec rec = pst_->LoadTNode(t);
    std::vector<TRef> kids;
    if (rec.is_slab()) {
      TRef c = pst_->SlabChild(rec);
      if (c.valid()) kids.push_back(c);
    } else {
      kids.push_back(TRef{t.base, static_cast<TIndex>(rec.left)});
      kids.push_back(TRef{t.base, static_cast<TIndex>(rec.right)});
    }
    for (const TRef& c : kids) {
      TNodeRec crec = pst_->LoadTNode(c);
      if (crec.pilot_count == 0) continue;  // empty pilot => empty subtree
      registry_.push_back(c);
      out->push_back(select::HeapNode{registry_.size() - 1, crec.rep()});
    }
  }

  const TRef& Resolve(select::NodeId id) const { return registry_[id]; }

 private:
  const PilotPst* pst_;
  mutable std::vector<TRef> registry_;
  std::vector<select::HeapNode> root_nodes_;
};

StatusOr<std::vector<Point>> PilotPst::TopK(double x1, double x2,
                                            std::uint64_t k,
                                            QueryStats* stats) const {
  if (x1 > x2) return Status::InvalidArgument("x1 > x2");
  if (k == 0) return std::vector<Point>{};
  std::uint64_t n = size();
  if (n == 0) return std::vector<Point>{};

  // ---- boundary paths pi1, pi2; Q1 = their pilot points inside q ------
  std::vector<Point> cand;
  TRefSet visited;
  std::vector<std::pair<TRef, TNodeRec>> path_recs;

  auto descend = [&](double x) {
    em::BlockId cur = MetaGet(kMRoot);
    while (true) {
      em::PageRef h = pager_->Fetch(cur);
      if (h.Get(kHKind) == 1) return;  // base leaf: path ends
      TIndex v = static_cast<TIndex>(h.Get(kHIntRoot));
      h = em::PageRef();
      std::vector<TNodeRec> recs = LoadTNodes(cur);
      while (true) {
        TRef t{cur, v};
        if (visited.insert(t).second) {
          path_recs.emplace_back(t, recs[v]);
        }
        const TNodeRec& rec = recs[v];
        if (rec.is_slab()) {
          cur = rec.base_child;
          break;
        }
        const TNodeRec& left = recs[static_cast<TIndex>(rec.left)];
        v = (x < left.hi_x()) ? static_cast<TIndex>(rec.left)
                              : static_cast<TIndex>(rec.right);
      }
    }
  };
  descend(x1);
  descend(x2);

  for (const auto& [t, rec] : path_recs) {
    PilotScan(rec, x1, x2, -std::numeric_limits<double>::infinity(), &cand);
  }
  if (stats != nullptr) stats->q1_points += cand.size();

  // ---- Pi: off-path children whose slab is covered by q -----------------
  auto covered = [&](const TNodeRec& rec) {
    return rec.lo_x() >= x1 && rec.hi_x() <= x2;
  };
  std::vector<TRef> pi;
  for (const auto& [t, rec] : path_recs) {
    std::vector<TRef> kids;
    if (rec.is_slab()) {
      TRef c = SlabChild(rec);
      if (c.valid()) kids.push_back(c);
    } else {
      kids.push_back(TRef{t.base, static_cast<TIndex>(rec.left)});
      kids.push_back(TRef{t.base, static_cast<TIndex>(rec.right)});
    }
    for (const TRef& c : kids) {
      if (visited.count(c) > 0) continue;
      TNodeRec crec = LoadTNode(c);
      if (covered(crec)) pi.push_back(c);
    }
  }

  // ---- heap concatenation + selection of phi (lg n + k/B) reps ---------
  std::uint64_t phi = MetaGet(kMPhi);
  std::uint64_t t_sel = phi * (Lg(n) + CeilDiv(k, B()));
  PilotHeapView view(this, pi);
  select::SelectStats sel_stats;
  std::vector<select::HeapNode> top =
      select::SelectTop(view, t_sel, select::Strategy::kBestFirst,
                        &sel_stats);
  if (stats != nullptr) {
    stats->reps_selected = top.size();
    stats->heap_nodes_visited = sel_stats.nodes_visited;
    stats->comparisons = sel_stats.comparisons;
  }

  // ---- Q2: pilot sets of the selected nodes ----------------------------
  TRefSet sr;
  std::vector<std::pair<TRef, TNodeRec>> sr_recs;
  for (const select::HeapNode& nd : top) {
    TRef t = view.Resolve(nd.id);
    sr.insert(t);
  }
  TRefSet collected;  // pilot sets already emitted into the candidate pool
  auto emit = [&](const TRef& t, const TNodeRec& rec, std::uint64_t* counter) {
    if (!collected.insert(t).second) return;
    if (rec.pilot_count == 0) return;
    std::vector<Point> pts = PilotRead(rec);
    for (const Point& p : pts) {
      if (p.x >= x1 && p.x <= x2) {
        cand.push_back(p);
        if (counter != nullptr) ++(*counter);
      }
    }
  };
  for (const select::HeapNode& nd : top) {
    TRef t = view.Resolve(nd.id);
    sr_recs.emplace_back(t, LoadTNode(t));
  }
  // All selected pilot sets are known now: batch their blocks into one
  // device submission before any is read (the k/B term of the query).
  PrefetchPilots(sr_recs);
  for (const auto& [t, rec] : sr_recs) {
    emit(t, rec, stats != nullptr ? &stats->q2_points : nullptr);
  }

  // ---- Q3: uncollected siblings (covered by q) and children of SR ------
  auto maybe_emit_ref = [&](const TRef& t, bool require_cover) {
    if (sr.count(t) > 0 || visited.count(t) > 0) return;
    TNodeRec rec = LoadTNode(t);
    if (require_cover && !covered(rec)) return;
    emit(t, rec, stats != nullptr ? &stats->q3_points : nullptr);
  };
  for (const auto& [t, rec] : sr_recs) {
    // Sibling in script-T (if any): the other child of the T-parent.
    if (rec.parent != ~std::uint64_t{0}) {
      TNodeRec prec = LoadTNode(TRef{t.base, static_cast<TIndex>(rec.parent)});
      TIndex sib = (static_cast<TIndex>(prec.left) == t.idx)
                       ? static_cast<TIndex>(prec.right)
                       : static_cast<TIndex>(prec.left);
      maybe_emit_ref(TRef{t.base, sib}, /*require_cover=*/true);
    }
    // Children in script-T.
    if (rec.is_slab()) {
      TRef c = SlabChild(rec);
      if (c.valid()) maybe_emit_ref(c, /*require_cover=*/false);
    } else {
      maybe_emit_ref(TRef{t.base, static_cast<TIndex>(rec.left)},
                     /*require_cover=*/false);
      maybe_emit_ref(TRef{t.base, static_cast<TIndex>(rec.right)},
                     /*require_cover=*/false);
    }
  }

  // ---- final top-k over the candidate pool -----------------------------
  std::size_t take = std::min<std::size_t>(k, cand.size());
  std::nth_element(cand.begin(), cand.begin() + take, cand.end(),
                   ByScoreDesc{});
  cand.resize(take);
  std::sort(cand.begin(), cand.end(), ByScoreDesc{});
  return cand;
}

Status PilotPst::Report3Sided(double x1, double x2, double y,
                              std::vector<Point>* out) const {
  if (x1 > x2) return Status::InvalidArgument("x1 > x2");
  if (size() == 0) return Status::Ok();
  // Breadth-first waves instead of a DFS stack: every node a wave will
  // report from is known before any pilot set is read, so the covered
  // nodes' pilot blocks, which are read whole, are prefetched in one call
  // per wave. A boundary node's scan pins only the blocks it needs, so
  // prefetching its set would add transfers. The emission order is not
  // the DFS order; every caller selects/sorts afterwards.
  std::vector<std::pair<TRef, TNodeRec>> live, whole;
  std::vector<TRef> wave{RootTRef()}, next;
  while (!wave.empty()) {
    live.clear();
    whole.clear();
    for (const TRef& t : wave) {
      TNodeRec rec = LoadTNode(t);
      if (rec.hi_x() <= x1 || rec.lo_x() > x2) continue;  // slab disjoint
      if (rec.pilot_count == 0) continue;  // empty pilot => empty subtree
      if (rec.pmax() < y) continue;  // whole subtree below the threshold
      live.emplace_back(t, rec);
      if (rec.lo_x() >= x1 && rec.hi_x() <= x2) whole.emplace_back(t, rec);
    }
    PrefetchPilots(whole);
    next.clear();
    for (const auto& [t, rec] : live) {
      PilotScan(rec, x1, x2, y, out);
      if (rec.is_slab()) {
        TRef c = SlabChild(rec);
        if (c.valid()) next.push_back(c);
      } else {
        next.push_back(TRef{t.base, static_cast<TIndex>(rec.left)});
        next.push_back(TRef{t.base, static_cast<TIndex>(rec.right)});
      }
    }
    wave.swap(next);
  }
  return Status::Ok();
}

}  // namespace tokra::pilot
