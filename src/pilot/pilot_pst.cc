#include "pilot/pilot_pst.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "em/paged_array.h"
#include "util/bits.h"
#include "util/check.h"
#include "wbb/params.h"

namespace tokra::pilot {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

// --- meta ----------------------------------------------------------------

std::uint64_t PilotPst::MetaGet(std::size_t w) const {
  em::PageRef mp = pager_->Fetch(meta_);
  return mp.Get(w);
}

void PilotPst::MetaSet(std::size_t w, std::uint64_t v) {
  em::PageRef mp = pager_->Fetch(meta_);
  mp.Set(w, v);
}

std::uint32_t PilotPst::branch() const {
  return static_cast<std::uint32_t>(MetaGet(kMBranch));
}
std::uint32_t PilotPst::leaf_cap() const {
  return static_cast<std::uint32_t>(MetaGet(kMLeafCap));
}
std::uint64_t PilotPst::size() const { return MetaGet(kMLive); }

std::uint64_t PilotPst::WeightCap(std::uint32_t level) const {
  return wbb::WbbParams{.branch = branch(), .leaf_cap = leaf_cap()}
      .WeightCap(level);
}

// --- record I/O ---------------------------------------------------------

std::vector<TNodeRec> PilotPst::LoadTNodes(em::BlockId base) const {
  em::PageRef h = pager_->Fetch(base);
  TOKRA_DCHECK(h.Get(kHKind) == 0);
  std::uint32_t n = static_cast<std::uint32_t>(h.Get(kHIntNT));
  std::uint32_t nb = static_cast<std::uint32_t>(h.Get(kHIntNTB));
  std::vector<em::BlockId> blocks(nb);
  for (std::uint32_t i = 0; i < nb; ++i) blocks[i] = h.Get(kHIntTIds + i);
  h = em::PageRef();
  em::PagedArray<TNodeRec> arr(pager_, blocks);
  std::vector<TNodeRec> out;
  arr.ReadRange(0, n, &out);
  return out;
}

TNodeRec PilotPst::LoadTNode(const TRef& t) const {
  em::PageRef h = pager_->Fetch(t.base);
  std::uint32_t nb = static_cast<std::uint32_t>(h.Get(kHIntNTB));
  std::vector<em::BlockId> blocks(nb);
  for (std::uint32_t i = 0; i < nb; ++i) blocks[i] = h.Get(kHIntTIds + i);
  h = em::PageRef();
  em::PagedArray<TNodeRec> arr(pager_, blocks);
  return arr.Get(t.idx);
}

void PilotPst::StoreTNode(const TRef& t, const TNodeRec& rec) {
  em::PageRef h = pager_->Fetch(t.base);
  std::uint32_t nb = static_cast<std::uint32_t>(h.Get(kHIntNTB));
  std::vector<em::BlockId> blocks(nb);
  for (std::uint32_t i = 0; i < nb; ++i) blocks[i] = h.Get(kHIntTIds + i);
  h = em::PageRef();
  em::PagedArray<TNodeRec> arr(pager_, blocks);
  arr.Set(t.idx, rec);
}

std::vector<Point> PilotPst::PilotRead(const TNodeRec& rec) const {
  const auto count = static_cast<std::uint32_t>(rec.pilot_count);
  em::PagedArray<Point> arr(
      pager_, std::span<const em::BlockId>(
                  rec.pilot_blocks,
                  em::PagedArray<Point>::BlocksFor(B(), count)));
  std::vector<Point> pts;
  arr.ReadRange(0, count, &pts);
  return pts;
}

void PilotPst::PilotScan(const TNodeRec& rec, double x1, double x2, double y,
                         std::vector<Point>* out) const {
  const auto count = static_cast<std::uint32_t>(rec.pilot_count);
  const std::uint32_t per = em::PagedArray<Point>::ElemsPerBlock(B());
  for (std::uint32_t b = 0, first = 0; first < count; ++b, first += per) {
    const std::uint32_t n = std::min(per, count - first);
    em::PageRef page = pager_->Fetch(rec.pilot_blocks[b]);
    const std::span<const em::word_t> w = page.words();
    auto x_at = [&](std::uint32_t i) {
      return std::bit_cast<double>(w[2 * i]);
    };
    if (x_at(n - 1) < x1) continue;  // the whole block lies left of x1
    std::uint32_t i = 0, hi = n;  // lower_bound of x1 in the block
    while (i < hi) {
      const std::uint32_t mid = (i + hi) / 2;
      if (x_at(mid) < x1) {
        i = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (; i < n; ++i) {
      const double x = x_at(i);
      if (x > x2) return;  // so no later block is pinned
      const double score = std::bit_cast<double>(w[2 * i + 1]);
      if (score >= y) out->push_back(Point{x, score});
    }
  }
}

void PilotPst::PrefetchPilots(
    std::span<const std::pair<TRef, TNodeRec>> recs) const {
  std::vector<em::BlockId> ids;
  ids.reserve(recs.size());
  for (const auto& [t, rec] : recs) {
    if (rec.pilot_count == 0) continue;
    // Only the occupied blocks, all of which a whole-set read touches:
    // prefetch must batch the reads that happen anyway, never add
    // transfers.
    std::uint32_t nb = em::PagedArray<Point>::BlocksFor(
        B(), static_cast<std::uint32_t>(rec.pilot_count));
    for (std::uint32_t i = 0; i < nb; ++i) ids.push_back(rec.pilot_blocks[i]);
  }
  if (ids.size() > 1) pager_->Prefetch(ids);
}

void PilotPst::PilotWrite(const TRef& t, TNodeRec* rec,
                          const std::vector<Point>& pts) {
  TOKRA_CHECK(pts.size() <= PilotMax());
  TOKRA_DCHECK(std::adjacent_find(pts.begin(), pts.end(),
                                  [](const Point& a, const Point& b) {
                                    return a.x >= b.x;
                                  }) == pts.end());
  // The set holds exactly the blocks its points fill: a grown set gets
  // fresh zeroed blocks, a shrunk one frees its tail (a CowFree under MVCC).
  const std::uint32_t need = em::PagedArray<Point>::BlocksFor(
      B(), static_cast<std::uint32_t>(pts.size()));
  for (std::uint32_t i = 0; i < kPilotBlocks; ++i) {
    em::BlockId& slot = rec->pilot_blocks[i];
    if (i < need && slot == em::kNullBlock) {
      slot = pager_->Allocate();
      em::PageRef zero = pager_->Create(slot);
    } else if (i >= need && slot != em::kNullBlock) {
      pager_->Free(slot);
      slot = em::kNullBlock;
    }
  }
  em::PagedArray<Point> arr(
      pager_, std::span<const em::BlockId>(rec->pilot_blocks, need));
  if (!pts.empty()) arr.WriteRange(0, pts);
  rec->pilot_count = pts.size();
  double rep = kInf, pmax = -kInf;
  for (const Point& p : pts) {
    rep = std::min(rep, p.score);
    pmax = std::max(pmax, p.score);
  }
  rec->set_rep(pts.empty() ? 0.0 : rep);
  rec->set_pmax(pts.empty() ? 0.0 : pmax);
  StoreTNode(t, *rec);
}

TRef PilotPst::RootTRef() const {
  em::BlockId root = MetaGet(kMRoot);
  em::PageRef h = pager_->Fetch(root);
  TOKRA_CHECK(h.Get(kHKind) == 0);  // the root is always internal
  return TRef{root, static_cast<TIndex>(h.Get(kHIntRoot))};
}

TRef PilotPst::SlabChild(const TNodeRec& rec) const {
  TOKRA_DCHECK(rec.is_slab());
  em::PageRef h = pager_->Fetch(rec.base_child);
  if (h.Get(kHKind) == 1) return TRef{};  // leaf base child: no T-subtree
  return TRef{rec.base_child, static_cast<TIndex>(h.Get(kHIntRoot))};
}

// --- insertion -----------------------------------------------------------

Status PilotPst::Insert(const Point& p) {
  em::BlockId cur = MetaGet(kMRoot);
  std::vector<em::BlockId> path;
  bool placed = false;

  while (true) {
    path.push_back(cur);
    em::PageRef h = pager_->Fetch(cur);
    h.Set(kHWeight, h.Get(kHWeight) + 1);
    if (h.Get(kHKind) == 1) {  // leaf: record the x key
      std::uint32_t m = static_cast<std::uint32_t>(h.Get(kHLeafM));
      std::uint32_t nx = static_cast<std::uint32_t>(h.Get(kHLeafNX));
      std::vector<em::BlockId> xb(nx);
      for (std::uint32_t i = 0; i < nx; ++i) xb[i] = h.Get(kHLeafXIds + i);
      h.Set(kHLeafM, m + 1);
      h = em::PageRef();
      em::PagedArray<double> xs(pager_, xb);
      TOKRA_CHECK(m < xs.capacity());
      xs.Set(m, p.x);
      break;
    }
    TIndex v = static_cast<TIndex>(h.Get(kHIntRoot));
    h = em::PageRef();
    std::vector<TNodeRec> recs = LoadTNodes(cur);
    em::BlockId next = em::kNullBlock;
    while (true) {
      TNodeRec& rec = recs[v];
      if (!placed) {
        bool join = rec.pilot_count < PilotMin() || p.score > rec.rep();
        if (!join && rec.is_slab()) {
          // If the child is a base leaf this is the last pilot holder on
          // the path; the point must live here.
          em::PageRef ch = pager_->Fetch(rec.base_child);
          join = ch.Get(kHKind) == 1;
        }
        if (join) {
          // Deliver p here; any overflow cascades down as a carry (the
          // paper's push-down chain).
          PushDown(TRef{cur, v}, {p});
          placed = true;
          // Reload: the push-down may have rewritten this very record.
          recs = LoadTNodes(cur);
        }
      }
      const TNodeRec& r2 = recs[v];
      if (r2.is_slab()) {
        next = r2.base_child;
        break;
      }
      const TNodeRec& left = recs[static_cast<TIndex>(r2.left)];
      v = (p.x < left.hi_x()) ? static_cast<TIndex>(r2.left)
                              : static_cast<TIndex>(r2.right);
    }
    cur = next;
  }
  TOKRA_CHECK(placed);  // every x-path ends at a leaf slab that accepts
  MetaSet(kMLive, MetaGet(kMLive) + 1);
  MetaSet(kMKeys, MetaGet(kMKeys) + 1);
  Rebalance(path);
  return Status::Ok();
}

// --- push-down (overflow) --------------------------------------------

// Delivers `carry` (points higher than everything below `t`) into pilot(t);
// if the union exceeds 2B, keeps the highest B and cascades the rest — the
// paper's chain of push-downs, with the in-flight points held in scratch so
// no pilot set ever materializes above 2B points. `carry` is x-ordered, and
// so is every carry the cascade passes on.
void PilotPst::PushDown(TRef t, std::vector<Point> carry) {
  if (carry.empty()) return;
  TNodeRec rec = LoadTNode(t);
  std::vector<Point> pts = PilotRead(rec);
  const auto mid = pts.insert(pts.end(), carry.begin(), carry.end());
  std::inplace_merge(pts.begin(), mid, pts.end(), ByXAsc{});
  rec.ins_tokens += carry.size();  // Lemma 3 rules 1 and 3 (arrivals)
  if (pts.size() <= PilotMax()) {
    PilotWrite(t, &rec, pts);
    return;
  }
  // Keep the PilotTarget() highest; one pass splits the x-ordered union
  // into two x-ordered halves.
  std::vector<double> scores(pts.size());
  std::transform(pts.begin(), pts.end(), scores.begin(),
                 [](const Point& p) { return p.score; });
  std::nth_element(scores.begin(), scores.begin() + PilotTarget() - 1,
                   scores.end(), std::greater<>());
  const double cut = scores[PilotTarget() - 1];
  std::vector<Point> keep, move;
  for (const Point& p : pts) (p.score >= cut ? keep : move).push_back(p);
  TOKRA_PCHECK(rec.ins_tokens >= move.size());  // Lemma 3 invariant 1
  rec.ins_tokens = rec.ins_tokens >= move.size()
                       ? rec.ins_tokens - move.size()
                       : 0;  // rule 3: tokens descend with the points
  PilotWrite(t, &rec, keep);

  if (rec.is_slab()) {
    TRef c = SlabChild(rec);
    TOKRA_CHECK(c.valid());  // a leaf slab's pilot can never overflow
    PushDown(c, std::move(move));
    return;
  }
  TRef lt{t.base, static_cast<TIndex>(rec.left)};
  TRef rt{t.base, static_cast<TIndex>(rec.right)};
  TNodeRec lrec = LoadTNode(lt);
  auto split = std::partition_point(
      move.begin(), move.end(),
      [&](const Point& p) { return p.x < lrec.hi_x(); });
  PushDown(lt, std::vector<Point>(move.begin(), split));
  PushDown(rt, std::vector<Point>(split, move.end()));
}

// --- deletion -------------------------------------------------------

Status PilotPst::Delete(const Point& p) {
  em::BlockId cur = MetaGet(kMRoot);
  while (true) {
    em::PageRef h = pager_->Fetch(cur);
    if (h.Get(kHKind) == 1) {
      return Status::NotFound("point not present");
    }
    TIndex v = static_cast<TIndex>(h.Get(kHIntRoot));
    h = em::PageRef();
    std::vector<TNodeRec> recs = LoadTNodes(cur);
    em::BlockId next = em::kNullBlock;
    while (true) {
      TNodeRec& rec = recs[v];
      if (rec.pilot_count > 0 && p.score >= rec.rep()) {
        // The point, if it exists, must be in this pilot set: everything
        // deeper scores strictly below the representative.
        TRef t{cur, v};
        std::vector<Point> pts = PilotRead(rec);
        auto it = std::lower_bound(pts.begin(), pts.end(), p, ByXAsc{});
        if (it == pts.end() || !(*it == p)) {
          return Status::NotFound("point not present");
        }
        pts.erase(it);
        rec.del_tokens += 1;  // Lemma 3 rule 2
        PilotWrite(t, &rec, pts);
        if (Underflows(rec, t)) FixUnderflow(t);
        MetaSet(kMLive, MetaGet(kMLive) - 1);
        // Periodic global rebuild keeps height Theta(lg n_live) and bounds
        // the dead-key fraction (the paper's global rebuilding step).
        std::uint64_t live = MetaGet(kMLive);
        std::uint64_t keys = MetaGet(kMKeys);
        if (keys >= 4 && keys >= 2 * std::max<std::uint64_t>(live, 1)) {
          GlobalRebuild();
        }
        return Status::Ok();
      }
      if (rec.is_slab()) {
        next = rec.base_child;
        break;
      }
      const TNodeRec& left = recs[static_cast<TIndex>(rec.left)];
      v = (p.x < left.hi_x()) ? static_cast<TIndex>(rec.left)
                              : static_cast<TIndex>(rec.right);
    }
    cur = next;
  }
}

bool PilotPst::Underflows(const TNodeRec& rec, const TRef& t) const {
  if (rec.pilot_count >= PilotMin()) return false;
  // Underflow requires a non-empty descendant pilot; by the size invariant
  // it suffices to look at the (at most two) children.
  if (rec.is_slab()) {
    TRef c = SlabChild(rec);
    if (!c.valid()) return false;
    return LoadTNode(c).pilot_count > 0;
  }
  TNodeRec l = LoadTNode(TRef{t.base, static_cast<TIndex>(rec.left)});
  if (l.pilot_count > 0) return true;
  TNodeRec r = LoadTNode(TRef{t.base, static_cast<TIndex>(rec.right)});
  return r.pilot_count > 0;
}

bool PilotPst::PullUp(const TRef& t, TNodeRec* rec) {
  if (rec->pilot_count >= PilotTarget()) return false;
  std::uint64_t need = std::min<std::uint64_t>(
      PilotMin(), PilotTarget() - rec->pilot_count);
  if (need == 0) return false;

  // Gather the (at most two) children and their pilot contents.
  std::vector<TRef> kids;
  if (rec->is_slab()) {
    TRef c = SlabChild(*rec);
    if (c.valid()) kids.push_back(c);
  } else {
    kids.push_back(TRef{t.base, static_cast<TIndex>(rec->left)});
    kids.push_back(TRef{t.base, static_cast<TIndex>(rec->right)});
  }
  struct KidState {
    TRef t;
    TNodeRec rec;
    std::vector<Point> pts;
  };
  std::vector<KidState> ks;
  std::uint64_t avail = 0;
  for (const TRef& k : kids) {
    KidState s{k, LoadTNode(k), {}};
    s.pts = PilotRead(s.rec);
    avail += s.pts.size();
    ks.push_back(std::move(s));
  }

  std::vector<Point> mine = PilotRead(*rec);
  // Draining requires *fewer* points than requested: then every child holds
  // < B/2, so by the size invariant the whole proper subtree empties. With
  // avail == need the normal path empties the children and the caller's
  // child-remedy loop refills them from below.
  bool draining = avail < need;
  std::uint64_t take = std::min(avail, need);

  // Move the `take` highest points across both children (all of them when
  // draining). A child keeps the rest in its x order.
  double cut = -kInf;
  if (!draining) {
    std::vector<double> scores;
    for (const KidState& s : ks) {
      for (const Point& p : s.pts) scores.push_back(p.score);
    }
    std::nth_element(scores.begin(), scores.begin() + take - 1, scores.end(),
                     std::greater<>());
    cut = scores[take - 1];
  }
  for (KidState& s : ks) {
    std::vector<Point> keep;
    for (const Point& p : s.pts) (p.score >= cut ? mine : keep).push_back(p);
    s.rec.del_tokens += s.pts.size() - keep.size();  // rule 4
    PilotWrite(s.t, &s.rec, keep);
  }
  TOKRA_PCHECK(rec->del_tokens >= take);  // Lemma 3 invariant 2
  rec->del_tokens = rec->del_tokens >= take ? rec->del_tokens - take : 0;
  std::sort(mine.begin(), mine.end(), ByXAsc{});
  PilotWrite(t, rec, mine);
  return draining;
}

void PilotPst::FixUnderflow(TRef t) {
  TNodeRec rec = LoadTNode(t);
  if (!Underflows(rec, t)) return;
  for (int round = 0; round < 2; ++round) {
    bool draining = PullUp(t, &rec);
    if (draining) return;
    // Remedy any child underflow before (and after) the second pull-up.
    if (rec.is_slab()) {
      TRef c = SlabChild(rec);
      if (c.valid()) {
        TNodeRec crec = LoadTNode(c);
        if (Underflows(crec, c)) FixUnderflow(c);
      }
    } else {
      for (std::uint64_t ci : {rec.left, rec.right}) {
        TRef c{t.base, static_cast<TIndex>(ci)};
        TNodeRec crec = LoadTNode(c);
        if (Underflows(crec, c)) FixUnderflow(c);
      }
    }
    rec = LoadTNode(t);
    if (rec.pilot_count >= PilotTarget()) return;
  }
}

}  // namespace tokra::pilot
