#include "lemma4/structure.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "aurs/aurs.h"
#include "em/paged_array.h"
#include "util/bits.h"
#include "util/check.h"

namespace tokra::lemma4 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Meta block words.
constexpr std::size_t kMRoot = 0;
constexpr std::size_t kMCount = 1;
constexpr std::size_t kMFanout = 2;
constexpr std::size_t kML = 3;
constexpr std::size_t kMLeafCap = 4;
constexpr std::size_t kMUpdates = 5;

// Node header words.
constexpr std::size_t kHKind = 0;  // 0 internal, 1 leaf
constexpr std::size_t kHLevel = 1;
constexpr std::size_t kHCount = 2;
constexpr std::size_t kHLeafSt12 = 3;   // leaf: ST12 meta block
constexpr std::size_t kHIntF = 3;       // internal: #children
constexpr std::size_t kHIntFlg = 4;     // internal: FlGroup meta block
constexpr std::size_t kHIntNCR = 5;
constexpr std::size_t kHIntIds = 6;

/// The G_u capacity per child: c2 * l with c2 = 8 (FlGroup's constant).
std::uint32_t GuCap(std::uint32_t l) { return 8 * l; }

struct ChildRec {
  em::BlockId id;
  std::uint64_t lo_bits, hi_bits;
  std::uint64_t count;

  double lo() const { return std::bit_cast<double>(lo_bits); }
  double hi() const { return std::bit_cast<double>(hi_bits); }
};
static_assert(sizeof(ChildRec) == 4 * sizeof(std::uint64_t));

struct NodeInfo {
  bool leaf;
  std::uint32_t level;
  std::uint64_t count;
  std::uint32_t f = 0;
  em::BlockId st12_meta = em::kNullBlock;
  em::BlockId flg_meta = em::kNullBlock;
  std::vector<em::BlockId> crb;
};

NodeInfo ReadNode(em::Pager* pager, em::BlockId id) {
  em::PageRef h = pager->Fetch(id);
  NodeInfo n;
  n.leaf = h.Get(kHKind) == 1;
  n.level = static_cast<std::uint32_t>(h.Get(kHLevel));
  n.count = h.Get(kHCount);
  if (n.leaf) {
    n.st12_meta = h.Get(kHLeafSt12);
  } else {
    n.f = static_cast<std::uint32_t>(h.Get(kHIntF));
    n.flg_meta = h.Get(kHIntFlg);
    std::uint32_t ncr = static_cast<std::uint32_t>(h.Get(kHIntNCR));
    for (std::uint32_t i = 0; i < ncr; ++i) {
      n.crb.push_back(h.Get(kHIntIds + i));
    }
  }
  return n;
}

/// AURS adapter over the union of sets [a1, a2] of a node's FlGroup.
/// RankSelect clamps rho to the set size (non-strict AURS; header notes).
class MultiSlabSet : public aurs::RankedSet {
 public:
  MultiSlabSet(const flgroup::FlGroup* flg, std::uint32_t a1, std::uint32_t a2)
      : flg_(flg), a1_(a1), a2_(a2), size_(flg->SizeInRange(a1, a2)) {}

  std::uint64_t Size() const override { return size_; }

  double Max() const override {
    auto m = flg_->MaxInRange(a1_, a2_);
    TOKRA_CHECK(m.ok());
    return *m;
  }

  double RankSelect(double rho) const override {
    std::uint64_t r = static_cast<std::uint64_t>(std::ceil(rho));
    r = std::min<std::uint64_t>(std::max<std::uint64_t>(r, 1), size_);
    auto res = flg_->SelectApprox(a1_, a2_, r);
    TOKRA_CHECK(res.ok());
    return res->neg_inf ? -kInf : res->value;
  }

  double RankFactor() const override {
    return static_cast<double>(flgroup::FlGroup::kApproxFactor);
  }

 private:
  const flgroup::FlGroup* flg_;
  std::uint32_t a1_, a2_;
  std::uint64_t size_;
};

}  // namespace

std::uint64_t Lemma4Selector::MetaGet(std::size_t w) const {
  em::PageRef mp = pager_->Fetch(meta_);
  return mp.Get(w);
}
void Lemma4Selector::MetaSet(std::size_t w, std::uint64_t v) {
  em::PageRef mp = pager_->Fetch(meta_);
  mp.Set(w, v);
}
std::uint64_t Lemma4Selector::size() const { return MetaGet(kMCount); }
std::uint32_t Lemma4Selector::l() const {
  return static_cast<std::uint32_t>(MetaGet(kML));
}

// --- construction -------------------------------------------------------

em::BlockId Lemma4Selector::BuildNode(const std::vector<Point>& by_x,
                                      std::uint32_t level, double lo,
                                      double hi,
                                      std::vector<double>* top_scores) {
  std::uint32_t f = static_cast<std::uint32_t>(MetaGet(kMFanout));
  std::uint32_t l_param = static_cast<std::uint32_t>(MetaGet(kML));
  std::uint32_t leaf_cap = static_cast<std::uint32_t>(MetaGet(kMLeafCap));
  std::uint32_t cap = GuCap(l_param);

  if (level == 0) {
    st12::ShengTaoSelector leaf_sel =
        st12::ShengTaoSelector::Build(pager_, by_x);
    em::BlockId id = pager_->Allocate();
    em::PageRef h = pager_->Create(id);
    h.Set(kHKind, 1);
    h.Set(kHLevel, 0);
    h.Set(kHCount, by_x.size());
    h.Set(kHLeafSt12, leaf_sel.meta_block());
    // Report this subtree's top scores to the parent.
    top_scores->clear();
    for (const Point& p : by_x) top_scores->push_back(p.score);
    std::sort(top_scores->begin(), top_scores->end(), std::greater<>());
    if (top_scores->size() > cap) top_scores->resize(cap);
    return id;
  }

  std::uint64_t target = leaf_cap / 2;
  for (std::uint32_t i = 1; i < level; ++i) target *= f;
  std::size_t n = by_x.size();
  std::size_t nf = std::max<std::size_t>(1, CeilDiv(n, target));
  nf = std::min<std::size_t>(nf, 2 * f);

  std::vector<ChildRec> crs(nf);
  std::vector<std::vector<double>> child_tops(nf);
  std::size_t pos = 0;
  for (std::size_t c = 0; c < nf; ++c) {
    std::size_t take = CeilDiv(n - pos, nf - c);
    double clo = c == 0 ? lo : by_x[pos].x;
    double chi = c == nf - 1 ? hi : by_x[pos + take].x;
    std::vector<Point> chunk(by_x.begin() + pos, by_x.begin() + pos + take);
    crs[c].id = BuildNode(chunk, level - 1, clo, chi, &child_tops[c]);
    crs[c].lo_bits = std::bit_cast<std::uint64_t>(clo);
    crs[c].hi_bits = std::bit_cast<std::uint64_t>(chi);
    crs[c].count = take;
    pos += take;
  }

  // The (f, c2*l)-structure over (G_u1, ..., G_uf).
  flgroup::FlGroup flg = flgroup::FlGroup::Create(
      pager_, {.f = static_cast<std::uint32_t>(nf), .l = cap});
  for (std::size_t c = 0; c < nf; ++c) {
    for (double s : child_tops[c]) {
      Status st = flg.Insert(static_cast<std::uint32_t>(c), s);
      TOKRA_CHECK(st.ok());
    }
  }

  std::uint32_t ncr = static_cast<std::uint32_t>(
      em::PagedArray<ChildRec>::BlocksFor(B(), 2 * f));
  TOKRA_CHECK(kHIntIds + ncr <= B());
  em::BlockId id = pager_->Allocate();
  std::vector<em::BlockId> crb(ncr);
  {
    em::PageRef h = pager_->Create(id);
    h.Set(kHKind, 0);
    h.Set(kHLevel, level);
    h.Set(kHCount, n);
    h.Set(kHIntF, nf);
    h.Set(kHIntFlg, flg.meta_block());
    h.Set(kHIntNCR, ncr);
    for (std::uint32_t i = 0; i < ncr; ++i) {
      crb[i] = pager_->Allocate();
      h.Set(kHIntIds + i, crb[i]);
      em::PageRef zero = pager_->Create(crb[i]);
    }
  }
  em::PagedArray<ChildRec> crarr(pager_, crb);
  crarr.WriteRange(0, crs);

  // This subtree's top scores: merge children tops.
  top_scores->clear();
  for (const auto& t : child_tops) {
    top_scores->insert(top_scores->end(), t.begin(), t.end());
  }
  std::sort(top_scores->begin(), top_scores->end(), std::greater<>());
  if (top_scores->size() > cap) top_scores->resize(cap);
  return id;
}

Lemma4Selector Lemma4Selector::Build(em::Pager* pager,
                                     std::vector<Point> points,
                                     Params params) {
  TOKRA_CHECK(pager->B() >= 64);
  std::uint64_t n = std::max<std::uint64_t>(points.size(), 1);
  std::uint32_t lg_n = Lg(n);
  std::uint32_t f =
      params.fanout != 0
          ? params.fanout
          : std::max<std::uint32_t>(
                4, static_cast<std::uint32_t>(FloorSqrt(
                       static_cast<std::uint64_t>(pager->B()) * lg_n)));
  std::uint32_t l = params.l != 0
                        ? params.l
                        : std::min<std::uint32_t>(pager->B() * lg_n, 4096);
  std::uint32_t leaf_cap =
      params.leaf_cap != 0
          ? params.leaf_cap
          : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                static_cast<std::uint64_t>(f) * l * pager->B(), 1u << 18));

  em::BlockId meta = pager->Allocate();
  {
    em::PageRef mp = pager->Create(meta);
    mp.Set(kMFanout, f);
    mp.Set(kML, l);
    mp.Set(kMLeafCap, leaf_cap);
    mp.Set(kMCount, points.size());
    mp.Set(kMUpdates, 0);
  }
  Lemma4Selector s(pager, meta);
  std::sort(points.begin(), points.end(), ByXAsc{});
  std::uint32_t h = 0;
  std::uint64_t cap = leaf_cap / 2;
  while (cap < points.size()) {
    cap *= f;
    ++h;
  }
  std::vector<double> tops;
  em::BlockId root = s.BuildNode(points, h, -kInf, kInf, &tops);
  s.MetaSet(kMRoot, root);
  return s;
}

Lemma4Selector Lemma4Selector::Open(em::Pager* pager, em::BlockId meta) {
  return Lemma4Selector(pager, meta);
}

void Lemma4Selector::FreeNode(em::BlockId id) {
  NodeInfo n = ReadNode(pager_, id);
  if (n.leaf) {
    st12::ShengTaoSelector sel =
        st12::ShengTaoSelector::Open(pager_, n.st12_meta);
    sel.DestroyAll();
  } else {
    em::PagedArray<ChildRec> crarr(pager_, n.crb);
    for (std::uint32_t c = 0; c < n.f; ++c) FreeNode(crarr.Get(c).id);
    flgroup::FlGroup flg = flgroup::FlGroup::Open(pager_, n.flg_meta);
    flg.DestroyAll();
    for (em::BlockId b : n.crb) pager_->Free(b);
  }
  pager_->Free(id);
}

void Lemma4Selector::DestroyAll() {
  FreeNode(MetaGet(kMRoot));
  pager_->Free(meta_);
  meta_ = em::kNullBlock;
}

void Lemma4Selector::CollectPoints(em::BlockId id,
                                   std::vector<Point>* out) const {
  NodeInfo n = ReadNode(pager_, id);
  if (n.leaf) {
    st12::ShengTaoSelector sel =
        st12::ShengTaoSelector::Open(pager_, n.st12_meta);
    std::vector<Point> pts;
    sel.CollectAll(&pts);
    out->insert(out->end(), pts.begin(), pts.end());
    return;
  }
  em::PagedArray<ChildRec> crarr(pager_, n.crb);
  for (std::uint32_t c = 0; c < n.f; ++c) {
    CollectPoints(crarr.Get(c).id, out);
  }
}

void Lemma4Selector::MaybeGlobalRebuild() {
  std::uint64_t updates = MetaGet(kMUpdates);
  std::uint64_t n = MetaGet(kMCount);
  if (updates < 16 || 2 * updates < std::max<std::uint64_t>(n, 1)) return;
  std::vector<Point> all;
  CollectPoints(MetaGet(kMRoot), &all);
  FreeNode(MetaGet(kMRoot));
  std::sort(all.begin(), all.end(), ByXAsc{});
  std::uint32_t f = static_cast<std::uint32_t>(MetaGet(kMFanout));
  std::uint32_t leaf_cap = static_cast<std::uint32_t>(MetaGet(kMLeafCap));
  std::uint32_t h = 0;
  std::uint64_t cap = leaf_cap / 2;
  while (cap < all.size()) {
    cap *= f;
    ++h;
  }
  std::vector<double> tops;
  MetaSet(kMRoot, BuildNode(all, h, -kInf, kInf, &tops));
  MetaSet(kMUpdates, 0);
}

// --- updates -------------------------------------------------------------

Status Lemma4Selector::Insert(const Point& p) {
  MaybeGlobalRebuild();
  std::uint32_t cap = GuCap(static_cast<std::uint32_t>(MetaGet(kML)));
  em::BlockId cur = MetaGet(kMRoot);

  // Descend, recording (node, child index) to fix G_u's bottom-up.
  struct Step {
    em::BlockId flg_meta;
    std::uint32_t ci;
  };
  std::vector<Step> path;
  while (true) {
    NodeInfo n = ReadNode(pager_, cur);
    {
      em::PageRef h = pager_->Fetch(cur);
      h.Set(kHCount, n.count + 1);
    }
    if (n.leaf) {
      st12::ShengTaoSelector sel =
          st12::ShengTaoSelector::Open(pager_, n.st12_meta);
      TOKRA_RETURN_IF_ERROR(sel.Insert(p));
      break;
    }
    em::PagedArray<ChildRec> crarr(pager_, n.crb);
    std::uint32_t ci = 0;
    for (std::uint32_t c = 0; c < n.f; ++c) {
      ChildRec cr = crarr.Get(c);
      if (p.x >= cr.lo() && p.x < cr.hi()) {
        ci = c;
        cr.count += 1;
        crarr.Set(c, cr);
        break;
      }
    }
    path.push_back(Step{n.flg_meta, ci});
    cur = crarr.Get(ci).id;
  }

  // Bottom-up G_u maintenance (the appendix update algorithm): the score
  // enters G_u while it beats the set minimum (or the set has room); stop at
  // the first level it does not enter.
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    flgroup::FlGroup flg = flgroup::FlGroup::Open(pager_, it->flg_meta);
    if (flg.SetSize(it->ci) < cap) {
      TOKRA_RETURN_IF_ERROR(flg.Insert(it->ci, p.score));
      continue;
    }
    TOKRA_ASSIGN_OR_RETURN(double mn, flg.MinOfSet(it->ci));
    if (p.score <= mn) break;
    TOKRA_RETURN_IF_ERROR(flg.Delete(it->ci, mn));
    TOKRA_RETURN_IF_ERROR(flg.Insert(it->ci, p.score));
  }

  MetaSet(kMCount, MetaGet(kMCount) + 1);
  MetaSet(kMUpdates, MetaGet(kMUpdates) + 1);
  return Status::Ok();
}

Status Lemma4Selector::Delete(const Point& p) {
  // Presence check at the owning leaf first.
  {
    em::BlockId cur = MetaGet(kMRoot);
    while (true) {
      NodeInfo n = ReadNode(pager_, cur);
      if (n.leaf) {
        st12::ShengTaoSelector sel =
            st12::ShengTaoSelector::Open(pager_, n.st12_meta);
        if (!sel.Contains(p)) return Status::NotFound("point not present");
        break;
      }
      em::PagedArray<ChildRec> crarr(pager_, n.crb);
      for (std::uint32_t c = 0; c < n.f; ++c) {
        ChildRec cr = crarr.Get(c);
        if (p.x >= cr.lo() && p.x < cr.hi()) {
          cur = cr.id;
          break;
        }
      }
    }
  }
  MaybeGlobalRebuild();
  em::BlockId cur = MetaGet(kMRoot);
  struct Step {
    em::BlockId flg_meta;
    std::uint32_t ci;
  };
  std::vector<Step> path;
  while (true) {
    NodeInfo n = ReadNode(pager_, cur);
    {
      em::PageRef h = pager_->Fetch(cur);
      h.Set(kHCount, n.count - 1);
    }
    if (n.leaf) {
      st12::ShengTaoSelector sel =
          st12::ShengTaoSelector::Open(pager_, n.st12_meta);
      TOKRA_RETURN_IF_ERROR(sel.Delete(p));
      break;
    }
    em::PagedArray<ChildRec> crarr(pager_, n.crb);
    std::uint32_t ci = 0;
    for (std::uint32_t c = 0; c < n.f; ++c) {
      ChildRec cr = crarr.Get(c);
      if (p.x >= cr.lo() && p.x < cr.hi()) {
        ci = c;
        cr.count -= 1;
        crarr.Set(c, cr);
        break;
      }
    }
    path.push_back(Step{n.flg_meta, ci});
    cur = crarr.Get(ci).id;
  }
  // Remove the score from every G_u that holds it (it decays; rebuilds
  // restore fullness — see header notes).
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    flgroup::FlGroup flg = flgroup::FlGroup::Open(pager_, it->flg_meta);
    if (!flg.Contains(it->ci, p.score)) break;
    TOKRA_RETURN_IF_ERROR(flg.Delete(it->ci, p.score));
  }
  MetaSet(kMCount, MetaGet(kMCount) - 1);
  MetaSet(kMUpdates, MetaGet(kMUpdates) + 1);
  return Status::Ok();
}

// --- queries --------------------------------------------------------

RangeSelection Lemma4Selector::Decompose(double x1, double x2) const {
  // Canonical decomposition: multi-slabs (contiguous covered child runs) at
  // visited internal nodes + boundary leaves.
  RangeSelection range;
  range.l_ = MetaGet(kML);
  std::vector<em::BlockId> stack{MetaGet(kMRoot)};
  std::vector<ChildRec> kids;  // hoisted: one allocation per query, not node
  while (!stack.empty()) {
    em::BlockId id = stack.back();
    stack.pop_back();
    NodeInfo n = ReadNode(pager_, id);
    if (n.leaf) {
      st12::RangeSketches leaf =
          st12::ShengTaoSelector::Open(pager_, n.st12_meta)
              .Decompose(x1, x2);
      range.count_ += leaf.count();
      if (leaf.count() > 0) range.leaves_.push_back(std::move(leaf));
      continue;
    }
    // One ReadRange scan over exactly the first n.f records: each backing
    // block is pinned once (and its records copied out in one go — from
    // the mapping itself on a borrowed frame), where a per-record Get
    // would re-pin its block per child. (crb is sized for 2f capacity —
    // the tail blocks are never touched and must not be charged.)
    em::PagedArray<ChildRec> crarr(pager_, n.crb);
    crarr.ReadRange(0, n.f, &kids);
    auto flg = std::make_unique<flgroup::FlGroup>(
        flgroup::FlGroup::Open(pager_, n.flg_meta));
    std::uint32_t run_start = n.f;  // sentinel: no open run
    for (std::uint32_t c = 0; c <= n.f; ++c) {
      bool covered = false;
      if (c < n.f) {
        const ChildRec& cr = kids[c];
        if (cr.hi() <= x1 || cr.lo() > x2) {
          covered = false;
        } else if (cr.lo() >= x1 && cr.hi() <= x2) {
          covered = true;
          range.count_ += cr.count;
        } else {
          stack.push_back(cr.id);
        }
      }
      if (covered && run_start == n.f) run_start = c;
      if (!covered && run_start < n.f) {
        auto ms = std::make_unique<MultiSlabSet>(flg.get(), run_start, c - 1);
        if (ms->Size() > 0) {
          range.slab_total_ += ms->Size();
          range.slabs_.push_back(std::move(ms));
        }
        run_start = n.f;
      }
    }
    range.groups_.push_back(std::move(flg));
  }
  return range;
}

StatusOr<double> RangeSelection::Select(std::uint64_t k) const {
  if (k < 1) return Status::InvalidArgument("bad query");
  if (k > l_) {
    return Status::InvalidArgument("k exceeds the structure's l parameter");
  }
  std::uint64_t boundary_total = 0;
  for (const st12::RangeSketches& leaf : leaves_) {
    boundary_total += leaf.count();
  }
  if (k > slab_total_ + boundary_total) {
    return Status::OutOfRange("k exceeds range population");
  }

  double best = -kInf;
  bool have = false;
  if (!slabs_.empty() && slab_total_ >= k) {
    std::vector<aurs::RankedSet*> sets;
    sets.reserve(slabs_.size());
    for (const auto& ms : slabs_) sets.push_back(ms.get());
    aurs::AursStats stats;
    auto res = aurs::UnionRankSelect(sets, k, &stats, /*strict=*/false);
    if (res.ok() && *res != -kInf) {
      best = std::max(best, *res);
      have = true;
    }
  }
  // A leaf's candidate has rank >= k in the union only if the leaf itself
  // holds k in-range points. A smaller leaf offers none: all of its points
  // qualify, as -inf would say.
  for (const st12::RangeSketches& leaf : leaves_) {
    if (leaf.count() < k) continue;
    auto res = leaf.Select(k);
    if (res.ok() && *res != -kInf) {
      best = std::max(best, *res);
      have = true;
    }
  }
  if (!have) return -kInf;  // rank(-inf) = |range| < O(k): legal answer
  return best;
}

StatusOr<double> Lemma4Selector::SelectApprox(double x1, double x2,
                                              std::uint64_t k) const {
  if (x1 > x2) return Status::InvalidArgument("bad query");
  return Decompose(x1, x2).Select(k);
}

// --- validation ------------------------------------------------------

void Lemma4Selector::CheckNode(em::BlockId id, double lo, double hi,
                               std::uint64_t* count) const {
  NodeInfo n = ReadNode(pager_, id);
  if (n.leaf) {
    st12::ShengTaoSelector sel =
        st12::ShengTaoSelector::Open(pager_, n.st12_meta);
    sel.CheckInvariants();
    TOKRA_CHECK_EQ(sel.size(), n.count);
    *count = n.count;
    return;
  }
  flgroup::FlGroup flg = flgroup::FlGroup::Open(pager_, n.flg_meta);
  flg.CheckInvariants();
  em::PagedArray<ChildRec> crarr(pager_, n.crb);
  double prev = lo;
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < n.f; ++c) {
    ChildRec cr = crarr.Get(c);
    TOKRA_CHECK(cr.lo() == prev);
    prev = cr.hi();
    std::uint64_t sub = 0;
    CheckNode(cr.id, cr.lo(), cr.hi(), &sub);
    TOKRA_CHECK_EQ(sub, cr.count);
    // G_uc holds min(count, cap) scores unless deletions decayed it.
    TOKRA_CHECK(flg.SetSize(c) <= cr.count);
    total += sub;
  }
  TOKRA_CHECK(prev == hi);
  TOKRA_CHECK_EQ(total, n.count);
  *count = total;
}

void Lemma4Selector::CheckInvariants() const {
  std::uint64_t count = 0;
  CheckNode(MetaGet(kMRoot), -kInf, kInf, &count);
  TOKRA_CHECK_EQ(count, MetaGet(kMCount));
}

}  // namespace tokra::lemma4
