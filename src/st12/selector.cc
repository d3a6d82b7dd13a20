#include "st12/selector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "em/paged_array.h"
#include "sketch/log_sketch.h"
#include "util/bits.h"
#include "util/check.h"

namespace tokra::st12 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Meta block words.
constexpr std::size_t kMRoot = 0;
constexpr std::size_t kMCount = 1;
constexpr std::size_t kMFanout = 2;
constexpr std::size_t kMLeafCap = 3;
constexpr std::size_t kMUpdates = 4;

// Node header words.
constexpr std::size_t kHKind = 0;   // 0 internal, 1 leaf
constexpr std::size_t kHLevel = 1;
constexpr std::size_t kHCount = 2;
constexpr std::size_t kHLeafM = 3;
constexpr std::size_t kHLeafNPB = 4;
constexpr std::size_t kHLeafPIds = 5;
constexpr std::size_t kHIntF = 3;
constexpr std::size_t kHIntNCR = 4;
constexpr std::size_t kHIntNSK = 5;
constexpr std::size_t kHIntIds = 6;  // child-rec blocks, then sketch blocks

// Sketch levels capacity per child (enough for 2^33 points per subtree).
constexpr std::uint32_t kJCap = 34;

struct ChildRec {
  em::BlockId id;
  std::uint64_t lo_bits, hi_bits;
  std::uint64_t count;
  std::uint64_t counter;  // updates below since last full repair of level j
  std::uint64_t sk_len;
  std::uint64_t pad0, pad1;

  double lo() const { return std::bit_cast<double>(lo_bits); }
  double hi() const { return std::bit_cast<double>(hi_bits); }
};
static_assert(sizeof(ChildRec) == 8 * sizeof(std::uint64_t));

std::uint32_t JOf(std::uint64_t count) {
  return count == 0 ? 0 : FloorLog2(count) + 1;
}

}  // namespace

std::uint64_t ShengTaoSelector::MetaGet(std::size_t w) const {
  em::PageRef mp = pager_->Fetch(meta_);
  return mp.Get(w);
}
void ShengTaoSelector::MetaSet(std::size_t w, std::uint64_t v) {
  em::PageRef mp = pager_->Fetch(meta_);
  mp.Set(w, v);
}
std::uint64_t ShengTaoSelector::size() const { return MetaGet(kMCount); }

// --- node access helpers ---------------------------------------------

namespace {

struct NodeBlocks {
  bool leaf;
  std::uint32_t level;
  std::uint64_t count;
  std::uint32_t fill;  // m (leaf) or f (internal)
  std::vector<em::BlockId> a;  // point blocks (leaf) or child-rec blocks
  std::vector<em::BlockId> b;  // sketch blocks (internal only)
};

NodeBlocks ReadNode(em::Pager* pager, em::BlockId id) {
  em::PageRef h = pager->Fetch(id);
  NodeBlocks nb;
  nb.leaf = h.Get(kHKind) == 1;
  nb.level = static_cast<std::uint32_t>(h.Get(kHLevel));
  nb.count = h.Get(kHCount);
  if (nb.leaf) {
    nb.fill = static_cast<std::uint32_t>(h.Get(kHLeafM));
    std::uint32_t npb = static_cast<std::uint32_t>(h.Get(kHLeafNPB));
    for (std::uint32_t i = 0; i < npb; ++i) {
      nb.a.push_back(h.Get(kHLeafPIds + i));
    }
  } else {
    nb.fill = static_cast<std::uint32_t>(h.Get(kHIntF));
    std::uint32_t ncr = static_cast<std::uint32_t>(h.Get(kHIntNCR));
    std::uint32_t nsk = static_cast<std::uint32_t>(h.Get(kHIntNSK));
    for (std::uint32_t i = 0; i < ncr; ++i) {
      nb.a.push_back(h.Get(kHIntIds + i));
    }
    for (std::uint32_t i = 0; i < nsk; ++i) {
      nb.b.push_back(h.Get(kHIntIds + ncr + i));
    }
  }
  return nb;
}

}  // namespace

// --- construction -------------------------------------------------------

em::BlockId ShengTaoSelector::BuildNode(const std::vector<Point>& by_x,
                                        std::uint32_t level, double lo,
                                        double hi) {
  std::uint32_t f = static_cast<std::uint32_t>(MetaGet(kMFanout));
  std::uint32_t leaf_cap = static_cast<std::uint32_t>(MetaGet(kMLeafCap));
  em::BlockId id = pager_->Allocate();
  if (level == 0) {
    std::uint32_t npb = static_cast<std::uint32_t>(
        em::PagedArray<Point>::BlocksFor(B(), 4 * leaf_cap));
    TOKRA_CHECK(kHLeafPIds + npb <= B());
    std::vector<em::BlockId> pb(npb);
    {
      em::PageRef h = pager_->Create(id);
      h.Set(kHKind, 1);
      h.Set(kHLevel, 0);
      h.Set(kHCount, by_x.size());
      h.Set(kHLeafM, by_x.size());
      h.Set(kHLeafNPB, npb);
      for (std::uint32_t i = 0; i < npb; ++i) {
        pb[i] = pager_->Allocate();
        h.Set(kHLeafPIds + i, pb[i]);
        em::PageRef zero = pager_->Create(pb[i]);
      }
    }
    if (!by_x.empty()) {
      em::PagedArray<Point> arr(pager_, pb);
      TOKRA_CHECK(by_x.size() <= arr.capacity());
      arr.WriteRange(0, by_x);
    }
    return id;
  }

  // Children: chunk so each child (level-1 subtree) holds about target.
  std::uint64_t target = leaf_cap / 2;
  for (std::uint32_t i = 1; i < level; ++i) target *= f;
  std::size_t n = by_x.size();
  std::size_t nf = std::max<std::size_t>(1, CeilDiv(n, target));
  nf = std::min<std::size_t>(nf, 2 * f);

  std::vector<ChildRec> crs(nf);
  std::vector<std::vector<double>> child_scores(nf);
  std::size_t pos = 0;
  for (std::size_t c = 0; c < nf; ++c) {
    std::size_t take = CeilDiv(n - pos, nf - c);
    std::vector<Point> chunk(by_x.begin() + pos, by_x.begin() + pos + take);
    double clo = c == 0 ? lo : by_x[pos].x;
    double chi = c == nf - 1 ? hi : by_x[pos + take].x;
    crs[c].id = BuildNode(chunk, level - 1, clo, chi);
    crs[c].lo_bits = std::bit_cast<std::uint64_t>(clo);
    crs[c].hi_bits = std::bit_cast<std::uint64_t>(chi);
    crs[c].count = take;
    crs[c].counter = 0;
    crs[c].sk_len = JOf(take);
    for (const Point& p : chunk) child_scores[c].push_back(p.score);
    pos += take;
  }

  std::uint32_t ncr = static_cast<std::uint32_t>(
      em::PagedArray<ChildRec>::BlocksFor(B(), 2 * f));
  std::uint32_t nsk = static_cast<std::uint32_t>(
      em::PagedArray<double>::BlocksFor(B(), 2 * f * kJCap));
  TOKRA_CHECK(kHIntIds + ncr + nsk <= B());
  std::vector<em::BlockId> crb(ncr), skb(nsk);
  {
    em::PageRef h = pager_->Create(id);
    h.Set(kHKind, 0);
    h.Set(kHLevel, level);
    h.Set(kHCount, n);
    h.Set(kHIntF, nf);
    h.Set(kHIntNCR, ncr);
    h.Set(kHIntNSK, nsk);
    for (std::uint32_t i = 0; i < ncr; ++i) {
      crb[i] = pager_->Allocate();
      h.Set(kHIntIds + i, crb[i]);
      em::PageRef zero = pager_->Create(crb[i]);
    }
    for (std::uint32_t i = 0; i < nsk; ++i) {
      skb[i] = pager_->Allocate();
      h.Set(kHIntIds + ncr + i, skb[i]);
      em::PageRef zero = pager_->Create(skb[i]);
    }
  }
  em::PagedArray<ChildRec> crarr(pager_, crb);
  crarr.WriteRange(0, crs);
  em::PagedArray<double> skarr(pager_, skb);
  for (std::size_t c = 0; c < nf; ++c) {
    sketch::LogSketch s =
        sketch::LogSketch::Build(std::move(child_scores[c]));
    for (std::uint32_t j = 1; j <= s.levels(); ++j) {
      skarr.Set(static_cast<std::uint32_t>(c) * kJCap + (j - 1),
                s.pivot(j).value);
    }
  }
  return id;
}

ShengTaoSelector ShengTaoSelector::Build(em::Pager* pager,
                                         std::vector<Point> points,
                                         Params params) {
  TOKRA_CHECK(pager->B() >= 64);
  std::uint32_t f = params.fanout != 0
                        ? params.fanout
                        : std::max<std::uint32_t>(4, pager->B() / 4);
  std::uint32_t leaf_cap =
      params.leaf_cap != 0 ? params.leaf_cap : 2 * pager->B();
  em::BlockId meta = pager->Allocate();
  {
    em::PageRef mp = pager->Create(meta);
    mp.Set(kMFanout, f);
    mp.Set(kMLeafCap, leaf_cap);
    mp.Set(kMCount, points.size());
    mp.Set(kMUpdates, 0);
  }
  ShengTaoSelector s(pager, meta);
  std::sort(points.begin(), points.end(), ByXAsc{});
  // Height: smallest h with leaf_cap/2 * f^h >= n, at least 1.
  std::uint32_t h = 1;
  std::uint64_t cap = static_cast<std::uint64_t>(leaf_cap) / 2 * f;
  while (cap < points.size()) {
    cap *= f;
    ++h;
  }
  em::BlockId root = s.BuildNode(points, h, -kInf, kInf);
  s.MetaSet(kMRoot, root);
  return s;
}

ShengTaoSelector ShengTaoSelector::Open(em::Pager* pager, em::BlockId meta) {
  return ShengTaoSelector(pager, meta);
}

void ShengTaoSelector::FreeNode(em::BlockId id) {
  NodeBlocks nb = ReadNode(pager_, id);
  if (!nb.leaf) {
    em::PagedArray<ChildRec> crarr(pager_, nb.a);
    for (std::uint32_t c = 0; c < nb.fill; ++c) {
      FreeNode(crarr.Get(c).id);
    }
    for (em::BlockId b : nb.b) pager_->Free(b);
  }
  for (em::BlockId b : nb.a) pager_->Free(b);
  pager_->Free(id);
}

void ShengTaoSelector::DestroyAll() {
  FreeNode(MetaGet(kMRoot));
  pager_->Free(meta_);
  meta_ = em::kNullBlock;
}

void ShengTaoSelector::CollectPoints(em::BlockId id,
                                     std::vector<Point>* out) const {
  NodeBlocks nb = ReadNode(pager_, id);
  if (nb.leaf) {
    em::PagedArray<Point> arr(pager_, nb.a);
    std::vector<Point> pts;
    arr.ReadRange(0, nb.fill, &pts);
    out->insert(out->end(), pts.begin(), pts.end());
    return;
  }
  em::PagedArray<ChildRec> crarr(pager_, nb.a);
  for (std::uint32_t c = 0; c < nb.fill; ++c) {
    CollectPoints(crarr.Get(c).id, out);
  }
}

void ShengTaoSelector::MaybeGlobalRebuild() {
  std::uint64_t updates = MetaGet(kMUpdates);
  std::uint64_t n = MetaGet(kMCount);
  if (updates < 16 || 2 * updates < std::max<std::uint64_t>(n, 1)) return;
  std::vector<Point> all;
  CollectPoints(MetaGet(kMRoot), &all);
  FreeNode(MetaGet(kMRoot));
  std::sort(all.begin(), all.end(), ByXAsc{});
  std::uint32_t f = static_cast<std::uint32_t>(MetaGet(kMFanout));
  std::uint32_t leaf_cap = static_cast<std::uint32_t>(MetaGet(kMLeafCap));
  std::uint32_t h = 1;
  std::uint64_t cap = static_cast<std::uint64_t>(leaf_cap) / 2 * f;
  while (cap < all.size()) {
    cap *= f;
    ++h;
  }
  MetaSet(kMRoot, BuildNode(all, h, -kInf, kInf));
  MetaSet(kMUpdates, 0);
}

// --- sketch repair ----------------------------------------------------

void ShengTaoSelector::RepairChildSketch(em::BlockId id, std::uint32_t ci,
                                         std::uint32_t upto) {
  NodeBlocks nb = ReadNode(pager_, id);
  em::PagedArray<ChildRec> crarr(pager_, nb.a);
  ChildRec cr = crarr.Get(ci);
  std::uint32_t len = JOf(cr.count);
  upto = std::min(upto, len);
  em::PagedArray<double> skarr(pager_, nb.b);
  for (std::uint32_t j = 1; j <= upto; ++j) {
    std::uint64_t target = sketch::PivotRank(j, cr.count);
    // Recursive approximate selection inside the child's slab — the repair
    // whose O(lg_B n) cost, summed over sketch levels and path nodes, yields
    // the baseline's Theta(lg^2_B n) amortized update bound.
    auto res = SelectApprox(cr.lo(), std::nextafter(cr.hi(), -kInf), target);
    if (res.ok()) {
      skarr.Set(ci * kJCap + (j - 1), *res);
    }
  }
  cr.sk_len = len;
  cr.counter = 0;
  crarr.Set(ci, cr);
}

// --- updates -------------------------------------------------------------

Status ShengTaoSelector::Insert(const Point& p) {
  MaybeGlobalRebuild();
  em::BlockId cur = MetaGet(kMRoot);
  while (true) {
    NodeBlocks nb = ReadNode(pager_, cur);
    {
      em::PageRef h = pager_->Fetch(cur);
      h.Set(kHCount, nb.count + 1);
    }
    if (nb.leaf) {
      em::PagedArray<Point> arr(pager_, nb.a);
      if (nb.fill >= arr.capacity()) {
        // Leaf at physical capacity: force a rebuild and retry. The counts
        // incremented on the way down die with the old tree.
        {
          em::PageRef h = pager_->Fetch(cur);
          h.Set(kHCount, nb.count);  // undo
        }
        MetaSet(kMUpdates, std::max<std::uint64_t>(MetaGet(kMCount), 16));
        MaybeGlobalRebuild();
        cur = MetaGet(kMRoot);
        continue;
      }
      arr.Set(nb.fill, p);
      em::PageRef h = pager_->Fetch(cur);
      h.Set(kHLeafM, nb.fill + 1);
      break;
    }
    em::PagedArray<ChildRec> crarr(pager_, nb.a);
    std::uint32_t ci = 0;
    for (std::uint32_t c = 0; c < nb.fill; ++c) {
      ChildRec cr = crarr.Get(c);
      if (p.x >= cr.lo() && p.x < cr.hi()) {
        ci = c;
        break;
      }
    }
    ChildRec cr = crarr.Get(ci);
    cr.count += 1;
    cr.counter += 1;
    crarr.Set(ci, cr);
    // Drift repairs: level j is refreshed every 2^(j-2) updates through
    // this child (levels 1-2 every update).
    std::uint32_t upto = 0;
    for (std::uint32_t j = 1; j <= JOf(cr.count); ++j) {
      std::uint64_t period = j <= 2 ? 1 : (std::uint64_t{1} << (j - 2));
      if (cr.counter % period == 0) upto = j;
    }
    if (upto > 0 || cr.sk_len != JOf(cr.count)) {
      RepairChildSketch(cur, ci, std::max(upto, 1u));
    }
    cur = cr.id;
  }
  MetaSet(kMCount, MetaGet(kMCount) + 1);
  MetaSet(kMUpdates, MetaGet(kMUpdates) + 1);
  return Status::Ok();
}

Status ShengTaoSelector::Delete(const Point& p) {
  // Verify presence first (read-only descent), then mutate.
  {
    em::BlockId cur = MetaGet(kMRoot);
    while (true) {
      NodeBlocks nb = ReadNode(pager_, cur);
      if (nb.leaf) {
        em::PagedArray<Point> arr(pager_, nb.a);
        std::vector<Point> pts;
        arr.ReadRange(0, nb.fill, &pts);
        if (std::find(pts.begin(), pts.end(), p) == pts.end()) {
          return Status::NotFound("point not present");
        }
        break;
      }
      em::PagedArray<ChildRec> crarr(pager_, nb.a);
      for (std::uint32_t c = 0; c < nb.fill; ++c) {
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
  while (true) {
    NodeBlocks nb = ReadNode(pager_, cur);
    {
      em::PageRef h = pager_->Fetch(cur);
      h.Set(kHCount, nb.count - 1);
    }
    if (nb.leaf) {
      em::PagedArray<Point> arr(pager_, nb.a);
      std::vector<Point> pts;
      arr.ReadRange(0, nb.fill, &pts);
      auto it = std::find(pts.begin(), pts.end(), p);
      TOKRA_CHECK(it != pts.end());
      *it = pts.back();
      pts.pop_back();
      if (!pts.empty()) arr.WriteRange(0, pts);
      em::PageRef h = pager_->Fetch(cur);
      h.Set(kHLeafM, pts.size());
      break;
    }
    em::PagedArray<ChildRec> crarr(pager_, nb.a);
    std::uint32_t ci = 0;
    for (std::uint32_t c = 0; c < nb.fill; ++c) {
      ChildRec cr = crarr.Get(c);
      if (p.x >= cr.lo() && p.x < cr.hi()) {
        ci = c;
        break;
      }
    }
    ChildRec cr = crarr.Get(ci);
    cr.count -= 1;
    cr.counter += 1;
    crarr.Set(ci, cr);
    std::uint32_t upto = 0;
    for (std::uint32_t j = 1; j <= JOf(cr.count); ++j) {
      std::uint64_t period = j <= 2 ? 1 : (std::uint64_t{1} << (j - 2));
      if (cr.counter % period == 0) upto = j;
    }
    if (upto > 0 || cr.sk_len != JOf(cr.count)) {
      RepairChildSketch(cur, ci, std::max(upto, 1u));
    }
    cur = cr.id;
  }
  MetaSet(kMCount, MetaGet(kMCount) - 1);
  MetaSet(kMUpdates, MetaGet(kMUpdates) + 1);
  return Status::Ok();
}

// --- queries --------------------------------------------------------

void ShengTaoSelector::GatherSketches(em::BlockId id, double x1, double x2,
                                      RangeSketches* range) const {
  NodeBlocks nb = ReadNode(pager_, id);
  if (nb.leaf) {
    em::PagedArray<Point> arr(pager_, nb.a);
    std::vector<Point> pts;
    arr.ReadRange(0, nb.fill, &pts);
    for (const Point& p : pts) {
      if (p.x >= x1 && p.x <= x2) range->boundary_.push_back(p.score);
    }
    return;
  }
  // One ReadRange per node for its child records and one per run of
  // contiguous covered children for their pivot slots: each backing block
  // is pinned once per run, not once per child. A run is read before the
  // walk recurses into the child after it, so blocks are read in child
  // order.
  em::PagedArray<ChildRec> crarr(pager_, nb.a);
  em::PagedArray<double> skarr(pager_, nb.b);
  std::vector<ChildRec> kids;
  crarr.ReadRange(0, nb.fill, &kids);
  std::vector<double> slots;
  std::uint32_t run = nb.fill;  // first child of the open run; nb.fill: none
  auto read_run = [&](std::uint32_t end) {
    const std::uint32_t base = run * kJCap;
    const std::uint32_t last = (end - 1) * kJCap +
                               static_cast<std::uint32_t>(kids[end - 1].sk_len);
    skarr.ReadRange(base, last, &slots);
    for (std::uint32_t c = run; c < end; ++c) {
      const ChildRec& cr = kids[c];
      TOKRA_CHECK_EQ(cr.sk_len, JOf(cr.count));
      for (std::uint32_t j = 1; j <= cr.sk_len; ++j) {
        range->pivots_.push_back(sketch::SketchEntry{
            slots[c * kJCap - base + j - 1], range->sets_, j});
      }
      ++range->sets_;
      range->count_ += cr.count;
    }
    run = nb.fill;
  };
  for (std::uint32_t c = 0; c < nb.fill; ++c) {
    const ChildRec& cr = kids[c];
    bool inside = cr.lo() >= x1 && cr.hi() <= x2;
    if (inside && cr.count > 0) {
      // Covered: the child's stored sketch joins the open run.
      if (run == nb.fill) run = c;
      continue;
    }
    if (run != nb.fill) read_run(c);
    if (inside || cr.hi() <= x1 || cr.lo() > x2) continue;  // empty/disjoint
    GatherSketches(cr.id, x1, x2, range);
  }
  if (run != nb.fill) read_run(nb.fill);
}

bool ShengTaoSelector::Contains(const Point& p) const {
  em::BlockId cur = MetaGet(kMRoot);
  while (true) {
    NodeBlocks nb = ReadNode(pager_, cur);
    if (nb.leaf) {
      em::PagedArray<Point> arr(pager_, nb.a);
      std::vector<Point> pts;
      arr.ReadRange(0, nb.fill, &pts);
      return std::find(pts.begin(), pts.end(), p) != pts.end();
    }
    em::PagedArray<ChildRec> crarr(pager_, nb.a);
    for (std::uint32_t c = 0; c < nb.fill; ++c) {
      ChildRec cr = crarr.Get(c);
      if (p.x >= cr.lo() && p.x < cr.hi()) {
        cur = cr.id;
        break;
      }
    }
  }
}

void ShengTaoSelector::CollectAll(std::vector<Point>* out) const {
  CollectPoints(MetaGet(kMRoot), out);
}

RangeSketches ShengTaoSelector::Decompose(double x1, double x2) const {
  RangeSketches range;
  GatherSketches(MetaGet(kMRoot), x1, x2, &range);
  range.count_ += range.boundary_.size();
  return range;
}

StatusOr<double> RangeSketches::Select(std::uint64_t k) const {
  if (k < 1) return Status::InvalidArgument("bad query");
  if (k > count_) return Status::OutOfRange("k exceeds range population");
  // Internal doubling absorbs sketch drift (see header notes); the end-to-end
  // guarantee is rank in [k, kApproxFactor * k).
  const std::uint64_t ask = std::min<std::uint64_t>(2 * k, count_);
  // The boundary's sketch is built only for the levels the sweep can reach
  // (select7.h). The covered children's stored pivots were repaired by
  // approximate selection and need not be monotone, so all of them stay.
  const std::uint32_t upto =
      boundary_.empty() ? 0 : sketch::ReachableLevels(boundary_.size(), ask);
  std::vector<sketch::SketchEntry> pivots;
  pivots.reserve(pivots_.size() + upto);
  pivots.assign(pivots_.begin(), pivots_.end());
  if (upto > 0) {
    std::vector<double> scores = boundary_;
    sketch::ForEachPivot(scores, upto,
                         [&](std::uint32_t j, double v, std::uint64_t) {
                           pivots.push_back(sketch::SketchEntry{v, sets_, j});
                         });
  }
  sketch::Select7Result res = sketch::SelectFromSketches(
      std::move(pivots), sets_ + (upto > 0 ? 1 : 0), ask);
  if (res.neg_inf) return -kInf;
  return res.value;
}

StatusOr<double> ShengTaoSelector::SelectApprox(double x1, double x2,
                                                std::uint64_t k) const {
  if (x1 > x2) return Status::InvalidArgument("bad query");
  return Decompose(x1, x2).Select(k);
}

// --- validation ------------------------------------------------------

void ShengTaoSelector::CheckNode(em::BlockId id, double lo, double hi,
                                 std::uint64_t* count) const {
  NodeBlocks nb = ReadNode(pager_, id);
  if (nb.leaf) {
    TOKRA_CHECK_EQ(nb.count, nb.fill);
    em::PagedArray<Point> arr(pager_, nb.a);
    std::vector<Point> pts;
    arr.ReadRange(0, nb.fill, &pts);
    for (const Point& p : pts) {
      TOKRA_CHECK(p.x >= lo && p.x < hi);
    }
    *count = nb.fill;
    return;
  }
  em::PagedArray<ChildRec> crarr(pager_, nb.a);
  double prev = lo;
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < nb.fill; ++c) {
    ChildRec cr = crarr.Get(c);
    TOKRA_CHECK(cr.lo() == prev);
    prev = cr.hi();
    std::uint64_t sub = 0;
    CheckNode(cr.id, cr.lo(), cr.hi(), &sub);
    TOKRA_CHECK_EQ(sub, cr.count);
    total += sub;
  }
  TOKRA_CHECK(prev == hi);
  TOKRA_CHECK_EQ(total, nb.count);
  *count = total;
}

void ShengTaoSelector::CheckInvariants() const {
  std::uint64_t count = 0;
  CheckNode(MetaGet(kMRoot), -kInf, kInf, &count);
  TOKRA_CHECK_EQ(count, MetaGet(kMCount));
}

}  // namespace tokra::st12
