#include "btree/ostree.h"

#include <algorithm>
#include <cmath>

#include "util/bits.h"
#include "util/check.h"

namespace tokra::btree {
namespace {

// --- node views -------------------------------------------------------
// Thin accessors over a pinned page; all offsets derive from the layout
// documented in ostree.h.

constexpr std::size_t kTagWord = 0;    // 0 = internal, 1 = leaf
constexpr std::size_t kCountWord = 1;  // f (internal) or m (leaf)
constexpr std::size_t kNextWord = 2;   // leaf only: next-leaf block id

class IntView {
 public:
  IntView(em::PageRef page, std::uint32_t cap)
      : page_(std::move(page)), cap_(cap) {}

  static void Init(em::PageRef& page) {
    page.Set(kTagWord, 0);
    page.Set(kCountWord, 0);
  }

  bool is_leaf() const { return page_.Get(kTagWord) == 1; }
  std::uint32_t f() const {
    return static_cast<std::uint32_t>(page_.Get(kCountWord));
  }
  void set_f(std::uint32_t v) { page_.Set(kCountWord, v); }

  em::BlockId child(std::uint32_t i) const { return page_.Get(2 + i); }
  void set_child(std::uint32_t i, em::BlockId id) { page_.Set(2 + i, id); }

  std::uint64_t count(std::uint32_t i) const { return page_.Get(2 + cap_ + i); }
  void set_count(std::uint32_t i, std::uint64_t c) {
    page_.Set(2 + cap_ + i, c);
  }

  double lowkey(std::uint32_t i) const {
    return page_.GetDouble(2 + 2 * static_cast<std::size_t>(cap_) + i);
  }
  void set_lowkey(std::uint32_t i, double k) {
    page_.SetDouble(2 + 2 * static_cast<std::size_t>(cap_) + i, k);
  }

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (std::uint32_t i = 0; i < f(); ++i) t += count(i);
    return t;
  }

  /// Largest i with i == 0 or lowkey(i) <= key.
  std::uint32_t Route(double key) const {
    std::uint32_t i = 0;
    for (std::uint32_t j = 1; j < f(); ++j) {
      if (lowkey(j) <= key) i = j;
    }
    return i;
  }

  /// Opens slot `i`, shifting entries [i, f) right by one.
  void InsertSlot(std::uint32_t i, em::BlockId id, std::uint64_t cnt,
                  double low) {
    std::uint32_t n = f();
    TOKRA_DCHECK(n < cap_);
    for (std::uint32_t j = n; j > i; --j) {
      set_child(j, child(j - 1));
      set_count(j, count(j - 1));
      set_lowkey(j, lowkey(j - 1));
    }
    set_child(i, id);
    set_count(i, cnt);
    set_lowkey(i, low);
    set_f(n + 1);
  }

  /// Removes slot `i`, shifting entries (i, f) left by one.
  void RemoveSlot(std::uint32_t i) {
    std::uint32_t n = f();
    for (std::uint32_t j = i; j + 1 < n; ++j) {
      set_child(j, child(j + 1));
      set_count(j, count(j + 1));
      set_lowkey(j, lowkey(j + 1));
    }
    set_f(n - 1);
  }

  em::PageRef& page() { return page_; }

 private:
  em::PageRef page_;
  std::uint32_t cap_;
};

class LeafView {
 public:
  LeafView(em::PageRef page, std::uint32_t cap)
      : page_(std::move(page)), cap_(cap) {}

  static void Init(em::PageRef& page) {
    page.Set(kTagWord, 1);
    page.Set(kCountWord, 0);
    page.Set(kNextWord, em::kNullBlock);
  }

  bool is_leaf() const { return page_.Get(kTagWord) == 1; }
  std::uint32_t m() const {
    return static_cast<std::uint32_t>(page_.Get(kCountWord));
  }
  void set_m(std::uint32_t v) { page_.Set(kCountWord, v); }

  em::BlockId next() const { return page_.Get(kNextWord); }
  void set_next(em::BlockId id) { page_.Set(kNextWord, id); }

  double key(std::uint32_t i) const { return page_.GetDouble(3 + i); }
  void set_key(std::uint32_t i, double k) { page_.SetDouble(3 + i, k); }

  double aux(std::uint32_t i) const { return page_.GetDouble(3 + cap_ + i); }
  void set_aux(std::uint32_t i, double a) { page_.SetDouble(3 + cap_ + i, a); }

  /// Index of the first key >= k (== m() if none).
  std::uint32_t LowerBound(double k) const {
    std::uint32_t n = m();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (key(i) >= k) return i;
    }
    return n;
  }

  void InsertAt(std::uint32_t i, double k, double a) {
    std::uint32_t n = m();
    TOKRA_DCHECK(n < cap_);
    for (std::uint32_t j = n; j > i; --j) {
      set_key(j, key(j - 1));
      set_aux(j, aux(j - 1));
    }
    set_key(i, k);
    set_aux(i, a);
    set_m(n + 1);
  }

  void RemoveAt(std::uint32_t i) {
    std::uint32_t n = m();
    for (std::uint32_t j = i; j + 1 < n; ++j) {
      set_key(j, key(j + 1));
      set_aux(j, aux(j + 1));
    }
    set_m(n - 1);
  }

  em::PageRef& page() { return page_; }

 private:
  em::PageRef page_;
  std::uint32_t cap_;
};

bool PageIsLeaf(const em::PageRef& page) { return page.Get(kTagWord) == 1; }

}  // namespace

// --- construction -------------------------------------------------------

OsTree OsTree::Create(em::Pager* pager) {
  TOKRA_CHECK(pager->B() >= 32);  // keeps fanout/fill arithmetic sane
  OsTree t(pager);
  t.ref_.root = pager->Allocate();
  em::PageRef page = pager->Create(t.ref_.root);
  LeafView::Init(page);
  t.ref_.size = 0;
  return t;
}

// --- lookups --------------------------------------------------------------

bool OsTree::Contains(double key) const { return FindAux(key).ok(); }

StatusOr<double> OsTree::FindAux(double key) const {
  em::BlockId id = ref_.root;
  while (true) {
    em::PageRef page = pager_->Fetch(id);
    if (PageIsLeaf(page)) {
      LeafView leaf(std::move(page), LeafCap());
      std::uint32_t i = leaf.LowerBound(key);
      if (i < leaf.m() && leaf.key(i) == key) return leaf.aux(i);
      return Status::NotFound("key not in tree");
    }
    IntView node(std::move(page), InternalCap());
    id = node.child(node.Route(key));
  }
}

std::uint64_t OsTree::CountGreaterEq(double key, bool strict) const {
  std::uint64_t acc = 0;
  em::BlockId id = ref_.root;
  while (true) {
    em::PageRef page = pager_->Fetch(id);
    if (PageIsLeaf(page)) {
      LeafView leaf(std::move(page), LeafCap());
      for (std::uint32_t i = 0; i < leaf.m(); ++i) {
        double k = leaf.key(i);
        if (strict ? k > key : k >= key) ++acc;
      }
      return acc;
    }
    IntView node(std::move(page), InternalCap());
    std::uint32_t i = node.Route(key);
    for (std::uint32_t j = i + 1; j < node.f(); ++j) acc += node.count(j);
    id = node.child(i);
  }
}

StatusOr<Entry> OsTree::SelectDesc(std::uint64_t r) const {
  if (r < 1 || r > ref_.size) {
    return Status::OutOfRange("rank outside [1, size]");
  }
  em::BlockId id = ref_.root;
  while (true) {
    em::PageRef page = pager_->Fetch(id);
    if (PageIsLeaf(page)) {
      LeafView leaf(std::move(page), LeafCap());
      TOKRA_CHECK(r <= leaf.m());
      std::uint32_t i = leaf.m() - static_cast<std::uint32_t>(r);
      return Entry{leaf.key(i), leaf.aux(i)};
    }
    IntView node(std::move(page), InternalCap());
    std::uint32_t j = node.f();
    while (j > 0) {
      --j;
      if (r <= node.count(j)) break;
      r -= node.count(j);
    }
    id = node.child(j);
  }
}

StatusOr<Entry> OsTree::Min() const {
  if (ref_.size == 0) return Status::NotFound("empty tree");
  return SelectDesc(ref_.size);
}

// --- insertion --------------------------------------------------------

bool OsTree::IsFull(em::BlockId id) const {
  em::PageRef page = pager_->Fetch(id);
  if (PageIsLeaf(page)) {
    return page.Get(kCountWord) >= LeafCap();
  }
  return page.Get(kCountWord) >= InternalCap();
}

void OsTree::SplitRoot() {
  em::BlockId old_root = ref_.root;
  em::BlockId new_root = pager_->Allocate();
  {
    em::PageRef page = pager_->Create(new_root);
    IntView::Init(page);
    IntView root(std::move(page), InternalCap());
    root.InsertSlot(0, old_root, ref_.size, 0.0);
  }
  ref_.root = new_root;
  em::PageRef parent_page = pager_->Fetch(new_root);
  IntView parent(std::move(parent_page), InternalCap());
  SplitChild(parent.page(), 0);
}

OsTree::SplitResult OsTree::SplitChild(em::PageRef& parent_page,
                                       std::uint32_t i) {
  IntView parent(std::move(parent_page), InternalCap());
  em::BlockId left_id = parent.child(i);
  em::BlockId right_id = pager_->Allocate();
  SplitResult res{right_id, 0, 0.0};

  em::PageRef left_page = pager_->Fetch(left_id);
  if (PageIsLeaf(left_page)) {
    LeafView left(std::move(left_page), LeafCap());
    std::uint32_t m = left.m();
    std::uint32_t h = m / 2;
    em::PageRef rp = pager_->Create(right_id);
    LeafView::Init(rp);
    LeafView right(std::move(rp), LeafCap());
    for (std::uint32_t j = h; j < m; ++j) {
      right.set_key(j - h, left.key(j));
      right.set_aux(j - h, left.aux(j));
    }
    right.set_m(m - h);
    left.set_m(h);
    right.set_next(left.next());
    left.set_next(right_id);
    res.right_count = m - h;
    res.separator = right.key(0);
  } else {
    IntView left(std::move(left_page), InternalCap());
    std::uint32_t f = left.f();
    std::uint32_t h = f / 2;
    em::PageRef rp = pager_->Create(right_id);
    IntView::Init(rp);
    IntView right(std::move(rp), InternalCap());
    std::uint64_t moved = 0;
    for (std::uint32_t j = h; j < f; ++j) {
      right.set_child(j - h, left.child(j));
      right.set_count(j - h, left.count(j));
      if (j > h) right.set_lowkey(j - h, left.lowkey(j));
      moved += left.count(j);
    }
    right.set_f(f - h);
    res.separator = left.lowkey(h);
    left.set_f(h);
    res.right_count = moved;
  }

  parent.set_count(i, parent.count(i) - res.right_count);
  parent.InsertSlot(i + 1, right_id, res.right_count, res.separator);
  parent_page = std::move(parent.page());
  return res;
}

void OsTree::InsertNonfull(em::BlockId id, double key, double aux) {
  while (true) {
    em::PageRef page = pager_->Fetch(id);
    if (PageIsLeaf(page)) {
      LeafView leaf(std::move(page), LeafCap());
      std::uint32_t i = leaf.LowerBound(key);
      TOKRA_DCHECK(i == leaf.m() || leaf.key(i) != key);  // pre-checked
      leaf.InsertAt(i, key, aux);
      return;
    }
    IntView node(std::move(page), InternalCap());
    std::uint32_t i = node.Route(key);
    if (IsFull(node.child(i))) {
      SplitResult sr = SplitChild(node.page(), i);
      if (key >= sr.separator) ++i;
    }
    node.set_count(i, node.count(i) + 1);
    id = node.child(i);
  }
}

Status OsTree::Insert(double key, double aux) {
  if (std::isnan(key)) return Status::InvalidArgument("NaN key");
  if (Contains(key)) return Status::AlreadyExists("duplicate key");
  if (IsFull(ref_.root)) SplitRoot();
  InsertNonfull(ref_.root, key, aux);
  ++ref_.size;
  return Status::Ok();
}

// --- deletion ----------------------------------------------------------

std::uint32_t OsTree::FixChild(em::PageRef& parent_page, std::uint32_t i) {
  IntView parent(std::move(parent_page), InternalCap());
  em::BlockId child_id = parent.child(i);
  em::PageRef child_page = pager_->Fetch(child_id);
  const bool leaf_level = PageIsLeaf(child_page);

  auto fill_of = [&](em::BlockId id) -> std::uint32_t {
    em::PageRef p = pager_->Fetch(id);
    return static_cast<std::uint32_t>(p.Get(kCountWord));
  };
  std::uint32_t min_fill = leaf_level ? LeafMin() : InternalMin();

  // Try borrowing from the left sibling.
  if (i > 0 && fill_of(parent.child(i - 1)) > min_fill) {
    em::BlockId left_id = parent.child(i - 1);
    if (leaf_level) {
      LeafView left(pager_->Fetch(left_id), LeafCap());
      LeafView cur(std::move(child_page), LeafCap());
      std::uint32_t lm = left.m();
      double k = left.key(lm - 1), a = left.aux(lm - 1);
      left.set_m(lm - 1);
      cur.InsertAt(0, k, a);
      parent.set_lowkey(i, k);
      parent.set_count(i - 1, parent.count(i - 1) - 1);
      parent.set_count(i, parent.count(i) + 1);
    } else {
      IntView left(pager_->Fetch(left_id), InternalCap());
      IntView cur(std::move(child_page), InternalCap());
      std::uint32_t lf = left.f();
      em::BlockId moved = left.child(lf - 1);
      std::uint64_t moved_cnt = left.count(lf - 1);
      double moved_sep = left.lowkey(lf - 1);
      left.set_f(lf - 1);
      // The old separator of `cur` becomes the bound of its old first child.
      cur.InsertSlot(0, moved, moved_cnt, 0.0);
      cur.set_lowkey(1, parent.lowkey(i));
      parent.set_lowkey(i, moved_sep);
      parent.set_count(i - 1, parent.count(i - 1) - moved_cnt);
      parent.set_count(i, parent.count(i) + moved_cnt);
    }
    parent_page = std::move(parent.page());
    return i;
  }

  // Try borrowing from the right sibling.
  if (i + 1 < parent.f() && fill_of(parent.child(i + 1)) > min_fill) {
    em::BlockId right_id = parent.child(i + 1);
    if (leaf_level) {
      LeafView right(pager_->Fetch(right_id), LeafCap());
      LeafView cur(std::move(child_page), LeafCap());
      double k = right.key(0), a = right.aux(0);
      right.RemoveAt(0);
      cur.InsertAt(cur.m(), k, a);
      parent.set_lowkey(i + 1, right.key(0));
      parent.set_count(i + 1, parent.count(i + 1) - 1);
      parent.set_count(i, parent.count(i) + 1);
    } else {
      IntView right(pager_->Fetch(right_id), InternalCap());
      IntView cur(std::move(child_page), InternalCap());
      em::BlockId moved = right.child(0);
      std::uint64_t moved_cnt = right.count(0);
      double right_next_sep = right.lowkey(1);
      right.RemoveSlot(0);
      std::uint32_t cf = cur.f();
      cur.InsertSlot(cf, moved, moved_cnt, parent.lowkey(i + 1));
      parent.set_lowkey(i + 1, right_next_sep);
      parent.set_count(i + 1, parent.count(i + 1) - moved_cnt);
      parent.set_count(i, parent.count(i) + moved_cnt);
    }
    parent_page = std::move(parent.page());
    return i;
  }

  // Merge with a sibling. Merge child j+1 into child j where j = i-1 if a
  // left sibling exists, else j = i.
  std::uint32_t j = (i > 0) ? i - 1 : i;
  em::BlockId left_id = parent.child(j);
  em::BlockId right_id = parent.child(j + 1);
  child_page = em::PageRef();  // release pin before re-fetching below
  if (leaf_level) {
    LeafView left(pager_->Fetch(left_id), LeafCap());
    LeafView right(pager_->Fetch(right_id), LeafCap());
    std::uint32_t lm = left.m(), rm = right.m();
    TOKRA_CHECK(lm + rm <= LeafCap());
    for (std::uint32_t t = 0; t < rm; ++t) {
      left.set_key(lm + t, right.key(t));
      left.set_aux(lm + t, right.aux(t));
    }
    left.set_m(lm + rm);
    left.set_next(right.next());
  } else {
    IntView left(pager_->Fetch(left_id), InternalCap());
    IntView right(pager_->Fetch(right_id), InternalCap());
    std::uint32_t lf = left.f(), rf = right.f();
    TOKRA_CHECK(lf + rf <= InternalCap());
    for (std::uint32_t t = 0; t < rf; ++t) {
      left.set_child(lf + t, right.child(t));
      left.set_count(lf + t, right.count(t));
      left.set_lowkey(lf + t, t == 0 ? parent.lowkey(j + 1) : right.lowkey(t));
    }
    left.set_f(lf + rf);
  }
  parent.set_count(j, parent.count(j) + parent.count(j + 1));
  parent.RemoveSlot(j + 1);
  pager_->Free(right_id);
  parent_page = std::move(parent.page());
  return j;
}

void OsTree::DeleteRec(em::BlockId id, double key) {
  while (true) {
    em::PageRef page = pager_->Fetch(id);
    if (PageIsLeaf(page)) {
      LeafView leaf(std::move(page), LeafCap());
      std::uint32_t i = leaf.LowerBound(key);
      TOKRA_CHECK(i < leaf.m() && leaf.key(i) == key);  // pre-checked
      leaf.RemoveAt(i);
      return;
    }
    IntView node(std::move(page), InternalCap());
    std::uint32_t i = node.Route(key);
    em::BlockId child_id = node.child(i);
    std::uint32_t fill;
    bool child_is_leaf;
    {
      em::PageRef cp = pager_->Fetch(child_id);
      fill = static_cast<std::uint32_t>(cp.Get(kCountWord));
      child_is_leaf = PageIsLeaf(cp);
    }
    std::uint32_t min_fill = child_is_leaf ? LeafMin() : InternalMin();
    if (fill <= min_fill) {
      i = FixChild(node.page(), i);
    }
    node.set_count(i, node.count(i) - 1);
    id = node.child(i);
  }
}

Status OsTree::Delete(double key) {
  if (!Contains(key)) return Status::NotFound("key not in tree");
  DeleteRec(ref_.root, key);
  --ref_.size;
  // Shrink the root if it became a unary internal node.
  while (true) {
    em::PageRef page = pager_->Fetch(ref_.root);
    if (PageIsLeaf(page) || page.Get(kCountWord) != 1) break;
    IntView root(std::move(page), InternalCap());
    em::BlockId only = root.child(0);
    root.page() = em::PageRef();  // unpin before freeing
    pager_->Free(ref_.root);
    ref_.root = only;
  }
  return Status::Ok();
}

// --- bulk load -------------------------------------------------------

OsTree OsTree::BulkLoad(em::Pager* pager, std::span<const Entry> sorted) {
  TOKRA_CHECK(pager->B() >= 32);
  OsTree t(pager);
  t.ref_.size = sorted.size();

  const std::uint32_t leaf_cap = t.LeafCap();
  const std::uint32_t int_cap = t.InternalCap();
  const std::uint32_t leaf_fill = std::max<std::uint32_t>(
      t.LeafMin() + 1, leaf_cap * 3 / 4);
  const std::uint32_t int_fill =
      std::max<std::uint32_t>(t.InternalMin() + 1, int_cap * 3 / 4);

  struct Piece {
    em::BlockId id;
    std::uint64_t count;
    double low;  // smallest key in the subtree
  };

  // Build the leaf level.
  std::vector<Piece> level;
  std::size_t n = sorted.size();
  if (n == 0) {
    t.ref_.root = pager->Allocate();
    em::PageRef page = pager->Create(t.ref_.root);
    LeafView::Init(page);
    return t;
  }
  std::size_t num_leaves = CeilDiv(n, leaf_fill);
  em::BlockId prev = em::kNullBlock;
  std::size_t pos = 0;
  for (std::size_t li = 0; li < num_leaves; ++li) {
    // Spread the remainder so no leaf underfills.
    std::size_t remaining = n - pos;
    std::size_t leaves_left = num_leaves - li;
    std::size_t take = CeilDiv(remaining, leaves_left);
    TOKRA_CHECK(take <= leaf_cap);
    em::BlockId id = pager->Allocate();
    em::PageRef page = pager->Create(id);
    LeafView::Init(page);
    LeafView leaf(std::move(page), leaf_cap);
    for (std::size_t j = 0; j < take; ++j) {
      TOKRA_DCHECK(j == 0 || sorted[pos + j].key > sorted[pos + j - 1].key);
      leaf.set_key(static_cast<std::uint32_t>(j), sorted[pos + j].key);
      leaf.set_aux(static_cast<std::uint32_t>(j), sorted[pos + j].aux);
    }
    leaf.set_m(static_cast<std::uint32_t>(take));
    level.push_back(Piece{id, take, sorted[pos].key});
    if (prev != em::kNullBlock) {
      LeafView prev_leaf(pager->Fetch(prev), leaf_cap);
      prev_leaf.set_next(id);
    }
    prev = id;
    pos += take;
  }

  // Build internal levels until a single root remains.
  while (level.size() > 1) {
    std::vector<Piece> upper;
    std::size_t num_nodes = CeilDiv(level.size(), int_fill);
    std::size_t idx = 0;
    for (std::size_t ni = 0; ni < num_nodes; ++ni) {
      std::size_t remaining = level.size() - idx;
      std::size_t nodes_left = num_nodes - ni;
      std::size_t take = CeilDiv(remaining, nodes_left);
      TOKRA_CHECK(take <= int_cap && take >= 1);
      em::BlockId id = pager->Allocate();
      em::PageRef page = pager->Create(id);
      IntView::Init(page);
      IntView node(std::move(page), int_cap);
      std::uint64_t total = 0;
      for (std::size_t j = 0; j < take; ++j) {
        const Piece& p = level[idx + j];
        node.set_child(static_cast<std::uint32_t>(j), p.id);
        node.set_count(static_cast<std::uint32_t>(j), p.count);
        if (j > 0) node.set_lowkey(static_cast<std::uint32_t>(j), p.low);
        total += p.count;
      }
      node.set_f(static_cast<std::uint32_t>(take));
      upper.push_back(Piece{id, total, level[idx].low});
      idx += take;
    }
    level = std::move(upper);
  }
  t.ref_.root = level[0].id;
  return t;
}

// --- teardown / validation --------------------------------------------

void OsTree::DestroyAll() {
  // Iterative post-order free.
  std::vector<em::BlockId> stack{ref_.root};
  while (!stack.empty()) {
    em::BlockId id = stack.back();
    stack.pop_back();
    {
      em::PageRef page = pager_->Fetch(id);
      if (!PageIsLeaf(page)) {
        IntView node(std::move(page), InternalCap());
        for (std::uint32_t i = 0; i < node.f(); ++i) {
          stack.push_back(node.child(i));
        }
      }
    }
    pager_->Free(id);
  }
  ref_.root = em::kNullBlock;
  ref_.size = 0;
}

void OsTree::CheckRec(em::BlockId id, bool is_root, std::uint64_t expect_count,
                      bool has_lo, double lo) const {
  em::PageRef page = pager_->Fetch(id);
  if (PageIsLeaf(page)) {
    LeafView leaf(std::move(page), LeafCap());
    TOKRA_CHECK_EQ(leaf.m(), expect_count);
    if (!is_root) TOKRA_CHECK(leaf.m() >= LeafMin());
    TOKRA_CHECK(leaf.m() <= LeafCap());
    for (std::uint32_t i = 0; i < leaf.m(); ++i) {
      if (i > 0) TOKRA_CHECK(leaf.key(i) > leaf.key(i - 1));
      if (has_lo) TOKRA_CHECK(leaf.key(i) >= lo);
    }
    return;
  }
  IntView node(std::move(page), InternalCap());
  TOKRA_CHECK(node.f() >= (is_root ? 2u : InternalMin()));
  TOKRA_CHECK(node.f() <= InternalCap());
  TOKRA_CHECK_EQ(node.total(), expect_count);
  for (std::uint32_t i = 1; i < node.f(); ++i) {
    if (i > 1) TOKRA_CHECK(node.lowkey(i) > node.lowkey(i - 1));
    if (has_lo) TOKRA_CHECK(node.lowkey(i) > lo);
  }
  // Copy child info out before recursing (the recursion re-pins pages).
  std::vector<em::BlockId> kids(node.f());
  std::vector<std::uint64_t> counts(node.f());
  std::vector<double> lows(node.f());
  for (std::uint32_t i = 0; i < node.f(); ++i) {
    kids[i] = node.child(i);
    counts[i] = node.count(i);
    lows[i] = i == 0 ? lo : node.lowkey(i);
  }
  bool first_has_lo = has_lo;
  node.page() = em::PageRef();  // unpin
  for (std::uint32_t i = 0; i < kids.size(); ++i) {
    CheckRec(kids[i], false, counts[i], i == 0 ? first_has_lo : true, lows[i]);
  }
}

void OsTree::CheckInvariants() const {
  CheckRec(ref_.root, true, ref_.size, false, 0.0);
}

}  // namespace tokra::btree
