#include "flgroup/fl_group.h"

#include <algorithm>
#include <limits>

#include "em/paged_array.h"
#include "util/bits.h"

namespace tokra::flgroup {
namespace {

/// Serialized words -> block list (each block holds B words of the stream).
/// The touched prefix of the block list is prefetched in one call — these
/// streams (sketches, Lemma 8 prefix tables) are the group walks on the
/// small-k query path.
std::vector<em::word_t> ReadWordStream(em::Pager* pager,
                                       const std::vector<em::BlockId>& blocks,
                                       std::uint64_t n_words) {
  std::vector<em::word_t> out(n_words);
  std::uint32_t b = pager->B();
  std::size_t touched = static_cast<std::size_t>(CeilDiv(n_words, std::uint64_t{b}));
  if (touched > 1) pager->Prefetch({blocks.data(), touched});
  for (std::uint64_t w = 0; w < n_words;) {
    std::size_t bi = w / b;
    em::PageRef page = pager->Fetch(blocks[bi]);
    std::uint64_t take = std::min<std::uint64_t>(b, n_words - w);
    // One copy per block from the read-only view — on an mmap borrow the
    // source is the device mapping itself, not a pool frame.
    std::copy_n(page.words().data(), take, out.data() + w);
    w += take;
  }
  return out;
}

void WriteWordStream(em::Pager* pager, const std::vector<em::BlockId>& blocks,
                     std::span<const em::word_t> words) {
  std::uint32_t b = pager->B();
  std::size_t touched = static_cast<std::size_t>(
      CeilDiv(std::uint64_t{words.size()}, std::uint64_t{b}));
  if (touched > 1) pager->Prefetch({blocks.data(), touched});
  for (std::uint64_t w = 0; w < words.size();) {
    std::size_t bi = w / b;
    em::PageRef page = pager->Fetch(blocks[bi]);
    std::uint64_t take = std::min<std::uint64_t>(b, words.size() - w);
    for (std::uint64_t j = 0; j < take; ++j) {
      page.Set(j, words[w + j]);
    }
    w += take;
  }
}

/// Tree-handle record stored in the handle blocks.
struct HandleRec {
  em::BlockId root;
  std::uint64_t size;
};

}  // namespace

FlGroup FlGroup::Create(em::Pager* pager, Params params) {
  TOKRA_CHECK(params.f >= 1 && params.l >= 1);
  std::uint32_t b = pager->B();
  std::uint64_t fl = static_cast<std::uint64_t>(params.f) * params.l;
  std::uint32_t p_cap = PrefixSet::PrefixCap(b, fl);

  std::uint64_t sketch_words =
      sketch::PackedSketchSet::WordCount(params.f, params.l);
  std::uint64_t prefix_words = PrefixSet::WordCount(params.f, p_cap);
  std::uint64_t handle_words = static_cast<std::uint64_t>(params.f) * 2;
  std::uint64_t n_sketch = CeilDiv(sketch_words, b);
  std::uint64_t n_prefix = CeilDiv(prefix_words, b);
  std::uint64_t n_handle = CeilDiv(handle_words, b);
  // The compressed representations must stay O(1) blocks for the bounds to
  // hold; under the paper's parameter constraints they do. (Our 64-bit-word
  // encoding is looser than the paper's bit-packing, hence "a few" blocks
  // instead of one; the constant is checked here.)
  TOKRA_CHECK(n_sketch + n_prefix + n_handle <= 64);
  TOKRA_CHECK(kMetaIds + n_sketch + n_prefix + n_handle <= b);

  em::BlockId meta = pager->Allocate();
  {
    em::PageRef mp = pager->Create(meta);
    mp.Set(kMetaF, params.f);
    mp.Set(kMetaL, params.l);
    mp.Set(kMetaNSketch, n_sketch);
    mp.Set(kMetaNPrefix, n_prefix);
    mp.Set(kMetaNHandle, n_handle);
    std::size_t w = kMetaIds;
    for (std::uint64_t i = 0; i < n_sketch + n_prefix + n_handle; ++i) {
      em::BlockId id = pager->Allocate();
      mp.Set(w++, id);
      em::PageRef zero = pager->Create(id);
      zero.Set(0, 0);  // materialize
    }
    // Empty B-tree on G.
    btree::OsTree g = btree::OsTree::Create(pager);
    mp.Set(kMetaGRoot, g.ref().root);
    mp.Set(kMetaGSize, g.ref().size);
  }

  FlGroup fg(pager, meta, params, p_cap);
  // Per-set trees: created empty.
  Blocks blocks = fg.LoadBlocks();
  for (std::uint32_t i = 0; i < params.f; ++i) {
    btree::OsTree t = btree::OsTree::Create(pager);
    fg.StoreSetTree(blocks, i, t.ref());
  }
  // Initialize sketch/prefix serializations to the empty state.
  sketch::PackedSketchSet sk(params.f, params.l);
  fg.StoreSketch(blocks, sk);
  PrefixSet pf(params.f, p_cap);
  fg.StorePrefix(blocks, pf);
  return fg;
}

FlGroup FlGroup::Open(em::Pager* pager, em::BlockId meta) {
  em::PageRef mp = pager->Fetch(meta);
  Params params;
  params.f = static_cast<std::uint32_t>(mp.Get(kMetaF));
  params.l = static_cast<std::uint32_t>(mp.Get(kMetaL));
  std::uint64_t fl = static_cast<std::uint64_t>(params.f) * params.l;
  std::uint32_t p_cap = PrefixSet::PrefixCap(pager->B(), fl);
  return FlGroup(pager, meta, params, p_cap);
}

FlGroup::Blocks FlGroup::LoadBlocks() const {
  em::PageRef mp = pager_->Fetch(meta_);
  Blocks b;
  b.g_tree.root = mp.Get(kMetaGRoot);
  b.g_tree.size = mp.Get(kMetaGSize);
  std::uint64_t ns = mp.Get(kMetaNSketch);
  std::uint64_t np = mp.Get(kMetaNPrefix);
  std::uint64_t nh = mp.Get(kMetaNHandle);
  std::size_t w = kMetaIds;
  for (std::uint64_t i = 0; i < ns; ++i) b.sketch.push_back(mp.Get(w++));
  for (std::uint64_t i = 0; i < np; ++i) b.prefix.push_back(mp.Get(w++));
  for (std::uint64_t i = 0; i < nh; ++i) b.handle.push_back(mp.Get(w++));
  return b;
}

void FlGroup::StoreGTree(btree::OsTreeRef ref) {
  em::PageRef mp = pager_->Fetch(meta_);
  mp.Set(kMetaGRoot, ref.root);
  mp.Set(kMetaGSize, ref.size);
}

sketch::PackedSketchSet FlGroup::LoadSketch(const Blocks& b) const {
  std::uint64_t words =
      sketch::PackedSketchSet::WordCount(params_.f, params_.l);
  auto stream = ReadWordStream(pager_, b.sketch, words);
  return sketch::PackedSketchSet::Deserialize(params_.f, params_.l, stream);
}

void FlGroup::StoreSketch(const Blocks& b, const sketch::PackedSketchSet& s) {
  std::vector<em::word_t> stream(s.WordCount());
  s.Serialize(stream);
  WriteWordStream(pager_, b.sketch, stream);
}

PrefixSet FlGroup::LoadPrefix(const Blocks& b) const {
  std::uint64_t words = PrefixSet::WordCount(params_.f, p_cap_);
  auto stream = ReadWordStream(pager_, b.prefix, words);
  return PrefixSet::Deserialize(params_.f, p_cap_, stream);
}

void FlGroup::StorePrefix(const Blocks& b, const PrefixSet& p) {
  std::vector<em::word_t> stream(p.WordCount());
  p.Serialize(stream);
  WriteWordStream(pager_, b.prefix, stream);
}

btree::OsTreeRef FlGroup::LoadSetTree(const Blocks& b, std::uint32_t i) const {
  em::PagedArray<HandleRec> arr(pager_, b.handle);
  HandleRec rec = arr.Get(i);
  return btree::OsTreeRef{rec.root, rec.size};
}

void FlGroup::StoreSetTree(const Blocks& b, std::uint32_t i,
                           btree::OsTreeRef ref) {
  em::PagedArray<HandleRec> arr(pager_, b.handle);
  arr.Set(i, HandleRec{ref.root, ref.size});
}

std::uint32_t FlGroup::SetSize(std::uint32_t i) const {
  TOKRA_CHECK(i < params_.f);
  Blocks b = LoadBlocks();
  return LoadSketch(b).set_size(i);
}

std::uint64_t FlGroup::SizeInRange(std::uint32_t a1, std::uint32_t a2) const {
  TOKRA_CHECK(a1 <= a2 && a2 < params_.f);
  Blocks b = LoadBlocks();
  return LoadSketch(b).SizeInRange(a1, a2);
}

Status FlGroup::RepairInvalidLevels(const Blocks& blocks,
                                    sketch::PackedSketchSet* sk,
                                    const PrefixSet& prefix, std::uint32_t i) {
  std::vector<std::uint32_t> bad;
  sk->InvalidLevels(i, &bad);
  if (bad.empty()) return Status::Ok();
  btree::OsTree g_tree(pager_, blocks.g_tree);
  btree::OsTree set_tree(pager_, LoadSetTree(blocks, i));
  for (std::uint32_t j : bad) {
    std::uint64_t lo = std::uint64_t{1} << (j - 1);
    std::uint32_t target = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(sk->set_size(i), lo + lo / 2));
    std::uint32_t g;
    if (target <= prefix.live(i)) {
      // Small case (2^j below the prefix length): free via Lemma 8.
      g = prefix.global_rank(i, target);
    } else {
      // Large case: fetch the element by local rank, then its global rank.
      TOKRA_ASSIGN_OR_RETURN(btree::Entry e, set_tree.SelectDesc(target));
      g = static_cast<std::uint32_t>(g_tree.RankDesc(e.key));
    }
    sk->SetPivot(i, j, g, target);
  }
  return Status::Ok();
}

Status FlGroup::Insert(std::uint32_t i, double v) {
  if (i >= params_.f) return Status::InvalidArgument("set index out of range");
  Blocks blocks = LoadBlocks();
  sketch::PackedSketchSet sk = LoadSketch(blocks);
  if (sk.set_size(i) >= params_.l) {
    return Status::ResourceExhausted("set at capacity l");
  }
  PrefixSet prefix = LoadPrefix(blocks);

  btree::OsTree g_tree(pager_, blocks.g_tree);
  btree::OsTree set_tree(pager_, LoadSetTree(blocks, i));

  // Post-insert ranks (Sections 4.2 / 4.4).
  std::uint32_t g_new = static_cast<std::uint32_t>(
      g_tree.CountGreaterEq(v, /*strict=*/true) + 1);
  std::uint32_t r_new = static_cast<std::uint32_t>(
      set_tree.CountGreaterEq(v, /*strict=*/true) + 1);

  TOKRA_RETURN_IF_ERROR(g_tree.Insert(v, 0));
  TOKRA_RETURN_IF_ERROR(set_tree.Insert(v, 0));
  StoreGTree(g_tree.ref());
  StoreSetTree(blocks, i, set_tree.ref());
  blocks.g_tree = g_tree.ref();

  bool expanded = sk.ApplyInsert(i, g_new);
  prefix.ApplyInsert(i, g_new, r_new);

  if (expanded) {
    // The new deepest pivot must be the set minimum (rank |G_i| is the only
    // value inside the fresh window [2^(J-1), |G_i|]).
    TOKRA_ASSIGN_OR_RETURN(btree::Entry min_e, set_tree.Min());
    std::uint32_t g = static_cast<std::uint32_t>(g_tree.RankDesc(min_e.key));
    sk.SetPivot(i, sk.levels(i), g, sk.set_size(i));
  }
  TOKRA_RETURN_IF_ERROR(RepairInvalidLevels(blocks, &sk, prefix, i));

  StoreSketch(blocks, sk);
  StorePrefix(blocks, prefix);
  return Status::Ok();
}

Status FlGroup::Delete(std::uint32_t i, double v) {
  if (i >= params_.f) return Status::InvalidArgument("set index out of range");
  Blocks blocks = LoadBlocks();
  sketch::PackedSketchSet sk = LoadSketch(blocks);
  PrefixSet prefix = LoadPrefix(blocks);

  btree::OsTree g_tree(pager_, blocks.g_tree);
  btree::OsTree set_tree(pager_, LoadSetTree(blocks, i));
  if (!set_tree.Contains(v)) return Status::NotFound("value not in set");

  std::uint32_t g_old =
      static_cast<std::uint32_t>(g_tree.RankDesc(v));
  std::uint32_t r_old =
      static_cast<std::uint32_t>(set_tree.RankDesc(v));

  TOKRA_RETURN_IF_ERROR(g_tree.Delete(v));
  TOKRA_RETURN_IF_ERROR(set_tree.Delete(v));
  StoreGTree(g_tree.ref());
  StoreSetTree(blocks, i, set_tree.ref());
  blocks.g_tree = g_tree.ref();

  auto effect = sk.ApplyDelete(i, g_old);
  bool backfill = prefix.ApplyDelete(i, g_old, r_old);
  if (backfill) {
    // Refill the last prefix slot: element with local rank p_cap.
    TOKRA_ASSIGN_OR_RETURN(btree::Entry e, set_tree.SelectDesc(p_cap_));
    prefix.SetSlot(i, p_cap_,
                   static_cast<std::uint32_t>(g_tree.RankDesc(e.key)));
  }
  if (effect.dangling) {
    std::uint32_t j = effect.dangling_level;
    std::uint64_t lo = std::uint64_t{1} << (j - 1);
    std::uint32_t target = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(sk.set_size(i), lo + lo / 2));
    std::uint32_t g;
    if (target <= prefix.live(i)) {
      g = prefix.global_rank(i, target);
    } else {
      TOKRA_ASSIGN_OR_RETURN(btree::Entry e, set_tree.SelectDesc(target));
      g = static_cast<std::uint32_t>(g_tree.RankDesc(e.key));
    }
    sk.SetPivot(i, j, g, target);
  }
  TOKRA_RETURN_IF_ERROR(RepairInvalidLevels(blocks, &sk, prefix, i));

  StoreSketch(blocks, sk);
  StorePrefix(blocks, prefix);
  return Status::Ok();
}

StatusOr<FlGroup::SelectResult> FlGroup::SelectApprox(std::uint32_t a1,
                                                      std::uint32_t a2,
                                                      std::uint64_t k) const {
  if (a1 > a2 || a2 >= params_.f) {
    return Status::InvalidArgument("bad set interval");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  Blocks blocks = LoadBlocks();
  sketch::PackedSketchSet sk = LoadSketch(blocks);
  if (k > sk.SizeInRange(a1, a2)) {
    return Status::OutOfRange("k exceeds union size");
  }
  auto res = sk.SelectApprox(a1, a2, k);
  if (res.neg_inf) return SelectResult{true, 0};
  btree::OsTree g_tree(pager_, blocks.g_tree);
  TOKRA_ASSIGN_OR_RETURN(btree::Entry e, g_tree.SelectDesc(res.global_rank));
  return SelectResult{false, e.key};
}

StatusOr<double> FlGroup::MaxInRange(std::uint32_t a1,
                                     std::uint32_t a2) const {
  if (a1 > a2 || a2 >= params_.f) {
    return Status::InvalidArgument("bad set interval");
  }
  Blocks blocks = LoadBlocks();
  sketch::PackedSketchSet sk = LoadSketch(blocks);
  // Level-1 pivots are exact per-set maxima; the union max is the one with
  // the smallest global rank.
  std::uint32_t best_g = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t i = a1; i <= a2; ++i) {
    if (sk.levels(i) >= 1) best_g = std::min(best_g, sk.global_rank(i, 1));
  }
  if (best_g == std::numeric_limits<std::uint32_t>::max()) {
    return Status::NotFound("all sets empty in range");
  }
  btree::OsTree g_tree(pager_, blocks.g_tree);
  TOKRA_ASSIGN_OR_RETURN(btree::Entry e, g_tree.SelectDesc(best_g));
  return e.key;
}

StatusOr<double> FlGroup::MinOfSet(std::uint32_t i) const {
  if (i >= params_.f) return Status::InvalidArgument("set index out of range");
  Blocks blocks = LoadBlocks();
  btree::OsTree set_tree(pager_, LoadSetTree(blocks, i));
  TOKRA_ASSIGN_OR_RETURN(btree::Entry e, set_tree.Min());
  return e.key;
}

bool FlGroup::Contains(std::uint32_t i, double v) const {
  TOKRA_CHECK(i < params_.f);
  Blocks blocks = LoadBlocks();
  btree::OsTree set_tree(pager_, LoadSetTree(blocks, i));
  return set_tree.Contains(v);
}

void FlGroup::DestroyAll() {
  Blocks blocks = LoadBlocks();
  for (std::uint32_t i = 0; i < params_.f; ++i) {
    btree::OsTree t(pager_, LoadSetTree(blocks, i));
    t.DestroyAll();
  }
  btree::OsTree g(pager_, blocks.g_tree);
  g.DestroyAll();
  for (em::BlockId id : blocks.sketch) pager_->Free(id);
  for (em::BlockId id : blocks.prefix) pager_->Free(id);
  for (em::BlockId id : blocks.handle) pager_->Free(id);
  pager_->Free(meta_);
  meta_ = em::kNullBlock;
}

void FlGroup::CheckInvariants() const {
  Blocks blocks = LoadBlocks();
  sketch::PackedSketchSet sk = LoadSketch(blocks);
  PrefixSet prefix = LoadPrefix(blocks);
  sk.CheckWellFormed();
  prefix.CheckWellFormed();
  btree::OsTree g_tree(pager_, blocks.g_tree);
  g_tree.CheckInvariants();
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < params_.f; ++i) {
    btree::OsTree set_tree(pager_, LoadSetTree(blocks, i));
    set_tree.CheckInvariants();
    TOKRA_CHECK_EQ(set_tree.size(), sk.set_size(i));
    TOKRA_CHECK_EQ(prefix.set_size(i), sk.set_size(i));
    total += set_tree.size();
    // Every sketch pivot's stored ranks must be exactly consistent with the
    // trees (the shifts maintain exact ranks, not approximations).
    for (std::uint32_t j = 1; j <= sk.levels(i); ++j) {
      btree::Entry e = g_tree.SelectDesc(sk.global_rank(i, j)).value();
      TOKRA_CHECK(set_tree.Contains(e.key));
      TOKRA_CHECK_EQ(set_tree.RankDesc(e.key), sk.local_rank(i, j));
    }
    // Prefix slots map local rank r to the global rank of the r-th largest.
    for (std::uint32_t r = 1; r <= prefix.live(i); ++r) {
      btree::Entry e = set_tree.SelectDesc(r).value();
      TOKRA_CHECK_EQ(g_tree.RankDesc(e.key), prefix.global_rank(i, r));
    }
  }
  TOKRA_CHECK_EQ(g_tree.size(), total);
}

}  // namespace tokra::flgroup
