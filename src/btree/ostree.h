// External order-statistic B-tree.
//
// A block-resident B+-tree over entries (key, aux) with distinct double keys,
// augmented with subtree counts so that descending rank and rank-selection
// run in O(lg_B n) I/Os. This is the utility tree the paper leans on
// throughout Sections 3-4: "B-tree of G", "B-tree on G_i", the score B-trees
// of the update algorithm, and the rank->element conversion ("we index all
// the elements of G with a B-tree, which supports such a conversion in
// O(lg_B(fl)) I/Os").
//
// All node state lives in pager blocks (one block per node). The tree itself
// is a 2-word handle (root id, size) that owners persist wherever they like,
// so trees can be nested inside other structures' nodes.
//
// Rank convention (paper, Section 3.1): the rank of e in L is
// |{e' in L : e' >= e}| — the largest element has rank 1.

#ifndef TOKRA_BTREE_OSTREE_H_
#define TOKRA_BTREE_OSTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "em/pager.h"
#include "util/status.h"

namespace tokra::btree {

/// One element of the tree: a key and an auxiliary value (payload).
struct Entry {
  double key = 0;
  double aux = 0;
};

/// Persistent handle: everything needed to reopen a tree. Two words.
struct OsTreeRef {
  em::BlockId root = em::kNullBlock;
  std::uint64_t size = 0;
};

/// The order-statistic B-tree. A lightweight handle over pager state; copying
/// the object does NOT copy the tree (it aliases it), mirroring the RocksDB
/// idiom of cheap handle objects over shared storage.
class OsTree {
 public:
  /// Creates an empty tree (allocates a root leaf).
  static OsTree Create(em::Pager* pager);

  /// Bulk-loads from entries sorted ascending by key (distinct). O(n/B) I/Os.
  static OsTree BulkLoad(em::Pager* pager, std::span<const Entry> sorted);

  /// Reopens an existing tree.
  OsTree(em::Pager* pager, OsTreeRef ref) : pager_(pager), ref_(ref) {}

  /// Current persistent handle (changes after updates; re-persist it).
  OsTreeRef ref() const { return ref_; }
  std::uint64_t size() const { return ref_.size; }
  bool empty() const { return ref_.size == 0; }

  /// Inserts (key, aux). kAlreadyExists if key present. O(lg_B n) I/Os.
  Status Insert(double key, double aux);

  /// Removes key. kNotFound if absent. O(lg_B n) I/Os.
  Status Delete(double key);

  /// True iff key present. O(lg_B n) I/Os.
  bool Contains(double key) const;

  /// Aux value of key. O(lg_B n) I/Os.
  StatusOr<double> FindAux(double key) const;

  /// |{k' : k' >= key}| (strict=false) or |{k' : k' > key}| (strict=true).
  /// O(lg_B n) I/Os.
  std::uint64_t CountGreaterEq(double key, bool strict = false) const;

  /// Descending rank of `key` (the paper's rank): number of keys >= key.
  std::uint64_t RankDesc(double key) const { return CountGreaterEq(key); }

  /// r-th largest entry, r in [1, size]. O(lg_B n) I/Os.
  StatusOr<Entry> SelectDesc(std::uint64_t r) const;

  /// Smallest entry. O(lg_B n) I/Os.
  StatusOr<Entry> Min() const;

  /// Frees every block of the tree; the handle becomes empty. O(n/B) I/Os.
  void DestroyAll();

  /// Full-structure validation (order, counts, fill factors). Test-only
  /// helper; cost O(n) pins.
  void CheckInvariants() const;

 private:
  OsTree(em::Pager* pager) : pager_(pager) {}

  // --- node layout ----------------------------------------------------
  // Internal block: [0]=0, [1]=f (#children),
  //   [2,          2+C)   child block ids
  //   [2+C,        2+2C)  subtree counts
  //   [2+2C,       2+3C)  low-key separators (bit-cast doubles); slot 0 unused
  // Leaf block:    [0]=1, [1]=m (#entries), [2]=next-leaf id,
  //   [3,          3+L)   keys (bit-cast doubles)
  //   [3+L,        3+2L)  aux  (bit-cast doubles)
  std::uint32_t InternalCap() const { return (pager_->B() - 2) / 3; }
  std::uint32_t LeafCap() const { return (pager_->B() - 3) / 2; }
  std::uint32_t InternalMin() const { return InternalCap() / 4; }
  std::uint32_t LeafMin() const { return LeafCap() / 4; }

  struct SplitResult {
    em::BlockId right;
    std::uint64_t right_count;
    double separator;
  };

  bool IsFull(em::BlockId id) const;
  void SplitRoot();
  SplitResult SplitChild(em::PageRef& parent, std::uint32_t i);
  void InsertNonfull(em::BlockId id, double key, double aux);
  void DeleteRec(em::BlockId id, double key);
  // Ensures child i of `parent` is above minimum fill before descending.
  // Returns the (possibly changed) index of the child that covers `key`.
  std::uint32_t FixChild(em::PageRef& parent, std::uint32_t i);
  void CheckRec(em::BlockId id, bool is_root, std::uint64_t expect_count,
                bool has_lo, double lo) const;

  em::Pager* pager_;
  OsTreeRef ref_;
};

}  // namespace tokra::btree

#endif  // TOKRA_BTREE_OSTREE_H_
