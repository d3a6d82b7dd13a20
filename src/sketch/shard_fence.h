// ShardFence: the per-shard pruning sketch of the engine's query router.
//
// A query fanned out over S shards pays the paper's O(lg n_i + k/B) bound
// once per overlapping shard even when most shards cannot contribute to the
// global top-k. The fence is a tiny, conservatively-maintained summary that
// lets the router prove "this shard cannot beat the merge frontier's current
// k-th score" (skip it) or "this key range holds no points of this shard at
// all" (skip it) without touching the shard's index:
//
//   * the shard's exact point count — the engine's one per-shard size;
//   * key-range min/max of the held points (outer bounds: insert tightens,
//     delete leaves them — still sound);
//   * a fixed-width max-weight fence array: the shard's key span at build
//     time is cut into kSlots sub-ranges, each tracking an exact point
//     count and an upper bound on the max score of its residents (insert
//     raises it; delete keeps it — an upper bound until the next rebuild
//     tightens it).
//
// Everything is an over-approximation in the safe direction: the fence may
// fail to prune (stale max, clamped edge slots) but can never prune a shard
// that holds a top-k result — RangeBound() returns an upper bound on the
// best in-range score, and `maybe_nonempty == false` only when the slot
// counts prove the range empty. The slot mapping is a fixed monotone
// function of x, so insert/delete keep counts exact.
//
// A fence lives in memory only. Every engine open path builds it from a
// point set it already holds — Build's chunks, or the one full scan per
// shard that Recover() and OpenSnapshot() pay — so nothing is persisted and
// a reopened fence starts exact again; see DESIGN.md §11.

#ifndef TOKRA_SKETCH_SHARD_FENCE_H_
#define TOKRA_SKETCH_SHARD_FENCE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/point.h"

namespace tokra::sketch {

/// Verdict of RangeBound: when `maybe_nonempty` is false the fence PROVES
/// the shard holds no point in the range; otherwise `best_score` is an upper
/// bound on the best score the shard could contribute there.
struct FenceBound {
  bool maybe_nonempty = true;
  double best_score = std::numeric_limits<double>::infinity();
};

class ShardFence {
 public:
  /// A fence with no slots: RangeBound claims nothing (never prunes).
  ShardFence() = default;

  /// Builds the fence over the shard's current points. The slot geometry is
  /// anchored to the points' key span and stays fixed until the next Build
  /// (later inserts outside the span clamp into the edge slots).
  static ShardFence Build(std::span<const Point> points);

  /// Maintains the fence for one accepted update. O(1); Insert keeps every
  /// bound exact-or-tight, Delete leaves score/key bounds loose but sound.
  void Insert(const Point& p);
  void Delete(const Point& p);

  std::uint64_t count() const { return count_; }

  /// Conservative verdict for the key range [x1, x2] (see FenceBound).
  FenceBound RangeBound(double x1, double x2) const;

  /// Validates soundness against the live point set: exact count, every
  /// point inside the key bounds, RangeBound never excludes a held point.
  /// Test/CheckInvariants helper; O(n) CPU.
  void CheckAgainst(std::span<const Point> points) const;

 private:
  /// Max-weight sub-ranges per fence: 64 slots cost ~1 KiB per shard.
  static constexpr std::size_t kSlots = 64;

  struct Slot {
    std::uint64_t count = 0;
    double max_score = -std::numeric_limits<double>::infinity();
  };

  /// Monotone fixed mapping x -> slot (clamped at the anchored edges).
  std::size_t SlotFor(double x) const;

  std::uint64_t count_ = 0;
  // Outer key bounds of the held points (grow-only between rebuilds).
  double min_x_ = std::numeric_limits<double>::infinity();
  double max_x_ = -std::numeric_limits<double>::infinity();
  // Slot geometry, fixed at Build. Unanchored (built empty) maps every key
  // to slot 0 — loose but monotone, so counts stay exact.
  bool anchored_ = false;
  double lo_ = 0, hi_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace tokra::sketch

#endif  // TOKRA_SKETCH_SHARD_FENCE_H_
