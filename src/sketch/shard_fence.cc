#include "sketch/shard_fence.h"

#include <algorithm>

#include "util/check.h"

namespace tokra::sketch {

ShardFence ShardFence::Build(std::span<const Point> points) {
  ShardFence f;
  f.slots_.assign(kSlots, Slot{});
  if (!points.empty()) {
    double lo = points.front().x, hi = points.front().x;
    for (const Point& p : points) {
      lo = std::min(lo, p.x);
      hi = std::max(hi, p.x);
    }
    f.anchored_ = hi > lo;
    f.lo_ = lo;
    f.hi_ = hi;
  }
  for (const Point& p : points) f.Insert(p);
  return f;
}

std::size_t ShardFence::SlotFor(double x) const {
  if (!anchored_) return 0;
  if (x <= lo_) return 0;
  if (x >= hi_) return slots_.size() - 1;
  double t = (x - lo_) / (hi_ - lo_);
  auto s = static_cast<std::size_t>(t * static_cast<double>(slots_.size()));
  return std::min(s, slots_.size() - 1);
}

void ShardFence::Insert(const Point& p) {
  ++count_;
  min_x_ = std::min(min_x_, p.x);
  max_x_ = std::max(max_x_, p.x);
  if (!slots_.empty()) {
    Slot& s = slots_[SlotFor(p.x)];
    ++s.count;
    s.max_score = std::max(s.max_score, p.score);
  }
}

void ShardFence::Delete(const Point& p) {
  TOKRA_DCHECK_GT(count_, 0u);
  --count_;
  // min_x_/max_x_ stay: loose outer bounds are still sound. The slot count
  // is exact because SlotFor is a fixed function of x; the slot max goes
  // stale (still an upper bound) until the next rebuild tightens it.
  if (!slots_.empty()) {
    Slot& s = slots_[SlotFor(p.x)];
    TOKRA_DCHECK_GT(s.count, 0u);
    --s.count;
  }
}

FenceBound ShardFence::RangeBound(double x1, double x2) const {
  if (count_ == 0 || x2 < min_x_ || x1 > max_x_) return {false, 0.0};
  if (slots_.empty()) return {};  // slot-less fence: claim nothing
  // Clamp the query into the anchored span; SlotFor is monotone, so the
  // residents of [x1, x2] all live in slots [SlotFor(x1), SlotFor(x2)].
  std::size_t s1 = SlotFor(x1), s2 = SlotFor(x2);
  bool nonempty = false;
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t s = s1; s <= s2; ++s) {
    if (slots_[s].count == 0) continue;
    nonempty = true;
    best = std::max(best, slots_[s].max_score);
  }
  if (!nonempty) return {false, 0.0};
  return {true, best};
}

void ShardFence::CheckAgainst(std::span<const Point> points) const {
  TOKRA_CHECK_EQ(count_, points.size());
  for (const Point& p : points) {
    TOKRA_CHECK(p.x >= min_x_ && p.x <= max_x_);
    FenceBound b = RangeBound(p.x, p.x);
    TOKRA_CHECK(b.maybe_nonempty);
    TOKRA_CHECK_GE(b.best_score, p.score);
  }
}

}  // namespace tokra::sketch
