// Tests for logarithmic sketches, Lemma 7 selection, and the packed
// (rank-encoded) sketch set.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "sketch/log_sketch.h"
#include "sketch/packed_set.h"
#include "sketch/select7.h"
#include "sketch/shard_fence.h"
#include "util/point.h"
#include "util/random.h"

namespace tokra::sketch {
namespace {

std::vector<double> SortedDesc(std::vector<double> v) {
  std::sort(v.begin(), v.end(), std::greater<>());
  return v;
}

TEST(LogSketchTest, EmptySet) {
  LogSketch s = LogSketch::Build({});
  EXPECT_EQ(s.levels(), 0u);
  EXPECT_EQ(s.set_size(), 0u);
  EXPECT_EQ(s.RankLowerBound(0.0), 0u);
}

TEST(LogSketchTest, LevelsCount) {
  Rng rng(1);
  const std::vector<double> pool = rng.DistinctDoubles(5000, 0, 1);
  for (std::size_t n = 1; n <= pool.size(); ++n) {
    auto vals = SortedDesc({pool.begin(), pool.begin() + n});
    LogSketch s = LogSketch::Build(vals);
    ASSERT_EQ(s.levels(), FloorLog2(n) + 1) << n;
    s.CheckAgainst(vals);
    // Build accepts any order and picks the same pivots as from sorted input.
    std::vector<double> shuffled = vals;
    rng.Shuffle(&shuffled);
    LogSketch u = LogSketch::Build(shuffled);
    ASSERT_EQ(u.levels(), s.levels()) << n;
    for (std::uint32_t j = 1; j <= s.levels(); ++j) {
      ASSERT_EQ(s.pivot(j).value, vals[s.pivot(j).rank_hint - 1]) << n;
      ASSERT_EQ(u.pivot(j).value, s.pivot(j).value) << n << " level " << j;
      ASSERT_EQ(u.pivot(j).rank_hint, s.pivot(j).rank_hint) << n;
    }
    u.CheckAgainst(vals);
  }
}

TEST(LogSketchTest, RankBoundsBracketTrueRank) {
  Rng rng(2);
  auto vals = SortedDesc(rng.DistinctDoubles(5000, 0, 1));
  LogSketch s = LogSketch::Build(vals);
  for (int probe = 0; probe < 500; ++probe) {
    double v = rng.UniformDouble(-0.1, 1.1);
    std::uint64_t true_rank = 0;
    for (double e : vals) {
      if (e >= v) ++true_rank;
    }
    std::uint64_t lo = s.RankLowerBound(v);
    std::uint64_t hi = s.RankUpperBound(v);
    EXPECT_LE(lo, true_rank);
    EXPECT_GE(hi, true_rank);
    if (lo > 0) {
      EXPECT_LT(hi, 4 * lo);
    }
  }
}

// The pivots of the given sketches as SelectFromSketches' flat input (set i
// is sketches[i]).
std::vector<SketchEntry> Flatten(const std::vector<LogSketch>& sketches) {
  std::vector<SketchEntry> out;
  for (std::uint32_t i = 0; i < sketches.size(); ++i) {
    for (std::uint32_t j = 1; j <= sketches[i].levels(); ++j) {
      out.push_back(SketchEntry{sketches[i].pivot(j).value, i, j});
    }
  }
  return out;
}

struct Lemma7Case {
  std::size_t m;          // number of sets
  std::size_t avg_size;   // average set size
  std::uint64_t seed;
};

class Lemma7PropertyTest : public ::testing::TestWithParam<Lemma7Case> {};

TEST_P(Lemma7PropertyTest, RankWithinFactor) {
  auto [m, avg, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::vector<double>> sets(m);
  std::vector<double> universe;
  // Disjoint sets with skewed sizes.
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t sz = 1 + rng.Uniform(2 * avg);
    sets[i] = SortedDesc(rng.DistinctDoubles(sz, i * 1000.0,
                                             i * 1000.0 + 999.0));
    universe.insert(universe.end(), sets[i].begin(), sets[i].end());
  }
  std::sort(universe.begin(), universe.end(), std::greater<>());

  std::vector<LogSketch> sketches;
  for (auto& s : sets) sketches.push_back(LogSketch::Build(s));
  const std::vector<SketchEntry> pivots = Flatten(sketches);

  for (std::uint64_t k = 1; k <= universe.size(); k = k * 2 + 1) {
    Select7Result res =
        SelectFromSketches(pivots, static_cast<std::uint32_t>(m), k);
    std::uint64_t rank;
    if (res.neg_inf) {
      rank = universe.size();
    } else {
      rank = 0;
      for (double e : universe)
        if (e >= res.value) ++rank;
      // The result must be an element of the union.
      EXPECT_TRUE(std::binary_search(universe.begin(), universe.end(),
                                     res.value, std::greater<>()));
    }
    EXPECT_GE(rank, k) << "k=" << k;
    EXPECT_LT(rank, kSelect7Factor * k) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma7PropertyTest,
    ::testing::Values(Lemma7Case{1, 100, 11}, Lemma7Case{2, 50, 12},
                      Lemma7Case{8, 200, 13}, Lemma7Case{32, 40, 14},
                      Lemma7Case{64, 400, 15}, Lemma7Case{128, 10, 16}),
    [](const ::testing::TestParamInfo<Lemma7Case>& info) {
      return std::string("m")
          .append(std::to_string(info.param.m))
          .append("s")
          .append(std::to_string(info.param.avg_size));
    });

// Reference for the heap sweep: sort every pivot by descending value, then
// sweep as Lemma 7 does. Returns the chosen value, or -inf for neg_inf.
double SortedSweep(std::vector<SketchEntry> pivots, std::uint32_t num_sets,
                   std::uint64_t k) {
  std::stable_sort(pivots.begin(), pivots.end(),
                   [](const SketchEntry& a, const SketchEntry& b) {
                     return a.value > b.value;
                   });
  std::vector<std::uint64_t> lo(num_sets, 0);
  std::uint64_t total = 0;
  for (const SketchEntry& c : pivots) {
    std::uint64_t contrib = std::uint64_t{1} << (c.level - 1);
    if (contrib > lo[c.set]) {
      total += contrib - lo[c.set];
      lo[c.set] = contrib;
    }
    if (total >= k) return c.value;
  }
  return -std::numeric_limits<double>::infinity();
}

// The sweep as RangeSketches::Select runs it: m-1 sets give stored pivots,
// some drifted out of order, tied across sets or -inf, and one set gives
// raw values whose sketch is built only for ReachableLevels(l, k). For each
// k the answer must equal the sorted sweep over the fully built sketch, and
// the truncated build's levels must equal LogSketch::Build's.
TEST_P(Lemma7PropertyTest, TruncatedHeapSweepIsExact) {
  auto [m, avg, seed] = GetParam();
  Rng rng(seed + 100);
  // Sets in disjoint bands (as in RankWithinFactor), or interleaved.
  for (bool banded : {true, false}) {
    std::vector<std::vector<double>> sets(m);
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < m; ++i) {
      std::size_t sz = 1 + rng.Uniform(2 * avg);
      sets[i] = banded ? rng.DistinctDoubles(sz, i * 1000.0, i * 1000.0 + 999)
                       : rng.DistinctDoubles(sz, 0, 1);
      n += sz;
    }
    const auto sets_n = static_cast<std::uint32_t>(m);
    for (std::uint32_t raw : {0u, sets_n - 1}) {
      std::vector<SketchEntry> stored;
      for (std::uint32_t i = 0; i < sets_n; ++i) {
        if (i == raw) continue;
        LogSketch sk = LogSketch::Build(sets[i]);
        for (std::uint32_t j = 1; j <= sk.levels(); ++j) {
          double v = sk.pivot(j).value;
          switch (rng.Uniform(8)) {
            case 0:  // drifted: any element of the set
              v = sets[i][rng.Uniform(sets[i].size())];
              break;
            case 1:  // tied with an element of the raw set
              v = sets[raw][rng.Uniform(sets[raw].size())];
              break;
            case 2:
              v = -std::numeric_limits<double>::infinity();
              break;
          }
          stored.push_back(SketchEntry{v, i, j});
        }
      }
      const std::uint64_t l = sets[raw].size();
      const LogSketch full = LogSketch::Build(sets[raw]);
      std::vector<SketchEntry> reference = stored;
      for (std::uint32_t j = 1; j <= full.levels(); ++j) {
        reference.push_back(SketchEntry{full.pivot(j).value, raw, j});
      }
      // Every k while the truncation can bite (it builds all levels once
      // k >= l), then geometric steps through the rest of the union.
      for (std::uint64_t k = 1; k <= n + 1;
           k = k < 2 * l ? k + 1 : k + k / 4) {
        const std::uint32_t upto = ReachableLevels(l, k);
        std::vector<SketchEntry> pivots = stored;
        std::vector<double> scratch = sets[raw];
        ForEachPivot(scratch, upto,
                     [&](std::uint32_t j, double v, std::uint64_t r) {
                       ASSERT_EQ(v, full.pivot(j).value) << "level " << j;
                       ASSERT_EQ(r, full.pivot(j).rank_hint) << "level " << j;
                       pivots.push_back(SketchEntry{v, raw, j});
                     });
        ASSERT_EQ(pivots.size(), stored.size() + upto);
        Select7Result res = SelectFromSketches(std::move(pivots), sets_n, k);
        double got =
            res.neg_inf ? -std::numeric_limits<double>::infinity() : res.value;
        ASSERT_EQ(got, SortedSweep(reference, sets_n, k))
            << "k=" << k << " raw set " << raw << (banded ? " banded" : "");
      }
    }
  }
}

TEST(Select7Test, KBeyondUnionGoesNegInf) {
  auto vals = SortedDesc({5.0, 3.0, 1.0});
  auto res = SelectFromSketches(Flatten({LogSketch::Build(vals)}), 1, 100);
  EXPECT_TRUE(res.neg_inf);
}

// ---------------------------------------------------------------------
// PackedSketchSet: maintain a group of sets under random inserts/deletes and
// verify rank bookkeeping against a reference model after every operation.
// ---------------------------------------------------------------------

class PackedModel {
 public:
  explicit PackedModel(std::uint32_t f) : sets_(f) {}

  // Returns the global descending rank the value will have after insertion.
  std::uint32_t GlobalRankFor(double v) const {
    std::uint32_t r = 1;
    for (const auto& s : sets_)
      for (double e : s)
        if (e > v) ++r;
    return r;
  }
  std::uint32_t CurrentGlobalRank(double v) const {
    std::uint32_t r = 0;
    for (const auto& s : sets_)
      for (double e : s)
        if (e >= v) ++r;
    return r;
  }
  std::uint32_t LocalRank(std::uint32_t i, double v) const {
    std::uint32_t r = 0;
    for (double e : sets_[i])
      if (e >= v) ++r;
    return r;
  }
  void Insert(std::uint32_t i, double v) { sets_[i].insert(v); }
  void Delete(std::uint32_t i, double v) { sets_[i].erase(v); }
  const std::set<double>& set(std::uint32_t i) const { return sets_[i]; }

  // Value of the element with local descending rank r in set i.
  double LocalSelect(std::uint32_t i, std::uint32_t r) const {
    auto it = sets_[i].rbegin();
    std::advance(it, r - 1);
    return *it;
  }
  // Rank in the union of sets [a1, a2].
  std::uint64_t UnionRank(std::uint32_t a1, std::uint32_t a2, double v) const {
    std::uint64_t r = 0;
    for (std::uint32_t i = a1; i <= a2; ++i)
      for (double e : sets_[i])
        if (e >= v) ++r;
    return r;
  }
  // Value of the element with the given current global rank.
  double GlobalSelect(std::uint32_t g) const {
    std::vector<double> all;
    for (const auto& s : sets_) all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end(), std::greater<>());
    return all.at(g - 1);
  }
  std::uint64_t TotalSize() const {
    std::uint64_t t = 0;
    for (const auto& s : sets_) t += s.size();
    return t;
  }

 private:
  std::vector<std::set<double>> sets_;
};

// Mirrors the flgroup repair protocol using the model as the "B-trees".
void RepairInvalid(PackedSketchSet* ps, const PackedModel& model,
                   std::uint32_t i) {
  std::vector<std::uint32_t> bad;
  ps->InvalidLevels(i, &bad);
  for (std::uint32_t j : bad) {
    std::uint64_t lo = std::uint64_t{1} << (j - 1);
    std::uint32_t target = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ps->set_size(i), lo + lo / 2));
    double v = model.LocalSelect(i, target);
    ps->SetPivot(i, j, model.CurrentGlobalRank(v), target);
  }
}

TEST(PackedSketchSetTest, SerializeRoundTrip) {
  PackedSketchSet a(4, 100);
  a.ApplyInsert(2, 1);
  a.SetPivot(2, 1, 1, 1);
  std::vector<em::word_t> buf(a.WordCount());
  a.Serialize(buf);
  PackedSketchSet b = PackedSketchSet::Deserialize(4, 100, buf);
  EXPECT_EQ(b.set_size(2), 1u);
  EXPECT_EQ(b.levels(2), 1u);
  EXPECT_EQ(b.global_rank(2, 1), 1u);
  EXPECT_EQ(b.local_rank(2, 1), 1u);
  b.CheckWellFormed();
}

struct PackedCase {
  std::uint32_t f;
  std::uint32_t l_cap;
  int ops;
  std::uint64_t seed;
};

class PackedSketchPropertyTest : public ::testing::TestWithParam<PackedCase> {
};

TEST_P(PackedSketchPropertyTest, MaintenanceKeepsWindowsAndApproximation) {
  const auto& c = GetParam();
  Rng rng(c.seed);
  PackedSketchSet ps(c.f, c.l_cap);
  PackedModel model(c.f);

  std::vector<std::pair<std::uint32_t, double>> live;  // (set, value)
  std::set<double> used;
  for (int op = 0; op < c.ops; ++op) {
    bool do_insert = live.empty() || rng.Bernoulli(0.65);
    if (do_insert) {
      std::uint32_t i = static_cast<std::uint32_t>(rng.Uniform(c.f));
      if (model.set(i).size() >= c.l_cap) continue;
      double v;
      do {
        v = rng.UniformDouble(0, 1);
      } while (!used.insert(v).second);
      std::uint32_t g_new = model.GlobalRankFor(v);
      bool expanded = ps.ApplyInsert(i, g_new);
      model.Insert(i, v);
      live.emplace_back(i, v);
      if (expanded) {
        // New pivot = the set minimum (paper), only window-legal choice.
        std::uint32_t j = ps.levels(i);
        double min_v = *model.set(i).begin();
        ps.SetPivot(i, j, model.CurrentGlobalRank(min_v),
                    model.LocalRank(i, min_v));
      }
      RepairInvalid(&ps, model, i);
    } else {
      std::size_t pick = rng.Uniform(live.size());
      auto [i, v] = live[pick];
      live.erase(live.begin() + pick);
      std::uint32_t g_old = model.CurrentGlobalRank(v);
      auto effect = ps.ApplyDelete(i, g_old);
      model.Delete(i, v);
      if (effect.dangling) {
        std::uint32_t j = effect.dangling_level;
        std::uint64_t lo = std::uint64_t{1} << (j - 1);
        std::uint32_t target = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ps.set_size(i), lo + lo / 2));
        double rv = model.LocalSelect(i, target);
        ps.SetPivot(i, j, model.CurrentGlobalRank(rv), target);
      }
      RepairInvalid(&ps, model, i);
    }
    ps.CheckWellFormed();

    // Verify every pivot's stored ranks are exactly right vs the model.
    for (std::uint32_t i = 0; i < c.f; ++i) {
      for (std::uint32_t j = 1; j <= ps.levels(i); ++j) {
        double v = model.GlobalSelect(ps.global_rank(i, j));
        EXPECT_EQ(model.LocalRank(i, v), ps.local_rank(i, j));
        EXPECT_TRUE(model.set(i).count(v) == 1)
            << "pivot must belong to its own set";
      }
    }
  }

  // Approximate selection over random subranges.
  for (int probe = 0; probe < 50; ++probe) {
    std::uint32_t a1 = static_cast<std::uint32_t>(rng.Uniform(c.f));
    std::uint32_t a2 =
        a1 + static_cast<std::uint32_t>(rng.Uniform(c.f - a1));
    std::uint64_t total = ps.SizeInRange(a1, a2);
    if (total == 0) continue;
    std::uint64_t k = 1 + rng.Uniform(total);
    auto res = ps.SelectApprox(a1, a2, k);
    std::uint64_t rank;
    if (res.neg_inf) {
      rank = total;
    } else {
      double v = model.GlobalSelect(res.global_rank);
      rank = model.UnionRank(a1, a2, v);
    }
    EXPECT_GE(rank, k);
    EXPECT_LT(rank, 8 * k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedSketchPropertyTest,
    ::testing::Values(PackedCase{1, 64, 300, 21}, PackedCase{4, 32, 400, 22},
                      PackedCase{8, 128, 600, 23},
                      PackedCase{16, 64, 800, 24},
                      PackedCase{3, 16, 500, 25}),
    [](const ::testing::TestParamInfo<PackedCase>& info) {
      return std::string("f")
          .append(std::to_string(info.param.f))
          .append("l")
          .append(std::to_string(info.param.l_cap))
          .append("ops")
          .append(std::to_string(info.param.ops));
    });

// ---------------------------------------------------------------------------
// ShardFence: the per-shard pruning sketch (engine routing, DESIGN.md §11).
// Everything here tests SOUNDNESS — the fence may always fail to prune, but
// must never exclude a held point or under-report a reachable score.

std::vector<Point> FencePoints(Rng* rng, std::size_t n, double x_hi = 1e4) {
  auto xs = rng->DistinctDoubles(n, 0.0, x_hi);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

/// Brute-force oracle: RangeBound must cover the true in-range max.
void ExpectSoundOnRanges(const ShardFence& f, const std::vector<Point>& live,
                         Rng* rng, int ranges, double x_hi) {
  for (int i = 0; i < ranges; ++i) {
    double a = rng->UniformDouble(-0.1 * x_hi, 1.1 * x_hi);
    double b = rng->UniformDouble(-0.1 * x_hi, 1.1 * x_hi);
    if (a > b) std::swap(a, b);
    bool any = false;
    double best = 0;
    for (const Point& p : live) {
      if (p.x >= a && p.x <= b) {
        best = any ? std::max(best, p.score) : p.score;
        any = true;
      }
    }
    FenceBound fb = f.RangeBound(a, b);
    if (any) {
      EXPECT_TRUE(fb.maybe_nonempty);
      EXPECT_GE(fb.best_score, best);
    }
    // !any makes no claim: the fence may conservatively say nonempty.
  }
}

TEST(ShardFenceTest, BuildIsSoundAgainstBruteForce) {
  Rng rng(91);
  for (std::size_t n : {1, 2, 7, 64, 500}) {
    auto pts = FencePoints(&rng, n);
    ShardFence f = ShardFence::Build(pts);
    EXPECT_EQ(f.count(), n);
    f.CheckAgainst(pts);
    ExpectSoundOnRanges(f, pts, &rng, 200, 1e4);
  }
}

TEST(ShardFenceTest, IncrementalUpdatesStaySound) {
  Rng rng(92);
  auto pts = FencePoints(&rng, 600);
  std::vector<Point> base(pts.begin(), pts.begin() + 300);
  ShardFence f = ShardFence::Build(base);
  std::vector<Point> live = base;
  // Inserts beyond the anchored span (clamped into edge slots) and inside.
  for (std::size_t i = 300; i < 600; ++i) {
    f.Insert(pts[i]);
    live.push_back(pts[i]);
  }
  f.CheckAgainst(live);
  // Delete every third point: counts stay exact, score bounds go stale but
  // must remain upper bounds.
  std::vector<Point> rest;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i % 3 == 0) {
      f.Delete(live[i]);
    } else {
      rest.push_back(live[i]);
    }
  }
  f.CheckAgainst(rest);
  ExpectSoundOnRanges(f, rest, &rng, 300, 1e4);
}

TEST(ShardFenceTest, EmptyBuildAndGrowth) {
  ShardFence f = ShardFence::Build({});
  EXPECT_EQ(f.count(), 0u);
  EXPECT_FALSE(f.RangeBound(-1e18, 1e18).maybe_nonempty);
  // An empty-built fence is unanchored (every key maps to one slot) but
  // must stay sound as points arrive.
  Rng rng(96);
  auto pts = FencePoints(&rng, 100);
  for (const Point& p : pts) f.Insert(p);
  f.CheckAgainst(pts);
  ExpectSoundOnRanges(f, pts, &rng, 100, 1e4);
  for (const Point& p : pts) f.Delete(p);
  EXPECT_EQ(f.count(), 0u);
  EXPECT_FALSE(f.RangeBound(-1e18, 1e18).maybe_nonempty);
}

}  // namespace
}  // namespace tokra::sketch
