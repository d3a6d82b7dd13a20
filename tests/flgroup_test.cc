// Tests for the (f,l)-group structure (Lemma 6) and prefix sets (Lemma 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "em/pager.h"
#include "flgroup/fl_group.h"
#include "flgroup/prefix_set.h"
#include "util/random.h"

namespace tokra::flgroup {
namespace {

em::EmOptions Opts(std::uint32_t bw = 64) {
  return em::EmOptions{.block_words = bw, .pool_frames = 16};
}

TEST(PrefixSetTest, CapFormula) {
  // sqrt(64) = 8; lg_64(fl) for fl <= 64 is 1.
  EXPECT_EQ(PrefixSet::PrefixCap(64, 64), 8u);
  EXPECT_EQ(PrefixSet::PrefixCap(64, 65), 16u);
  EXPECT_EQ(PrefixSet::PrefixCap(1024, 1024), 32u);
}

TEST(PrefixSetTest, InsertShiftsRanks) {
  PrefixSet p(2, 4);
  // Set 0 gets values with global ranks 1,2 (in insertion order the ranks
  // are maintained by the caller; we hand-drive the protocol here).
  p.ApplyInsert(0, 1, 1);  // first element: g=1, r=1
  p.ApplyInsert(0, 1, 1);  // new global max: shifts the old one to g=2
  EXPECT_EQ(p.global_rank(0, 1), 1u);
  EXPECT_EQ(p.global_rank(0, 2), 2u);
  p.ApplyInsert(1, 2, 1);  // into set 1, between the two
  EXPECT_EQ(p.global_rank(0, 1), 1u);
  EXPECT_EQ(p.global_rank(1, 1), 2u);
  EXPECT_EQ(p.global_rank(0, 2), 3u);
  p.CheckWellFormed();
}

TEST(PrefixSetTest, DeleteSignalsBackfillOnlyWhenPrefixOverflows) {
  PrefixSet p(1, 2);  // tiny prefix: 2 slots
  p.ApplyInsert(0, 1, 1);
  p.ApplyInsert(0, 2, 2);
  EXPECT_FALSE(p.ApplyDelete(0, 2, 2));  // |G| was 2 <= p_cap: no backfill
  p.ApplyInsert(0, 2, 2);
  p.ApplyInsert(0, 3, 3);  // |G|=3 > p_cap
  EXPECT_TRUE(p.ApplyDelete(0, 1, 1));   // prefix member removed: backfill
  p.SetSlot(0, 2, 2);
  p.CheckWellFormed();
}

TEST(PrefixSetTest, SerializeRoundTrip) {
  PrefixSet p(3, 5);
  p.ApplyInsert(1, 1, 1);
  p.ApplyInsert(1, 2, 2);
  std::vector<em::word_t> buf(p.WordCount());
  p.Serialize(buf);
  PrefixSet q = PrefixSet::Deserialize(3, 5, buf);
  EXPECT_EQ(q.set_size(1), 2u);
  EXPECT_EQ(q.global_rank(1, 2), 2u);
}

// ---------------------------------------------------------------------
// FlGroup end-to-end property tests against a reference model.
// ---------------------------------------------------------------------

class GroupModel {
 public:
  explicit GroupModel(std::uint32_t f) : sets_(f) {}
  void Insert(std::uint32_t i, double v) { sets_[i].insert(v); }
  void Delete(std::uint32_t i, double v) { sets_[i].erase(v); }
  std::uint64_t UnionRank(std::uint32_t a1, std::uint32_t a2,
                          double v) const {
    std::uint64_t r = 0;
    for (std::uint32_t i = a1; i <= a2; ++i) {
      for (double e : sets_[i]) {
        if (e >= v) ++r;
      }
    }
    return r;
  }
  std::uint64_t SizeInRange(std::uint32_t a1, std::uint32_t a2) const {
    std::uint64_t t = 0;
    for (std::uint32_t i = a1; i <= a2; ++i) t += sets_[i].size();
    return t;
  }
  double MaxInRange(std::uint32_t a1, std::uint32_t a2) const {
    double m = -1e300;
    for (std::uint32_t i = a1; i <= a2; ++i) {
      if (!sets_[i].empty()) m = std::max(m, *sets_[i].rbegin());
    }
    return m;
  }
  const std::set<double>& set(std::uint32_t i) const { return sets_[i]; }

 private:
  std::vector<std::set<double>> sets_;
};

TEST(FlGroupTest, CreateEmptyAndDestroy) {
  em::Pager pager(Opts());
  std::uint64_t base = pager.BlocksInUse();
  FlGroup fg = FlGroup::Create(&pager, {.f = 4, .l = 32});
  EXPECT_EQ(fg.SetSize(0), 0u);
  EXPECT_EQ(fg.SizeInRange(0, 3), 0u);
  EXPECT_FALSE(fg.MaxInRange(0, 3).ok());
  fg.CheckInvariants();
  fg.DestroyAll();
  EXPECT_EQ(pager.BlocksInUse(), base);
}

TEST(FlGroupTest, RejectsBadArguments) {
  em::Pager pager(Opts());
  FlGroup fg = FlGroup::Create(&pager, {.f = 2, .l = 4});
  EXPECT_EQ(fg.Insert(5, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fg.Delete(0, 1.0).code(), StatusCode::kNotFound);
  ASSERT_TRUE(fg.Insert(0, 1.0).ok());
  ASSERT_TRUE(fg.Insert(0, 2.0).ok());
  ASSERT_TRUE(fg.Insert(0, 3.0).ok());
  ASSERT_TRUE(fg.Insert(0, 4.0).ok());
  EXPECT_EQ(fg.Insert(0, 5.0).code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(fg.SelectApprox(0, 0, 0).ok());
  EXPECT_EQ(fg.SelectApprox(0, 1, 100).status().code(),
            StatusCode::kOutOfRange);
}

TEST(FlGroupTest, ReopenFromMetaBlock) {
  em::Pager pager(Opts());
  em::BlockId meta;
  {
    FlGroup fg = FlGroup::Create(&pager, {.f = 2, .l = 16});
    ASSERT_TRUE(fg.Insert(0, 1.5).ok());
    ASSERT_TRUE(fg.Insert(1, 2.5).ok());
    meta = fg.meta_block();
  }
  pager.DropCache();
  FlGroup fg = FlGroup::Open(&pager, meta);
  EXPECT_EQ(fg.f(), 2u);
  EXPECT_EQ(fg.l(), 16u);
  EXPECT_EQ(fg.SetSize(0), 1u);
  EXPECT_EQ(fg.SetSize(1), 1u);
  auto max = fg.MaxInRange(0, 1);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(*max, 2.5);
  fg.CheckInvariants();
}

struct FlCase {
  std::uint32_t f;
  std::uint32_t l;
  std::uint32_t block_words;
  int ops;
  std::uint64_t seed;
};

class FlGroupPropertyTest : public ::testing::TestWithParam<FlCase> {};

TEST_P(FlGroupPropertyTest, RandomOpsAgainstModel) {
  const auto& c = GetParam();
  em::Pager pager(Opts(c.block_words));
  FlGroup fg = FlGroup::Create(&pager, {.f = c.f, .l = c.l});
  GroupModel model(c.f);
  Rng rng(c.seed);
  std::vector<std::pair<std::uint32_t, double>> live;
  std::set<double> used;

  for (int op = 0; op < c.ops; ++op) {
    bool do_insert = live.empty() || rng.Bernoulli(0.7);
    if (do_insert) {
      std::uint32_t i = static_cast<std::uint32_t>(rng.Uniform(c.f));
      if (model.set(i).size() >= c.l) continue;
      double v;
      do {
        v = rng.UniformDouble(0, 1000);
      } while (!used.insert(v).second);
      ASSERT_TRUE(fg.Insert(i, v).ok());
      model.Insert(i, v);
      live.emplace_back(i, v);
    } else {
      std::size_t pick = rng.Uniform(live.size());
      auto [i, v] = live[pick];
      live.erase(live.begin() + pick);
      ASSERT_TRUE(fg.Delete(i, v).ok());
      model.Delete(i, v);
    }
    if (op % 50 == 0) fg.CheckInvariants();
  }
  fg.CheckInvariants();

  // Query sweep: approximation factor and max.
  for (int probe = 0; probe < 80; ++probe) {
    std::uint32_t a1 = static_cast<std::uint32_t>(rng.Uniform(c.f));
    std::uint32_t a2 = a1 + static_cast<std::uint32_t>(rng.Uniform(c.f - a1));
    std::uint64_t total = fg.SizeInRange(a1, a2);
    EXPECT_EQ(total, model.SizeInRange(a1, a2));
    if (total == 0) continue;
    auto max = fg.MaxInRange(a1, a2);
    ASSERT_TRUE(max.ok());
    EXPECT_EQ(*max, model.MaxInRange(a1, a2));

    std::uint64_t k = 1 + rng.Uniform(total);
    auto res = fg.SelectApprox(a1, a2, k);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    std::uint64_t rank = res->neg_inf ? total
                                      : model.UnionRank(a1, a2, res->value);
    EXPECT_GE(rank, k);
    EXPECT_LT(rank, FlGroup::kApproxFactor * k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlGroupPropertyTest,
    ::testing::Values(FlCase{1, 64, 64, 300, 1}, FlCase{4, 32, 64, 500, 2},
                      FlCase{8, 64, 128, 800, 3},
                      FlCase{16, 128, 256, 1200, 4},
                      FlCase{5, 333, 128, 900, 5},
                      FlCase{32, 64, 1024, 1500, 6}),
    [](const ::testing::TestParamInfo<FlCase>& info) {
      return std::string("f")
          .append(std::to_string(info.param.f))
          .append("l")
          .append(std::to_string(info.param.l))
          .append("B")
          .append(std::to_string(info.param.block_words));
    });

TEST(FlGroupTest, UpdateAndQueryCostLogarithmic) {
  // O(lg_B(fl)) I/Os per op: with B=256 and fl = 16*256 = 4096 the bound is
  // lg_256(4096) = 2 tree levels; ops should touch a small constant number
  // of blocks. We assert a generous fixed budget that would be violated by
  // any linear-cost implementation.
  em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 16});
  FlGroup fg = FlGroup::Create(&pager, {.f = 16, .l = 256});
  Rng rng(77);
  std::set<double> used;
  std::vector<std::pair<std::uint32_t, double>> live;
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t s = static_cast<std::uint32_t>(rng.Uniform(16));
    double v;
    do {
      v = rng.UniformDouble(0, 1);
    } while (!used.insert(v).second);
    if (fg.Insert(s, v).ok()) live.emplace_back(s, v);
  }
  std::uint64_t worst_q = 0;
  for (int probe = 0; probe < 30; ++probe) {
    pager.DropCache();
    em::IoStats before = pager.stats();
    auto res = fg.SelectApprox(0, 15, 1 + rng.Uniform(1000));
    ASSERT_TRUE(res.ok());
    worst_q = std::max(worst_q, (pager.stats() - before).TotalIos());
  }
  EXPECT_LE(worst_q, 12u);  // O(1) sketch blocks + O(lg_B fl) tree I/Os

  std::uint64_t total_u = 0;
  int n_u = 200;
  for (int i = 0; i < n_u; ++i) {
    auto [s, v] = live[rng.Uniform(live.size())];
    pager.DropCache();
    em::IoStats before = pager.stats();
    if (i % 2 == 0) {
      ASSERT_TRUE(fg.Delete(s, v).ok());
      total_u += (pager.stats() - before).TotalIos();
      pager.DropCache();
      before = pager.stats();
      ASSERT_TRUE(fg.Insert(s, v).ok());
      total_u += (pager.stats() - before).TotalIos();
    }
  }
  // Amortized per-op I/Os stay small and constant-bounded for these params.
  EXPECT_LE(total_u / n_u, 40u);
}

}  // namespace
}  // namespace tokra::flgroup
