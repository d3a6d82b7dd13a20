// Tests for the Lemma 4 structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "em/pager.h"
#include "internal/naive.h"
#include "lemma4/structure.h"
#include "util/random.h"

namespace tokra::lemma4 {
namespace {

em::EmOptions Opts(std::uint32_t bw = 128) {
  return em::EmOptions{.block_words = bw, .pool_frames = 64};
}

// Small parameters so the multi-slab/FlGroup machinery is exercised even at
// test scale (the derived paper parameters make leaves enormous).
Lemma4Selector::Params SmallParams() {
  return Lemma4Selector::Params{.fanout = 4, .l = 32, .leaf_cap = 256};
}

std::vector<Point> RandomPoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1000.0);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

TEST(Lemma4Test, EmptyAndErrors) {
  em::Pager pager(Opts());
  Lemma4Selector s = Lemma4Selector::Build(&pager, {}, SmallParams());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.Decompose(0, 10).count(), 0u);
  EXPECT_FALSE(s.SelectApprox(0, 10, 1).ok());
  EXPECT_EQ(s.Delete({1, 1}).code(), StatusCode::kNotFound);
  EXPECT_EQ(s.SelectApprox(0, 1, 1000).status().code(),
            StatusCode::kInvalidArgument);  // k > l
  s.CheckInvariants();
}

TEST(Lemma4Test, DestroyReleasesBlocks) {
  em::Pager pager(Opts());
  std::uint64_t base = pager.BlocksInUse();
  Rng rng(1);
  Lemma4Selector s =
      Lemma4Selector::Build(&pager, RandomPoints(&rng, 3000), SmallParams());
  s.DestroyAll();
  EXPECT_EQ(pager.BlocksInUse(), base);
}

// One decomposition per random range, several ranks (up to l) selected on
// it: each answer must meet the SelectApprox bound for its own rank.
void ExpectMultiRankSelect(const Lemma4Selector& s,
                           const std::vector<Point>& live, Rng* rng) {
  for (int probe = 0; probe < 30; ++probe) {
    double a = rng->UniformDouble(-10, 1010), b = rng->UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    std::uint64_t total = internal::NaiveRangeCount(live, x1, x2);
    RangeSelection range = s.Decompose(x1, x2);
    ASSERT_EQ(range.count(), total);
    std::uint64_t top = std::min<std::uint64_t>(total, s.l());
    if (top == 0) continue;
    for (std::uint64_t r : {std::uint64_t{1}, 1 + rng->Uniform(top),
                            (top + 1) / 2, top}) {
      auto res = range.Select(r);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      std::uint64_t rank =
          internal::NaiveScoreRankInRange(live, x1, x2, *res);
      EXPECT_GE(rank, r);
      EXPECT_LT(rank, Lemma4Selector::kApproxFactor * r);
    }
  }
}

struct L4Case {
  std::size_t n;
  int updates;
  std::uint64_t seed;
};

class Lemma4PropertyTest : public ::testing::TestWithParam<L4Case> {};

TEST_P(Lemma4PropertyTest, ApproximationAgainstOracle) {
  const auto& c = GetParam();
  em::Pager pager(Opts());
  Rng rng(c.seed);
  std::vector<Point> live = RandomPoints(&rng, c.n);
  Lemma4Selector s = Lemma4Selector::Build(&pager, live, SmallParams());
  s.CheckInvariants();

  std::set<double> used_x, used_s;
  for (const Point& p : live) {
    used_x.insert(p.x);
    used_s.insert(p.score);
  }
  for (int op = 0; op < c.updates; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      double x, sc;
      do {
        x = rng.UniformDouble(0, 1000);
      } while (!used_x.insert(x).second);
      do {
        sc = rng.UniformDouble(0, 1);
      } while (!used_s.insert(sc).second);
      ASSERT_TRUE(s.Insert({x, sc}).ok());
      live.push_back({x, sc});
    } else {
      std::size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(s.Delete(live[pick]).ok());
      live.erase(live.begin() + pick);
    }
  }
  s.CheckInvariants();
  EXPECT_EQ(s.size(), live.size());

  for (int probe = 0; probe < 60; ++probe) {
    double a = rng.UniformDouble(-10, 1010), b = rng.UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    std::uint64_t total = internal::NaiveRangeCount(live, x1, x2);
    EXPECT_EQ(s.Decompose(x1, x2).count(), total);
    if (total == 0) continue;
    std::uint64_t k = 1 + rng.Uniform(std::min<std::uint64_t>(total, s.l()));
    auto res = s.SelectApprox(x1, x2, k);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    std::uint64_t rank =
        internal::NaiveScoreRankInRange(live, x1, x2, *res);
    EXPECT_GE(rank, k);
    EXPECT_LT(rank, Lemma4Selector::kApproxFactor * k);
  }
  ExpectMultiRankSelect(s, live, &rng);

  // A batch of deletions (a third of the live points): G_u sets decay until
  // the next rebuild, and selection must still hold.
  for (std::size_t d = live.size() / 3; d > 0; --d) {
    std::size_t pick = rng.Uniform(live.size());
    ASSERT_TRUE(s.Delete(live[pick]).ok());
    live.erase(live.begin() + pick);
  }
  s.CheckInvariants();
  ExpectMultiRankSelect(s, live, &rng);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lemma4PropertyTest,
                         ::testing::Values(L4Case{300, 100, 1},
                                           L4Case{3000, 400, 2},
                                           L4Case{10000, 600, 3},
                                           L4Case{1000, 1500, 4}),
                         [](const ::testing::TestParamInfo<L4Case>& info) {
                           return std::string("n")
                               .append(std::to_string(info.param.n))
                               .append("u")
                               .append(std::to_string(info.param.updates));
                         });

}  // namespace
}  // namespace tokra::lemma4
