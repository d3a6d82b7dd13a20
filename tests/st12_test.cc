// Tests for the Sheng-Tao'12-style baseline selector.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "em/pager.h"
#include "internal/naive.h"
#include "st12/selector.h"
#include "util/random.h"

namespace tokra::st12 {
namespace {

em::EmOptions Opts(std::uint32_t bw = 128) {
  return em::EmOptions{.block_words = bw, .pool_frames = 32};
}

std::vector<Point> RandomPoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1000.0);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

TEST(St12Test, EmptyAndErrors) {
  em::Pager pager(Opts());
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, {});
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.Decompose(0, 1).count(), 0u);
  EXPECT_FALSE(s.SelectApprox(0, 1, 1).ok());
  EXPECT_EQ(s.Delete({1, 1}).code(), StatusCode::kNotFound);
  s.CheckInvariants();
}

TEST(St12Test, CountInRangeExact) {
  em::Pager pager(Opts());
  Rng rng(3);
  auto pts = RandomPoints(&rng, 5000);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, pts);
  s.CheckInvariants();
  for (int probe = 0; probe < 40; ++probe) {
    double a = rng.UniformDouble(-10, 1010), b = rng.UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    EXPECT_EQ(s.Decompose(x1, x2).count(),
              internal::NaiveRangeCount(pts, x1, x2));
  }
}

// One decomposition per random range, several ranks selected on it: each
// answer must meet the SelectApprox bound for its own rank.
void ExpectMultiRankSelect(const ShengTaoSelector& s,
                           const std::vector<Point>& live, Rng* rng) {
  for (int probe = 0; probe < 30; ++probe) {
    double a = rng->UniformDouble(-10, 1010), b = rng->UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    std::uint64_t total = internal::NaiveRangeCount(live, x1, x2);
    RangeSketches range = s.Decompose(x1, x2);
    ASSERT_EQ(range.count(), total);
    EXPECT_EQ(range.Select(total + 1).status().code(),
              StatusCode::kOutOfRange);
    if (total == 0) continue;
    for (std::uint64_t r : {std::uint64_t{1}, 1 + rng->Uniform(total),
                            (total + 1) / 2, total}) {
      auto res = range.Select(r);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      std::uint64_t rank =
          internal::NaiveScoreRankInRange(live, x1, x2, *res);
      EXPECT_GE(rank, r);
      EXPECT_LT(rank, ShengTaoSelector::kApproxFactor * r);
    }
  }
}

struct StCase {
  std::size_t n;
  int updates;
  std::uint64_t seed;
};

class St12PropertyTest : public ::testing::TestWithParam<StCase> {};

TEST_P(St12PropertyTest, ApproximationHolds) {
  const auto& c = GetParam();
  em::Pager pager(Opts());
  Rng rng(c.seed);
  std::vector<Point> live = RandomPoints(&rng, c.n);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, live);

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
    if (total == 0) continue;
    std::uint64_t k = 1 + rng.Uniform(total);
    auto res = s.SelectApprox(x1, x2, k);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    std::uint64_t rank =
        internal::NaiveScoreRankInRange(live, x1, x2, *res);
    EXPECT_GE(rank, k);
    EXPECT_LT(rank, ShengTaoSelector::kApproxFactor * k);
  }
  ExpectMultiRankSelect(s, live, &rng);

  // A batch of deletions (a third of the live points), then again.
  for (std::size_t d = live.size() / 3; d > 0; --d) {
    std::size_t pick = rng.Uniform(live.size());
    ASSERT_TRUE(s.Delete(live[pick]).ok());
    live.erase(live.begin() + pick);
  }
  s.CheckInvariants();
  ExpectMultiRankSelect(s, live, &rng);
}

INSTANTIATE_TEST_SUITE_P(Sweep, St12PropertyTest,
                         ::testing::Values(StCase{100, 200, 1},
                                           StCase{2000, 500, 2},
                                           StCase{8000, 800, 3},
                                           StCase{500, 2000, 4}),
                         [](const ::testing::TestParamInfo<StCase>& info) {
                           return std::string("n")
                               .append(std::to_string(info.param.n))
                               .append("u")
                               .append(std::to_string(info.param.updates));
                         });

TEST(St12Test, DestroyReleasesBlocks) {
  em::Pager pager(Opts());
  std::uint64_t base = pager.BlocksInUse();
  Rng rng(5);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, RandomPoints(&rng, 2000));
  s.DestroyAll();
  EXPECT_EQ(pager.BlocksInUse(), base);
}

TEST(St12Test, UpdateCostExceedsSingleLogShape) {
  // The baseline's per-update I/Os include Theta(1) recursive selections per
  // path node — the lg^2 mechanism. Sanity: updates cost several times a
  // plain root-to-leaf descent.
  em::Pager pager(Opts(256));
  Rng rng(9);
  auto pts = RandomPoints(&rng, 30000);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, pts);
  auto fresh = RandomPoints(&rng, 300);
  em::IoStats before = pager.stats();
  std::uint64_t n_ok = 0;
  for (const Point& p : fresh) {
    if (s.Insert(p).ok()) ++n_ok;
  }
  double per_op =
      static_cast<double>((pager.stats() - before).TotalIos()) / n_ok;
  EXPECT_GT(per_op, 6.0);  // well above a bare descent of ~3 nodes
}

}  // namespace
}  // namespace tokra::st12
