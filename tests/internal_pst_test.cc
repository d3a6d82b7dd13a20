// Tests for the internal-memory priority search treap baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "internal/naive.h"
#include "internal/pst.h"
#include "util/random.h"

namespace tokra::internal {
namespace {

std::vector<Point> RandomPoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1000.0);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

TEST(TreapPstTest, EmptyQueries) {
  TreapPst t;
  EXPECT_TRUE(t.TopK(0, 10, 5).empty());
  std::vector<Point> out;
  t.Report3Sided(0, 10, 0.5, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(t.Delete(3.0).code(), StatusCode::kNotFound);
}

TEST(TreapPstTest, InsertDuplicateXRejected) {
  TreapPst t;
  ASSERT_TRUE(t.Insert({1.0, 0.5}).ok());
  EXPECT_EQ(t.Insert({1.0, 0.7}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TreapPstTest, SmallExactScenario) {
  TreapPst t;
  // Hotel-style: x = price, score = rating.
  ASSERT_TRUE(t.Insert({100, 4.1}).ok());
  ASSERT_TRUE(t.Insert({150, 4.8}).ok());
  ASSERT_TRUE(t.Insert({180, 3.9}).ok());
  ASSERT_TRUE(t.Insert({220, 4.9}).ok());
  ASSERT_TRUE(t.Insert({90, 2.0}).ok());
  auto top = t.TopK(100, 200, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].score, 4.8);
  EXPECT_EQ(top[1].score, 4.1);
  t.CheckInvariants();
}

struct PstCase {
  std::size_t n;
  std::uint64_t seed;
};

class TreapPstPropertyTest : public ::testing::TestWithParam<PstCase> {};

TEST_P(TreapPstPropertyTest, AgreesWithNaiveOracle) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  auto pts = RandomPoints(&rng, n);
  TreapPst t;
  for (const Point& p : pts) ASSERT_TRUE(t.Insert(p).ok());
  t.CheckInvariants();

  for (int probe = 0; probe < 60; ++probe) {
    double a = rng.UniformDouble(-50, 1050);
    double b = rng.UniformDouble(-50, 1050);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    std::size_t k = 1 + rng.Uniform(20);
    auto got = t.TopK(x1, x2, k);
    auto want = NaiveTopK(pts, x1, x2, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].x, want[i].x);
      EXPECT_EQ(got[i].score, want[i].score);
    }

    double y = rng.UniformDouble(0, 1);
    std::vector<Point> rep;
    t.Report3Sided(x1, x2, y, &rep);
    auto rep_want = Naive3Sided(pts, x1, x2, y);
    ASSERT_EQ(rep.size(), rep_want.size());
    std::sort(rep.begin(), rep.end(), ByScoreDesc{});
    for (std::size_t i = 0; i < rep_want.size(); ++i) {
      EXPECT_EQ(rep[i].x, rep_want[i].x);
    }
  }
  t.CheckInvariants();  // queries must not corrupt the structure

  // Delete half, re-verify.
  rng.Shuffle(&pts);
  std::vector<Point> remaining(pts.begin() + pts.size() / 2, pts.end());
  for (std::size_t i = 0; i < pts.size() / 2; ++i) {
    ASSERT_TRUE(t.Delete(pts[i].x).ok());
  }
  t.CheckInvariants();
  EXPECT_EQ(t.size(), remaining.size());
  for (int probe = 0; probe < 30; ++probe) {
    double a = rng.UniformDouble(-50, 1050);
    double b = rng.UniformDouble(-50, 1050);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    std::size_t k = 1 + rng.Uniform(10);
    auto got = t.TopK(x1, x2, k);
    auto want = NaiveTopK(remaining, x1, x2, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].score, want[i].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreapPstPropertyTest,
                         ::testing::Values(PstCase{10, 1}, PstCase{100, 2},
                                           PstCase{1000, 3}, PstCase{5000, 4},
                                           PstCase{20000, 5}),
                         [](const ::testing::TestParamInfo<PstCase>& info) {
                           return std::string("n")
                               .append(std::to_string(info.param.n));
                         });

TEST(TreapPstTest, KLargerThanRange) {
  TreapPst t;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert({1.0 * i, 0.1 * i}).ok());
  auto top = t.TopK(2.5, 4.5, 100);  // only x=3,4 inside
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].x, 4.0);
  EXPECT_EQ(top[1].x, 3.0);
}

TEST(NaiveOracleTest, BasicSanity) {
  std::vector<Point> pts{{1, 0.5}, {2, 0.9}, {3, 0.1}, {4, 0.7}};
  auto top = NaiveTopK(pts, 1.5, 4.5, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].score, 0.9);
  EXPECT_EQ(top[1].score, 0.7);
  EXPECT_EQ(NaiveRangeCount(pts, 0, 10), 4u);
  EXPECT_EQ(NaiveKthScoreInRange(pts, 0, 10, 2), 0.7);
  EXPECT_EQ(NaiveScoreRankInRange(pts, 0, 10, 0.7), 2u);
  auto sided = Naive3Sided(pts, 0, 10, 0.6);
  EXPECT_EQ(sided.size(), 2u);
}

}  // namespace
}  // namespace tokra::internal
