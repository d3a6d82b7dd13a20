// Adversarial and failure-mode tests across the library: correlated inputs,
// skewed insertion orders, boundary x-ranges, precondition violations
// (death tests), and cross-structure agreement on hostile workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/topk_index.h"
#include "em/pager.h"
#include "internal/naive.h"
#include "pilot/pilot_pst.h"
#include "st12/selector.h"
#include "util/random.h"

namespace tokra {
namespace {

em::EmOptions Opts(std::uint32_t bw = 64) {
  return em::EmOptions{.block_words = bw, .pool_frames = 16};
}

// Score perfectly correlated with x: the degenerate case for Cartesian-tree
// style structures; the pilot PST and selectors must stay balanced because
// their skeletons depend on x only.
std::vector<Point> CorrelatedPoints(std::size_t n) {
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = Point{static_cast<double>(i), static_cast<double>(i) + 0.5};
  }
  return pts;
}

TEST(AdversarialTest, PilotPstCorrelatedScores) {
  em::Pager pager(Opts());
  auto pts = CorrelatedPoints(2000);
  auto pst = pilot::PilotPst::Build(&pager, pts);
  pst.CheckInvariants();
  auto got = pst.TopK(500, 1500, 10).value();
  auto want = internal::NaiveTopK(pts, 500, 1500, 10);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x);
  }
}

TEST(AdversarialTest, PilotPstAntiCorrelatedDescendingInserts) {
  // Descending x, descending score: every insert lands at the leftmost leaf
  // and at the top of the pilot hierarchy simultaneously.
  em::Pager pager(Opts());
  auto pst = pilot::PilotPst::Create(&pager);
  std::vector<Point> live;
  for (int i = 1999; i >= 0; --i) {
    Point p{static_cast<double>(i), 2000.0 - i};
    ASSERT_TRUE(pst.Insert(p).ok());
    live.push_back(p);
    if (i % 256 == 0) pst.CheckInvariants();
  }
  pst.CheckInvariants();
  auto got = pst.TopK(0, 100, 5).value();
  auto want = internal::NaiveTopK(live, 0, 100, 5);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got[0].score, want[0].score);
}

TEST(AdversarialTest, EmptyAndDegenerateRanges) {
  em::Pager pager(Opts());
  Rng rng(1);
  auto xs = rng.DistinctDoubles(500, 0, 100);
  auto ss = rng.DistinctDoubles(500, 0, 1);
  std::vector<Point> pts(500);
  for (int i = 0; i < 500; ++i) pts[i] = {xs[i], ss[i]};
  auto pst = pilot::PilotPst::Build(&pager, pts);

  // Point range hitting exactly one x.
  auto one = pst.TopK(xs[7], xs[7], 3).value();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].x, xs[7]);
  // Range containing nothing.
  EXPECT_TRUE(pst.TopK(200, 300, 5)->empty());
  // Range to the left of everything.
  EXPECT_TRUE(pst.TopK(-100, -50, 5)->empty());
  // Full range, k = n exactly.
  EXPECT_EQ(pst.TopK(-1e9, 1e9, 500)->size(), 500u);
}

TEST(AdversarialTest, DeleteReinsertSamePointRepeatedly) {
  em::Pager pager(Opts());
  Rng rng(2);
  auto xs = rng.DistinctDoubles(300, 0, 100);
  auto ss = rng.DistinctDoubles(300, 0, 1);
  std::vector<Point> pts(300);
  for (int i = 0; i < 300; ++i) pts[i] = {xs[i], ss[i]};
  auto pst = pilot::PilotPst::Build(&pager, pts);
  Point hot = pts[150];
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(pst.Delete(hot).ok());
    ASSERT_TRUE(pst.Insert(hot).ok());
  }
  pst.CheckInvariants();
  EXPECT_EQ(pst.size(), 300u);
}

TEST(AdversarialTest, St12ClusteredInsertsForceRebuilds) {
  // All inserts into one tiny x-interval: leaf overflow handling must keep
  // rebuilding without losing points.
  em::Pager pager(Opts(128));
  Rng rng(3);
  auto st = st12::ShengTaoSelector::Build(&pager, {});
  std::vector<Point> live;
  auto scores = rng.DistinctDoubles(3000, 0, 1);
  auto xs = rng.DistinctDoubles(3000, 10.0, 10.001);  // microscopic range
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(st.Insert({xs[i], scores[i]}).ok());
    live.push_back({xs[i], scores[i]});
  }
  st.CheckInvariants();
  EXPECT_EQ(st.size(), 3000u);
  EXPECT_EQ(st.Decompose(10.0, 10.001).count(), 3000u);
  auto res = st.SelectApprox(9.0, 11.0, 10);
  ASSERT_TRUE(res.ok());
  std::uint64_t rank = internal::NaiveScoreRankInRange(live, 9, 11, *res);
  EXPECT_GE(rank, 10u);
  EXPECT_LT(rank, st12::ShengTaoSelector::kApproxFactor * 10);
}

TEST(AdversarialTest, IndexSurvivesFullDrain) {
  em::Pager pager(Opts(128));
  Rng rng(4);
  auto xs = rng.DistinctDoubles(400, 0, 100);
  auto ss = rng.DistinctDoubles(400, 0, 1);
  std::vector<Point> pts(400);
  for (int i = 0; i < 400; ++i) pts[i] = {xs[i], ss[i]};
  auto idx = core::TopkIndex::Build(&pager, pts).value();
  for (const Point& p : pts) ASSERT_TRUE(idx->Delete(p).ok());
  EXPECT_EQ(idx->size(), 0u);
  EXPECT_TRUE(idx->TopK(-1e9, 1e9, 10)->empty());
  // Refill after drain.
  for (const Point& p : pts) ASSERT_TRUE(idx->Insert(p).ok());
  idx->CheckInvariants();
  EXPECT_EQ(idx->size(), 400u);
}

TEST(AdversarialDeathTest, PoolExhaustionAborts) {
  // Pinning more blocks than frames is a programming error by contract.
  ASSERT_DEATH(
      {
        em::Pager pager(em::EmOptions{.block_words = 32, .pool_frames = 4});
        std::vector<em::BlockId> ids;
        std::vector<em::PageRef> pins;
        for (int i = 0; i < 6; ++i) ids.push_back(pager.Allocate());
        for (int i = 0; i < 6; ++i) pins.push_back(pager.Fetch(ids[i]));
      },
      "pool exhausted|best < num_frames");
}

TEST(AdversarialDeathTest, FreeWhilePinnedAborts) {
  ASSERT_DEATH(
      {
        em::Pager pager(em::EmOptions{.block_words = 32, .pool_frames = 4});
        em::BlockId id = pager.Allocate();
        em::PageRef pin = pager.Fetch(id);
        pager.Free(id);
      },
      "pins == 0");
}

}  // namespace
}  // namespace tokra
