// Unit + property tests for the external order-statistic B-tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "btree/ostree.h"
#include "em/pager.h"
#include "util/bits.h"
#include "util/random.h"

namespace tokra::btree {
namespace {

em::EmOptions SmallOpts(std::uint32_t block_words = 64) {
  return em::EmOptions{.block_words = block_words, .pool_frames = 8};
}

TEST(OsTreeTest, EmptyTree) {
  em::Pager pager(SmallOpts());
  OsTree t = OsTree::Create(&pager);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Contains(1.0));
  EXPECT_EQ(t.SelectDesc(1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(t.CountGreaterEq(0.0), 0u);
}

TEST(OsTreeTest, SingleElement) {
  em::Pager pager(SmallOpts());
  OsTree t = OsTree::Create(&pager);
  ASSERT_TRUE(t.Insert(3.5, 7.0).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains(3.5));
  EXPECT_EQ(*t.FindAux(3.5), 7.0);
  EXPECT_EQ(t.RankDesc(3.5), 1u);
  EXPECT_EQ(t.SelectDesc(1)->key, 3.5);
  EXPECT_EQ(t.Min()->key, 3.5);
}

TEST(OsTreeTest, DuplicateInsertRejected) {
  em::Pager pager(SmallOpts());
  OsTree t = OsTree::Create(&pager);
  ASSERT_TRUE(t.Insert(1.0, 0.0).ok());
  EXPECT_EQ(t.Insert(1.0, 2.0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
}

TEST(OsTreeTest, DeleteMissingRejected) {
  em::Pager pager(SmallOpts());
  OsTree t = OsTree::Create(&pager);
  EXPECT_EQ(t.Delete(4.0).code(), StatusCode::kNotFound);
}

TEST(OsTreeTest, NanKeyRejected) {
  em::Pager pager(SmallOpts());
  OsTree t = OsTree::Create(&pager);
  EXPECT_EQ(t.Insert(std::nan(""), 0.0).code(), StatusCode::kInvalidArgument);
}

// Reference implementation for property checks.
class Oracle {
 public:
  void Insert(double k, double a) { m_[k] = a; }
  void Delete(double k) { m_.erase(k); }
  std::uint64_t RankDesc(double k) const {
    std::uint64_t c = 0;
    for (const auto& [key, _] : m_)
      if (key >= k) ++c;
    return c;
  }
  std::uint64_t CountGreater(double k) const {
    std::uint64_t c = 0;
    for (const auto& [key, _] : m_)
      if (key > k) ++c;
    return c;
  }
  double SelectDesc(std::uint64_t r) const {
    auto it = m_.rbegin();
    std::advance(it, r - 1);
    return it->first;
  }
  std::size_t size() const { return m_.size(); }
  const std::map<double, double>& map() const { return m_; }

 private:
  std::map<double, double> m_;
};

struct OsTreeParam {
  std::uint32_t block_words;
  int n;
};

class OsTreePropertyTest : public ::testing::TestWithParam<OsTreeParam> {};

TEST_P(OsTreePropertyTest, RandomInsertLookupDelete) {
  const auto [bw, n] = GetParam();
  em::Pager pager(SmallOpts(bw));
  OsTree t = OsTree::Create(&pager);
  Oracle oracle;
  Rng rng(1234 + n + bw);

  auto keys = rng.DistinctDoubles(n, -1000.0, 1000.0);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(keys[i], i * 1.0).ok());
    oracle.Insert(keys[i], i * 1.0);
  }
  EXPECT_EQ(t.size(), oracle.size());
  t.CheckInvariants();

  // Rank / select / find agree with the oracle on random probes.
  for (int probe = 0; probe < 200; ++probe) {
    double q = keys[rng.Uniform(keys.size())];
    EXPECT_EQ(t.RankDesc(q), oracle.RankDesc(q));
    EXPECT_EQ(t.CountGreaterEq(q, /*strict=*/true), oracle.CountGreater(q));
    EXPECT_TRUE(t.Contains(q));
    double off = rng.UniformDouble(-1100, 1100);
    EXPECT_EQ(t.RankDesc(off), oracle.RankDesc(off)) << off;
    EXPECT_EQ(t.CountGreaterEq(off, /*strict=*/true), oracle.CountGreater(off))
        << off;
  }
  for (int probe = 0; probe < 100; ++probe) {
    std::uint64_t r = 1 + rng.Uniform(oracle.size());
    EXPECT_EQ(t.SelectDesc(r)->key, oracle.SelectDesc(r));
  }

  // Delete a random half, re-verify, then delete the rest.
  rng.Shuffle(&keys);
  for (std::size_t i = 0; i < keys.size() / 2; ++i) {
    ASSERT_TRUE(t.Delete(keys[i]).ok()) << keys[i];
    oracle.Delete(keys[i]);
  }
  EXPECT_EQ(t.size(), oracle.size());
  t.CheckInvariants();
  for (int probe = 0; probe < 100 && oracle.size() > 0; ++probe) {
    std::uint64_t r = 1 + rng.Uniform(oracle.size());
    EXPECT_EQ(t.SelectDesc(r)->key, oracle.SelectDesc(r));
  }
  for (std::size_t i = keys.size() / 2; i < keys.size(); ++i) {
    ASSERT_TRUE(t.Delete(keys[i]).ok());
  }
  EXPECT_EQ(t.size(), 0u);
  t.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OsTreePropertyTest,
    ::testing::Values(OsTreeParam{32, 50}, OsTreeParam{32, 500},
                      OsTreeParam{64, 2000}, OsTreeParam{128, 2000},
                      OsTreeParam{256, 5000}, OsTreeParam{1024, 5000}),
    [](const ::testing::TestParamInfo<OsTreeParam>& info) {
      return std::string("B")
          .append(std::to_string(info.param.block_words))
          .append("n")
          .append(std::to_string(info.param.n));
    });

TEST(OsTreeTest, BulkLoadMatchesIncremental) {
  em::Pager pager(SmallOpts(64));
  Rng rng(4242);
  auto keys = rng.DistinctDoubles(3000, -50, 50);
  std::vector<Entry> sorted;
  for (double k : keys) sorted.push_back(Entry{k, 2 * k});
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  OsTree t = OsTree::BulkLoad(&pager, sorted);
  EXPECT_EQ(t.size(), sorted.size());
  t.CheckInvariants();
  for (int probe = 0; probe < 200; ++probe) {
    std::uint64_t r = 1 + rng.Uniform(sorted.size());
    EXPECT_EQ(t.SelectDesc(r)->key, sorted[sorted.size() - r].key);
  }
  // The bulk-loaded tree supports updates.
  ASSERT_TRUE(t.Insert(1000.0, 1.0).ok());
  ASSERT_TRUE(t.Delete(sorted[0].key).ok());
  t.CheckInvariants();
}

TEST(OsTreeTest, BulkLoadEmptyAndTiny) {
  em::Pager pager(SmallOpts(64));
  OsTree empty = OsTree::BulkLoad(&pager, {});
  EXPECT_EQ(empty.size(), 0u);
  empty.CheckInvariants();
  std::vector<Entry> one{{5.0, 6.0}};
  OsTree t1 = OsTree::BulkLoad(&pager, one);
  EXPECT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1.SelectDesc(1)->key, 5.0);
  t1.CheckInvariants();
}

TEST(OsTreeTest, DestroyAllReleasesEveryBlock) {
  em::Pager pager(SmallOpts(64));
  std::uint64_t base = pager.BlocksInUse();
  OsTree t = OsTree::Create(&pager);
  Rng rng(9);
  auto keys = rng.DistinctDoubles(2000, 0, 1);
  for (double k : keys) ASSERT_TRUE(t.Insert(k, 0).ok());
  EXPECT_GT(pager.BlocksInUse(), base);
  t.DestroyAll();
  EXPECT_EQ(pager.BlocksInUse(), base);
}

TEST(OsTreeTest, QueryCostIsLogarithmicBaseB) {
  // lg_B n I/Os per cold lookup: with B=256 (fanout ~84, leaf cap ~126) and
  // n = 100k, the tree has 3 levels; a cold search reads <= 4 blocks.
  em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 8});
  OsTree t = OsTree::Create(&pager);
  Rng rng(31);
  auto keys = rng.DistinctDoubles(100000, 0, 1);
  std::vector<Entry> sorted;
  for (double k : keys) sorted.push_back(Entry{k, 0});
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  t = OsTree::BulkLoad(&pager, sorted);
  std::uint64_t worst = 0;
  for (int probe = 0; probe < 50; ++probe) {
    pager.DropCache();
    em::IoStats before = pager.stats();
    t.RankDesc(keys[rng.Uniform(keys.size())]);
    std::uint64_t ios = (pager.stats() - before).TotalIos();
    worst = std::max(worst, ios);
  }
  EXPECT_LE(worst, 4u);
}

TEST(OsTreeTest, SpaceIsLinear) {
  // Blocks in use is O(n/B): with 2-word entries and >= 3/4-full leaves the
  // data alone needs n/((B-3)/2 * 3/4) blocks; total must be within ~2x.
  em::Pager pager(em::EmOptions{.block_words = 128, .pool_frames = 8});
  Rng rng(3);
  const std::size_t n = 50000;
  auto keys = rng.DistinctDoubles(n, 0, 1);
  std::vector<Entry> sorted;
  for (double k : keys) sorted.push_back(Entry{k, 0});
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  OsTree t = OsTree::BulkLoad(&pager, sorted);
  t.CheckInvariants();
  double leaf_cap = (128 - 3) / 2;
  double min_blocks = n / leaf_cap;
  EXPECT_LE(pager.BlocksInUse(), 2.0 * min_blocks);
}

}  // namespace
}  // namespace tokra::btree
