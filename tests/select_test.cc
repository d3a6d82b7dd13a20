// Tests for heap-view top-t selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "select/heap_view.h"
#include "select/select.h"
#include "util/check.h"
#include "util/random.h"

namespace tokra::select {
namespace {

/// Builds a random forest with valid max-heap order and returns (view, keys).
VectorHeapView RandomHeapForest(Rng* rng, std::size_t n, std::size_t n_roots,
                                std::size_t max_children,
                                std::vector<double>* keys_out) {
  std::vector<double> keys = rng->DistinctDoubles(n, 0.0, 1000.0);
  // Assign keys so parents dominate children: sort descending, then attach
  // each node (in key order) under a random earlier node.
  std::sort(keys.begin(), keys.end(), std::greater<>());
  std::vector<std::vector<NodeId>> children(n);
  std::vector<NodeId> roots;
  std::vector<NodeId> attachable;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n_roots) {
      roots.push_back(i);
    } else {
      // Pick a parent with key >= keys[i]; any earlier node qualifies. After
      // a few random misses fall back to a linear scan (one always exists
      // because max_children >= 2 keeps total capacity ahead of demand).
      bool placed = false;
      for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
        NodeId p = rng->Uniform(i);
        if (children[p].size() < max_children) {
          children[p].push_back(i);
          placed = true;
        }
      }
      for (NodeId p = 0; !placed && p < i; ++p) {
        if (children[p].size() < max_children) {
          children[p].push_back(i);
          placed = true;
        }
      }
      TOKRA_CHECK(placed);
    }
  }
  *keys_out = keys;
  return VectorHeapView(std::move(keys), std::move(children),
                        std::move(roots));
}

TEST(SelectTest, EmptyForest) {
  VectorHeapView view({}, {}, {});
  EXPECT_TRUE(SelectTop(view, 5).empty());
}

TEST(SelectTest, TZeroReturnsNothing) {
  VectorHeapView view({3.0}, {{}}, {0});
  EXPECT_TRUE(SelectTop(view, 0).empty());
}

TEST(SelectTest, SingleChain) {
  // 10 -> 8 -> 5 -> 1
  VectorHeapView view({10, 8, 5, 1}, {{1}, {2}, {3}, {}}, {0});
  auto top = SelectTop(view, 2);
  ASSERT_EQ(top.size(), 2u);
  std::vector<double> got{top[0].key, top[1].key};
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, (std::vector<double>{10, 8}));
}

TEST(SelectTest, TakesAllWhenTExceedsSize) {
  VectorHeapView view({10, 8, 5}, {{1, 2}, {}, {}}, {0});
  auto top = SelectTop(view, 99);
  EXPECT_EQ(top.size(), 3u);
}

struct SelectCase {
  std::size_t n, roots, max_children, t;
  Strategy strategy;
};

class SelectPropertyTest : public ::testing::TestWithParam<SelectCase> {};

TEST_P(SelectPropertyTest, MatchesSortedTruth) {
  const SelectCase& c = GetParam();
  Rng rng(c.n * 31 + c.t * 7 + c.roots);
  std::vector<double> keys;
  VectorHeapView view = RandomHeapForest(&rng, c.n, c.roots, c.max_children,
                                         &keys);
  SelectStats stats;
  auto top = SelectTop(view, c.t, c.strategy, &stats);
  std::size_t expect = std::min(c.t, c.n);
  ASSERT_EQ(top.size(), expect);
  // keys was sorted descending by the helper before being handed over.
  std::vector<double> got;
  for (const HeapNode& nd : top) got.push_back(nd.key);
  std::sort(got.begin(), got.end(), std::greater<>());
  for (std::size_t i = 0; i < expect; ++i) EXPECT_EQ(got[i], keys[i]);

  if (c.strategy == Strategy::kBestFirst) {
    // Visits at most roots + t * max_children + t nodes.
    EXPECT_LE(stats.nodes_visited,
              c.roots + expect * (c.max_children + 1));
  } else {
    EXPECT_EQ(stats.nodes_visited, c.n);  // naive expands everything
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectPropertyTest,
    ::testing::Values(SelectCase{100, 1, 2, 10, Strategy::kBestFirst},
                      SelectCase{100, 1, 2, 10, Strategy::kNaiveExtract},
                      SelectCase{1000, 5, 3, 50, Strategy::kBestFirst},
                      SelectCase{1000, 5, 3, 50, Strategy::kNaiveExtract},
                      SelectCase{5000, 20, 2, 500, Strategy::kBestFirst},
                      SelectCase{5000, 1, 8, 100, Strategy::kBestFirst},
                      SelectCase{64, 64, 2, 64, Strategy::kBestFirst}),
    [](const ::testing::TestParamInfo<SelectCase>& info) {
      return std::string("n")
          .append(std::to_string(info.param.n))
          .append("t")
          .append(std::to_string(info.param.t))
          .append(info.param.strategy == Strategy::kBestFirst ? "best"
                                                              : "naive");
    });

TEST(SelectTest, BestFirstVisitsFarFewerNodesThanNaive) {
  Rng rng(99);
  std::vector<double> keys;
  VectorHeapView view = RandomHeapForest(&rng, 20000, 1, 2, &keys);
  SelectStats best, naive;
  SelectTop(view, 10, Strategy::kBestFirst, &best);
  SelectTop(view, 10, Strategy::kNaiveExtract, &naive);
  EXPECT_LT(best.nodes_visited, 100u);
  EXPECT_EQ(naive.nodes_visited, 20000u);
}

}  // namespace
}  // namespace tokra::select
