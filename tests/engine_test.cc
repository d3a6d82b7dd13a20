// Tests for the sharded concurrent query engine: cross-shard merge
// correctness against the naive oracle and a single TopkIndex, batch
// semantics, the skew-rebalance hook, and a multithreaded stress run.

#include <gtest/gtest.h>

#include <algorithm>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/topk_index.h"
#include "em/pager.h"
#include "engine/batcher.h"
#include "engine/merge.h"
#include "engine/sharded_engine.h"
#include "internal/naive.h"
#include "util/random.h"

namespace tokra::engine {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

EngineOptions Opts(std::uint32_t shards = 4, std::uint32_t threads = 4) {
  EngineOptions o;
  o.num_shards = shards;
  o.threads = threads;
  o.em = em::EmOptions{.block_words = 128, .pool_frames = 64};
  return o;
}

std::vector<Point> RandomPoints(Rng* rng, std::size_t n, double x_hi = 1000.0) {
  auto xs = rng->DistinctDoubles(n, 0.0, x_hi);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

void ExpectPointsEqual(const std::vector<Point>& got,
                       const std::vector<Point>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

TEST(ChainMergeTest, MergesSortedListsExactly) {
  std::vector<std::vector<Point>> parts = {
      {{1, 0.9}, {2, 0.5}, {3, 0.1}},
      {},
      {{4, 0.8}, {5, 0.7}},
      {{6, 0.95}},
  };
  select::SelectStats stats;
  auto merged = MergeTopK(parts, 4, &stats);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].score, 0.95);
  EXPECT_EQ(merged[1].score, 0.9);
  EXPECT_EQ(merged[2].score, 0.8);
  EXPECT_EQ(merged[3].score, 0.7);
  // k-bounded: visits at most k winners + one frontier node per list.
  EXPECT_LE(stats.nodes_visited, 4u + 4u);

  EXPECT_TRUE(MergeTopK(parts, 0).empty());
  auto all = MergeTopK(parts, 100);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(), ByScoreDesc{}));
}

TEST(ShardedEngineTest, EmptyEngineAndGrowth) {
  auto engine = ShardedTopkEngine::Build({}, Opts()).value();
  EXPECT_EQ(engine->size(), 0u);
  auto r = engine->TopK(-kInf, kInf, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());

  ASSERT_TRUE(engine->Insert({1.0, 0.5}).ok());
  ASSERT_TRUE(engine->Insert({2.0, 0.7}).ok());
  ASSERT_TRUE(engine->Insert({-3.0, 0.9}).ok());
  EXPECT_EQ(engine->size(), 3u);
  r = engine->TopK(-kInf, kInf, 2);
  ASSERT_TRUE(r.ok());
  ExpectPointsEqual(*r, {{-3.0, 0.9}, {2.0, 0.7}});

  ASSERT_TRUE(engine->Delete({-3.0, 0.9}).ok());
  r = engine->TopK(-kInf, kInf, 5);
  ASSERT_TRUE(r.ok());
  ExpectPointsEqual(*r, {{2.0, 0.7}, {1.0, 0.5}});
  engine->CheckInvariants();
}

TEST(ShardedEngineTest, RejectsDuplicatesAndMissingDeletes) {
  auto engine = ShardedTopkEngine::Build({{1, 0.5}, {10, 0.7}}, Opts()).value();
  EXPECT_EQ(engine->Insert({1, 0.9}).code(), StatusCode::kAlreadyExists);
  // Duplicate score in a *different* shard's range — only the global
  // registry can catch this.
  EXPECT_EQ(engine->Insert({500, 0.5}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine->Delete({2, 0.5}).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->Delete({1, 0.7}).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->size(), 2u);
  EXPECT_EQ(engine->counters().rejected, 4u);
  engine->CheckInvariants();

  EXPECT_FALSE(ShardedTopkEngine::Build({{1, 0.5}, {1, 0.7}}, Opts()).ok());
  EXPECT_FALSE(ShardedTopkEngine::Build({{1, 0.5}, {2, 0.5}}, Opts()).ok());
}

// Acceptance: >= 4 shards, byte-identical to a single TopkIndex over the
// same point set on 10k randomized queries interleaved with inserts/deletes.
TEST(ShardedEngineTest, MatchesSingleIndexOn10kInterleavedQueries) {
  Rng rng(42);
  std::vector<Point> pts = RandomPoints(&rng, 1500);
  auto engine = ShardedTopkEngine::Build(pts, Opts(5, 4)).value();
  em::Pager pager(em::EmOptions{.block_words = 128, .pool_frames = 256});
  auto single = core::TopkIndex::Build(&pager, pts).value();

  auto fresh_xs = rng.DistinctDoubles(3000, 1000.0, 2000.0);
  auto fresh_scores = rng.DistinctDoubles(3000, 1.0, 2.0);
  std::size_t fresh = 0;
  std::vector<Point> live = pts;

  for (int iter = 0; iter < 10000; ++iter) {
    if (iter % 4 == 3) {  // interleaved update
      if (rng.Bernoulli(0.5) && fresh < fresh_xs.size()) {
        Point p{fresh_xs[fresh], fresh_scores[fresh]};
        ++fresh;
        ASSERT_TRUE(engine->Insert(p).ok());
        ASSERT_TRUE(single->Insert(p).ok());
        live.push_back(p);
      } else if (!live.empty()) {
        std::size_t victim = rng.Uniform(live.size());
        Point p = live[victim];
        ASSERT_TRUE(engine->Delete(p).ok());
        ASSERT_TRUE(single->Delete(p).ok());
        live[victim] = live.back();
        live.pop_back();
      }
    }
    double a = rng.UniformDouble(-100.0, 2100.0);
    double b = rng.UniformDouble(-100.0, 2100.0);
    if (a > b) std::swap(a, b);
    std::uint64_t k = 1 + rng.Uniform(60);
    auto got = engine->TopK(a, b, k);
    auto want = single->TopK(a, b, k);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_NO_FATAL_FAILURE(ExpectPointsEqual(*got, *want)) << "iter " << iter;
  }
  EXPECT_EQ(engine->size(), live.size());
  engine->CheckInvariants();
}

// Queries straddling shard boundaries, plus k larger than any single
// shard's hit count, against the naive oracle.
TEST(ShardedEngineTest, ShardBoundaryStraddlingMatchesOracle) {
  Rng rng(7);
  std::vector<Point> pts = RandomPoints(&rng, 1200);
  auto engine = ShardedTopkEngine::Build(pts, Opts(6, 4)).value();
  std::vector<double> bounds = engine->ShardLowerBounds();
  ASSERT_EQ(bounds.size(), 6u);

  auto check = [&](double a, double b, std::uint64_t k) -> EngineQueryStats {
    EngineQueryStats stats;
    auto got = engine->TopK(a, b, k, &stats);
    EXPECT_TRUE(got.ok());
    if (got.ok()) ExpectPointsEqual(*got, internal::NaiveTopK(pts, a, b, k));
    return stats;
  };

  // Tight straddles of each internal boundary.
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    for (std::uint64_t k : {1u, 5u, 40u}) {
      auto stats = check(bounds[i] - 10.0, bounds[i] + 10.0, k);
      EXPECT_GE(stats.shards_queried, 2u) << "boundary " << i;
    }
  }
  // Spans covering 3+ shards and the whole key space.
  check(bounds[1] - 1.0, bounds[4] + 1.0, 25);
  check(-kInf, kInf, 10);

  // k exceeding every single shard's in-range hit count: with 1200 points
  // over 6 shards each holds ~200, so the full-range top-900 must take
  // points from several shards (more than any one can supply).
  EngineQueryStats stats;
  auto got = engine->TopK(-kInf, kInf, 900, &stats);
  ASSERT_TRUE(got.ok());
  ExpectPointsEqual(*got, internal::NaiveTopK(pts, -kInf, kInf, 900));
  EXPECT_EQ(stats.shards_queried, 6u);
  auto sizes = engine->ShardSizes();
  EXPECT_GT(900u, *std::max_element(sizes.begin(), sizes.end()));
  // k exceeding the whole population returns everything.
  got = engine->TopK(-kInf, kInf, 5000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), pts.size());

  EXPECT_EQ(engine->TopK(5.0, 1.0, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, BatchAppliesUpdatesBeforeQueries) {
  auto engine = ShardedTopkEngine::Build({{1, 0.1}}, Opts()).value();
  std::vector<Request> batch = {
      Request::MakeTopk(-kInf, kInf, 10),  // phase-wise sees the whole batch
      Request::MakeInsert({2, 0.2}),
      Request::MakeInsert({3, 0.3}),
      Request::MakeDelete({1, 0.1}),
      Request::MakeInsert({2, 0.9}),   // duplicate x within the batch
      Request::MakeInsert({4, 0.2}),   // duplicate score within the batch
      Request::MakeTopk(-kInf, kInf, 10),
  };
  std::vector<Response> out;
  engine->ExecuteBatch(batch, &out);
  ASSERT_EQ(out.size(), batch.size());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_TRUE(out[2].status.ok());
  EXPECT_TRUE(out[3].status.ok());
  EXPECT_EQ(out[4].status.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(out[5].status.code(), StatusCode::kAlreadyExists);
  for (std::size_t qi : {std::size_t{0}, std::size_t{6}}) {
    ASSERT_TRUE(out[qi].status.ok());
    ASSERT_NO_FATAL_FAILURE(
        ExpectPointsEqual(out[qi].points, {{3, 0.3}, {2, 0.2}}));
  }
  engine->CheckInvariants();
}

TEST(ShardedEngineTest, BatcherMatchesSerialExecution) {
  Rng rng(11);
  std::vector<Point> pts = RandomPoints(&rng, 600);
  auto batched = ShardedTopkEngine::Build(pts, Opts(4, 4)).value();
  auto serial = ShardedTopkEngine::Build(pts, Opts(4, 1)).value();

  RequestBatcher batcher(batched.get(), /*max_pending=*/64);
  auto fresh_xs = rng.DistinctDoubles(500, 1000.0, 2000.0);
  auto fresh_scores = rng.DistinctDoubles(500, 1.0, 2.0);

  std::vector<std::pair<Request, std::future<Response>>> pending;
  for (std::size_t i = 0; i < 500; ++i) {
    Request req;
    switch (rng.Uniform(3)) {
      case 0:
        req = Request::MakeInsert({fresh_xs[i], fresh_scores[i]});
        break;
      case 1: {
        double a = rng.UniformDouble(0, 2000), b = rng.UniformDouble(0, 2000);
        if (a > b) std::swap(a, b);
        req = Request::MakeTopk(a, b, 1 + rng.Uniform(30));
        break;
      }
      default:
        req = Request::MakeDelete(pts[rng.Uniform(pts.size())]);
        break;
    }
    pending.emplace_back(req, batcher.Submit(req));
  }
  batcher.Flush();

  // Queries inside a batch see that whole batch's updates, so replaying the
  // ops serially in the same per-batch phase order must reproduce every
  // response exactly.
  std::size_t batch_start = 0;
  while (batch_start < pending.size()) {
    std::size_t batch_end = std::min(batch_start + 64, pending.size());
    for (std::size_t i = batch_start; i < batch_end; ++i) {
      const Request& req = pending[i].first;
      if (req.kind == Request::Kind::kTopk) continue;
      Status want = req.kind == Request::Kind::kInsert
                        ? serial->Insert(req.point)
                        : serial->Delete(req.point);
      Response got = pending[i].second.get();
      EXPECT_EQ(got.status.code(), want.code()) << "op " << i;
    }
    for (std::size_t i = batch_start; i < batch_end; ++i) {
      const Request& req = pending[i].first;
      if (req.kind != Request::Kind::kTopk) continue;
      Response got = pending[i].second.get();
      auto want = serial->TopK(req.x1, req.x2, req.k);
      ASSERT_TRUE(got.status.ok());
      ASSERT_TRUE(want.ok());
      ASSERT_NO_FATAL_FAILURE(ExpectPointsEqual(got.points, *want))
          << "query " << i;
    }
    batch_start = batch_end;
  }
  EXPECT_EQ(batched->size(), serial->size());
  EXPECT_GE(batcher.stats().batches, 7u);  // 500 reqs / 64 per batch
  batched->CheckInvariants();
}

TEST(ShardedEngineTest, RebalanceHookFixesAdversarialSkew) {
  Rng rng(13);
  EngineOptions opts = Opts(4, 4);
  opts.rebalance_min_points = 256;
  opts.rebalance_skew = 2.0;
  std::vector<Point> pts = RandomPoints(&rng, 400, 100.0);
  auto engine = ShardedTopkEngine::Build(pts, opts).value();
  EXPECT_FALSE(engine->MaybeRebalance());  // balanced at build

  // Adversarial stream: every insert lands beyond the last boundary, so one
  // shard absorbs everything.
  auto xs = rng.DistinctDoubles(800, 200.0, 300.0);
  auto scores = rng.DistinctDoubles(800, 1.0, 2.0);
  std::vector<Point> all = pts;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(engine->Insert({xs[i], scores[i]}).ok());
    all.push_back({xs[i], scores[i]});
  }
  auto sizes = engine->ShardSizes();
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 800u + 100u);

  ASSERT_TRUE(engine->MaybeRebalance());
  EXPECT_EQ(engine->counters().rebalances, 1u);
  sizes = engine->ShardSizes();
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 300u);
  engine->CheckInvariants();

  // Content survives the re-split byte-for-byte.
  auto got = engine->TopK(-kInf, kInf, 50);
  ASSERT_TRUE(got.ok());
  ExpectPointsEqual(*got, internal::NaiveTopK(all, -kInf, kInf, 50));
  EXPECT_FALSE(engine->MaybeRebalance());  // balanced again
}

// Multithreaded stress: concurrent updaters on disjoint key stripes plus
// query threads, then a full invariant check and content comparison.
TEST(ShardedEngineTest, MultithreadedStress) {
  Rng rng(99);
  std::vector<Point> pts = RandomPoints(&rng, 1000, 4000.0);
  auto engine = ShardedTopkEngine::Build(pts, Opts(8, 4)).value();

  constexpr int kUpdaters = 4;
  constexpr int kQueryThreads = 3;
  constexpr int kOpsPerThread = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  // Each updater owns a disjoint x stripe and score band, so every op
  // succeeds regardless of interleaving.
  for (int t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Point p{5000.0 + t * 1000.0 + i * 0.5, 2.0 + t + i * 1e-6};
        if (!engine->Insert(p).ok()) failed = true;
        if (i % 3 == 0) {
          if (!engine->Delete(p).ok()) failed = true;
        }
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng qrng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        double a = qrng.UniformDouble(0, 10000);
        double b = qrng.UniformDouble(0, 10000);
        if (a > b) std::swap(a, b);
        std::uint64_t k = 1 + qrng.Uniform(40);
        auto r = engine->TopK(a, b, k);
        if (!r.ok()) {
          failed = true;
          continue;
        }
        if (r->size() > k ||
            !std::is_sorted(r->begin(), r->end(), ByScoreDesc{})) {
          failed = true;
        }
        for (const Point& p : *r) {
          if (p.x < a || p.x > b) failed = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  std::vector<Point> expect = pts;
  for (int t = 0; t < kUpdaters; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      if (i % 3 != 0) {
        expect.push_back({5000.0 + t * 1000.0 + i * 0.5, 2.0 + t + i * 1e-6});
      }
    }
  }
  EXPECT_EQ(engine->size(), expect.size());
  engine->CheckInvariants();
  auto got = engine->TopK(-kInf, kInf, expect.size());
  ASSERT_TRUE(got.ok());
  ExpectPointsEqual(*got, internal::NaiveTopK(expect, -kInf, kInf,
                                              expect.size()));
}

// Concurrent submitters sharing one batcher; all futures resolve and the
// final state is exact.
TEST(ShardedEngineTest, ConcurrentBatcherStress) {
  auto engine = ShardedTopkEngine::Build({}, Opts(4, 4)).value();
  RequestBatcher batcher(engine.get(), /*max_pending=*/32);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> ok_inserts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<Response>> futs;
      futs.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        Point p{t * 10000.0 + i, 10.0 + t + i * 1e-5};
        futs.push_back(batcher.Submit(Request::MakeInsert(p)));
      }
      for (auto& f : futs) {
        if (f.get().status.ok()) ok_inserts.fetch_add(1);
      }
    });
  }
  // Submitters block on their own futures, which only resolve at batch
  // boundaries; keep flushing until every future has resolved.
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    while (!done.load()) {
      batcher.Flush();
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  done = true;
  flusher.join();
  batcher.Flush();

  EXPECT_EQ(ok_inserts.load(), kThreads * kPerThread);
  EXPECT_EQ(engine->size(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  engine->CheckInvariants();
}

// --- merge.h edge cases and the pruning layer -------------------------------

TEST(ChainMergeTest, EdgeCases) {
  // All-empty inputs, with and without lists.
  std::vector<std::vector<Point>> empty_parts(4);
  EXPECT_TRUE(MergeTopK(empty_parts, 5).empty());
  EXPECT_TRUE(MergeTopK({}, 5).empty());
  EXPECT_TRUE(MergeTopK(empty_parts, 0).empty());

  // Equal scores across shards: both survive and the output stays sorted.
  // (The engine registry forbids this globally, but the merge must not.)
  std::vector<std::vector<Point>> dup = {
      {{1, 0.8}, {2, 0.5}},
      {{3, 0.8}, {4, 0.5}},
  };
  auto merged = MergeTopK(dup, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].score, 0.8);
  EXPECT_EQ(merged[1].score, 0.8);
  EXPECT_EQ(merged[2].score, 0.5);

  // k far beyond the total returns everything exactly once.
  auto all = MergeTopK(dup, 1000);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(), ByScoreDesc{}));
}

TEST(ChainMergeTest, PackRoundTripsAtWidthLimits) {
  constexpr std::size_t kMax = (std::size_t{1} << 32) - 1;
  for (std::size_t list : {std::size_t{0}, std::size_t{1}, kMax}) {
    for (std::size_t pos : {std::size_t{0}, std::size_t{7}, kMax}) {
      select::NodeId id = ChainMergeView::Pack(list, pos);
      EXPECT_EQ(ChainMergeView::ListOf(id), list);
      EXPECT_EQ(ChainMergeView::PosOf(id), pos);
    }
  }
#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
  // Out-of-width halves would alias another node; Pack must refuse, not
  // truncate.
  EXPECT_DEATH(ChainMergeView::Pack(std::size_t{1} << 32, 0), "");
  EXPECT_DEATH(ChainMergeView::Pack(0, std::size_t{1} << 32), "");
#endif
}

TEST(MergeFrontierTest, TracksRunningKthScore) {
  MergeFrontier f(3);
  EXPECT_FALSE(f.full());
  f.Push(0.5);
  f.Push(0.9);
  EXPECT_FALSE(f.full());
  f.Push(0.1);
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.kth(), 0.1);
  f.Push(0.7);  // displaces 0.1; held = {0.9, 0.7, 0.5}
  EXPECT_EQ(f.kth(), 0.5);
  f.Push(0.2);  // below the bar, ignored
  EXPECT_EQ(f.kth(), 0.5);
  f.PushAll({{1, 0.95}, {2, 0.05}});
  EXPECT_EQ(f.kth(), 0.7);

  // k == 0 never fills: there is no bar to prune against.
  MergeFrontier zero(0);
  zero.Push(1.0);
  EXPECT_FALSE(zero.full());
}

// Pruning is answer-preserving, and on a score-monotone-in-x set the
// fences let wide queries skip most shards.
TEST(ShardedEngineTest, PruningMatchesOracleAndPrunesShards) {
  Rng rng(11);
  auto xs = rng.DistinctDoubles(1600, 0.0, 1000.0);
  std::sort(xs.begin(), xs.end());
  auto scores = rng.DistinctDoubles(1600, 0.0, 1.0);
  std::sort(scores.begin(), scores.end());
  std::vector<Point> pts(1600);
  for (std::size_t i = 0; i < pts.size(); ++i) pts[i] = {xs[i], scores[i]};

  auto engine = ShardedTopkEngine::Build(pts, Opts(8, 4)).value();
  const std::vector<double> lower = engine->ShardLowerBounds();
  auto shard_of = [&lower](double x) {
    return static_cast<std::size_t>(
        std::upper_bound(lower.begin(), lower.end(), x) - lower.begin() - 1);
  };

  std::uint64_t total_pruned = 0, total_checks = 0;
  for (int i = 0; i < 50; ++i) {
    double a = rng.UniformDouble(0.0, 200.0);
    double b = a + 750.0;
    std::uint64_t k = 1 + rng.Uniform(20);
    EngineQueryStats ps;
    auto got = engine->TopK(a, b, k, &ps);
    ASSERT_TRUE(got.ok());
    ExpectPointsEqual(*got, internal::NaiveTopK(pts, a, b, k));
    total_pruned += ps.shards_pruned;
    total_checks += ps.fence_checks;
    EXPECT_GE(ps.waves, 1u);
    // Every overlapping shard is either probed or pruned.
    EXPECT_EQ(ps.shards_queried + ps.shards_pruned,
              shard_of(b) - shard_of(a) + 1);
  }
  EXPECT_GT(total_pruned, 0u);
  EXPECT_GT(total_checks, 0u);
  EXPECT_GT(engine->counters().shards_pruned, 0u);
  EXPECT_GT(engine->counters().fence_checks, 0u);
  EXPECT_GT(engine->counters().query_waves, 0u);
  engine->CheckInvariants();
}

// Point lookups (x1 == x2): present keys are always found, absent keys
// answer empty. The lookup overlaps exactly one shard, which the fence
// either prunes or the query probes.
TEST(ShardedEngineTest, PointLookupsFindPresentKeysOnly) {
  Rng rng(13);
  std::vector<Point> pts = RandomPoints(&rng, 800);
  auto engine = ShardedTopkEngine::Build(pts, Opts(4, 2)).value();

  for (int i = 0; i < 20; ++i) {
    const Point& p = pts[static_cast<std::size_t>(i) * 37];
    EngineQueryStats stats;
    auto got = engine->TopK(p.x, p.x, 1, &stats);
    ASSERT_TRUE(got.ok());
    ExpectPointsEqual(*got, {p});
    EXPECT_EQ(stats.shards_queried, 1u);
  }

  for (int i = 0; i < 30; ++i) {
    double x = rng.UniformDouble(10.0, 990.0);  // absent almost surely
    EngineQueryStats stats;
    auto got = engine->TopK(x, x, 1, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->empty());
    EXPECT_EQ(stats.shards_queried + stats.shards_pruned, 1u);
  }
  engine->CheckInvariants();
}

// --- MVCC epoch-based serving (DESIGN.md §14) -------------------------------

EngineOptions MvccOpts(std::uint32_t shards = 4, std::uint32_t threads = 4) {
  EngineOptions o = Opts(shards, threads);
  o.mvcc = true;
  return o;
}

using Selector = core::TopkIndex::Options::Selector;

// kAuto picks ST12 at every size these suites build, so the MVCC cases that
// must also cover Lemma 4 under view publication run once per selector.
constexpr std::pair<Selector, const char*> kSelectors[] = {
    {Selector::kAuto, "kAuto"}, {Selector::kLemma4, "kLemma4"}};

// Every probe of an MVCC engine rides a published epoch view: answers are
// byte-identical to the oracle and the query path never takes a shard
// mutex (the lock-free-reads acceptance assertion).
TEST(MvccEngineTest, LockFreeQueriesMatchOracleWithZeroShardLocks) {
  for (const auto& [selector, tag] : kSelectors) {
    SCOPED_TRACE(tag);
    Rng rng(21);
    std::vector<Point> pts = RandomPoints(&rng, 1200);
    EngineOptions o = MvccOpts(5, 4);
    o.index.selector = selector;
    auto engine = ShardedTopkEngine::Build(pts, o).value();
    for (int i = 0; i < 200; ++i) {
      double a = rng.UniformDouble(-100.0, 1100.0);
      double b = rng.UniformDouble(-100.0, 1100.0);
      if (a > b) std::swap(a, b);
      std::uint64_t k = 1 + rng.Uniform(50);
      auto got = engine->TopK(a, b, k);
      ASSERT_TRUE(got.ok());
      ASSERT_NO_FATAL_FAILURE(
          ExpectPointsEqual(*got, internal::NaiveTopK(pts, a, b, k)));
    }
    EXPECT_EQ(engine->counters().query_shard_locks, 0u);
    engine->CheckInvariants();
  }
}

// Updates publish a fresh epoch before returning, so a single client reads
// its own writes immediately — still without any query-path shard lock.
TEST(MvccEngineTest, ReadYourWritesAcrossEpochs) {
  for (const auto& [selector, tag] : kSelectors) {
    SCOPED_TRACE(tag);
    Rng rng(23);
    std::vector<Point> live = RandomPoints(&rng, 300);
    EngineOptions o = MvccOpts(4, 2);
    o.index.selector = selector;
    auto engine = ShardedTopkEngine::Build(live, o).value();
    auto fresh_xs = rng.DistinctDoubles(200, 2000.0, 3000.0);
    auto fresh_scores = rng.DistinctDoubles(200, 1.0, 2.0);
    for (std::size_t i = 0; i < 200; ++i) {
      if (i % 2 == 0) {
        Point p{fresh_xs[i], fresh_scores[i]};
        ASSERT_TRUE(engine->Insert(p).ok());
        live.push_back(p);
      } else {
        std::size_t victim = rng.Uniform(live.size());
        ASSERT_TRUE(engine->Delete(live[victim]).ok());
        live[victim] = live.back();
        live.pop_back();
      }
      double a = rng.UniformDouble(-100.0, 3100.0);
      double b = rng.UniformDouble(-100.0, 3100.0);
      if (a > b) std::swap(a, b);
      std::uint64_t k = 1 + rng.Uniform(20);
      auto got = engine->TopK(a, b, k);
      ASSERT_TRUE(got.ok());
      ASSERT_NO_FATAL_FAILURE(
          ExpectPointsEqual(*got, internal::NaiveTopK(live, a, b, k)))
          << "after update " << i;
    }
    EXPECT_EQ(engine->counters().query_shard_locks, 0u);
    // The update stream superseded COW blocks across many epochs; with the
    // old views dropped, retirement must have recycled some of them.
    EXPECT_GT(engine->AggregatedIoStats().retired_blocks, 0u);
    engine->CheckInvariants();
  }
}

// The concurrent acceptance test: reader threads hammer wide top-k queries
// while writer threads churn low-scored points. The base points own the
// globally highest scores, so every consistent snapshot answers the SAME
// top-16 — any torn or half-applied epoch a reader observed would break
// the comparison. Probes must never fall back to the shard mutex.
TEST(MvccEngineTest, ConcurrentReadersSeeConsistentTopKDuringUpdateStorm) {
  std::vector<Point> base;
  for (int i = 0; i < 64; ++i) {
    base.push_back({i * 10.0, 100.0 + i});
  }
  auto engine = ShardedTopkEngine::Build(base, MvccOpts(4, 4)).value();
  const std::vector<Point> expect =
      internal::NaiveTopK(base, -kInf, kInf, 16);

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kOpsPerWriter = 150;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Writers churn thread-distinct x namespaces with scores strictly below
  // every base score, so the global top-16 is invariant under the storm.
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Point p{100000.0 + t * 10000.0 + i * 0.5,
                1e-4 * (t * kOpsPerWriter + i + 1)};
        if (!engine->Insert(p).ok()) failed = true;
        if (i % 2 == 0 && !engine->Delete(p).ok()) failed = true;
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = engine->TopK(-kInf, kInf, 16);
        if (!r.ok() || r->size() != expect.size()) {
          failed = true;
          continue;
        }
        for (std::size_t i = 0; i < expect.size(); ++i) {
          if ((*r)[i].x != expect[i].x || (*r)[i].score != expect[i].score) {
            failed = true;
          }
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop = true;
  for (int t = kWriters; t < kWriters + kReaders; ++t) threads[t].join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(engine->counters().query_shard_locks, 0u);
  EXPECT_GT(engine->AggregatedIoStats().retired_blocks, 0u);
  engine->CheckInvariants();
}

// An MVCC update checkpoints its shard, and that checkpoint must cost the
// update's own dirty blocks, not a rewrite of per-shard state proportional
// to n_i/B. Growing a 1-shard engine 16x may add only the O(lg_B n) growth
// of the index paths to the average block writes per insert: measured
// 28.7 -> 40.7 (gap 12). A fence rewritten at every checkpoint made it
// 35.8 -> 107.8 (gap 72).
TEST(MvccEngineTest, UpdateWritesDoNotGrowWithShardSize) {
  auto writes_per_insert = [](std::size_t n) {
    Rng rng(31);
    std::vector<Point> pts = RandomPoints(&rng, n + 64);
    const std::vector<Point> extra(pts.end() - 64, pts.end());
    pts.resize(n);
    EngineOptions o = MvccOpts(1, 1);
    o.em.block_words = 64;
    auto engine = ShardedTopkEngine::Build(pts, o).value();
    const em::IoStats before = engine->AggregatedIoStats();
    for (const Point& p : extra) EXPECT_TRUE(engine->Insert(p).ok());
    engine->CheckInvariants();
    return static_cast<double>(
               (engine->AggregatedIoStats() - before).writes) /
           static_cast<double>(extra.size());
  };
  const double small = writes_per_insert(2000);
  const double large = writes_per_insert(32000);
  EXPECT_LT(large - small, 24.0) << "n=2000: " << small
                                 << " writes/insert, n=32000: " << large;
}

// A publish advances the shard's read handles in place instead of opening
// cold ones: after an insert far outside the queried range, a repeated
// narrow query reads only the blocks the insert changed. 1 shard, 2
// handles, B = 128, 64 frames, 4000 points, kMem and kMmap alike: the cold
// query read 30 blocks and each query after an insert 11; with handles
// reopened at every publish the latter read 31.
void ExpectPublishKeepsReadHandlesWarm(EngineOptions o) {
  Rng rng(41);
  std::vector<Point> live = RandomPoints(&rng, 4000);
  o.mvcc = true;
  o.telemetry.enabled = true;
  auto engine = ShardedTopkEngine::Build(live, o).value();
  auto query = [&] {
    EngineQueryStats stats;
    auto got = engine->TopK(400.0, 402.0, 8, &stats);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      ExpectPointsEqual(*got, internal::NaiveTopK(live, 400.0, 402.0, 8));
    }
    return stats.io.reads;
  };
  // Four runs warm both handles (rotation alternates between them).
  const std::uint64_t cold = query();
  for (int i = 0; i < 3; ++i) query();
  ASSERT_GT(cold, 0u);
  for (int round = 0; round < 2; ++round) {
    const Point p{2000.0 + round, 2.0 + round};
    ASSERT_TRUE(engine->Insert(p).ok());
    live.push_back(p);
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t reads = query();
      EXPECT_LT(2 * reads, cold) << "round " << round << " run " << i
                                 << ": " << reads << " reads, cold " << cold;
    }
  }
  const EngineCounters c = engine->counters();
  EXPECT_EQ(c.view_advances, 2u * (o.threads + 1));
  EXPECT_EQ(c.view_full_reloads, 0u);
  EXPECT_EQ(c.query_shard_locks, 0u);
  const std::string dump = engine->DumpMetrics();
  EXPECT_NE(dump.find("tokra_engine_view_advances_total " +
                      std::to_string(c.view_advances) + "\n"),
            std::string::npos);
  EXPECT_NE(dump.find("tokra_engine_view_full_reloads_total 0\n"),
            std::string::npos);
  // One timed publication for Build's views and one per insert.
  const std::uint64_t publishes = 1 + 2;
  EXPECT_EQ(engine->metric_set().view_publish_us->Snapshot().count,
            publishes);
  EXPECT_NE(dump.find("tokra_engine_view_publish_us_count " +
                      std::to_string(publishes) + "\n"),
            std::string::npos);
  // The writer's allocator image, which every publish still serializes.
  const std::string stream_gauge =
      "tokra_pager_checkpoint_stream_words{shard=\"0\"} ";
  const std::size_t at = dump.find(stream_gauge);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::stoll(dump.substr(at + stream_gauge.size())), 0);
  engine->CheckInvariants();
}

TEST(MvccEngineTest, PublishKeepsReadHandlesWarm) {
  ExpectPublishKeepsReadHandlesWarm(Opts(1, 1));
}

// The same on a file-backed kMmap engine, whose handles borrow frames
// straight from the mapping: borrowed frames of unchanged blocks survive
// the advance.
TEST(MvccEngineTest, PublishKeepsReadHandlesWarmOnMmap) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tokra-engine-warm-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EngineOptions o = Opts(1, 1);
  o.em.backend = em::Backend::kMmap;
  o.storage_dir = dir.string();
  ExpectPublishKeepsReadHandlesWarm(o);
  std::filesystem::remove_all(dir);
}

// Linearizability where answers change: one writer inserts, in a fixed
// order, points that outscore every base point, so each prefix of its
// inserts has a different top-16. A query's answer may combine shards at
// different epochs (the engine takes no cross-shard snapshot), but each
// shard's contribution must be that shard's state after some prefix of its
// own inserts, published while the query ran: the prefix counts at least
// the inserts acknowledged before the query began and at most those issued
// before it returned (an issued insert may take effect before it returns).
TEST(MvccEngineTest, ReadersSeeAPublishedPrefixWhileTopKChanges) {
  std::vector<Point> base;
  for (int i = 0; i < 64; ++i) base.push_back({i * 10.0, 1.0 + i * 1e-3});
  auto engine = ShardedTopkEngine::Build(base, MvccOpts(4, 4)).value();
  const std::vector<double> bounds = engine->ShardLowerBounds();
  auto shard_of = [&](double x) {
    return static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), x) - bounds.begin() -
        1);
  };

  constexpr int kInserts = 120;
  constexpr int kReaders = 3;
  std::vector<Point> inserts;
  for (int i = 0; i < kInserts; ++i) {
    // Spread over every shard's range, each new point the highest yet.
    inserts.push_back({5.0 + (i * 37 % 64) * 10.0 + i / 64, 10.0 + i});
  }
  // before[s][i]: how many of the first i inserts went to shard s.
  std::vector<std::vector<int>> before(
      bounds.size(), std::vector<int>(kInserts + 1, 0));
  for (std::size_t s = 0; s < bounds.size(); ++s) {
    for (int i = 0; i < kInserts; ++i) {
      before[s][i + 1] =
          before[s][i] + (shard_of(inserts[i].x) == s ? 1 : 0);
    }
  }
  // Inserts outscore the base and grow in score, so a shard's prefix shows
  // in the answer by its highest insert: the witness prefix ends there, or
  // is the acknowledged one when none of the shard's inserts made the cut.
  auto consistent = [&](const std::vector<Point>& got, int lo, int hi) {
    std::vector<int> m(bounds.size());
    for (std::size_t s = 0; s < bounds.size(); ++s) m[s] = before[s][lo];
    for (const Point& p : got) {
      if (p.score < 10.0) continue;  // a base point
      const int i = static_cast<int>(p.score - 10.0);
      const std::size_t s = shard_of(p.x);
      m[s] = std::max(m[s], before[s][i + 1]);
    }
    std::vector<Point> state = base;
    for (int i = 0; i < kInserts; ++i) {
      const std::size_t s = shard_of(inserts[i].x);
      if (m[s] > before[s][hi]) return false;  // not issued yet
      if (before[s][i] < m[s]) state.push_back(inserts[i]);
    }
    const std::vector<Point> want = internal::NaiveTopK(state, -kInf, kInf, 16);
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (got[i].x != want[i].x || got[i].score != want[i].score) return false;
    }
    return true;
  };

  std::atomic<int> issued{0}, acked{0}, running{0};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        const int lo = acked.load(std::memory_order_acquire);
        auto r = engine->TopK(-kInf, kInf, 16);
        const int hi = issued.load(std::memory_order_acquire);
        if (!r.ok() || !consistent(*r, lo, hi)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        checked.fetch_add(1, std::memory_order_relaxed);
        if (first) running.fetch_add(1, std::memory_order_release);
        first = false;
      }
    });
  }
  // Updates are fast enough to finish before a reader starts: wait until
  // the readers are querying.
  while (running.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (const Point& p : inserts) {
    issued.fetch_add(1, std::memory_order_release);
    if (!engine->Insert(p).ok()) {
      ADD_FAILURE() << "insert of x=" << p.x << " refused";
      break;
    }
    acked.fetch_add(1, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0) << "of " << checked.load() << " answers";
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(engine->counters().query_shard_locks, 0u);
  std::vector<Point> all = base;
  all.insert(all.end(), inserts.begin(), inserts.end());
  auto last = engine->TopK(-kInf, kInf, 16);
  ASSERT_TRUE(last.ok());
  ExpectPointsEqual(*last, internal::NaiveTopK(all, -kInf, kInf, 16));
  engine->CheckInvariants();
}

// A rebalance replaces every shard (and its epoch views) wholesale; the
// fresh views serve the re-split content and stay lock-free.
TEST(MvccEngineTest, RebalancePublishesFreshViews) {
  Rng rng(29);
  std::vector<Point> pts = RandomPoints(&rng, 500);
  auto engine = ShardedTopkEngine::Build(pts, MvccOpts(4, 2)).value();
  ASSERT_TRUE(engine->Rebalance().ok());
  auto got = engine->TopK(-kInf, kInf, 40);
  ASSERT_TRUE(got.ok());
  ExpectPointsEqual(*got, internal::NaiveTopK(pts, -kInf, kInf, 40));
  EXPECT_EQ(engine->counters().query_shard_locks, 0u);
  engine->CheckInvariants();
}

}  // namespace
}  // namespace tokra::engine
