// E12: sharded engine throughput.
//
// (a) Query throughput vs shard count under uniform narrow ranges — the
//     scaling claim: more shards = more concurrent queries in flight.
// (b) The same under a zipf-skewed (hotspot) query mix — shows contention
//     when traffic concentrates on few shards.
// (c) Direct per-op calls vs the batching front end on a mixed workload —
//     the lock/pager amortization claim.
// (d) An adversarial insert stream aimed at one shard, with and without the
//     skew-rebalance hook — tail shard size and throughput after.
// (f) Fence pruning at 8 shards against one unsharded shard on wide ranges
//     over zipf-weight and adversarial score layouts — the sketch-routing
//     claim, with a fingerprint CHECK that the pruned fan-out answers
//     byte-identically to the single shard.
// (g) Serve-while-updating: MVCC epoch views under a live writer storm —
//     read qps as reader threads scale with writers active, every reader's
//     answer stream fingerprint-checked against a serialized oracle, and a
//     CHECK that no query ever took a shard write lock.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "engine/batcher.h"
#include "engine/sharded_engine.h"

namespace tokra::bench {
namespace {

using engine::EngineOptions;
using engine::Request;
using engine::RequestBatcher;
using engine::Response;
using engine::ShardedTopkEngine;

constexpr std::size_t kPoints = 20000;
constexpr double kXHi = 1e6;
constexpr int kClientThreads = 4;
constexpr int kQueriesPerThread = 4000;
constexpr std::uint64_t kK = 10;

double WallMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

EngineOptions EngOpts(std::uint32_t shards) {
  EngineOptions o;
  o.num_shards = shards;
  o.threads = 4;
  o.em = em::EmOptions{.block_words = 256, .pool_frames = 64};
  return o;
}

/// Uniform narrow range: width ~ key space / 100, anywhere.
struct UniformRanges {
  double Lo(Rng* rng) const { return rng->UniformDouble(0, kXHi * 0.99); }
  double Width(Rng*) const { return kXHi / 100; }
};

/// Zipf-ish hotspot: 90% of queries fall in the hottest 5% of the key space.
struct ZipfRanges {
  double Lo(Rng* rng) const {
    if (rng->Bernoulli(0.9)) return rng->UniformDouble(0, kXHi * 0.05);
    return rng->UniformDouble(0, kXHi * 0.99);
  }
  double Width(Rng*) const { return kXHi / 100; }
};

template <typename Workload>
double QueryThroughput(ShardedTopkEngine* eng, Workload wl) {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        double lo = wl.Lo(&rng);
        Must(eng->TopK(lo, lo + wl.Width(&rng), kK).status());
      }
    });
  }
  for (auto& th : threads) th.join();
  double ms = WallMs(t0);
  return kClientThreads * kQueriesPerThread / (ms / 1000.0);
}

/// Engine-side query latency + per-stage breakdown for one finished run,
/// pulled from the engine's own histograms (no bench-side timing).
void RecordEngineLatency(const std::string& phase,
                         const ShardedTopkEngine& eng) {
  const engine::EngineMetricSet& ms = eng.metric_set();
  if (ms.query_latency_us == nullptr) return;  // telemetry disabled
  RecordLatency(phase + " query", ms.query_latency_us->Snapshot());
  RecordStages(phase, {{"fanout", ms.stage_fanout_us->Snapshot()},
                       {"probe", ms.stage_probe_us->Snapshot()},
                       {"merge", ms.stage_merge_us->Snapshot()},
                       {"reply", ms.stage_reply_us->Snapshot()}});
}

template <typename Workload>
void ThroughputTable(const std::string& title, const std::vector<Point>& pts,
                     Workload wl) {
  Header(title, {"shards", "client threads", "queries", "wall ms", "qps",
                 "speedup vs 1 shard"});
  double base_qps = 0;
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto eng = ShardedTopkEngine::Build(pts, EngOpts(shards));
    Must(eng.status());
    em::IoStats before = eng->get()->AggregatedIoStats();
    double qps = QueryThroughput(eng->get(), wl);
    RecordIoStats(title.substr(0, 4) + " shards=" + U(shards),
                  eng->get()->AggregatedIoStats() - before);
    RecordEngineLatency(title.substr(0, 4) + " shards=" + U(shards),
                        *eng->get());
    if (shards == 1) base_qps = qps;
    double total = kClientThreads * kQueriesPerThread;
    Row({U(shards), U(kClientThreads), U(static_cast<std::uint64_t>(total)),
         D(total / qps * 1000.0), D(qps, 0), D(qps / base_qps)});
  }
}

void BatchingTable(const std::vector<Point>& pts) {
  Header("E12c: direct vs batched mixed workload (4 threads, 25% updates)",
         {"mode", "ops", "wall ms", "ops/s"});
  constexpr int kOpsPerThread = 3000;
  for (int mode = 0; mode < 2; ++mode) {
    auto eng = ShardedTopkEngine::Build(pts, EngOpts(4));
    Must(eng.status());
    RequestBatcher batcher(eng->get(), /*max_pending=*/128);
    em::IoStats io_before = eng->get()->AggregatedIoStats();
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t, mode] {
        Rng rng(9000 + t);
        std::vector<std::future<Response>> futs;
        for (int i = 0; i < kOpsPerThread; ++i) {
          double lo = rng.UniformDouble(0, kXHi * 0.99);
          bool update = i % 4 == 0;
          Point p{kXHi + t * kXHi + i, 10.0 + t + i * 1e-7};
          if (mode == 0) {
            if (update) {
              Must(eng->get()->Insert(p));
            } else {
              Must(eng->get()->TopK(lo, lo + kXHi / 100, kK).status());
            }
          } else {
            futs.push_back(batcher.Submit(
                update ? Request::MakeInsert(p)
                       : Request::MakeTopk(lo, lo + kXHi / 100, kK)));
          }
        }
        if (mode == 1) {
          batcher.Flush();
          for (auto& f : futs) Must(f.get().status);
        }
      });
    }
    for (auto& th : threads) th.join();
    double ms = WallMs(t0);
    double total = kClientThreads * kOpsPerThread;
    RecordIoStats(mode == 0 ? "E12c direct" : "E12c batched",
                  eng->get()->AggregatedIoStats() - io_before);
    if (mode == 1 && eng->get()->metric_set().admission_wait_us != nullptr) {
      // The latency cost of coalescing: how long requests sat in the window.
      RecordLatency("E12c batched admission_wait",
                    eng->get()->metric_set().admission_wait_us->Snapshot());
      RecordLatency("E12c batched batch_exec",
                    eng->get()->metric_set().batch_exec_us->Snapshot());
    }
    Row({mode == 0 ? "direct" : "batched(128)",
         U(static_cast<std::uint64_t>(total)), D(ms), D(total / ms * 1000.0, 0)});
  }
}

/// E12e — the telemetry layer's own price: the identical uniform query
/// workload with metrics+tracing enabled vs fully disabled. Both rows land
/// in BENCH_e12_engine.json so the overhead ratio is tracked per PR; the
/// acceptance bar is the enabled run within ~2% of disabled. The enabled
/// leg also exports its span ring as chrome://tracing JSON.
void OverheadTable(const std::vector<Point>& pts) {
  Header("E12e: telemetry overhead (4 shards, uniform ranges)",
         {"telemetry", "queries", "wall ms", "qps"});
  for (bool enabled : {true, false}) {
    EngineOptions o = EngOpts(4);
    o.telemetry.enabled = enabled;
    auto eng = ShardedTopkEngine::Build(pts, o);
    Must(eng.status());
    double qps = QueryThroughput(eng->get(), UniformRanges{});
    double total = kClientThreads * kQueriesPerThread;
    Row({enabled ? "on" : "off", U(static_cast<std::uint64_t>(total)),
         D(total / qps * 1000.0), D(qps, 0)});
    if (enabled) {
      RecordEngineLatency("E12e telemetry=on", *eng->get());
      const std::string trace = eng->get()->tracer()->ExportChromeJson();
      std::FILE* f = std::fopen("TRACE_e12_engine.json", "w");
      if (f != nullptr) {
        std::fwrite(trace.data(), 1, trace.size(), f);
        std::fclose(f);
        std::printf("wrote TRACE_e12_engine.json (%zu bytes, %llu spans "
                    "recorded, %llu dropped)\n",
                    trace.size(),
                    static_cast<unsigned long long>(
                        eng->get()->tracer()->recorded()),
                    static_cast<unsigned long long>(
                        eng->get()->tracer()->dropped()));
      }
    }
  }
}

void RebalanceTable(const std::vector<Point>& pts) {
  Header("E12d: adversarial skewed inserts (all into last shard's range)",
         {"rebalance hook", "inserts", "wall ms", "ops/s", "rebalances",
          "final max/avg shard size"});
  constexpr int kInserts = 8000;
  for (bool hook : {false, true}) {
    EngineOptions o = EngOpts(8);
    o.rebalance_skew = 2.0;
    o.rebalance_min_points = 4096;
    auto eng = ShardedTopkEngine::Build(pts, o);
    Must(eng.status());
    Rng rng(31);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kInserts; ++i) {
      // Every insert beyond the current max x: one shard absorbs all.
      Must(eng->get()->Insert({2 * kXHi + i, 20.0 + i * 1e-7}));
      if (hook && i % 512 == 511) eng->get()->MaybeRebalance();
    }
    double ms = WallMs(t0);
    auto sizes = eng->get()->ShardSizes();
    std::uint64_t max_size = 0, total = 0;
    for (std::uint64_t s : sizes) {
      max_size = std::max(max_size, s);
      total += s;
    }
    Row({hook ? "on (every 512)" : "off", U(kInserts), D(ms),
         D(kInserts / ms * 1000.0, 0),
         U(eng->get()->counters().rebalances),
         D(static_cast<double>(max_size) /
           (static_cast<double>(total) / sizes.size()))});
  }
}

/// E12f workload shape: wide ranges (cover ~3/4 of the key space, always
/// including the weight hotspot) so every query overlaps most of the 8
/// shards — the fan-out regime pruning is for.
struct WideRanges {
  double Lo(Rng* rng) const { return rng->UniformDouble(0, kXHi * 0.2); }
  double Width(Rng*) const { return kXHi * 0.75; }
};

/// Zipf-ish weight skew: the points in the hottest 5% of the key space
/// ([0.45, 0.5) * kXHi) carry the globally top scores, so a wide query's
/// top-k lives almost entirely in one shard and the other overlapping
/// shards' fences can't beat the frontier.
std::vector<Point> ZipfWeightPoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, kXHi);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = scores[i];
    if (xs[i] >= 0.45 * kXHi && xs[i] < 0.5 * kXHi) s += 100.0;
    pts[i] = Point{xs[i], s};
  }
  return pts;
}

/// Adversarial-for-fanout layout: score strictly increasing in x, so a wide
/// query's top-k sits at its right edge and every shard left of it is
/// provably dead weight once the frontier fills.
std::vector<Point> MonotonePoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, kXHi);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  std::sort(scores.begin(), scores.end());
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

/// FNV-1a over the (x, score) bit patterns of a deterministic wide-range
/// query stream — the cross-config answer oracle. The seed names the
/// stream, so concurrent readers can each run a distinct stream and still
/// be checked against a serialized replay.
std::uint64_t FingerprintSeeded(ShardedTopkEngine* eng, std::uint64_t seed,
                                int queries) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  Rng rng(seed);
  WideRanges wl;
  for (int i = 0; i < queries; ++i) {
    double lo = wl.Lo(&rng);
    auto r = eng->TopK(lo, lo + wl.Width(&rng), kK);
    Must(r.status());
    mix(r->size());
    for (const Point& p : *r) {
      mix(std::bit_cast<std::uint64_t>(p.x));
      mix(std::bit_cast<std::uint64_t>(p.score));
    }
  }
  return h;
}

std::uint64_t Fingerprint(ShardedTopkEngine* eng) {
  return FingerprintSeeded(eng, 424242, 2000);
}

void PruningTable() {
  Header("E12f: fence pruning, 8 shards vs 1 (wide ranges)",
         {"workload", "shards", "queries", "wall ms", "qps",
          "qps vs 1 shard", "avg shards pruned/query", "fingerprint"});
  Rng rng(77);
  struct Workload {
    const char* name;
    std::vector<Point> pts;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"zipf-weight", ZipfWeightPoints(&rng, kPoints)});
  workloads.push_back({"adversarial", MonotonePoints(&rng, kPoints)});
  for (auto& wl : workloads) {
    double one_qps = 0;
    std::uint64_t one_fp = 0;
    for (std::uint32_t shards : {1u, 8u}) {
      auto eng = ShardedTopkEngine::Build(wl.pts, EngOpts(shards));
      Must(eng.status());
      const std::uint64_t fp = Fingerprint(eng->get());
      const engine::EngineCounters before_c = eng->get()->counters();
      em::IoStats before = eng->get()->AggregatedIoStats();
      double qps = QueryThroughput(eng->get(), WideRanges{});
      const engine::EngineCounters c = eng->get()->counters();
      const double total = kClientThreads * kQueriesPerThread;
      RecordIoStats(std::string("E12f ") + wl.name + " shards=" + U(shards),
                    eng->get()->AggregatedIoStats() - before,
                    c.shards_pruned - before_c.shards_pruned,
                    c.fence_checks - before_c.fence_checks,
                    c.query_waves - before_c.query_waves);
      if (shards == 1) {
        one_qps = qps;
        one_fp = fp;
      } else {
        // The pruned fan-out must be answer-identical to one unsharded
        // index: fences only skip work the merge provably cannot use.
        TOKRA_CHECK_EQ(fp, one_fp);
      }
      char fpbuf[32];
      std::snprintf(fpbuf, sizeof(fpbuf), "%016llx",
                    static_cast<unsigned long long>(fp));
      Row({wl.name, U(shards), U(static_cast<std::uint64_t>(total)),
           D(total / qps * 1000.0), D(qps, 0), D(qps / one_qps),
           D(static_cast<double>(c.shards_pruned - before_c.shards_pruned) /
             total),
           fpbuf});
    }
  }
}

/// E12g — serve-while-updating (DESIGN.md §14). The base points own the
/// globally top scores; writer threads churn points whose scores sit
/// strictly below every base score, so each wide top-k answer is invariant
/// under the storm: a reader's whole answer-stream fingerprint must equal
/// the serialized oracle's, no matter which epoch each query landed on.
/// Readers scale 1→8 with the writers running the whole time; the query
/// path must never fall back to a shard write lock (counter CHECKed 0).
void ServeWhileUpdatingTable() {
  constexpr int kWritersG = 2;
  constexpr int kReaderQueries = 800;
  Header("E12g: serve-while-updating (MVCC epochs, 4 shards, " +
             std::to_string(kWritersG) + " writers active)",
         {"readers", "writers", "queries", "wall ms", "read qps",
          "scaling vs 1 reader", "writer ops", "fingerprint", "shard locks"});
  Rng rng(55);
  std::vector<Point> base = RandomPoints(&rng, kPoints, kXHi);
  for (Point& p : base) p.score += 100.0;
  // Serialized oracle: each reader's exact query stream, replayed on an
  // idle non-MVCC engine holding only the base points.
  std::uint64_t oracle[8] = {};
  {
    auto eng = ShardedTopkEngine::Build(base, EngOpts(4));
    Must(eng.status());
    for (int r = 0; r < 8; ++r) {
      oracle[r] = FingerprintSeeded(eng->get(), 6200 + r, kReaderQueries);
    }
  }
  double base_qps = 0;
  for (int readers : {1, 2, 4, 8}) {
    EngineOptions o = EngOpts(4);
    o.mvcc = true;
    auto eng = ShardedTopkEngine::Build(base, o);
    Must(eng.status());
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> writer_ops{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWritersG; ++w) {
      writers.emplace_back([&, w] {
        Rng wrng(8100 + w);
        std::vector<Point> mine;
        while (!stop.load(std::memory_order_relaxed)) {
          // Insert across the full key space (every shard publishes fresh
          // epochs under the readers), delete every other one; scores in
          // (0, 1) never reach a top-k next to the +100 base scores.
          Point p{wrng.UniformDouble(0, kXHi), wrng.UniformDouble()};
          mine.push_back(p);
          Must(eng->get()->Insert(p));
          if (mine.size() % 2 == 0) {
            Must(eng->get()->Delete(mine[mine.size() - 2]));
          }
          writer_ops.fetch_add(1, std::memory_order_relaxed);
          // A paced update stream (not a tight loop): the benchmark
          // measures read scaling under live writes, not writer saturation
          // of a single-core host.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }
    std::atomic<std::uint64_t> mismatches{0};
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> reader_threads;
    for (int r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&, r] {
        const std::uint64_t fp =
            FingerprintSeeded(eng->get(), 6200 + r, kReaderQueries);
        if (fp != oracle[r]) mismatches.fetch_add(1);
      });
    }
    for (auto& th : reader_threads) th.join();
    const double ms = WallMs(t0);
    stop = true;
    for (auto& th : writers) th.join();
    const double total = static_cast<double>(readers) * kReaderQueries;
    const double qps = total / (ms / 1000.0);
    if (readers == 1) base_qps = qps;
    const engine::EngineCounters c = eng->get()->counters();
    const bool fp_ok = mismatches.load() == 0;
    // Consistency is a CHECK, not a column-only report: a reader that saw
    // a half-applied epoch or a stale fence route is a correctness bug.
    TOKRA_CHECK(fp_ok);
    TOKRA_CHECK_EQ(c.query_shard_locks, 0u);
    std::printf(
        "[e12g] readers=%d writers=%d qps=%.0f ratio=%.2f fingerprint=%s "
        "locks=%llu\n",
        readers, kWritersG, qps, qps / base_qps, fp_ok ? "ok" : "MISMATCH",
        static_cast<unsigned long long>(c.query_shard_locks));
    RecordIoStats("E12g readers=" + U(readers),
                  eng->get()->AggregatedIoStats(), 0, 0, 0,
                  eng->get()->AggregatedSpaceStats());
    Row({U(readers), U(kWritersG), U(static_cast<std::uint64_t>(total)),
         D(ms), D(qps, 0), D(qps / base_qps), U(writer_ops.load()),
         fp_ok ? "ok" : "MISMATCH", U(c.query_shard_locks)});
  }
}

void Run() {
  // Scaling is bounded by physical parallelism; on a single-core host the
  // residual speedup comes from smaller per-shard structures (lower lg n_i,
  // better pool locality), not concurrency.
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
  Rng rng(5);
  std::vector<Point> pts = RandomPoints(&rng, kPoints, kXHi);
  ThroughputTable("E12a: query throughput vs shards (uniform ranges)", pts,
                  UniformRanges{});
  ThroughputTable("E12b: query throughput vs shards (zipf hotspot)", pts,
                  ZipfRanges{});
  BatchingTable(pts);
  RebalanceTable(pts);
  OverheadTable(pts);
  PruningTable();
  ServeWhileUpdatingTable();
}

}  // namespace
}  // namespace tokra::bench

int main() {
  tokra::bench::InitJson("e12_engine");
  tokra::bench::Run();
  return 0;
}
