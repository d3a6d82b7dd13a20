// E13 — storage backends:
//   (a) the simulated I/O counts are backend-independent (counting lives
//       in the BlockDevice base class, so the EM-model cost of a workload
//       is a property of the access sequence, not the medium);
//   (b) wall-clock cost of cold- and warm-cache queries on mem, file
//       (pread) and mmap — the real-hardware payoff of zero-copy borrowed
//       reads on warm queries; every backend's results are checked
//       byte-identical;
//   (c) checkpoint + reopen round trip on the file backend;
//   (d) shard checkpoints (run concurrently) on the sharded engine;
//   (e) read-serving throughput of a read-only engine snapshot
//       (OpenSnapshot, mmap zero-copy) under N concurrent reader threads.

#include <unistd.h>

#include <array>
#include <bit>
#include <filesystem>
#include <thread>

#include "bench/common.h"
#include "core/topk_index.h"
#include "em/pager.h"
#include "engine/sharded_engine.h"

using namespace tokra;
using namespace tokra::bench;

namespace {

constexpr std::size_t kN = 1u << 16;
constexpr int kQueries = 128;
// Wall-clock phases run kReps times and report the fastest: the phases are
// tens of milliseconds, where scheduler noise would otherwise drown the
// syscall-count savings being measured.
constexpr int kReps = 3;

struct BackendCfg {
  const char* name;
  em::Backend backend;
};

struct RunResult {
  em::IoStats build, cold, warm;
  double cold_us = 0, warm_us = 0;
  std::uint64_t fingerprint = 0;  ///< order-sensitive hash of all results
  // Per-query wall-time distributions (separate recording pass, so the
  // best-of timed loops above stay free of per-query clock reads).
  obs::HistogramSnapshot cold_lat, warm_lat;
};

/// Order-sensitively mixes one query's result list into `h`: byte-identical
/// results across backends are part of the claim, not just equal counts.
void MixResults(std::uint64_t* h, const std::vector<Point>& pts) {
  auto mix = [&](std::uint64_t v) {
    *h ^= v + 0x9E3779B97F4A7C15ULL + (*h << 6) + (*h >> 2);
  };
  mix(pts.size());
  for (const Point& p : pts) {
    mix(std::bit_cast<std::uint64_t>(p.x));
    mix(std::bit_cast<std::uint64_t>(p.score));
  }
}

RunResult RunWorkload(const em::EmOptions& opts) {
  RunResult res;
  em::Pager pager(opts);
  Rng rng(13);
  auto points = RandomPoints(&rng, kN);
  em::IoStats start = pager.stats();
  auto built = core::TopkIndex::Build(&pager, std::move(points));
  TOKRA_CHECK(built.ok());
  auto& idx = *built;
  pager.FlushAll();
  res.build = pager.stats() - start;

  // The same deterministic query mix, cold (cache dropped per query) then
  // warm (shared pool across queries). Large k drives the k/B term.
  std::vector<std::array<double, 2>> ranges;
  std::vector<std::uint64_t> ks;
  for (int i = 0; i < kQueries; ++i) {
    double a = rng.UniformDouble(0, 1e6), b = rng.UniformDouble(0, 1e6);
    ranges.push_back({std::min(a, b), std::max(a, b)});
    ks.push_back(1 + rng.Uniform(4096));
  }
  // Untimed pass: fingerprint every query's full result list, so the
  // cross-backend assertion covers the bytes returned, not just the I/O
  // counts. (Results are state-independent, so hashing outside the timed
  // loops keeps the timings pure.)
  for (int i = 0; i < kQueries; ++i) {
    auto r = idx->TopK(ranges[i][0], ranges[i][1], ks[i]);
    Must(r.status());
    MixResults(&res.fingerprint, *r);
  }
  // Cold means cold: drop the buffer pool AND the OS page cache, so a
  // file-backed read is a real device transfer — the cost the EM model
  // charges for.
  em::IoStats before = pager.stats();
  res.cold_us = WallMicros([&] {
    for (int i = 0; i < kQueries; ++i) {
      pager.DropCache();
      pager.device()->DropOsCache();
      Must(idx->TopK(ranges[i][0], ranges[i][1], ks[i]).status());
    }
  });
  res.cold = pager.stats() - before;
  for (int rep = 1; rep < kReps; ++rep) {
    res.cold_us = std::min(res.cold_us, WallMicros([&] {
      for (int i = 0; i < kQueries; ++i) {
        pager.DropCache();
        pager.device()->DropOsCache();
        Must(idx->TopK(ranges[i][0], ranges[i][1], ks[i]).status());
      }
    }));
  }
  before = pager.stats();
  res.warm_us = WallMicros([&] {
    for (int i = 0; i < kQueries; ++i) {
      Must(idx->TopK(ranges[i][0], ranges[i][1], ks[i]).status());
    }
  });
  res.warm = pager.stats() - before;
  for (int rep = 1; rep < kReps; ++rep) {
    res.warm_us = std::min(res.warm_us, WallMicros([&] {
      for (int i = 0; i < kQueries; ++i) {
        Must(idx->TopK(ranges[i][0], ranges[i][1], ks[i]).status());
      }
    }));
  }
  // Latency-distribution passes: per-query timing is kept out of the
  // best-of aggregate loops above, so those numbers stay comparable with
  // earlier PRs; the tail percentiles come from one dedicated pass each.
  {
    obs::Histogram cold_h;
    for (int i = 0; i < kQueries; ++i) {
      pager.DropCache();
      pager.device()->DropOsCache();
      obs::ScopedTimer t(&cold_h);
      Must(idx->TopK(ranges[i][0], ranges[i][1], ks[i]).status());
    }
    res.cold_lat = cold_h.Snapshot();
    obs::Histogram warm_h;
    for (int i = 0; i < kQueries; ++i) {
      obs::ScopedTimer t(&warm_h);
      Must(idx->TopK(ranges[i][0], ranges[i][1], ks[i]).status());
    }
    res.warm_lat = warm_h.Snapshot();
  }
  return res;
}

}  // namespace

int main() {
  InitJson("e13");
  std::printf("# E13: storage backends — mem, file, mmap\n");

  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("tokra-e13-" + std::to_string(::getpid()));
  fs::create_directories(dir);

  const std::vector<BackendCfg> cfgs = {
      {"mem", em::Backend::kMem},
      {"file-sync", em::Backend::kFile},
      {"mmap", em::Backend::kMmap},
  };
  std::vector<RunResult> runs;
  for (const BackendCfg& cfg : cfgs) {
    em::EmOptions opts{.block_words = 256, .pool_frames = 64};
    opts.backend = cfg.backend;
    if (cfg.backend != em::Backend::kMem) {
      opts.path = (dir / (std::string("e13-") + cfg.name + ".blk")).string();
    }
    runs.push_back(RunWorkload(opts));
  }

  Header("E13a: I/O parity (n=2^16, B=256, " + std::to_string(kQueries) +
             " queries)",
         {"backend", "build I/Os", "cold query I/Os", "warm query I/Os",
          "warm borrows"});
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    Row({cfgs[i].name, U(runs[i].build.TotalIos()), U(runs[i].cold.TotalIos()),
         U(runs[i].warm.TotalIos()), U(runs[i].warm.borrows)});
    // The logical cost is scheduling-independent by construction — borrowed
    // zero-copy reads included — and so are the returned bytes.
    TOKRA_CHECK(runs[i].build.TotalIos() == runs[0].build.TotalIos());
    TOKRA_CHECK(runs[i].cold.TotalIos() == runs[0].cold.TotalIos());
    TOKRA_CHECK(runs[i].warm.TotalIos() == runs[0].warm.TotalIos());
    TOKRA_CHECK(runs[i].fingerprint == runs[0].fingerprint);
  }

  Header("E13b: wall time per query (us, avg of " + std::to_string(kQueries) +
             ", best of " + std::to_string(kReps) + " passes)",
         {"backend", "cold cache", "warm cache", "cold p50/p95/p99",
          "warm p50/p95/p99"});
  auto pcts = [](const obs::HistogramSnapshot& s) {
    return D(s.Percentile(0.50), 0) + "/" + D(s.Percentile(0.95), 0) + "/" +
           D(s.Percentile(0.99), 0);
  };
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    Row({cfgs[i].name, D(runs[i].cold_us / kQueries),
         D(runs[i].warm_us / kQueries), pcts(runs[i].cold_lat),
         pcts(runs[i].warm_lat)});
    RecordLatency(std::string(cfgs[i].name) + " cold", runs[i].cold_lat);
    RecordLatency(std::string(cfgs[i].name) + " warm", runs[i].warm_lat);
  }
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    RecordIoStats(std::string(cfgs[i].name) + " build", runs[i].build);
    RecordIoStats(std::string(cfgs[i].name) + " cold queries", runs[i].cold);
    RecordIoStats(std::string(cfgs[i].name) + " warm queries", runs[i].warm);
  }

  // E13c: checkpoint + reopen on the file backend; answers must match.
  {
    em::EmOptions file_opts{.block_words = 256, .pool_frames = 64};
    file_opts.backend = em::Backend::kFile;
    file_opts.path = (dir / "e13-ckpt.blk").string();
    em::Pager pager(file_opts);
    Rng rng(14);
    auto built = core::TopkIndex::Build(&pager, RandomPoints(&rng, kN));
    TOKRA_CHECK(built.ok());
    auto probe = (*built)->TopK(1e5, 9e5, 100);
    Must(probe.status());
    em::IoStats before = pager.stats();
    double ckpt_us = WallMicros([&] { Must((*built)->Checkpoint()); });
    em::IoStats ckpt_io = pager.stats() - before;

    auto reopened = em::Pager::Open(file_opts);
    Must(reopened.status());
    StatusOr<std::unique_ptr<core::TopkIndex>> opened =
        Status::Internal("unset");
    double open_us =
        WallMicros([&] { opened = core::TopkIndex::Open(reopened->get()); });
    Must(opened.status());
    auto probe2 = (*opened)->TopK(1e5, 9e5, 100);
    Must(probe2.status());
    TOKRA_CHECK(*probe == *probe2);

    Header("E13c: checkpoint / reopen (n=2^16)",
           {"checkpoint I/Os", "checkpoint ms", "open ms"});
    Row({U(ckpt_io.TotalIos()), D(ckpt_us / 1000.0), D(open_us / 1000.0)});
    RecordIoStats("checkpoint", ckpt_io);
  }

  // E13d: engine checkpoint latency. Shard checkpoints run concurrently on
  // the engine's pool. Large per-shard pools keep the build's dirty blocks
  // in memory (so the first checkpoint has a real flush volume) and
  // durable_sync makes each shard pay its two real fsync barriers — the
  // costs that overlap across the thread pool.
  {
    Header("E13d: engine checkpoint latency, 8 shards, durable_sync (ms)",
           {"first checkpoint", "incremental checkpoint"});
    Rng rng(15);
    auto points = RandomPoints(&rng, kN);
    auto extra = RandomPoints(&rng, 8192, 2e6);
    fs::path edir = dir / "eng";
    fs::create_directories(edir);
    engine::EngineOptions opts;
    opts.num_shards = 8;
    opts.threads = 8;
    opts.em.block_words = 256;
    opts.em.pool_frames = 1024;
    opts.em.durable_sync = true;
    opts.storage_dir = edir.string();
    auto built = engine::ShardedTopkEngine::Build(points, opts);
    TOKRA_CHECK(built.ok());
    // First checkpoint: the full structure is dirty.
    double first_ms =
        WallMicros([&] { Must((*built)->Checkpoint()); }) / 1000.0;
    // Incremental: dirty a fraction, checkpoint again.
    for (const Point& p : extra) Must((*built)->Insert(p));
    double inc_ms =
        WallMicros([&] { Must((*built)->Checkpoint()); }) / 1000.0;
    Row({D(first_ms), D(inc_ms)});
  }

  // E13e: snapshot read-serving throughput. A checkpointed engine directory
  // is reopened with OpenSnapshot (read-only mmap shards, zero-copy borrow
  // reads, per-handle locks instead of per-shard ones) and hammered by N
  // reader threads; throughput should scale with N.
  {
    fs::path sdir = dir / "snap";
    fs::create_directories(sdir);
    engine::EngineOptions opts;
    opts.num_shards = 8;
    opts.threads = 8;
    opts.em.block_words = 256;
    opts.em.pool_frames = 64;
    opts.storage_dir = sdir.string();
    Rng rng(16);
    auto points = RandomPoints(&rng, kN);
    {
      auto built = engine::ShardedTopkEngine::Build(points, opts);
      TOKRA_CHECK(built.ok());
      Must((*built)->Checkpoint());
    }  // close the live engine: the snapshot serves the files alone

    auto snap = engine::ShardedTopkEngine::OpenSnapshot(opts);
    Must(snap.status());
    TOKRA_CHECK((*snap)->size() == kN);

    // Serving-shaped queries: narrow ranges (~2% of the domain), so most
    // hit one or two shards — the regime where per-handle concurrency,
    // not per-query fan-out, is what scales. On a multi-core host the
    // kqueries/s column should grow with the thread count; a single-core
    // host correctly shows it flat (but never collapsing).
    constexpr int kPerThread = 512;
    std::vector<std::array<double, 2>> sranges;
    std::vector<std::uint64_t> sks;
    for (int i = 0; i < kPerThread; ++i) {
      double a = rng.UniformDouble(0, 1e6 - 2e4);
      sranges.push_back({a, a + rng.UniformDouble(0, 2e4)});
      sks.push_back(1 + rng.Uniform(256));
    }
    Header("E13e: snapshot serving (8 mmap shards, " +
               std::to_string(kPerThread) + " queries/thread)",
           {"reader threads", "total queries", "wall ms", "kqueries/s"});
    for (int nthreads : {1, 2, 4, 8}) {
      double wall_us = WallMicros([&] {
        std::vector<std::thread> readers;
        readers.reserve(nthreads);
        for (int t = 0; t < nthreads; ++t) {
          readers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
              int q = (i + t * 131) % kPerThread;  // decorrelate threads
              Must((*snap)
                       ->TopK(sranges[q][0], sranges[q][1], sks[q])
                       .status());
            }
          });
        }
        for (std::thread& th : readers) th.join();
      });
      const double total = static_cast<double>(nthreads) * kPerThread;
      Row({U(nthreads), U(static_cast<std::uint64_t>(total)),
           D(wall_us / 1000.0), D(total / (wall_us / 1e3))});
    }
    RecordIoStats("snapshot serving", (*snap)->AggregatedIoStats());
  }

  // E13f: durability modes. The same batched insert stream under
  // checkpoint-only durability, group-committed WAL (page-cache
  // durability: survives SIGKILL), and WAL + fsync-per-batch (power-loss
  // durability) — update throughput, log/barrier counts, and the recovery
  // cost including tail replay. The WAL modes CRASH after the last
  // acknowledged batch (no final checkpoint) and still recover every
  // update; checkpoint-only cannot survive that crash at all (recovery
  // after in-place inter-checkpoint writes is unguaranteed without the
  // log), so its leg must checkpoint before shutting down — which is
  // precisely the window the WAL removes.
  {
    Header("E13f: durability modes (4 shards, " + std::to_string(4096) +
               " batched updates, crash, recover)",
           {"mode", "kupdates/s", "wal appends", "fsyncs", "recover ms",
            "replayed records", "recovered updates"});
    Rng rng(17);
    auto points = RandomPoints(&rng, 1u << 14);
    auto extra = RandomPoints(&rng, 4096, 1e6);  // distinct domain half
    for (Point& p : extra) {
      p.x += 2e6;
      p.score += 2.0;
    }
    struct ModeCfg {
      const char* name;
      engine::Durability durability;
    };
    for (const ModeCfg& mode :
         {ModeCfg{"ckpt-only (clean shutdown)",
                  engine::Durability::kCheckpoint},
          ModeCfg{"wal (SIGKILL)", engine::Durability::kWal},
          ModeCfg{"wal+fsync (SIGKILL)",
                  engine::Durability::kWalFsyncEveryBatch}}) {
      fs::path mdir = dir / (std::string("dur-") + mode.name);
      fs::create_directories(mdir);
      engine::EngineOptions opts;
      opts.num_shards = 4;
      opts.threads = 4;
      opts.em.block_words = 256;
      opts.em.pool_frames = 64;
      opts.storage_dir = mdir.string();
      opts.durability = mode.durability;
      double apply_us = 0;
      em::IoStats update_io;
      {
        auto built = engine::ShardedTopkEngine::Build(points, opts);
        TOKRA_CHECK(built.ok());
        // WAL modes checkpoint inside Build; checkpoint-only needs one so
        // its recovery has a base at all.
        if (mode.durability == engine::Durability::kCheckpoint) {
          Must((*built)->Checkpoint());
        }
        em::IoStats before = (*built)->AggregatedIoStats();
        apply_us = WallMicros([&] {
          std::vector<engine::Request> batch;
          std::vector<engine::Response> out;
          for (std::size_t i = 0; i < extra.size(); i += 256) {
            batch.clear();
            for (std::size_t j = i; j < std::min(i + 256, extra.size()); ++j) {
              batch.push_back(engine::Request::MakeInsert(extra[j]));
            }
            (*built)->ExecuteBatch(batch, &out);
            for (const auto& r : out) Must(r.status);
          }
        });
        update_io = (*built)->AggregatedIoStats() - before;
        // Checkpoint-only pays for its durability with a mandatory clean
        // shutdown; the WAL modes just die.
        if (!opts.WalEnabled()) Must((*built)->Checkpoint());
      }  // WAL modes: destroyed without a final checkpoint — the crash

      engine::RecoveryReport report;
      StatusOr<std::unique_ptr<engine::ShardedTopkEngine>> recovered =
          Status::Internal("unset");
      double rec_us = WallMicros(
          [&] { recovered = engine::ShardedTopkEngine::Recover(opts, &report); });
      Must(recovered.status());
      const std::uint64_t recovered_updates =
          (*recovered)->size() - points.size();
      TOKRA_CHECK(recovered_updates == extra.size());
      Row({mode.name,
           D(static_cast<double>(extra.size()) / (apply_us / 1e3)),
           U(update_io.wal_appends), U(update_io.fsyncs),
           D(rec_us / 1000.0), U(report.replayed_records),
           U(recovered_updates)});
      RecordIoStats(std::string("durability ") + mode.name + " updates",
                    update_io);
    }
  }

  fs::remove_all(dir);
  std::printf(
      "\nShape check: E13a rows identical (incl. fingerprints); E13b mmap "
      "fastest warm; "
      "E13e kqueries/s grows with reader threads; E13f the wal modes "
      "survive a SIGKILL with zero lost updates (checkpoint-only needs a "
      "clean shutdown) at a modest append cost.\n");
  return 0;
}
