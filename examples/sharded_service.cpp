// Sharded service demo: a ShardedTopkEngine serving a concurrent mix of
// queries and updates through the batching front end, with skewed traffic
// and the rebalance hook.
//
//   cmake --build build && ./build/sharded_service
//
// Flags:
//   --stats-interval=N   dump the Prometheus metrics exposition every N
//                        seconds while the concurrent phase runs (0 = off,
//                        the default; a final dump always prints).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "em/wal_tail.h"
#include "engine/batcher.h"
#include "engine/sharded_engine.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace tokra;
  using engine::Request;
  using engine::Response;

  int stats_interval_s = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--stats-interval=", 17) == 0) {
      stats_interval_s = std::atoi(argv[i] + 17);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  // 8 shards, 4 worker threads; each shard is a private EM machine.
  engine::EngineOptions opts;
  opts.num_shards = 8;
  opts.threads = 4;
  opts.em = em::EmOptions{.block_words = 256, .pool_frames = 32};
  opts.rebalance_skew = 1.2;
  opts.rebalance_min_points = 1024;
  // Low slow-query bar for the demo: the shutdown dump should actually have
  // span trees to show (production would sit at milliseconds).
  opts.telemetry.slow_query_us = 500;

  // 50,000 random points: x in [0, 1e6), distinct scores.
  Rng rng(42);
  auto xs = rng.DistinctDoubles(50000, 0.0, 1e6);
  auto scores = rng.DistinctDoubles(50000, 0.0, 1.0);
  std::vector<Point> points(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    points[i] = Point{xs[i], scores[i]};
  }

  auto built = engine::ShardedTopkEngine::Build(points, opts);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  auto& eng = *built;
  std::printf("engine: %llu points over %u shards (%llu blocks total)\n",
              static_cast<unsigned long long>(eng->size()),
              eng->num_shards(),
              static_cast<unsigned long long>(eng->BlocksInUse()));
  std::printf("shard sizes:");
  for (auto s : eng->ShardSizes()) {
    std::printf(" %llu", static_cast<unsigned long long>(s));
  }
  std::printf("\n");

  // A cross-shard query with per-query observability.
  engine::EngineQueryStats qstats;
  auto top = eng->TopK(1e5, 9e5, 10, &qstats);
  if (!top.ok()) {
    std::fprintf(stderr, "query failed: %s\n", top.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntop-10 in [1e5, 9e5]: %u shards fanned out, "
              "%llu candidates merged via %llu heap visits, %llu I/Os\n",
              qstats.shards_queried,
              static_cast<unsigned long long>(qstats.shard_candidates),
              static_cast<unsigned long long>(qstats.merge_nodes_visited),
              static_cast<unsigned long long>(qstats.io.TotalIos()));
  for (const Point& p : *top) {
    std::printf("  x=%12.3f  score=%.6f\n", p.x, p.score);
  }

  // Concurrent clients through the batching front end. The batcher groups
  // each batch's updates by shard (one lock acquisition per shard) and fans
  // queries out afterwards; auto_rebalance runs the skew hook per batch.
  engine::RequestBatcher batcher(eng.get(), /*max_pending=*/128,
                                 /*auto_rebalance=*/true);

  // --stats-interval=N: a background exporter dumping the full metrics
  // exposition every N seconds (what a real service would scrape).
  std::mutex stats_mu;
  std::condition_variable stats_cv;
  bool stats_stop = false;
  std::thread stats_thread;
  if (stats_interval_s > 0) {
    stats_thread = std::thread([&] {
      std::unique_lock<std::mutex> lk(stats_mu);
      while (!stats_cv.wait_for(lk, std::chrono::seconds(stats_interval_s),
                                [&] { return stats_stop; })) {
        std::string dump = eng->DumpMetrics();
        std::printf("\n---- periodic metrics ----\n%s----\n", dump.c_str());
      }
    });
  }

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 2000;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(100 + c);
      std::vector<std::future<Response>> futs;
      for (int i = 0; i < kOpsPerClient; ++i) {
        if (i % 4 == 0) {
          // Adversarial skew: all inserts land beyond the old key space,
          // i.e. in the last shard's range.
          Point p{1e6 + c * 1e5 + i, 2.0 + c + i * 1e-6};
          futs.push_back(batcher.Submit(Request::MakeInsert(p)));
        } else {
          double lo = crng.UniformDouble(0.0, 1e6);
          futs.push_back(batcher.Submit(Request::MakeTopk(lo, lo + 1e4, 5)));
        }
      }
      batcher.Flush();
      for (auto& f : futs) {
        Response r = f.get();
        if (!r.status.ok()) {
          std::fprintf(stderr, "request failed: %s\n",
                       r.status.ToString().c_str());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  batcher.Flush();
  if (stats_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lk(stats_mu);
      stats_stop = true;
    }
    stats_cv.notify_all();
    stats_thread.join();
  }

  auto counters = eng->counters();
  auto bstats = batcher.stats();
  std::printf("\nserved %llu queries, %llu inserts in %llu batches "
              "(%llu auto-rebalances)\n",
              static_cast<unsigned long long>(counters.queries),
              static_cast<unsigned long long>(counters.inserts),
              static_cast<unsigned long long>(bstats.batches),
              static_cast<unsigned long long>(bstats.auto_rebalances));
  std::printf("shard sizes after skewed inserts + rebalance hook:");
  for (auto s : eng->ShardSizes()) {
    std::printf(" %llu", static_cast<unsigned long long>(s));
  }
  em::IoStats io = eng->AggregatedIoStats();
  std::printf("\naggregate I/O: %s\n", io.ToString().c_str());

  eng->CheckInvariants();
  std::printf("invariants OK\n");

  // ---- shutdown telemetry dump ------------------------------------------
  // The full exposition (every counter, gauge, and histogram summary) plus
  // whatever the slow-query log caught: each entry is the query's span tree
  // with per-shard I/O deltas — the "why was THAT one slow" artifact.
  std::printf("\n---- final metrics ----\n%s", eng->DumpMetrics().c_str());
  if (eng->slow_query_log() != nullptr) {
    std::printf("\n---- slow queries (> %llu us): %llu captured ----\n%s",
                static_cast<unsigned long long>(opts.telemetry.slow_query_us),
                static_cast<unsigned long long>(
                    eng->slow_query_log()->captured()),
                eng->slow_query_log()->Dump().c_str());
  }

  // ---- durability: checkpoint -> "restart" -> recover -------------------
  // A file-backed engine persists across process restarts: each shard runs
  // on its own backing file, Checkpoint() records everything through the
  // pager superblocks, and Recover() reopens the whole engine without
  // rebuilding any index.
  namespace fs = std::filesystem;
  fs::path store = fs::temp_directory_path() /
                   ("tokra-sharded-service-" + std::to_string(::getpid()));
  fs::create_directories(store);
  engine::EngineOptions popts;
  popts.num_shards = 4;
  popts.threads = 4;
  popts.em = em::EmOptions{.block_words = 256, .pool_frames = 32};
  popts.storage_dir = store.string();

  Rng prng(7);
  auto pxs = prng.DistinctDoubles(5000, 0.0, 1e6);
  auto pscores = prng.DistinctDoubles(5000, 0.0, 1.0);
  std::vector<Point> ppoints(pxs.size());
  for (std::size_t i = 0; i < pxs.size(); ++i) {
    ppoints[i] = Point{pxs[i], pscores[i]};
  }

  std::vector<std::vector<Point>> answers;
  {
    auto durable = engine::ShardedTopkEngine::Build(ppoints, popts);
    if (!durable.ok()) {
      std::fprintf(stderr, "durable build failed: %s\n",
                   durable.status().ToString().c_str());
      return 1;
    }
    for (int i = 0; i < 50; ++i) {
      double lo = prng.UniformDouble(0.0, 9e5);
      auto r = (*durable)->TopK(lo, lo + 1e5, 10);
      if (!r.ok()) return 1;
      answers.push_back(std::move(*r));
    }
    if (!(*durable)->Checkpoint().ok()) {
      std::fprintf(stderr, "checkpoint failed\n");
      return 1;
    }
  }  // engine destroyed here: simulates a process restart

  auto recovered = engine::ShardedTopkEngine::Recover(popts);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  Rng vrng(7);
  vrng.DistinctDoubles(5000, 0.0, 1e6);   // replay the rng to the same
  vrng.DistinctDoubles(5000, 0.0, 1.0);   // query sequence
  for (int i = 0; i < 50; ++i) {
    double lo = vrng.UniformDouble(0.0, 9e5);
    auto r = (*recovered)->TopK(lo, lo + 1e5, 10);
    if (!r.ok() || *r != answers[i]) {
      std::fprintf(stderr, "recovered engine diverged on query %d\n", i);
      return 1;
    }
  }
  (*recovered)->CheckInvariants();
  std::printf("\ncheckpointed %llu points to %s, recovered after restart: "
              "50/50 queries byte-identical\n",
              static_cast<unsigned long long>((*recovered)->size()),
              store.string().c_str());
  recovered->reset();  // close the live engine; the files remain

  // ---- read-only snapshot serving ---------------------------------------
  // The same directory can be served without a write lock in sight:
  // OpenSnapshot maps every shard file immutably (zero-copy mmap reads,
  // per-handle concurrency) and never writes a byte — the same call works
  // on a copy shipped to a replica machine.
  auto snap = engine::ShardedTopkEngine::OpenSnapshot(popts);
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot open failed: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }
  Rng srng(7);
  srng.DistinctDoubles(5000, 0.0, 1e6);
  srng.DistinctDoubles(5000, 0.0, 1.0);
  for (int i = 0; i < 50; ++i) {
    double lo = srng.UniformDouble(0.0, 9e5);
    auto r = (*snap)->TopK(lo, lo + 1e5, 10);
    if (!r.ok() || *r != answers[i]) {
      std::fprintf(stderr, "snapshot diverged on query %d\n", i);
      return 1;
    }
  }
  if ((*snap)->Insert(Point{2e6, 7.0}).ok()) {
    std::fprintf(stderr, "snapshot accepted a write\n");
    return 1;
  }
  em::IoStats sio = (*snap)->AggregatedIoStats();
  std::printf("snapshot serving from the same files: 50/50 queries "
              "byte-identical, writes refused, %llu of %llu reads "
              "zero-copy\n",
              static_cast<unsigned long long>(sio.borrows),
              static_cast<unsigned long long>(sio.reads));
  fs::remove_all(store);

  // ---- write-ahead logging: SIGKILL mid-load, zero lost updates ---------
  // Under durability=kWal every acknowledged update batch is group-
  // committed to its shard's log before the acknowledgement, so a child
  // process killed with SIGKILL in the middle of a load — no destructors,
  // no flush — loses nothing that was acknowledged: Recover() rolls torn
  // writes back to the last checkpoint and replays the log tail.
  fs::path wstore = fs::temp_directory_path() /
                    ("tokra-sharded-wal-" + std::to_string(::getpid()));
  fs::remove_all(wstore);
  fs::create_directories(wstore);
  engine::EngineOptions wopts;
  wopts.num_shards = 4;
  wopts.threads = 4;
  wopts.em = em::EmOptions{.block_words = 256, .pool_frames = 32};
  wopts.storage_dir = wstore.string();
  wopts.durability = engine::Durability::kWal;

  Rng wrng(11);
  auto wxs = wrng.DistinctDoubles(8000, 0.0, 1e6);
  auto wscores = wrng.DistinctDoubles(8000, 0.0, 1.0);
  std::vector<Point> wpoints(wxs.size());
  for (std::size_t i = 0; i < wxs.size(); ++i) {
    wpoints[i] = Point{wxs[i], wscores[i]};
  }

  int progress[2];
  if (::pipe(progress) != 0) return 1;
  const pid_t child = ::fork();
  if (child == 0) {
    // Child: build (kWal checkpoints inside Build, arming the guarantee),
    // then stream acknowledged insert batches forever, reporting each
    // acknowledged count up the pipe. The parent SIGKILLs us mid-stream.
    ::close(progress[0]);
    auto loaded = engine::ShardedTopkEngine::Build(wpoints, wopts);
    if (!loaded.ok()) ::_exit(2);
    std::uint32_t acked = 0;
    std::vector<Request> batch;
    std::vector<Response> out;
    for (std::uint32_t b = 0;; ++b) {
      batch.clear();
      for (std::uint32_t j = 0; j < 64; ++j) {
        const std::uint32_t k = b * 64 + j;
        batch.push_back(
            Request::MakeInsert(Point{2e6 + k, 2.0 + k * 1e-6}));
      }
      (*loaded)->ExecuteBatch(batch, &out);
      for (const Response& r : out) {
        if (!r.status.ok()) ::_exit(3);
      }
      acked += 64;  // these futures resolved: every one is acknowledged
      if (::write(progress[1], &acked, sizeof(acked)) !=
          static_cast<ssize_t>(sizeof(acked))) {
        ::_exit(4);
      }
    }
  }
  ::close(progress[1]);
  std::uint32_t acked = 0, last_acked = 0;
  while (::read(progress[0], &acked, sizeof(acked)) ==
         static_cast<ssize_t>(sizeof(acked))) {
    last_acked = acked;
    if (last_acked >= 64 * 40) break;  // mid-load, well past the checkpoint
  }
  ::kill(child, SIGKILL);  // no shutdown path runs: the real crash
  int wstatus = 0;
  ::waitpid(child, &wstatus, 0);
  ::close(progress[0]);
  if (last_acked == 0) {
    std::fprintf(stderr, "wal demo: child died before acknowledging\n");
    return 1;
  }

  engine::RecoveryReport report;
  auto walrec = engine::ShardedTopkEngine::Recover(wopts, &report);
  if (!walrec.ok()) {
    std::fprintf(stderr, "wal recover failed: %s\n",
                 walrec.status().ToString().c_str());
    return 1;
  }
  // Every acknowledged insert carries x = 2e6 + k for k < last_acked; a
  // range query over exactly that window must find all of them.
  auto survivors =
      (*walrec)->TopK(2e6, 2e6 + last_acked - 0.5, last_acked + 64);
  if (!survivors.ok() || survivors->size() < last_acked) {
    std::fprintf(stderr, "wal demo LOST updates: acknowledged %u, found %zu\n",
                 last_acked, survivors.ok() ? survivors->size() : 0);
    return 1;
  }
  (*walrec)->CheckInvariants();
  std::printf("\nWAL crash demo: SIGKILL after %u acknowledged inserts, "
              "recovered %llu points (%llu log records replayed): "
              "zero acknowledged updates lost\n",
              last_acked,
              static_cast<unsigned long long>((*walrec)->size()),
              static_cast<unsigned long long>(report.replayed_records));

  // ---- replication: shipped snapshot + log tail = caught-up replica -----
  // Checkpoint the primary (stamping each shard's covered LSN), ship the
  // shard files, let the primary accept more updates, then ship only the
  // log tails: the follower applies every record past the stamp through
  // em::WalReader + DecodeWalOps and converges on the primary's state.
  std::vector<std::uint64_t> covered;
  if (!(*walrec)->Checkpoint(&covered).ok()) return 1;
  fs::path replica_dir = wstore.string() + "-replica";
  fs::remove_all(replica_dir);
  fs::create_directories(replica_dir);
  for (std::uint32_t i = 0; i < wopts.num_shards; ++i) {
    const std::string name = "shard-" + std::to_string(i) + ".tokra";
    fs::copy_file(wstore / name, replica_dir / name);
  }

  // Primary moves on: more acknowledged updates land in its logs only.
  const std::uint64_t primary_before = (*walrec)->size();
  for (int i = 0; i < 500; ++i) {
    if (!(*walrec)->Insert(Point{3e6 + i, 4.0 + i * 1e-3}).ok()) return 1;
  }
  std::vector<Point> primary_answer;
  {
    auto r = (*walrec)->TopK(-1e18, 1e18, 25);
    if (!r.ok()) return 1;
    primary_answer = std::move(*r);
  }
  const std::uint64_t primary_size = (*walrec)->size();
  walrec->reset();  // primary closed; its logs are quiescent for shipping

  engine::EngineOptions ropts = wopts;
  ropts.storage_dir = replica_dir.string();
  ropts.durability = engine::Durability::kCheckpoint;  // copy has no logs
  auto follower = engine::ShardedTopkEngine::Recover(ropts);
  if (!follower.ok()) {
    std::fprintf(stderr, "replica open failed: %s\n",
                 follower.status().ToString().c_str());
    return 1;
  }
  if ((*follower)->size() != primary_before) return 1;
  std::uint64_t shipped_records = 0, shipped_ops = 0;
  for (std::uint32_t i = 0; i < wopts.num_shards; ++i) {
    // The position-remembering tail poller (start_after = the stamp the
    // snapshot already covers). One Poll drains a quiescent log; a live
    // replica would keep calling Poll and only ever pay for new records.
    em::WalTailFollower tail(em::WalTailFollower::Options{
        .path = (wstore / ("shard-" + std::to_string(i) + ".wal")).string(),
        .block_words = wopts.em.block_words,
        .start_after = covered[i]});
    auto shipped = tail.Poll([&](const em::WriteAheadLog::Record& rec,
                                 std::span<const em::word_t> payload)
                                 -> Status {
      if (rec.type != em::WriteAheadLog::RecordType::kLogical) {
        return Status::Ok();
      }
      auto ops = engine::DecodeWalOps(payload);
      if (!ops.ok()) return ops.status();
      for (const engine::WalOp& op : *ops) {
        Status st = op.insert ? (*follower)->Insert(op.p)
                              : (*follower)->Delete(op.p);
        TOKRA_RETURN_IF_ERROR(st);
      }
      ++shipped_records;
      shipped_ops += ops->size();
      return Status::Ok();
    });
    if (!shipped.ok()) return 1;
  }
  auto follower_answer = (*follower)->TopK(-1e18, 1e18, 25);
  if (!follower_answer.ok() || *follower_answer != primary_answer ||
      (*follower)->size() != primary_size) {
    std::fprintf(stderr, "replica diverged from primary\n");
    return 1;
  }
  (*follower)->CheckInvariants();
  std::printf("replica demo: snapshot (%llu points) + %llu shipped log "
              "records (%llu ops) = caught-up follower, byte-identical "
              "answers\n",
              static_cast<unsigned long long>(primary_before),
              static_cast<unsigned long long>(shipped_records),
              static_cast<unsigned long long>(shipped_ops));
  fs::remove_all(wstore);
  fs::remove_all(replica_dir);
  return 0;
}
