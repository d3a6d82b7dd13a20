#include "engine/sharded_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "engine/merge.h"
#include "util/check.h"
#include "util/fsync_dir.h"

namespace tokra::engine {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Side-file suffix used by in-place shard rebuilds (Rebalance). Applies to
/// both the shard file and, under a WAL durability mode, its log.
constexpr char kRebuildSuffix[] = ".rebuild";

/// Span slots the tracer ring retains (a power of two) and entries the
/// slow-query log retains (oldest evicted).
constexpr std::size_t kTraceCapacity = 4096;
constexpr std::size_t kSlowQueryCapacity = 64;

/// Refuses to serve shard `shard` of `storage_dir` WITHOUT its log when
/// the log holds ANY record past `stamp`: logical records are acknowledged
/// updates a WAL-less open would hide, and pre-images are evidence of torn
/// in-place home writes that only the undo pass can repair. A cleanly
/// checkpointed shard has nothing past its stamp (the stamp is taken after
/// the checkpoint's own guards), so this never fires spuriously. A missing
/// or not-yet-formatted log (kNotFound) holds no records; an unreadable log
/// is refused — its tail is unknowable.
Status RequireNoWalTail(const EngineOptions& options, std::uint32_t shard,
                        std::uint64_t stamp, const std::string& context) {
  auto reader =
      em::WalReader::Open(options.ShardWalPath(shard), options.em.block_words);
  if (reader.status().code() == StatusCode::kNotFound) return Status::Ok();
  if (!reader.ok()) {
    return Status::FailedPrecondition(
        context + ": shard " + std::to_string(shard) +
        " has an unreadable WAL; run Recover() under a WAL durability "
        "mode first");
  }
  const auto& recs = (*reader)->records();
  const bool tail = std::any_of(recs.begin(), recs.end(), [&](const auto& r) {
    return r.lsn > stamp;
  });
  if (tail) {
    return Status::FailedPrecondition(
        context + ": shard " + std::to_string(shard) +
        " has a WAL tail past its checkpoint (unreplayed updates and/or "
        "torn in-place writes); run Recover() under a WAL durability mode "
        "first");
  }
  return Status::Ok();
}

/// Every point of `index`, score-descending: the one O(n_i/B) scan each
/// reopened shard pays to refill the registry and rebuild its fence.
StatusOr<std::vector<Point>> ScanShard(const core::TopkIndex& index) {
  const std::uint64_t n = index.size();
  if (n == 0) return std::vector<Point>{};
  TOKRA_ASSIGN_OR_RETURN(auto r, index.TopK(-kInf, kInf, n));
  if (r.size() != n) return Status::Internal("shard scan lost points");
  return r;
}

const char* BackendName(em::Backend b) {
  switch (b) {
    case em::Backend::kMem: return "mem";
    case em::Backend::kFile: return "file";
    case em::Backend::kMmap: return "mmap";
  }
  return "unknown";
}

}  // namespace

std::vector<em::word_t> EncodeWalOps(std::span<const WalOp> ops) {
  std::vector<em::word_t> payload;
  payload.reserve(1 + 3 * ops.size());
  payload.push_back(ops.size());
  for (const WalOp& op : ops) {
    payload.push_back(op.insert ? 1 : 0);
    payload.push_back(std::bit_cast<em::word_t>(op.p.x));
    payload.push_back(std::bit_cast<em::word_t>(op.p.score));
  }
  return payload;
}

StatusOr<std::vector<WalOp>> DecodeWalOps(
    std::span<const em::word_t> payload) {
  // Bound the count before the equality check: a crafted count can make
  // 1 + 3*count wrap modulo 2^64 to the actual size, and the vector
  // constructor below would then terminate on length_error instead of
  // this returning the malformed-record error.
  if (payload.empty() || payload[0] > (payload.size() - 1) / 3 ||
      payload.size() != 1 + 3 * payload[0]) {
    return Status::Internal("malformed WAL update record");
  }
  std::vector<WalOp> ops(payload[0]);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const em::word_t kind = payload[1 + 3 * i];
    if (kind > 1) return Status::Internal("malformed WAL update record");
    ops[i].insert = kind == 1;
    ops[i].p.x = std::bit_cast<double>(payload[2 + 3 * i]);
    ops[i].p.score = std::bit_cast<double>(payload[3 + 3 * i]);
  }
  return ops;
}

ShardedTopkEngine::ShardedTopkEngine(EngineOptions options)
    : options_(options), pool_(options.threads) {
  InitTelemetry();
}

void ShardedTopkEngine::InitTelemetry() {
  if (!options_.telemetry.enabled) return;
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  tracer_ = std::make_unique<obs::Tracer>(kTraceCapacity);
  slow_log_ = std::make_unique<obs::SlowQueryLog>(
      options_.telemetry.slow_query_us, kSlowQueryCapacity);
  obs::MetricsRegistry& r = *metrics_;
  // Naming convention (DESIGN.md §10): tokra_<subsystem>_<what>_<unit>;
  // per-stage histograms share one family with a stage label.
  mset_.query_latency_us = r.GetHistogram("tokra_engine_query_latency_us");
  mset_.stage_fanout_us =
      r.GetHistogram("tokra_engine_stage_us", "stage=\"fanout\"");
  mset_.stage_probe_us =
      r.GetHistogram("tokra_engine_stage_us", "stage=\"probe\"");
  mset_.stage_merge_us =
      r.GetHistogram("tokra_engine_stage_us", "stage=\"merge\"");
  mset_.stage_reply_us =
      r.GetHistogram("tokra_engine_stage_us", "stage=\"reply\"");
  mset_.update_latency_us = r.GetHistogram("tokra_engine_update_latency_us");
  mset_.batch_exec_us = r.GetHistogram("tokra_engine_batch_exec_us");
  mset_.admission_wait_us = r.GetHistogram("tokra_batcher_admission_wait_us");
  mset_.queue_depth = r.GetGauge("tokra_batcher_queue_depth");
  mset_.checkpoint_us = r.GetHistogram("tokra_engine_checkpoint_us");
  mset_.recover_us = r.GetHistogram("tokra_engine_recover_us");
  mset_.rebalance_us = r.GetHistogram("tokra_engine_rebalance_us");
  mset_.pool_task_wait_us = r.GetHistogram("tokra_pool_task_wait_us");
  mset_.pool_task_run_us = r.GetHistogram("tokra_pool_task_run_us");
  mset_.shards_pruned_total = r.GetCounter("tokra_engine_shards_pruned_total");
  mset_.fence_checks_total = r.GetCounter("tokra_engine_fence_checks_total");
  mset_.query_waves_total = r.GetCounter("tokra_engine_query_waves_total");
  mset_.view_publish_us = r.GetHistogram("tokra_engine_view_publish_us");
  mset_.view_advances_total =
      r.GetCounter("tokra_engine_view_advances_total");
  mset_.view_full_reloads_total =
      r.GetCounter("tokra_engine_view_full_reloads_total");
  mset_.em.eviction_stall_us = r.GetHistogram("tokra_em_eviction_stall_us");
  mset_.em.wal_append_us = r.GetHistogram("tokra_wal_append_us");
  mset_.em.wal_fsync_us = r.GetHistogram("tokra_wal_fsync_us");
  mset_.em.checkpoint_us = r.GetHistogram("tokra_em_checkpoint_us");
  // Every ShardEm(i) copy from here on carries the sink, so each shard's
  // pager, buffer pool, and WAL records into this registry.
  options_.em.metrics = &mset_.em;
  pool_.SetMetrics(mset_.pool_task_wait_us, mset_.pool_task_run_us);
}

std::string ShardedTopkEngine::DumpMetrics() const {
  if (metrics_ == nullptr) return {};
  obs::MetricsRegistry& r = *metrics_;
  // Refresh the exposition-only mirrors: service counters (kept as plain
  // atomics on the hot path) and the per-shard space accounting.
  const EngineCounters c = counters();
  r.GetGauge("tokra_engine_inserts_total")->Set(static_cast<std::int64_t>(c.inserts));
  r.GetGauge("tokra_engine_deletes_total")->Set(static_cast<std::int64_t>(c.deletes));
  r.GetGauge("tokra_engine_queries_total")->Set(static_cast<std::int64_t>(c.queries));
  r.GetGauge("tokra_engine_rejected_total")->Set(static_cast<std::int64_t>(c.rejected));
  r.GetGauge("tokra_engine_batches_total")->Set(static_cast<std::int64_t>(c.batches));
  r.GetGauge("tokra_engine_rebalances_total")->Set(static_cast<std::int64_t>(c.rebalances));
  em::SpaceStats space;
  std::uint64_t io_errors = 0, injected_faults = 0;
  std::int64_t failed_shards = 0;
  {
    std::shared_lock<std::shared_mutex> tl(topology_mu_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& sh = *shards_[i];
      const em::IoStats io = ShardIoStats(sh);
      io_errors += io.io_errors;
      injected_faults += io.injected_faults;
      // Per-shard Pager::Space() exposition: the gap between allocated and
      // file blocks is each shard's compactable high-water mark, and
      // file_blocks is what a replication bootstrap of this shard ships.
      const std::string shard_label = "shard=\"" + std::to_string(i) + "\"";
      em::SpaceStats s;
      {
        std::lock_guard<std::mutex> g(sh.mu);
        s = sh.pager->Space();
        if (!sh.pager->io_status().ok()) ++failed_shards;
        // The O(map) allocator image every checkpoint writes (a publish,
        // under mvcc): what a delta stream would shrink (ROADMAP item 3).
        r.GetGauge("tokra_pager_checkpoint_stream_words", shard_label)
            ->Set(static_cast<std::int64_t>(
                sh.pager->checkpoint_stream_words()));
        if (options_.mvcc) {
          // MVCC epoch health (DESIGN.md §14): the live (newest published)
          // epoch, how many distinct epochs readers still pin (a stuck pin
          // shows up as this gauge never draining), and the lifetime count
          // of superseded blocks retirement handed back to the free list.
          r.GetGauge("tokra_engine_live_epoch", shard_label)
              ->Set(static_cast<std::int64_t>(sh.pager->published_epoch()));
          r.GetGauge("tokra_engine_pinned_epochs", shard_label)
              ->Set(static_cast<std::int64_t>(sh.pager->PinnedEpochs()));
          r.GetGauge("tokra_pager_retired_blocks_total", shard_label)
              ->Set(static_cast<std::int64_t>(
                  sh.pager->retired_blocks_total()));
        }
      }
      r.GetGauge("tokra_pager_space_allocated_blocks", shard_label)
          ->Set(static_cast<std::int64_t>(s.allocated_blocks));
      r.GetGauge("tokra_pager_space_free_blocks", shard_label)
          ->Set(static_cast<std::int64_t>(s.free_blocks));
      r.GetGauge("tokra_pager_space_reserved_blocks", shard_label)
          ->Set(static_cast<std::int64_t>(s.reserved_blocks));
      r.GetGauge("tokra_pager_space_file_blocks", shard_label)
          ->Set(static_cast<std::int64_t>(s.file_blocks));
      space.allocated_blocks += s.allocated_blocks;
      space.free_blocks += s.free_blocks;
      space.reserved_blocks += s.reserved_blocks;
      space.file_blocks += s.file_blocks;
    }
  }
  // Failure surfacing: the sticky error counts per backend and how many
  // shards have left service. A non-zero failed_shards is the operator
  // signal that availability is degraded even while queries on the healthy
  // shards keep answering.
  const std::string backend_label =
      std::string("backend=\"") + BackendName(options_.em.backend) + "\"";
  r.GetGauge("tokra_em_io_errors_total", backend_label)
      ->Set(static_cast<std::int64_t>(io_errors));
  r.GetGauge("tokra_em_injected_faults_total", backend_label)
      ->Set(static_cast<std::int64_t>(injected_faults));
  r.GetGauge("tokra_engine_failed_shards")->Set(failed_shards);
  r.GetGauge("tokra_engine_space_blocks", "kind=\"allocated\"")
      ->Set(static_cast<std::int64_t>(space.allocated_blocks));
  r.GetGauge("tokra_engine_space_blocks", "kind=\"free\"")
      ->Set(static_cast<std::int64_t>(space.free_blocks));
  r.GetGauge("tokra_engine_space_blocks", "kind=\"reserved\"")
      ->Set(static_cast<std::int64_t>(space.reserved_blocks));
  r.GetGauge("tokra_engine_space_blocks", "kind=\"file\"")
      ->Set(static_cast<std::int64_t>(space.file_blocks));
  return r.DumpMetrics();
}

StatusOr<std::unique_ptr<ShardedTopkEngine>> ShardedTopkEngine::Build(
    std::vector<Point> points, EngineOptions options) {
  options.Validate();
  auto engine =
      std::unique_ptr<ShardedTopkEngine>(new ShardedTopkEngine(options));
  // Global distinctness check; fills the registry.
  for (const Point& p : points) {
    if (!engine->by_x_.emplace(p.x, p.score).second) {
      return Status::InvalidArgument("duplicate x coordinate");
    }
    if (!engine->scores_.insert(p.score).second) {
      return Status::InvalidArgument("duplicate score");
    }
  }
  TOKRA_RETURN_IF_ERROR(engine->BuildShardsLocked(std::move(points)));
  if (options.WalEnabled()) {
    // The zero-loss guarantee starts at the first checkpoint (there is no
    // base state to replay onto before one), so take it now: every update
    // acknowledged after Build returns is already WAL-protected.
    TOKRA_RETURN_IF_ERROR(engine->Checkpoint());
  }
  return engine;
}

Status ShardedTopkEngine::BuildShardsLocked(std::vector<Point> points) {
  const std::uint32_t s = options_.num_shards;
  const std::size_t n = points.size();
  std::sort(points.begin(), points.end(), ByXAsc{});

  // Build into locals and commit only on full success, so a failed shard
  // build (e.g. mid-Rebalance) leaves the previous topology intact instead
  // of a shards_ array shorter than lower_bounds_.
  std::vector<double> bounds(s, -kInf);
  for (std::uint32_t i = 1; i < s; ++i) {
    if (n == 0) {
      bounds[i] = static_cast<double>(i);  // arbitrary monotone split
    } else {
      std::size_t cut = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(i) * n) / s);
      bounds[i] = cut == 0 ? points[0].x
                           : (points[cut - 1].x + points[cut].x) / 2.0;
    }
  }
  auto shard_for = [&bounds](double x) {
    auto it = std::upper_bound(bounds.begin(), bounds.end(), x);
    if (it == bounds.begin()) return std::size_t{0};
    return static_cast<std::size_t>(it - bounds.begin()) - 1;
  };

  std::vector<std::vector<Point>> chunks(s);
  for (std::size_t i = 0; i < s; ++i) chunks[i].reserve(n / s + 1);
  for (const Point& p : points) chunks[shard_for(p.x)].push_back(p);

  // When file-backed shards already exist (Rebalance), never build onto the
  // live files: the fresh-pager constructor opens with O_TRUNC, which would
  // destroy the last completed checkpoint before the rebuild is known to
  // succeed. Build into `<path>.rebuild` side files instead and rename them
  // over the live files only after every shard has built and checkpointed.
  const bool rebuild_files = !options_.storage_dir.empty() && !shards_.empty();
  // Burn a generation per attempt (discard_side_files hands it back only on
  // a clean abort): an on-disk artifact of a failed attempt must never share
  // a generation with a later commit or checkpoint, or Recover()'s
  // roll-forward could splice two different topologies together.
  ++generation_;
  std::vector<std::string> tmp_paths(s), final_paths(s);

  std::vector<std::unique_ptr<Shard>> fresh;
  fresh.reserve(s);
  auto discard_side_files = [&] {
    fresh.clear();  // close the side files' fds before unlinking
    bool all_removed = true;
    for (const std::string& p : tmp_paths) {
      if (!p.empty() && std::remove(p.c_str()) != 0 && errno != ENOENT) {
        all_removed = false;
      }
    }
    if (all_removed) {
      // Clean abort: nothing at the burned generation survives, so hand it
      // back — otherwise a later plain Checkpoint() would write a generation
      // ahead of every shard's, and a crash partway through it would leave a
      // mixed-generation disk with no side files to roll forward.
      --generation_;
    } else {
      // A side file at the burned generation lingers on disk. Any further
      // checkpoint or rebuild in this process could collide with it, so
      // poison persistence; Recover() in a fresh process removes the
      // leftover (or refuses if it still cannot).
      storage_failed_ = true;
    }
  };
  for (std::uint32_t i = 0; i < s; ++i) {
    em::EmOptions em = options_.ShardEm(i);
    if (rebuild_files) {
      final_paths[i] = em.path;
      em.path += kRebuildSuffix;
      tmp_paths[i] = em.path;
      // Side files are built WITHOUT a log: creating one would truncate
      // the live shard's log while the old topology still needs its tail
      // (a crash before commit must replay it). The side checkpoint below
      // instead stamps the live log's current head as covered, so the
      // renamed file adopts the existing log with every record inert.
      em.wal_path.clear();
    }
    auto shard = std::make_unique<Shard>(em);
    // Fresh fence per (re)build: rebuilds are where stale slot maxima and
    // grown-loose key bounds are tightened back to exact.
    shard->fence = sketch::ShardFence::Build(chunks[i]);
    auto idx = core::TopkIndex::Build(shard->pager.get(),
                                      std::move(chunks[i]), options_.index);
    if (!idx.ok()) {
      discard_side_files();
      return idx.status();
    }
    shard->index = std::move(*idx);
    fresh.push_back(std::move(shard));
  }

  if (rebuild_files) {
    // Checkpoint every side file (new bound + topology + generation) before
    // any rename: each file that reaches its live name is individually
    // recoverable, and a crash at any point in the rename loop leaves
    // Recover() able to roll the commit forward from the remaining side
    // files.
    for (std::uint32_t i = 0; i < s; ++i) {
      if (options_.WalEnabled()) {
        // Adopt-by-stamp: shard i's replacement will serve shard-i.wal.
        // Its checkpoint covers everything that log currently holds (the
        // rebuild snapshot includes every applied update), so stamp the
        // log's head; we hold the topology lock exclusively, so the head
        // cannot move under us.
        em::WriteAheadLog* live_wal = shards_[i]->pager->wal();
        TOKRA_CHECK(live_wal != nullptr);
        fresh[i]->pager->OverrideWalCheckpointLsn(live_wal->head_lsn());
      }
      const std::uint64_t extra[kShardCheckpointRoots - 1] = {
          std::bit_cast<std::uint64_t>(bounds[i]), s, generation_};
      Status st = fresh[i]->index->Checkpoint(extra);
      if (!st.ok()) {
        discard_side_files();
        return st;
      }
    }
    // Every side file's directory entry must be durable BEFORE the first
    // rename can commit: otherwise a crash in the rename window could
    // persist an early rename (new generation visible) while losing a
    // later side file's dirent, leaving a mix Recover() cannot roll
    // forward.
    if (options_.em.durable_sync) {
      TOKRA_CHECK(FsyncDir(options_.storage_dir));
    }
    for (std::uint32_t i = 0; i < s; ++i) {
      if (std::rename(tmp_paths[i].c_str(), final_paths[i].c_str()) != 0) {
        // The disk now mixes generations and this process cannot reconcile
        // it (earlier renames replaced live files whose old inodes survive
        // only as our open fds). Keep serving the old in-memory topology,
        // but poison persistence: Checkpoint() must not acknowledge
        // durability that a restart would discard. The un-renamed side
        // files are left in place — Recover() in a fresh process rolls the
        // commit forward from them.
        storage_failed_ = true;
        return Status::Internal("rebalance rename failed: " + tmp_paths[i] +
                                " -> " + final_paths[i]);
      }
    }
    if (options_.em.durable_sync) {
      TOKRA_CHECK(FsyncDir(options_.storage_dir));
    }
    // The replaced shards (dropped below) still hold fds on the unlinked
    // previous inodes; their storage is released with them.
    //
    // Under a WAL mode the committed files must now be served by pagers
    // that own their logs again (the side builds deliberately had none):
    // reopen each shard from its live name. The adopt-by-stamp makes the
    // attach a no-op recovery — every existing record is at or below the
    // stamped head, so nothing is undone or replayed, and appends simply
    // continue past it.
    if (options_.WalEnabled()) {
      for (std::uint32_t i = 0; i < s; ++i) {
        fresh[i]->index.reset();
        fresh[i]->pager.reset();  // release the renamed fd before reopening
        auto reopened = em::Pager::Open(options_.ShardEm(i));
        if (!reopened.ok()) {
          storage_failed_ = true;
          return reopened.status();
        }
        fresh[i]->pager = std::move(*reopened);
        auto idx = core::TopkIndex::Open(fresh[i]->pager.get());
        if (!idx.ok()) {
          storage_failed_ = true;
          return idx.status();
        }
        fresh[i]->index = std::move(*idx);
      }
    }
    // Every fresh shard was just checkpointed (side file, then renamed),
    // so its live file already holds exactly this state: clean.
    for (auto& shard : fresh) {
      shard->dirty.store(false, std::memory_order_relaxed);
    }
  }
  shards_ = std::move(fresh);
  lower_bounds_ = std::move(bounds);
  // MVCC: publish each new shard's first epoch view now, so queries go
  // lock-free from the first request instead of waiting for a checkpoint.
  // (Failures leave view null; those shards serve via the locked fallback.)
  if (options_.mvcc) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::lock_guard<std::mutex> g(shards_[i]->mu);
      PublishShardLocked(i, *shards_[i]);
    }
  }
  return Status::Ok();
}

std::size_t ShardedTopkEngine::ShardFor(double x) const {
  auto it = std::upper_bound(lower_bounds_.begin(), lower_bounds_.end(), x);
  // lower_bounds_[0] is -inf, so `it` is never begin() for any x >= -inf;
  // x == -inf also lands on shard 0 because -inf is not > -inf.
  if (it == lower_bounds_.begin()) return 0;
  return static_cast<std::size_t>(it - lower_bounds_.begin()) - 1;
}

Status ShardedTopkEngine::InsertLocked(Shard& sh, const Point& p,
                                       std::vector<WalOp>* group) {
  {
    std::lock_guard<std::mutex> rg(registry_mu_);
    if (by_x_.count(p.x) != 0) {
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::AlreadyExists("duplicate x coordinate");
    }
    if (scores_.count(p.score) != 0) {
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::AlreadyExists("duplicate score");
    }
    by_x_.emplace(p.x, p.score);
    scores_.insert(p.score);
  }
  Status st = sh.index->Insert(p);
  if (st.ok()) {
    FenceApply(sh, /*insert=*/true, p);
    sh.dirty.store(true, std::memory_order_relaxed);
    n_inserts_.fetch_add(1, std::memory_order_relaxed);
    // Apply-then-log: the record reaches the log (and, per mode, the disk)
    // before the caller acknowledges the op, which is all the zero-loss
    // contract needs. A crash in the apply-to-log window loses only ops
    // nobody was told about — recovery rolls the torn apply back to the
    // checkpoint and replays the logged prefix.
    if (options_.WalEnabled()) {
      const WalOp op{true, p};
      if (group != nullptr) {
        group->push_back(op);
      } else if (Status ls = LogShardOps(sh, {&op, 1}); !ls.ok()) {
        RollbackShardOps(sh, {&op, 1});
        return ls;
      }
    }
  } else {
    std::lock_guard<std::mutex> rg(registry_mu_);
    by_x_.erase(p.x);
    scores_.erase(p.score);
  }
  return st;
}

Status ShardedTopkEngine::DeleteLocked(Shard& sh, const Point& p,
                                       std::vector<WalOp>* group) {
  {
    std::lock_guard<std::mutex> rg(registry_mu_);
    auto it = by_x_.find(p.x);
    if (it == by_x_.end() || it->second != p.score) {
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::NotFound("no such point");
    }
    // Leave the entry in place until the index apply succeeds: same-x
    // operations are excluded by the shard mutex we hold, so nobody can
    // observe the point half-deleted, and a failed apply needs no rollback.
  }
  Status st = sh.index->Delete(p);
  if (st.ok()) {
    {
      std::lock_guard<std::mutex> rg(registry_mu_);
      by_x_.erase(p.x);
      scores_.erase(p.score);
    }
    FenceApply(sh, /*insert=*/false, p);
    sh.dirty.store(true, std::memory_order_relaxed);
    n_deletes_.fetch_add(1, std::memory_order_relaxed);
    if (options_.WalEnabled()) {
      const WalOp op{false, p};
      if (group != nullptr) {
        group->push_back(op);
      } else if (Status ls = LogShardOps(sh, {&op, 1}); !ls.ok()) {
        RollbackShardOps(sh, {&op, 1});
        return ls;
      }
    }
  }
  return st;
}

void ShardedTopkEngine::FenceApply(Shard& sh, bool insert,
                                   const Point& p) const {
  std::lock_guard<std::mutex> fg(sh.fence_mu);
  if (insert) {
    sh.fence.Insert(p);
  } else {
    sh.fence.Delete(p);
  }
}

Status ShardedTopkEngine::LogShardOps(Shard& sh, std::span<const WalOp> ops) {
  if (ops.empty()) return Status::Ok();
  em::WriteAheadLog* wal = sh.pager->wal();
  TOKRA_CHECK(wal != nullptr);
  // The group commit: however many updates the shard group carried, the
  // log pays one append (one vectored block write) and one barrier.
  wal->Append(em::WriteAheadLog::RecordType::kLogical, EncodeWalOps(ops));
  wal->Sync();
  // Acknowledge only if the record provably reached the log: the log's
  // sticky error means the append or its barrier may have been lost, and
  // an acknowledgement now could not be honored by recovery.
  return wal->io_status();
}

void ShardedTopkEngine::RollbackShardOps(Shard& sh,
                                         std::span<const WalOp> ops) {
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    const WalOp& op = *it;
    Status st = op.insert ? sh.index->Delete(op.p) : sh.index->Insert(op.p);
    if (!st.ok()) {
      // The inverse apply failed: live index and registry can no longer be
      // reconciled, so take the shard out of service entirely — every
      // later query/update sees the sticky error, and recovery serves the
      // on-disk truth (last checkpoint + logged prefix).
      sh.pager->device()->PoisonIo(Status::IoError(
          "rollback of an unlogged update group failed: " + st.ToString()));
      return;
    }
    FenceApply(sh, /*insert=*/!op.insert, op.p);
    if (op.insert) {
      n_inserts_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      n_deletes_.fetch_sub(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> rg(registry_mu_);
    if (op.insert) {
      by_x_.erase(op.p.x);
      scores_.erase(op.p.score);
    } else {
      by_x_.emplace(op.p.x, op.p.score);
      scores_.insert(op.p.score);
    }
  }
}

Status ShardedTopkEngine::ShardUpdateStatus(const Shard& sh) const {
  Status home = sh.pager->home_io_status();
  if (!home.ok()) return home;  // failed shard: nothing can be served
  return sh.pager->wal_io_status();  // read-only shard: no durable updates
}

Status ShardedTopkEngine::Insert(const Point& p) {
  if (snapshot_) return Status::FailedPrecondition("snapshot is read-only");
  obs::ScopedTimer timer(mset_.update_latency_us);
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  TOKRA_RETURN_IF_ERROR(RefuseWalAfterStorageFailureLocked());
  // Shard mutex before the registry: every operation on a given x
  // serializes on its owning shard's mutex, so a registry reservation is
  // never observable while its index apply is still in flight.
  const std::size_t i = ShardFor(p.x);
  Shard& sh = *shards_[i];
  std::lock_guard<std::mutex> g(sh.mu);
  TOKRA_RETURN_IF_ERROR(ShardUpdateStatus(sh));
  Status st = InsertLocked(sh, p, nullptr);
  // MVCC: every accepted direct update checkpoints + publishes a fresh
  // epoch, so lock-free readers observe it on their very next query.
  if (st.ok() && options_.mvcc) PublishShardLocked(i, sh);
  return st;
}

Status ShardedTopkEngine::Delete(const Point& p) {
  if (snapshot_) return Status::FailedPrecondition("snapshot is read-only");
  obs::ScopedTimer timer(mset_.update_latency_us);
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  TOKRA_RETURN_IF_ERROR(RefuseWalAfterStorageFailureLocked());
  const std::size_t i = ShardFor(p.x);
  Shard& sh = *shards_[i];
  std::lock_guard<std::mutex> g(sh.mu);
  TOKRA_RETURN_IF_ERROR(ShardUpdateStatus(sh));
  Status st = DeleteLocked(sh, p, nullptr);
  if (st.ok() && options_.mvcc) PublishShardLocked(i, sh);
  return st;
}

Status ShardedTopkEngine::RefuseWalAfterStorageFailureLocked() const {
  // Under kCheckpoint, serving updates past a failed rebalance commit is
  // safe: nothing after the failure is durable, and Checkpoint() refuses.
  // Under a WAL mode the updates WOULD be durable — logged against the
  // superseded topology, with LSNs past the committed side files' adopt
  // stamp — and Recover()'s roll-forward would undo/replay them onto the
  // NEW topology: corruption. Refuse instead; only a fresh process's
  // Recover() can reconcile the disk.
  if (options_.WalEnabled() && storage_failed_) {
    return Status::FailedPrecondition(
        "shard storage is inconsistent after a failed rebalance commit; "
        "WAL updates would poison recovery — restart and Recover()");
  }
  return Status::Ok();
}

StatusOr<std::vector<Point>> ShardedTopkEngine::TopK(
    double x1, double x2, std::uint64_t k, EngineQueryStats* stats) const {
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  return TopKLocked(x1, x2, k, stats, /*parallel=*/true);
}

StatusOr<std::vector<Point>> ShardedTopkEngine::TopKLocked(
    double x1, double x2, std::uint64_t k, EngineQueryStats* stats,
    bool parallel) const {
  if (x1 > x2) return Status::InvalidArgument("x1 > x2");
  n_queries_.fetch_add(1, std::memory_order_relaxed);
  if (k == 0) return std::vector<Point>{};

  // Telemetry: when enabled, stage timestamps chain through the function
  // (start -> fan-out done -> merge done -> end) and a root span + one span
  // per shard probe land in the tracer. Disabled, `timed` is false and no
  // clock is read.
  const bool timed = mset_.query_latency_us != nullptr;
  obs::Tracer* tr = tracer_.get();
  const std::uint64_t t_start = timed ? obs::NowUs() : 0;
  obs::ScopedSpan query_span(tr, "query");
  const std::uint64_t root_id = query_span.id();

  const std::size_t s1 = ShardFor(x1), s2 = ShardFor(x2);
  const std::size_t q = s2 - s1 + 1;
  std::vector<std::vector<Point>> parts(q);
  std::vector<Status> statuses(q);
  std::vector<em::IoStats> deltas(q);

  // Views (MVCC epochs, DESIGN.md §14; snapshot shards, §8.3): capture each
  // overlapping shard's published view ONCE, up front, and use that same
  // view for both routing and probing — the fence the router consults must
  // describe the image the probe will read, or pruning could hide a point
  // the view still holds. Without a view (the shard never published, or
  // publication failed) a shard routes on the live fence and probes under
  // the shard mutex; an engine that publishes no views skips the loads.
  std::vector<std::shared_ptr<const ShardView>> views;
  if (options_.mvcc || snapshot_) {
    views.resize(q);
    for (std::size_t j = 0; j < q; ++j) {
      views[j] = shards_[s1 + j]->LoadView();
    }
  }
  auto view_of = [&](std::size_t j) -> const ShardView* {
    return views.empty() ? nullptr : views[j].get();
  };

  auto run_one = [&](std::size_t j, em::Pager* pager,
                     core::TopkIndex* index) {
    // Explicit parent: on the pool this thread's implicit chain belongs to
    // some other query's spans, not ours.
    obs::ScopedSpan probe_span(tr, "shard_probe", root_id);
    obs::ScopedTimer probe_timer(mset_.stage_probe_us);
    // A shard whose home device carries a sticky error has left service:
    // its in-memory state is coherent but no longer trustworthy against
    // the medium, so the probe reports the error instead of results —
    // queries covering only healthy shards are unaffected.
    if (Status hs = pager->home_io_status(); !hs.ok()) {
      statuses[j] = hs;
      return;
    }
    em::IoStats before = pager->stats();
    auto r = index->TopK(x1, x2, k);
    if (!r.ok()) {
      statuses[j] = r.status();
    } else if (Status hs = pager->home_io_status(); !hs.ok()) {
      // The fault fired during THIS probe (a failed read still delivers
      // bytes; see BlockDevice::io_status): surface it on this query.
      statuses[j] = hs;
    } else {
      parts[j] = std::move(*r);
    }
    deltas[j] = pager->stats() - before;
  };
  auto run_shard = [&](std::size_t j) {
    if (const ShardView* view = view_of(j)) {
      // Lock-free read: claim any free handle of the captured view
      // (rotating start so concurrent readers spread out), blocking on our
      // rotation slot only if every handle is busy. The handle mutex
      // serializes queries on ONE handle; the shard mutex — the writer's
      // lock — is never touched. The handle may already serve a newer
      // epoch than the view; its publish's pin protects it (§14.4).
      const ReadHandles& handles = *view->handles;
      const std::size_t nh = handles.size();
      const std::uint32_t start =
          view->next.fetch_add(1, std::memory_order_relaxed);
      ReadHandle* handle = nullptr;
      std::unique_lock<std::mutex> lk;
      for (std::size_t t = 0; t < nh && handle == nullptr; ++t) {
        ReadHandle* c = handles[(start + t) % nh].get();
        std::unique_lock<std::mutex> l(c->mu, std::try_to_lock);
        if (l.owns_lock()) {
          handle = c;
          lk = std::move(l);
        }
      }
      if (handle == nullptr) {
        handle = handles[start % nh].get();
        lk = std::unique_lock<std::mutex>(handle->mu);
      }
      if (handle->index != nullptr) {
        run_one(j, handle->pager.get(), handle->index.get());
        return;
      }
      // The handle lost its index in a failed advance: serve this probe
      // locked. Drop the handle first — the writer holds sh.mu while it
      // waits for handle mutexes.
      lk.unlock();
    }
    Shard& sh = *shards_[s1 + j];
    std::lock_guard<std::mutex> g(sh.mu);
    n_query_shard_locks_.fetch_add(1, std::memory_order_relaxed);
    run_one(j, sh.pager.get(), sh.index.get());
  };

  // ---- Fence routing (DESIGN.md §11) ----
  // Consult each overlapping shard's fence — the captured view's immutable
  // snapshot (no lock), else the live fence under fence_mu only (never the
  // shard mutex, which in-flight probes hold for their whole duration):
  // provably-empty ranges are dropped here, every survivor gets its
  // best-possible-score upper bound.
  struct Cand {
    std::size_t j;
    double bound;
  };
  std::vector<Cand> cands;
  cands.reserve(q);
  std::uint32_t pruned = 0;
  for (std::size_t j = 0; j < q; ++j) {
    const Shard& sh = *shards_[s1 + j];
    const ShardView* view = view_of(j);
    std::unique_lock<std::mutex> fg;
    if (view == nullptr) fg = std::unique_lock<std::mutex>(sh.fence_mu);
    const sketch::ShardFence& fence = view != nullptr ? view->fence : sh.fence;
    const sketch::FenceBound fb = fence.RangeBound(x1, x2);
    if (!fb.maybe_nonempty) {
      ++pruned;
      continue;
    }
    cands.push_back({j, fb.best_score});
  }
  const auto fence_checks = static_cast<std::uint32_t>(q);
  // Dispatch in descending best-possible-score waves. After each wave the
  // merge frontier (the k best scores seen so far) is consulted: once it is
  // full and the next candidate's fence bound cannot beat its k-th score,
  // no remaining candidate can either (they are sorted), so the fan-out
  // stops early. Sound because bounds are upper bounds and the registry
  // keeps scores globally distinct — a pruned shard's in-range scores are
  // strictly below the k already-held results (see DESIGN.md §11). Serial
  // queries re-check after every shard; parallel ones dispatch a
  // pool-filling wave at a time so early termination never idles workers.
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) { return a.bound > b.bound; });
  const std::size_t wave = parallel ? options_.threads : 1;
  MergeFrontier frontier(k);
  std::uint32_t waves = 0, dispatched = 0;
  std::size_t next = 0;
  while (next < cands.size()) {
    if (frontier.full() && cands[next].bound <= frontier.kth()) {
      pruned += static_cast<std::uint32_t>(cands.size() - next);
      break;
    }
    const std::size_t end = std::min(cands.size(), next + wave);
    ++waves;
    if (parallel && end - next > 1) {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(end - next);
      for (std::size_t i = next; i < end; ++i) {
        tasks.emplace_back([&, i] { run_shard(cands[i].j); });
      }
      pool_.RunAll(std::move(tasks));
    } else {
      for (std::size_t i = next; i < end; ++i) run_shard(cands[i].j);
    }
    for (std::size_t i = next; i < end; ++i) {
      frontier.PushAll(parts[cands[i].j]);
    }
    dispatched += static_cast<std::uint32_t>(end - next);
    next = end;
  }
  const std::uint64_t t_fanout = timed ? obs::NowUs() : 0;

  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }

  select::SelectStats sstats;
  std::vector<Point> merged;
  {
    obs::ScopedSpan merge_span(tr, "merge");
    // Skipped shards left their `parts` slot empty, so the tournament merge
    // over all q lists is byte-identical to the unpruned answer.
    merged = MergeTopK(parts, k, &sstats);
  }
  const std::uint64_t t_merge = timed ? obs::NowUs() : 0;

  n_shards_pruned_.fetch_add(pruned, std::memory_order_relaxed);
  n_fence_checks_.fetch_add(fence_checks, std::memory_order_relaxed);
  n_query_waves_.fetch_add(waves, std::memory_order_relaxed);
  if (mset_.shards_pruned_total != nullptr && pruned > 0) {
    mset_.shards_pruned_total->Add(pruned);
  }
  if (mset_.fence_checks_total != nullptr && fence_checks > 0) {
    mset_.fence_checks_total->Add(fence_checks);
  }
  if (mset_.query_waves_total != nullptr && waves > 0) {
    mset_.query_waves_total->Add(waves);
  }

  if (stats != nullptr) {
    stats->shards_queried = dispatched;
    stats->shards_pruned = pruned;
    stats->fence_checks = fence_checks;
    stats->waves = waves;
    stats->shard_candidates = 0;
    for (const auto& part : parts) stats->shard_candidates += part.size();
    stats->merge_nodes_visited = sstats.nodes_visited;
    stats->io = em::IoStats{};
    for (const em::IoStats& d : deltas) stats->io += d;
  }

  if (timed) {
    const std::uint64_t t_end = obs::NowUs();
    const std::uint64_t total = t_end - t_start;
    mset_.stage_fanout_us->Record(t_fanout - t_start);
    mset_.stage_merge_us->Record(t_merge - t_fanout);
    mset_.stage_reply_us->Record(t_end - t_merge);
    mset_.query_latency_us->Record(total);
    if (slow_log_->ShouldCapture(total)) {
      obs::SlowQueryEntry e;
      e.start_us = t_start;
      e.total_us = total;
      e.x1 = x1;
      e.x2 = x2;
      e.k = static_cast<std::uint32_t>(std::min<std::uint64_t>(k, ~std::uint32_t{0}));
      e.results = merged.size();
      e.stages = {{"fanout", t_fanout - t_start},
                  {"merge", t_merge - t_fanout},
                  {"reply", t_end - t_merge}};
      e.shards.reserve(q);
      for (std::size_t j = 0; j < q; ++j) {
        e.shards.push_back({static_cast<std::uint32_t>(s1 + j),
                            parts[j].size(), deltas[j]});
      }
      slow_log_->Capture(std::move(e));
    }
  }
  return merged;
}

void ShardedTopkEngine::ExecuteBatch(std::span<const Request> batch,
                                     std::vector<Response>* out) {
  out->clear();
  out->resize(batch.size());
  obs::ScopedTimer timer(mset_.batch_exec_us);
  obs::ScopedSpan span(tracer_.get(), "batch");
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  n_batches_.fetch_add(1, std::memory_order_relaxed);

  // Phase 1: group updates by owning shard, preserving submission order
  // within each group. Validation happens in phase 2 under the shard mutex
  // (same lock discipline as direct Insert/Delete), so a concurrent direct
  // operation can never observe a half-applied batch update. Same-x requests
  // land in the same group and stay ordered; the only unspecified ordering
  // is between *different shards'* groups, observable solely through
  // same-score conflicts within one batch.
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  std::vector<std::size_t> query_idx;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].kind == Request::Kind::kTopk) {
      query_idx.push_back(i);
    } else if (snapshot_) {
      // Read-only serving: updates are answered, not applied.
      (*out)[i].status = Status::FailedPrecondition("snapshot is read-only");
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
    } else if (Status st = RefuseWalAfterStorageFailureLocked(); !st.ok()) {
      (*out)[i].status = st;
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
    } else {
      groups[ShardFor(batch[i].point.x)].push_back(i);
    }
  }

  // Phase 2: apply each shard's update group under ONE lock acquisition,
  // shard groups in parallel across the pool.
  std::vector<std::function<void()>> update_tasks;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    update_tasks.emplace_back([&, s] {
      Shard& sh = *shards_[s];
      std::lock_guard<std::mutex> g(sh.mu);
      // A degraded shard (failed home device, or failed log under a WAL
      // mode) answers its whole group with the sticky error and applies
      // nothing; the other shards' groups proceed untouched.
      if (Status st = ShardUpdateStatus(sh); !st.ok()) {
        for (std::size_t i : groups[s]) (*out)[i].status = st;
        return;
      }
      // The batch path is the group-commit boundary: every accepted update
      // of this shard's group lands in ONE logical WAL record, appended and
      // synced once after the group applied — the batcher's coalescing
      // window amortizes the log barrier exactly like it amortizes the
      // lock. Futures (acknowledgements) resolve only after ExecuteBatch
      // returns, so nothing is acknowledged before its record is logged.
      std::vector<WalOp> group_log;
      group_log.reserve(groups[s].size());
      for (std::size_t i : groups[s]) {
        const Request& req = batch[i];
        (*out)[i].status = req.kind == Request::Kind::kInsert
                               ? InsertLocked(sh, req.point, &group_log)
                               : DeleteLocked(sh, req.point, &group_log);
      }
      if (Status ls = LogShardOps(sh, group_log); !ls.ok()) {
        // The group's record may not be durable: revoke every accepted op
        // and answer it with the log's error instead — nothing from this
        // group is acknowledged. Ops the validation already rejected keep
        // their own status.
        RollbackShardOps(sh, group_log);
        for (std::size_t i : groups[s]) {
          if ((*out)[i].status.ok()) (*out)[i].status = ls;
        }
        return;
      }
      // MVCC: publish the whole group as ONE fresh epoch before phase 3,
      // so this batch's own queries (and every later lock-free reader)
      // observe all of its updates — read-your-writes at batch granularity.
      if (options_.mvcc) PublishShardLocked(s, sh);
    });
  }
  pool_.RunAll(std::move(update_tasks));

  // Phase 3: queries observe the whole batch's updates; they run
  // concurrently, each serial inside (they already occupy pool threads).
  std::vector<std::function<void()>> query_tasks;
  query_tasks.reserve(query_idx.size());
  for (std::size_t i : query_idx) {
    query_tasks.emplace_back([&, i] {
      const Request& req = batch[i];
      auto r = TopKLocked(req.x1, req.x2, req.k, nullptr, /*parallel=*/false);
      if (r.ok()) {
        (*out)[i].points = std::move(*r);
      } else {
        (*out)[i].status = r.status();
      }
    });
  }
  pool_.RunAll(std::move(query_tasks));
}

Status ShardedTopkEngine::Checkpoint(
    std::vector<std::uint64_t>* covered_lsns) {
  if (snapshot_) return Status::FailedPrecondition("snapshot is read-only");
  std::unique_lock<std::shared_mutex> tl(topology_mu_);
  return CheckpointLocked(covered_lsns);
}

Status ShardedTopkEngine::ExportSnapshot(
    const std::string& dest_dir, std::vector<std::uint64_t>* covered_lsns) {
  if (snapshot_) return Status::FailedPrecondition("snapshot is read-only");
  std::unique_lock<std::shared_mutex> tl(topology_mu_);
  TOKRA_RETURN_IF_ERROR(CheckpointLocked(covered_lsns));
  // Copy while still holding the engine exclusively: between the stamp and
  // the copy no update can dirty a home block in place, so the exported
  // bytes are exactly ONE checkpoint — the property that makes the export
  // safe to serve (OpenSnapshot/Recover) and its log tail safe to replay
  // from the stamped LSNs. The export is a shipping artifact, not a
  // durability point: no fsync, the source checkpoint remains the truth.
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dest_dir, ec);
  if (ec) {
    return Status::IoError("ExportSnapshot mkdir " + dest_dir + ": " +
                           ec.message());
  }
  for (std::uint32_t i = 0; i < options_.num_shards; ++i) {
    const std::string src = options_.ShardEm(i).path;
    const std::string dst =
        dest_dir + "/" + fs::path(src).filename().string();
    fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
    if (ec) {
      return Status::IoError("ExportSnapshot copy " + src + " -> " + dst +
                             ": " + ec.message());
    }
  }
  return Status::Ok();
}

Status ShardedTopkEngine::CheckpointLocked(
    std::vector<std::uint64_t>* covered_lsns) {
  if (options_.storage_dir.empty()) {
    return Status::FailedPrecondition("engine has no storage_dir");
  }
  if (options_.durability == Durability::kNone) {
    return Status::FailedPrecondition(
        "engine is configured durability=kNone");
  }
  if (storage_failed_) {
    return Status::FailedPrecondition(
        "shard storage is inconsistent after a failed rebalance commit; "
        "restart and Recover() to roll it forward");
  }
  obs::ScopedTimer timer(mset_.checkpoint_us);
  obs::ScopedSpan span(tracer_.get(), "checkpoint");
  // Root 0 is the index meta (written by TopkIndex::Checkpoint); root 1
  // carries this shard's lower bound so Recover restores the partition;
  // root 2 records the shard count so Recover rejects a topology
  // mismatch instead of silently dropping key ranges; root 3 is the
  // topology generation so Recover reconciles a half-renamed rebalance.
  //
  // Clean shards are skipped: no update was accepted since their last
  // checkpoint, so their file already holds byte-for-byte the state this
  // checkpoint would write — same bound, same shard count, same generation
  // (anything changing those rebuilds the shard, which marks it dirty). The
  // dirty flag is cleared only after the shard's own durability barriers
  // completed, so a failed checkpoint retries the shard next time.
  auto checkpoint_shard = [&](std::size_t i) -> Status {
    Status st = CheckpointShardLocked(i, *shards_[i], nullptr);
    // MVCC: a full checkpoint is also a publication point — refresh every
    // shard's epoch view (clean shards included: their view may predate an
    // earlier clean checkpoint skip and still be perfectly current, in
    // which case this no-ops on the epoch match).
    if (st.ok()) PublishShardLocked(i, *shards_[i]);
    return st;
  };
  // Shard checkpoints touch disjoint pagers and files, so they overlap
  // freely on the pool; each one still runs its own flush -> barrier ->
  // superblock -> barrier sequence, which is the entirety of the
  // crash-safety argument (DESIGN.md §6.3). RunAll is the barrier: no
  // checkpoint is acknowledged before every shard's durability barriers
  // have completed. We hold topology_mu_ exclusively, so no fan-out query
  // can race these pool tasks on the shard pagers.
  std::vector<Status> statuses(shards_.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    tasks.emplace_back([&, i] { statuses[i] = checkpoint_shard(i); });
  }
  pool_.RunAll(std::move(tasks));
  for (const Status& st : statuses) TOKRA_RETURN_IF_ERROR(st);
  if (covered_lsns != nullptr) {
    covered_lsns->clear();
    covered_lsns->reserve(shards_.size());
    for (const auto& sh : shards_) {
      covered_lsns->push_back(sh->pager->wal_checkpoint_lsn());
    }
  }
  return Status::Ok();
}

Status ShardedTopkEngine::CheckpointShardLocked(std::size_t i, Shard& sh,
                                                std::uint64_t* covered_lsn) {
  // A failed shard cannot commit (its pager refuses; its device overlay
  // holds post-failure writes off the medium). Fail fast — the healthy
  // shards still checkpoint, and the first error is what the caller gets
  // back.
  if (Status st = sh.pager->io_status(); !st.ok()) return st;
  if (!sh.dirty.load(std::memory_order_relaxed)) {
    if (covered_lsn != nullptr) *covered_lsn = sh.pager->wal_checkpoint_lsn();
    return Status::Ok();
  }
  const std::uint64_t extra[kShardCheckpointRoots - 1] = {
      std::bit_cast<std::uint64_t>(lower_bounds_[i]), options_.num_shards,
      generation_};
  Status st = sh.index->Checkpoint(extra);
  if (st.ok()) sh.dirty.store(false, std::memory_order_relaxed);
  if (covered_lsn != nullptr) *covered_lsn = sh.pager->wal_checkpoint_lsn();
  return st;
}

void ShardedTopkEngine::PublishShardLocked(std::size_t i, Shard& sh) {
  if (!options_.mvcc) return;
  if (!sh.pager->io_status().ok()) return;  // keep serving the old epoch
  // An epoch is a completed pager checkpoint: a dirty shard must commit one
  // before there is anything new to publish. (Note this is a PAGER-level
  // commit — it works on memory-backed shards too; the engine-level
  // storage_dir/durability gates only guard the public Checkpoint() API's
  // durability promise, which publication does not make.)
  if (sh.dirty.load(std::memory_order_relaxed)) {
    if (!CheckpointShardLocked(i, sh, nullptr).ok()) return;
  }
  const std::uint64_t epoch = sh.pager->published_epoch();
  if (epoch == 0) return;  // nothing published yet (checkpoint skipped?)
  {
    auto cur = sh.LoadView();
    if (cur != nullptr && cur->pin.epoch() == epoch) return;  // current
  }
  // Pin before opening handles: the pin freezes every block this epoch
  // references, so the handles read an immutable image no matter how far
  // the writer runs ahead.
  StoreShardView(i, sh, sh.pager->PinEpoch());
}

void ShardedTopkEngine::StoreShardView(std::size_t i, Shard& sh,
                                       em::EpochPin pin) const {
  obs::ScopedTimer timer(mset_.view_publish_us);
  // An abandoned view (any failure below) is destroyed, which releases the
  // pin; the published view keeps its own.
  auto view = std::make_shared<ShardView>();
  view->pin = std::move(pin);
  {
    // The fence snapshot is taken under the same shard lock that applied
    // the updates this view covers, so it describes the view exactly.
    std::lock_guard<std::mutex> fg(sh.fence_mu);
    view->fence = sh.fence;
  }
  const std::uint64_t epoch = view->pin.epoch();
  if (sh.handles == nullptr) {
    // First publication (a snapshot's only one): open the shard's handles.
    auto handles = std::make_shared<ReadHandles>();
    const std::uint32_t nh = options_.threads + 1;
    handles->reserve(nh);
    for (std::uint32_t h = 0; h < nh; ++h) {
      auto dev = sh.pager->ShareReadView();
      if (dev == nullptr) return;  // backend can't share views: locked serving
      auto pg = em::Pager::OpenOn(std::move(dev), options_.ShardEm(
                                      static_cast<std::uint32_t>(i)));
      if (!pg.ok()) return;
      auto handle = std::make_unique<ReadHandle>();
      handle->pager = std::move(*pg);
      auto idx = core::TopkIndex::Open(handle->pager.get());
      if (!idx.ok()) return;
      handle->index = std::move(*idx);
      handle->epoch = epoch;
      handles->push_back(std::move(handle));
    }
    sh.handles = std::move(handles);
  } else {
    // Later publishes advance each handle in place (DESIGN.md §14.4). A
    // probe holds the handle's mu for its whole duration, so this waits for
    // at most one probe per handle; readers never wait on the writer. A
    // failure keeps the previous view, whose pin also protects every newer
    // epoch a handle may already serve.
    const auto& delta = sh.pager->published_delta();
    for (const auto& h : *sh.handles) {
      std::lock_guard<std::mutex> g(h->mu);
      if (h->epoch == epoch && h->index != nullptr) continue;
      const bool full = h->pager->published_epoch() + 1 != epoch;
      if (!h->pager->AdvanceReadView(epoch, delta).ok()) return;
      n_view_advances_.fetch_add(1, std::memory_order_relaxed);
      if (mset_.view_advances_total != nullptr) {
        mset_.view_advances_total->Add(1);
      }
      if (full) {
        n_view_full_reloads_.fetch_add(1, std::memory_order_relaxed);
        if (mset_.view_full_reloads_total != nullptr) {
          mset_.view_full_reloads_total->Add(1);
        }
      }
      // The old index's in-memory state describes the old epoch: it must
      // not outlive the advance, even when the reopen fails.
      auto idx = core::TopkIndex::Open(h->pager.get());
      if (!idx.ok()) {
        h->index.reset();
        h->epoch = 0;
        return;
      }
      h->index = std::move(*idx);
      h->epoch = epoch;
    }
  }
  view->handles = sh.handles;
  sh.StoreView(std::move(view));
}

StatusOr<std::unique_ptr<ShardedTopkEngine>> ShardedTopkEngine::Recover(
    EngineOptions options, RecoveryReport* report) {
  options.Validate();
  if (options.storage_dir.empty()) {
    return Status::InvalidArgument("Recover requires a storage_dir");
  }
  auto engine =
      std::unique_ptr<ShardedTopkEngine>(new ShardedTopkEngine(options));
  // Telemetry note: every pager below opens via engine->options_.ShardEm
  // (not the plain `options` parameter) so the engine's EmMetrics sink
  // reaches the recovered shards' pools and logs.
  const std::uint64_t t_recover =
      engine->telemetry_enabled() ? obs::NowUs() : 0;
  const std::uint32_t s = options.num_shards;
  const bool wal_mode = options.WalEnabled();

  // Phase 1 — probe: open every live file WITHOUT its log to read the
  // superblocks. The generation agreement check (and the interrupted-
  // rebalance roll-forward below) needs all superblocks before any single
  // shard can be trusted, and attaching a log rolls torn writes back —
  // something that must only happen once each file is known to be the
  // committed one. Superblocks themselves are always intact (their slots
  // are never pre-imaged in place), so probing without undo is safe.
  auto probe_em = [&](std::uint32_t i) {
    em::EmOptions em = engine->options_.ShardEm(i);
    em.wal_path.clear();
    return em;
  };
  std::vector<std::unique_ptr<em::Pager>> pagers(s);
  std::vector<std::uint64_t> gens(s);
  for (std::uint32_t i = 0; i < s; ++i) {
    TOKRA_ASSIGN_OR_RETURN(pagers[i], em::Pager::Open(probe_em(i)));
    if (pagers[i]->roots().size() < kShardCheckpointRoots) {
      return Status::FailedPrecondition("shard checkpoint missing roots");
    }
    if (pagers[i]->roots()[2] != s) {
      return Status::FailedPrecondition(
          "num_shards mismatch with checkpoint (have " + std::to_string(s) +
          ", checkpointed " + std::to_string(pagers[i]->roots()[2]) + ")");
    }
    gens[i] = pagers[i]->roots()[3];
    if (!wal_mode) {
      // Recovering a WAL-mode directory with the log switched off would
      // silently discard its acknowledged tail (and skip the undo of torn
      // writes). Refuse; the caller either recovers with a WAL durability
      // mode or truncates deliberately.
      TOKRA_RETURN_IF_ERROR(RequireNoWalTail(
          options, i, pagers[i]->wal_checkpoint_lsn(), "WAL-less recovery"));
    }
  }

  // Reconcile an interrupted rebalance. BuildShardsLocked checkpoints every
  // side file before renaming any of them over the live files, so the disk
  // is in one of three states:
  //  * uniform generation, no side files — nothing happened;
  //  * uniform generation plus side files — a rebuild built side files but
  //    crashed before its first rename: it never committed, drop them;
  //  * mixed generations — crash mid-rename: the newest generation is the
  //    committed one, and every shard still at the old generation must have
  //    its side file (its rename never ran), so finish the renames.
  const std::uint64_t gen = *std::max_element(gens.begin(), gens.end());
  engine->generation_ = gen;
  bool rolled_forward = false;
  for (std::uint32_t i = 0; i < s; ++i) {
    const std::string live = options.ShardEm(i).path;
    const std::string side = live + kRebuildSuffix;
    if (gens[i] == gen) {
      // An uncommitted side file MUST go: generation_ restarts from `gen`,
      // so a leftover could alias a future rebuild attempt's generation and
      // feed a later roll-forward a different topology's shard.
      if (std::remove(side.c_str()) != 0 && errno != ENOENT) {
        return Status::Internal("cannot remove stale side file " + side);
      }
      continue;
    }
    pagers[i].reset();  // release the stale live file before replacing it
    em::EmOptions side_em = probe_em(i);
    side_em.path = side;
    auto side_pager = em::Pager::Open(side_em);
    if (!side_pager.ok() ||
        (*side_pager)->roots().size() < kShardCheckpointRoots ||
        (*side_pager)->roots()[3] != gen) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(i) + " is at generation " +
          std::to_string(gens[i]) + " but the topology committed generation " +
          std::to_string(gen) + ", and no side file can roll it forward");
    }
    if (std::rename(side.c_str(), live.c_str()) != 0) {
      return Status::Internal("roll-forward rename failed: " + side + " -> " +
                              live);
    }
    rolled_forward = true;
    // The side pager's fd survives the rename; keep it as the live pager
    // rather than reopening (which could spuriously fail an already-
    // committed roll-forward).
    pagers[i] = std::move(*side_pager);
  }
  // Same durability barrier as the rebalance commit path: the roll-forward
  // renames must be journaled before checkpoints are acknowledged again.
  if (rolled_forward && options.em.durable_sync) {
    TOKRA_CHECK(FsyncDir(options.storage_dir));
  }
  if (report != nullptr) report->rolled_forward_rebalance = rolled_forward;

  // Phase 2 — attach the logs: every live file is now the committed one,
  // so reopen each shard WITH its log. Pager::Open drops the log's torn
  // tail and undoes torn inter-checkpoint home writes, handing back the
  // byte-exact stamped checkpoint; the logical tail past the stamp is
  // replayed below.
  if (wal_mode) {
    for (std::uint32_t i = 0; i < s; ++i) {
      pagers[i].reset();
      TOKRA_ASSIGN_OR_RETURN(pagers[i],
                             em::Pager::Open(engine->options_.ShardEm(i)));
      if (pagers[i]->roots().size() < kShardCheckpointRoots) {
        return Status::FailedPrecondition("shard checkpoint missing roots");
      }
    }
  }

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<double> bounds;
  shards.reserve(s);
  bounds.reserve(s);
  for (std::uint32_t i = 0; i < s; ++i) {
    bounds.push_back(std::bit_cast<double>(pagers[i]->roots()[1]));
    auto shard = std::make_unique<Shard>();
    shard->pager = std::move(pagers[i]);
    TOKRA_ASSIGN_OR_RETURN(shard->index,
                           core::TopkIndex::Open(shard->pager.get()));
    // Redo: replay the acknowledged update batches past the stamped
    // checkpoint LSN, in LSN order, through the normal index update path.
    // Pre-image records are skipped here (the pager already consumed them)
    // but keep guarding: replay evictions log fresh pre-images, so a crash
    // mid-replay just recovers again, idempotently.
    bool replayed = false;
    if (wal_mode) {
      em::WriteAheadLog* wal = shard->pager->wal();
      const std::uint64_t covered = shard->pager->wal_checkpoint_lsn();
      // Snapshot the tail before applying anything: replaying through the
      // index appends fresh pre-image records to this same log (its
      // evictions are guarded like any others), which would invalidate
      // iterators into the live record directory.
      std::vector<em::WriteAheadLog::Record> tail;
      for (const auto& rec : wal->records()) {
        if (rec.lsn > covered &&
            rec.type == em::WriteAheadLog::RecordType::kLogical) {
          tail.push_back(rec);
        }
      }
      std::vector<em::word_t> payload;
      for (const auto& rec : tail) {
        TOKRA_RETURN_IF_ERROR(wal->ReadPayload(rec, &payload));
        TOKRA_ASSIGN_OR_RETURN(auto ops, DecodeWalOps(payload));
        for (const WalOp& op : ops) {
          Status st = op.insert ? shard->index->Insert(op.p)
                                : shard->index->Delete(op.p);
          if (!st.ok()) {
            return Status::Internal(
                "WAL replay failed on shard " + std::to_string(i) + ": " +
                st.ToString());
          }
        }
        replayed = true;
        if (report != nullptr) {
          ++report->replayed_records;
          report->replayed_ops += ops.size();
        }
      }
    }
    // Without replay the recovered in-memory state IS the file state:
    // clean until the first accepted update. Replayed shards are ahead of
    // their checkpoint again and must not be skipped by the next one.
    shard->dirty.store(replayed, std::memory_order_relaxed);
    // One O(n_i/B) scan of the replayed state refills the exact-membership
    // registry and builds the shard's fence, exact for the recovered set.
    TOKRA_ASSIGN_OR_RETURN(auto all, ScanShard(*shard->index));
    for (const Point& p : all) {
      if (!engine->by_x_.emplace(p.x, p.score).second ||
          !engine->scores_.insert(p.score).second) {
        return Status::Internal("recovered shards overlap");
      }
    }
    shard->fence = sketch::ShardFence::Build(all);
    shards.push_back(std::move(shard));
  }
  if (bounds[0] != -kInf || !std::is_sorted(bounds.begin(), bounds.end())) {
    return Status::FailedPrecondition("recovered shard bounds are not a partition");
  }
  engine->shards_ = std::move(shards);
  engine->lower_bounds_ = std::move(bounds);
  // MVCC: publish each recovered shard's epoch before serving. A shard
  // whose WAL tail was replayed is dirty and checkpoints first, so readers
  // never see the pre-replay state.
  if (engine->options_.mvcc) {
    for (std::size_t i = 0; i < engine->shards_.size(); ++i) {
      std::lock_guard<std::mutex> g(engine->shards_[i]->mu);
      engine->PublishShardLocked(i, *engine->shards_[i]);
    }
  }
  if (engine->mset_.recover_us != nullptr) {
    engine->mset_.recover_us->Record(obs::NowUs() - t_recover);
  }
  return engine;
}

StatusOr<std::unique_ptr<ShardedTopkEngine>> ShardedTopkEngine::OpenSnapshot(
    EngineOptions options) {
  if (options.storage_dir.empty()) {
    return Status::InvalidArgument("OpenSnapshot requires a storage_dir");
  }
  // Default serving backend is the zero-copy mapping; a caller picking
  // kFile explicitly still gets a read-only snapshot, just with
  // copying reads. Everything is opened O_RDONLY — this never writes; the
  // caller must keep the files quiescent (no live engine writing them)
  // for as long as the snapshot serves.
  if (options.em.backend == em::Backend::kMem) {
    options.em.backend = em::Backend::kMmap;
  }
  options.em.read_only = true;
  // A snapshot never appends, truncates, or replays — it must not own the
  // logs (read-only pagers refuse them). Whether the directory's logs have
  // an unreplayed tail is checked below regardless of the caller's mode.
  options.durability = Durability::kCheckpoint;
  options.Validate();
  auto engine =
      std::unique_ptr<ShardedTopkEngine>(new ShardedTopkEngine(options));
  engine->snapshot_ = true;
  const std::uint32_t s = options.num_shards;

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<double> bounds;
  shards.reserve(s);
  bounds.reserve(s);
  std::uint64_t gen = 0;
  for (std::uint32_t i = 0; i < s; ++i) {
    auto shard = std::make_unique<Shard>();
    // engine->options_ rather than `options`: carries the EmMetrics sink.
    TOKRA_ASSIGN_OR_RETURN(shard->pager,
                           em::Pager::Open(engine->options_.ShardEm(i)));
    const auto& roots = shard->pager->roots();
    if (roots.size() < kShardCheckpointRoots) {
      return Status::FailedPrecondition("shard checkpoint missing roots");
    }
    if (roots[2] != s) {
      return Status::FailedPrecondition(
          "num_shards mismatch with checkpoint (have " + std::to_string(s) +
          ", checkpointed " + std::to_string(roots[2]) + ")");
    }
    if (i == 0) {
      gen = roots[3];
    } else if (roots[3] != gen) {
      // Mixed generations mean an interrupted rebalance; repairing it
      // writes, which a snapshot must never do.
      return Status::FailedPrecondition(
          "snapshot has an interrupted rebalance (mixed topology "
          "generations); run Recover() on it first");
    }
    bounds.push_back(std::bit_cast<double>(roots[1]));
    // A log tail past the stamped checkpoint means acknowledged updates
    // this read-only snapshot could not serve, or torn in-place writes only
    // undo can repair; both need a Recover() first — the same rule as the
    // interrupted rebalance above.
    //
    // EXCEPT on a COW directory (DESIGN.md §14): copy-on-write checkpoints
    // never overwrite a published epoch's blocks in place, so the stamped
    // checkpoint is byte-intact regardless of what was written after it —
    // no torn state exists for undo to repair, and the tail is merely newer
    // epochs' work. Serving the file as-is IS pinning the last published
    // epoch, which is exactly what a snapshot of a live-updating directory
    // should do.
    if (!shard->pager->cow_epochs()) {
      TOKRA_RETURN_IF_ERROR(RequireNoWalTail(
          options, i, shard->pager->wal_checkpoint_lsn(), "snapshot"));
    }
    TOKRA_ASSIGN_OR_RETURN(shard->index,
                           core::TopkIndex::Open(shard->pager.get()));
    // The fence is built from the same one-scan-per-shard Recover() pays
    // (read-only: the scan only reads the checkpointed blocks).
    TOKRA_ASSIGN_OR_RETURN(auto all, ScanShard(*shard->index));
    shard->fence = sketch::ShardFence::Build(all);
    shard->dirty.store(false, std::memory_order_relaxed);
    // The shard's one view, with no pin: nothing writes the files. A
    // backend that cannot share a read view leaves it null, and the shard
    // serves through the locked probe.
    engine->StoreShardView(i, *shard, em::EpochPin{});
    shards.push_back(std::move(shard));
  }
  if (bounds[0] != -kInf || !std::is_sorted(bounds.begin(), bounds.end())) {
    return Status::FailedPrecondition(
        "snapshot shard bounds are not a partition");
  }
  engine->generation_ = gen;
  engine->shards_ = std::move(shards);
  engine->lower_bounds_ = std::move(bounds);
  return engine;
}

Status ShardedTopkEngine::Rebalance() {
  if (snapshot_) return Status::FailedPrecondition("snapshot is read-only");
  std::unique_lock<std::shared_mutex> tl(topology_mu_);
  return RebalanceLocked();
}

bool ShardedTopkEngine::SkewedLocked() const {
  std::uint64_t total = 0, max_size = 0;
  for (const auto& sh : shards_) {
    const std::uint64_t n = sh->size();
    total += n;
    max_size = std::max(max_size, n);
  }
  if (total < options_.rebalance_min_points) return false;
  double avg = static_cast<double>(total) / static_cast<double>(shards_.size());
  return static_cast<double>(max_size) > options_.rebalance_skew * avg;
}

bool ShardedTopkEngine::MaybeRebalance() {
  if (snapshot_) return false;
  {
    std::shared_lock<std::shared_mutex> tl(topology_mu_);
    if (!SkewedLocked()) return false;
  }
  std::unique_lock<std::shared_mutex> tl(topology_mu_);
  if (!SkewedLocked()) return false;  // raced with another rebalance
  return RebalanceLocked().ok();
}

Status ShardedTopkEngine::RebalanceLocked() {
  obs::ScopedTimer timer(mset_.rebalance_us);
  obs::ScopedSpan span(tracer_.get(), "rebalance");
  if (storage_failed_) {
    return Status::FailedPrecondition(
        "shard storage is inconsistent after a failed rebalance commit; "
        "restart and Recover() to roll it forward");
  }
  std::vector<Point> all;
  for (const auto& sh : shards_) {
    TOKRA_ASSIGN_OR_RETURN(auto r, ScanShard(*sh->index));
    all.insert(all.end(), r.begin(), r.end());
  }
  TOKRA_RETURN_IF_ERROR(BuildShardsLocked(std::move(all)));
  n_rebalances_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

std::uint64_t ShardedTopkEngine::size() const {
  if (snapshot_) {
    // No registry in snapshot mode (nothing can be inserted); the per-shard
    // sizes are fixed at open.
    std::shared_lock<std::shared_mutex> tl(topology_mu_);
    std::uint64_t total = 0;
    for (const auto& sh : shards_) {
      total += sh->size();
    }
    return total;
  }
  std::lock_guard<std::mutex> rg(registry_mu_);
  return by_x_.size();
}

std::vector<std::uint64_t> ShardedTopkEngine::ShardSizes() const {
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  std::vector<std::uint64_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& sh : shards_) {
    sizes.push_back(sh->size());
  }
  return sizes;
}

std::vector<double> ShardedTopkEngine::ShardLowerBounds() const {
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  return lower_bounds_;
}

em::IoStats ShardedTopkEngine::ShardIoStats(const Shard& sh) const {
  em::IoStats total;
  {
    std::lock_guard<std::mutex> g(sh.mu);
    total = sh.pager->stats();
  }
  // A snapshot's handles serve every probe and nothing else. An MVCC
  // engine's are left out: each publish reloads their superblocks, and
  // those reads would be charged to updates.
  if (!snapshot_ || sh.handles == nullptr) return total;
  for (const auto& h : *sh.handles) {
    std::lock_guard<std::mutex> g(h->mu);
    total += h->pager->stats();
  }
  return total;
}

em::IoStats ShardedTopkEngine::AggregatedIoStats() const {
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  em::IoStats total;
  for (const auto& sh : shards_) total += ShardIoStats(*sh);
  return total;
}

em::SpaceStats ShardedTopkEngine::AggregatedSpaceStats() const {
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  em::SpaceStats total;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> g(sh->mu);
    const em::SpaceStats s = sh->pager->Space();
    total.allocated_blocks += s.allocated_blocks;
    total.free_blocks += s.free_blocks;
    total.reserved_blocks += s.reserved_blocks;
    total.file_blocks += s.file_blocks;
  }
  return total;
}

std::uint64_t ShardedTopkEngine::BlocksInUse() const {
  std::shared_lock<std::shared_mutex> tl(topology_mu_);
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> g(sh->mu);
    total += sh->pager->BlocksInUse();
  }
  return total;
}

EngineCounters ShardedTopkEngine::counters() const {
  EngineCounters c;
  c.inserts = n_inserts_.load(std::memory_order_relaxed);
  c.deletes = n_deletes_.load(std::memory_order_relaxed);
  c.queries = n_queries_.load(std::memory_order_relaxed);
  c.rejected = n_rejected_.load(std::memory_order_relaxed);
  c.batches = n_batches_.load(std::memory_order_relaxed);
  c.rebalances = n_rebalances_.load(std::memory_order_relaxed);
  c.shards_pruned = n_shards_pruned_.load(std::memory_order_relaxed);
  c.fence_checks = n_fence_checks_.load(std::memory_order_relaxed);
  c.query_waves = n_query_waves_.load(std::memory_order_relaxed);
  c.query_shard_locks = n_query_shard_locks_.load(std::memory_order_relaxed);
  c.view_advances = n_view_advances_.load(std::memory_order_relaxed);
  c.view_full_reloads = n_view_full_reloads_.load(std::memory_order_relaxed);
  return c;
}

void ShardedTopkEngine::CheckInvariants() const {
  std::unique_lock<std::shared_mutex> tl(topology_mu_);
  TOKRA_CHECK_EQ(shards_.size(), lower_bounds_.size());
  TOKRA_CHECK(lower_bounds_[0] == -kInf);
  TOKRA_CHECK(std::is_sorted(lower_bounds_.begin(), lower_bounds_.end()));

  std::lock_guard<std::mutex> rg(registry_mu_);
  std::uint64_t total = 0;
  bool skipped_failed = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    if (!sh.pager->io_status().ok()) {
      // A failed shard has left service: after a revoked group whose
      // rollback could not complete, its live state may legitimately
      // disagree with the registry, so its checks (and the global totals
      // below) no longer apply.
      skipped_failed = true;
      continue;
    }
    sh.index->CheckInvariants();
    auto r = ScanShard(*sh.index);
    TOKRA_CHECK(r.ok());
    total += r->size();
    // Fence soundness: exact count (the engine's per-shard size), every
    // live point inside the fence's bounds and never excludable by
    // RangeBound — the invariant that makes pruning answer-preserving
    // (DESIGN.md §11).
    sh.fence.CheckAgainst(*r);
    for (const Point& p : *r) {
      TOKRA_CHECK_EQ(ShardFor(p.x), i);  // point lives in its owning shard
      if (snapshot_) continue;  // no registry: nothing can be inserted
      auto it = by_x_.find(p.x);
      TOKRA_CHECK(it != by_x_.end());
      TOKRA_CHECK(it->second == p.score);
    }
  }
  if (!snapshot_ && !skipped_failed) {
    TOKRA_CHECK_EQ(total, by_x_.size());
    TOKRA_CHECK_EQ(by_x_.size(), scores_.size());
  }
}

}  // namespace tokra::engine
