// Configuration of the sharded concurrent query engine.

#ifndef TOKRA_ENGINE_OPTIONS_H_
#define TOKRA_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "core/topk_index.h"
#include "em/options.h"
#include "util/check.h"

namespace tokra::engine {

/// Superblock roots each shard checkpoint records: index meta, lower bound,
/// shard count, topology generation. EngineOptions::Validate() requires a
/// block to fit the superblock header plus this many roots, so a validated
/// engine can never fail a checkpoint on geometry at runtime. (The covered
/// WAL LSN is not a root: the pager stamps it in its own superblock header
/// word. Nor is the pruning fence: every open rebuilds it from the shard's
/// points. Files written with a fifth fence root still open and the root
/// is ignored, but nothing frees the fence block chain it names: those
/// blocks stay allocated in the shard file.)
inline constexpr std::uint32_t kShardCheckpointRoots = 4;

/// How much of the update stream survives a crash.
enum class Durability {
  /// Nothing persists: Checkpoint() is refused even with a storage_dir.
  /// The implied mode of a memory-backed engine.
  kNone,
  /// Today's default: Recover() restores the last completed Checkpoint();
  /// updates accepted after it are lost on a crash.
  kCheckpoint,
  /// Write-ahead logging: every accepted update batch is group-committed
  /// to its shard's log, and Recover() replays the tail past the
  /// checkpoint LSN — a SIGKILL at any point after a batch was
  /// acknowledged loses nothing (the log and the pre-image guards ride the
  /// OS page cache, which survives process death). Power loss can still
  /// lose the page cache.
  kWal,
  /// kWal plus real fsyncs: one per group commit, one per guarded
  /// write-back batch, and home-device barriers at checkpoints
  /// (em.durable_sync is forced on) — acknowledged updates survive power
  /// loss. The costly mode.
  kWalFsyncEveryBatch,
};

/// Telemetry configuration (see src/obs/ and DESIGN.md §10).
struct TelemetryOptions {
  /// Master switch. Off, the engine creates no registry/tracer/slow-query
  /// log and every instrumentation site compiles down to a null-pointer
  /// check — no clock reads, no atomics touched.
  bool enabled = true;

  /// Queries at or above this total latency are captured in the slow-query
  /// log with their stage breakdown and per-shard IoStats deltas.
  std::uint64_t slow_query_us = 10'000;
};

/// Parameters of a ShardedTopkEngine.
///
/// Each shard is an independent TopkIndex on its own em::Pager, so the
/// per-shard EM parameters below describe one shard's simulated disk and
/// buffer pool; total pool memory is num_shards * em.pool_frames frames.
struct EngineOptions {
  /// Number of key-range shards. Each holds ~n/S points and preserves the
  /// paper's per-index bounds on its subrange.
  std::uint32_t num_shards = 4;

  /// Worker threads answering fanned-out shard subqueries and applying
  /// batched per-shard update groups.
  std::uint32_t threads = 4;

  /// EM model parameters for each shard's private pager. `em.cow_epochs`
  /// is not read: ShardEm overwrites it with `mvcc`.
  em::EmOptions em;

  /// Telemetry switches. The engine owns the registry/tracer/slow-query
  /// log; `em.metrics` is wired up automatically at construction so every
  /// shard's pager, pool, and WAL records into the engine's histograms.
  TelemetryOptions telemetry;

  /// When non-empty, every shard runs on its own backing file
  /// `<storage_dir>/shard-<i>.tokra` (em.backend is promoted from kMem to
  /// kFile; a kMmap choice is kept), which makes Checkpoint()/Recover()
  /// available: the whole engine persists across process restarts. The
  /// directory must already exist.
  std::string storage_dir;

  /// Crash-consistency mode. kWal and up give every shard a write-ahead
  /// log `<storage_dir>/shard-<i>.wal`: the RequestBatcher's per-shard
  /// update groups become the group-commit unit (one log append per shard
  /// per batch), Checkpoint() stamps the covered LSN and truncates each
  /// log, and Recover() replays the tails. Requires a storage_dir.
  Durability durability = Durability::kCheckpoint;

  /// Serve-while-updating MVCC (DESIGN.md §14). Every shard pager runs
  /// epoch-based copy-on-write checkpoints (ShardEm sets em.cow_epochs to
  /// this flag, so it is the engine's only COW switch: COW without
  /// published views is not an engine mode), and after each per-shard
  /// checkpoint the engine publishes an epoch-pinned read view of the
  /// shard: queries route through the view's threads + 1
  /// lock-free read handles instead of taking the shard mutex, so readers
  /// scale with threads while writers proceed on the live epoch. Works on
  /// every backend that can share a read view, including kMem. A query
  /// finds no published view only before the shard's first checkpoint (or
  /// when publication failed) and falls back to the locked probe.
  bool mvcc = false;

  /// Whether the engine runs write-ahead logs at all.
  bool WalEnabled() const {
    return durability == Durability::kWal ||
           durability == Durability::kWalFsyncEveryBatch;
  }

  /// Shard `i`'s log file — THE naming scheme, shared by ShardEm and every
  /// tail inspection, so a rename cannot silently disable one of them.
  std::string ShardWalPath(std::uint32_t shard) const {
    return storage_dir + "/shard-" + std::to_string(shard) + ".wal";
  }

  /// `em` specialized for shard `i`: the per-shard backing file (and, under
  /// a WAL durability mode, the per-shard log) applied.
  em::EmOptions ShardEm(std::uint32_t shard) const {
    em::EmOptions o = em;
    // Before the storage_dir block so memory-backed MVCC engines work too:
    // a pager-level COW checkpoint needs no file, only the epoch protocol.
    o.cow_epochs = mvcc;
    if (!storage_dir.empty()) {
      if (o.backend == em::Backend::kMem) o.backend = em::Backend::kFile;
      o.path = storage_dir + "/shard-" + std::to_string(shard) + ".tokra";
      if (WalEnabled()) {
        o.wal_path = ShardWalPath(shard);
        if (durability == Durability::kWalFsyncEveryBatch) {
          o.wal_fsync = true;
          // The power-loss mode needs the HOME device's checkpoint
          // barriers to be real fsyncs too: a checkpoint commit that only
          // reached the page cache while Truncate() durably rotated the
          // log away would destroy the very records that could redo it.
          o.durable_sync = true;
        }
      }
    }
    return o;
  }

  /// Forwarded to every shard's TopkIndex.
  core::TopkIndex::Options index;

  /// MaybeRebalance() triggers when the largest shard exceeds this multiple
  /// of the average shard size (and rebalance_min_points is met).
  double rebalance_skew = 4.0;

  /// Minimum total points before skew-triggered rebalancing kicks in;
  /// below this, imbalance is noise.
  std::uint64_t rebalance_min_points = 1024;

  void Validate() const {
    TOKRA_CHECK(num_shards >= 1);
    TOKRA_CHECK(threads >= 1);
    TOKRA_CHECK(rebalance_skew > 1.0);
    // A file-backed backend must come with a storage_dir: a single shared
    // em.path would have every shard truncate and overwrite the same file.
    TOKRA_CHECK(em.backend == em::Backend::kMem || !storage_dir.empty());
    // The log is a file: WAL durability needs somewhere to put it.
    TOKRA_CHECK(!WalEnabled() || !storage_dir.empty());
    TOKRA_CHECK(em.block_words >=
                em::kSuperblockHeaderWords + kShardCheckpointRoots);
    ShardEm(0).Validate();
  }
};

}  // namespace tokra::engine

#endif  // TOKRA_ENGINE_OPTIONS_H_
