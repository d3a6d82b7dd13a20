// Parameters of the simulated external-memory (EM) model.

#ifndef TOKRA_EM_OPTIONS_H_
#define TOKRA_EM_OPTIONS_H_

#include <cstdint>
#include <string>

#include "util/check.h"

namespace tokra::obs {
class Histogram;
}  // namespace tokra::obs

namespace tokra::em {

class FaultInjector;

/// One machine word of the EM model. 64 bits >= Omega(lg n) for any input this
/// library can hold, matching the paper's word-size assumption.
using word_t = std::uint64_t;

/// Block identifier on the simulated disk.
using BlockId = std::uint64_t;

/// Sentinel for "no block".
inline constexpr BlockId kNullBlock = ~BlockId{0};

/// Fixed words at the head of a pager superblock (mirrored as
/// Pager::kSuperHeaderWords).
inline constexpr std::uint32_t kSuperblockHeaderWords = 14;

/// Floor on EmOptions::block_words. A checkpoint needs the superblock
/// header plus one word per root, and every pager client in this library
/// records at least its meta block as root 0, so Validate() enforces
/// header + 1 — a validated configuration can always persist a bare
/// structure instead of discovering the mismatch at checkpoint time.
/// Clients recording more roots validate their own larger floor (see
/// engine::kShardCheckpointRoots).
inline constexpr std::uint32_t kMinBlockWords = kSuperblockHeaderWords + 1;

/// Storage backend behind a pager's block device.
enum class Backend {
  kMem,    ///< in-memory simulation (volatile; the original seed behaviour)
  kFile,   ///< pread/pwrite on a regular file (durable across restarts)
  kMmap,   ///< file backend serving reads from a shared mapping: warm reads
           ///< borrow pointers into the OS page cache (zero-copy) instead of
           ///< copying into pool frames; writes stay on the pwrite path
};

/// Latency histograms the em layer records into when attached (all
/// optional; a null pointer disables that timer entirely — no clock
/// reads). The pointers must outlive every pager/pool/WAL built from the
/// carrying EmOptions; the engine owns them in its MetricsRegistry and
/// destroys telemetry after the shards.
struct EmMetrics {
  obs::Histogram* eviction_stall_us = nullptr;  ///< dirty-frame write-backs
  obs::Histogram* wal_append_us = nullptr;      ///< WriteAheadLog::Append
  obs::Histogram* wal_fsync_us = nullptr;       ///< real WAL fsync barriers
  obs::Histogram* checkpoint_us = nullptr;      ///< Pager::Checkpoint
};

/// Aggarwal-Vitter model parameters: a memory of `M` words and a disk of
/// blocks of `B` words. The model requires M = Omega(B); the pool keeps
/// M/B frames.
struct EmOptions {
  /// B: words per block. Must be >= kMinBlockWords (which also covers the
  /// >= 8 words every node header needs).
  std::uint32_t block_words = 256;

  /// M/B: number of block frames the buffer pool may hold in memory.
  std::uint32_t pool_frames = 16;

  /// Which device implementation backs the pager.
  Backend backend = Backend::kMem;

  /// Backing file for Backend::kFile (required for that backend).
  std::string path = {};

  /// File backend: make Sync() an fsync, so checkpoints survive power loss
  /// rather than just process exit. Costly; off by default.
  bool durable_sync = false;

  /// File-backed backends: open the device O_RDONLY and refuse every write
  /// (EnsureCapacity growth included). This is the snapshot-serving mode:
  /// a read-only device can be shared between many pagers mapping the same
  /// immutable file. Only meaningful with Pager::Open (a fresh pager must
  /// truncate, which a read-only open cannot).
  bool read_only = false;

  /// Epoch-based copy-on-write checkpoints (MVCC serving; DESIGN.md §14).
  /// On, the pager never overwrites a checkpoint-referenced block in place:
  /// the first post-checkpoint write-back of such a block is redirected to a
  /// freshly allocated block and the logical id remapped (the translation
  /// map is serialized with every superblock), so the newest completed
  /// checkpoint stays byte-intact on the device at all times. Readers pin a
  /// published epoch (Pager::PinEpoch) and read it lock-free through shared
  /// read-view devices; superseded blocks return to the free list only once
  /// every pin at or before their epoch has drained. Pre-image WAL records
  /// become unnecessary (and are skipped): COW is the undo log. A device
  /// checkpointed in COW mode reopens in COW mode regardless of this flag.
  bool cow_epochs = false;

  /// When non-empty, the pager runs a write-ahead log on this file (a
  /// sibling of `path`, e.g. `shard-0.wal`): every home-file write between
  /// checkpoints is preceded by an undo pre-image append, Checkpoint()
  /// stamps the covered LSN into the superblock and truncates the log, and
  /// Open() rolls torn inter-checkpoint writes back to the exact checkpoint
  /// state before handing the pager out. Clients append their own logical
  /// redo records through Pager::wal(). Requires a file-backed `path`-style
  /// setup in spirit but works on any backend (the log itself is always a
  /// file).
  std::string wal_path = {};

  /// WAL segment rotation threshold, in log blocks: Truncate() rotates to a
  /// fresh segment file once the current one exceeds this many blocks
  /// (smaller logs are truncated logically and keep their file). Bounds the
  /// steady-state log size at max(one checkpoint interval, this).
  std::uint32_t wal_rotate_blocks = 1024;

  /// WAL power-loss durability: every Sync() of the log is a real fsync and
  /// pre-image appends are made durable before the home write they guard.
  /// Off, the log rides the OS page cache — it survives SIGKILL / process
  /// death (the kill-and-recover contract) but not power loss, mirroring
  /// `durable_sync` for the home file.
  bool wal_fsync = false;

  /// Optional telemetry sink (see EmMetrics). Copied by value through
  /// ShardEm-style specializations, so one engine-owned struct reaches
  /// every shard's pager, pool, and log.
  const EmMetrics* metrics = nullptr;

  /// Test hook: when set, MakeBlockDevice wraps the built backend in a
  /// FaultInjectingBlockDevice consulting this injector (see
  /// em/fault_device.h), and the pager's WAL wraps its log device the same
  /// way. Non-owning, like `metrics`; must outlive every device built from
  /// the carrying EmOptions. Null (the default) adds no wrapper and no
  /// overhead.
  FaultInjector* fault = nullptr;

  void Validate() const {
    TOKRA_CHECK(block_words >= kMinBlockWords);
    TOKRA_CHECK(pool_frames >= 4);
    TOKRA_CHECK(backend == Backend::kMem || !path.empty());
    // read_only + kMem is only reachable through Pager::OpenOn (an epoch
    // read view aliasing a live in-memory device); Pager::Open still
    // refuses kMem with a proper Status.
    // A read-only pager must not own a log: scanning is fine (WalReader),
    // but attaching one implies undo writes on open and appends later.
    TOKRA_CHECK(wal_path.empty() || !read_only);
    TOKRA_CHECK(wal_rotate_blocks >= 1);
  }
};

}  // namespace tokra::em

#endif  // TOKRA_EM_OPTIONS_H_
