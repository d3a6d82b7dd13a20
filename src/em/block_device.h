// The block device: an unbounded array of blocks of B words, behind an
// abstract interface so the same structures run on a volatile in-memory
// simulation (tests, benches) or a durable file (services).

#ifndef TOKRA_EM_BLOCK_DEVICE_H_
#define TOKRA_EM_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "em/io_stats.h"
#include "em/options.h"
#include "util/check.h"
#include "util/status.h"

namespace tokra::em {

/// Abstract block disk.
///
/// Every Read/Write transfers exactly one block and increments the matching
/// counter; these counters are the ground truth for all I/O measurements in
/// the repository. Counting lives here, in the non-virtual public methods,
/// so every backend reports identical counts for identical access sequences
/// by construction. The device grows on demand (the EM model's disk is
/// unbounded).
class BlockDevice {
 public:
  explicit BlockDevice(std::uint32_t block_words)
      : block_words_(block_words) {
    TOKRA_CHECK(block_words >= 1);
  }
  virtual ~BlockDevice() = default;
  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  std::uint32_t block_words() const { return block_words_; }

  /// Number of blocks the device currently backs.
  virtual BlockId NumBlocks() const = 0;

  /// Reads block `id` into `dst` (must hold block_words() words). One I/O.
  ///
  /// Failed-device semantics (see io_status()): reads keep serving — from
  /// the post-failure overlay when the block was written after the
  /// failure, from the backend otherwise — so a live structure never walks
  /// garbage while the sticky error propagates to its chokepoint. Blocks
  /// the backend never materialized read as zeros.
  void Read(BlockId id, word_t* dst) {
    ++reads_;
    if (failed_) {
      if (OverlayLookup(id, dst)) return;
      if (id < NumBlocks()) {
        DoRead(id, dst);
      } else {
        std::memset(dst, 0, std::size_t{block_words_} * sizeof(word_t));
      }
      return;
    }
    TOKRA_CHECK(id < NumBlocks());
    DoRead(id, dst);
  }

  /// Writes `src` (block_words() words) to block `id`, growing the device if
  /// needed. One I/O.
  ///
  /// Failed-device semantics: the medium is frozen at the failure point —
  /// nothing written after a device fails may clobber bytes a recovery
  /// will read (in particular checkpoint-live blocks whose pre-image guard
  /// could no longer be logged). Post-failure writes land in an in-memory
  /// overlay instead, so the live process stays coherent until the error
  /// reaches its chokepoint and the caller stops using this device.
  void Write(BlockId id, const word_t* src) {
    ++writes_;
    if (failed_) {
      OverlayCapture(id, src);
      return;
    }
    EnsureCapacity(id + 1);
    DoWrite(id, src);
    // A write during which the device failed has unspecified bytes on the
    // medium (short pwrite, torn injection): capture the intended content
    // so later reads of the live process stay coherent.
    if (failed_) OverlayCapture(id, src);
  }

  /// Reads `count` consecutive blocks starting at `first` into `dst` (which
  /// must hold count * block_words() words). Counts `count` read I/Os — the
  /// model charges per block — but backends may fuse the transfer (one
  /// memcpy, one pread) for sequential-scan throughput.
  void ReadRun(BlockId first, std::uint32_t count, word_t* dst) {
    if (count == 0) return;
    if (failed_) {
      // Per-block on the slow path: each member may come from the overlay.
      for (std::uint32_t i = 0; i < count; ++i) {
        Read(first + i, dst + std::size_t{i} * block_words_);
      }
      return;
    }
    TOKRA_CHECK(first + count <= NumBlocks());
    reads_ += count;
    DoReadRun(first, count, dst);
  }

  /// Writes `count` consecutive blocks starting at `first`, growing the
  /// device if needed. Counts `count` write I/Os.
  void WriteRun(BlockId first, std::uint32_t count, const word_t* src) {
    if (count == 0) return;
    if (failed_) {
      for (std::uint32_t i = 0; i < count; ++i) {
        Write(first + i, src + std::size_t{i} * block_words_);
      }
      return;
    }
    EnsureCapacity(first + count);
    writes_ += count;
    DoWriteRun(first, count, src);
    if (failed_) {
      for (std::uint32_t i = 0; i < count; ++i) {
        OverlayCapture(first + i, src + std::size_t{i} * block_words_);
      }
    }
  }

  /// Whether TryBorrowRead can ever succeed on this device. The buffer pool
  /// checks once at construction to enable its borrowed-frame mode.
  virtual bool SupportsBorrowedReads() const { return false; }

  /// Zero-copy read: returns a pointer to block `id`'s current contents
  /// (block_words() words, stable until the device is destroyed), or
  /// nullptr when the backend cannot borrow. Counts one read I/O exactly
  /// when it succeeds — counting stays here in the base class, so a
  /// workload's logical cost is identical whether a block was copied into a
  /// frame or borrowed from the mapping. The memory is read-only; writers
  /// must copy into their own frame first (the pool's copy-on-write pin).
  const word_t* TryBorrowRead(BlockId id) {
    // A failed device refuses to borrow: the copying Read path serves the
    // post-failure overlay, which a pointer into the mapping cannot.
    if (failed_) return nullptr;
    TOKRA_CHECK(id < NumBlocks());
    const word_t* p = DoBorrowRead(id);
    if (p != nullptr) ++reads_;
    return p;
  }

  /// Extends the device to back at least `blocks` blocks (zero-filled).
  /// Growing is free: it models formatting, not data transfer.
  virtual void EnsureCapacity(BlockId blocks) = 0;

  /// Durability barrier: everything written before Sync() survives process
  /// death on persistent backends. No-op on volatile ones.
  virtual void Sync() {}

  /// Bench/test hook: drops any OS-level caching of the device contents
  /// (after flushing), so the next reads measure the real medium instead of
  /// the page cache. No-op on backends without one. Never changes contents
  /// or I/O counts — only where the next transfers are served from.
  virtual void DropOsCache() {}

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  /// Real durability barriers issued (fsync and friends). Page-cache no-op
  /// Syncs are not counted — this tracks what the hardware was asked to do.
  std::uint64_t syncs() const { return syncs_; }

  /// Sticky device health. The first recorded I/O error wins and never
  /// clears: once a write was dropped or an fsync was not acknowledged, the
  /// device can no longer promise anything about what is durable (the
  /// fsyncgate lesson), so it stays failed until the file is reopened
  /// through recovery. Upper layers (pager, WAL, engine) consult this at
  /// their operation chokepoints instead of threading a Status through
  /// every DoRead/DoWrite signature.
  virtual Status io_status() const { return io_status_; }
  bool io_failed() const { return !io_status().ok(); }
  /// Count of device-level I/O failures observed (every failed syscall or
  /// injected fault, not just the first sticky one).
  virtual std::uint64_t io_errors() const { return io_errors_; }
  /// Faults delivered by a FaultInjectingBlockDevice wrapper; 0 on real
  /// backends.
  virtual std::uint64_t injected_faults() const { return 0; }

  /// Marks the device failed from outside (first error wins). Used by the
  /// pager to poison a home device whose pre-image guard log failed: a
  /// write-back without its undo record must never be acknowledged as
  /// durable.
  void PoisonIo(Status error) { RecordIoError(std::move(error)); }

  // ---- Shared read views (MVCC epoch serving; DESIGN.md §14) ----

  /// Returns a non-owning read-only alias of this device's current
  /// contents, or nullptr when the backend cannot share one (or the device
  /// has failed). The alias counts its own IoStats (this device's counters
  /// are untouched by reads through it) and refuses every write.
  ///
  /// Concurrency contract: the alias may be read from other threads while
  /// this device keeps writing, PROVIDED the writer never mutates a block
  /// the reader dereferences — exactly the pager's copy-on-write epoch
  /// discipline, where every block reachable from a published checkpoint is
  /// immutable until all epoch pins drain. The alias must not outlive this
  /// device.
  std::unique_ptr<BlockDevice> TryShareReadView();

  /// Backend support hooks for TryShareReadView. Public only so the alias
  /// device (a different BlockDevice object) can reach them; not for
  /// application use. ViewRead/ViewBorrow must be thread-safe against the
  /// owner's writes to *other* blocks and must not touch this device's
  /// counters or sticky error state.
  virtual bool ViewSupportsReads() const { return false; }
  virtual bool ViewSupportsBorrows() const { return false; }
  virtual bool ViewRead(BlockId id, word_t* dst) {
    (void)id;
    (void)dst;
    return false;
  }
  virtual const word_t* ViewBorrow(BlockId id) {
    (void)id;
    return nullptr;
  }
  virtual BlockId ViewNumBlocks() const { return NumBlocks(); }

 protected:
  /// Backends call this from Sync() exactly when a real barrier ran.
  void CountSync() { ++syncs_; }

  /// Records a device-level I/O failure: increments io_errors and latches
  /// the first non-OK status (sticky).
  void RecordIoError(Status error) {
    TOKRA_CHECK(!error.ok());
    ++io_errors_;
    failed_ = true;
    if (io_status_.ok()) io_status_ = std::move(error);
  }

  virtual void DoRead(BlockId id, word_t* dst) = 0;
  virtual void DoWrite(BlockId id, const word_t* src) = 0;
  virtual void DoReadRun(BlockId first, std::uint32_t count, word_t* dst) {
    for (std::uint32_t i = 0; i < count; ++i) {
      DoRead(first + i, dst + std::size_t{i} * block_words_);
    }
  }
  virtual void DoWriteRun(BlockId first, std::uint32_t count,
                          const word_t* src) {
    for (std::uint32_t i = 0; i < count; ++i) {
      DoWrite(first + i, src + std::size_t{i} * block_words_);
    }
  }
  virtual const word_t* DoBorrowRead(BlockId id) {
    (void)id;
    return nullptr;
  }

 private:
  /// Post-failure overlay (see Write).
  void OverlayCapture(BlockId id, const word_t* src) {
    auto& slot = overlay_[id];
    slot.assign(src, src + block_words_);
  }
  bool OverlayLookup(BlockId id, word_t* dst) const {
    auto it = overlay_.find(id);
    if (it == overlay_.end()) return false;
    std::memcpy(dst, it->second.data(),
                std::size_t{block_words_} * sizeof(word_t));
    return true;
  }

  std::uint32_t block_words_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t io_errors_ = 0;
  bool failed_ = false;  // cheap mirror of io_status_.ok() for hot paths
  Status io_status_;     // sticky: first error wins
  // Writes issued after this device failed: the medium stays frozen for
  // recovery while the live process keeps a coherent view. Empty (and
  // never touched) on a healthy device.
  std::unordered_map<BlockId, std::vector<word_t>> overlay_;
};

/// Read-only alias over another device's ViewRead/ViewBorrow hooks — what
/// BlockDevice::TryShareReadView hands out. Counts its own IoStats (so an
/// epoch reader's cost is measurable separately from the writer's) and
/// CHECK-fails on any write. Non-owning: the parent must outlive it, which
/// the pager's epoch-pin lifetime rule guarantees.
class ReadViewDevice final : public BlockDevice {
 public:
  explicit ReadViewDevice(BlockDevice* parent)
      : BlockDevice(parent->block_words()), parent_(parent) {}

  BlockId NumBlocks() const override { return parent_->ViewNumBlocks(); }
  void EnsureCapacity(BlockId blocks) override {
    // Reads through Pager never grow; anything else is a write-path bug.
    TOKRA_CHECK(blocks <= NumBlocks());
  }
  bool SupportsBorrowedReads() const override {
    return parent_->ViewSupportsBorrows();
  }

 protected:
  void DoRead(BlockId id, word_t* dst) override;
  void DoWrite(BlockId id, const word_t* src) override;
  const word_t* DoBorrowRead(BlockId id) override {
    return parent_->ViewBorrow(id);
  }

 private:
  BlockDevice* parent_;
};

/// In-memory backend: the EM-model simulation the repository started with.
/// Volatile and zero-setup — the default for tests and benches.
///
/// Storage is a two-level table of fixed-size chunks rather than one
/// contiguous vector: growing allocates new chunks without ever moving
/// existing ones, so pointers handed out by ViewBorrow (and reads through a
/// shared read view on another thread) stay valid while the owner keeps
/// appending. Capacity tops out at kRootPages * kPageChunks * kChunkBlocks
/// blocks (2^28 blocks — far beyond any simulated disk here).
class MemBlockDevice final : public BlockDevice {
 public:
  static constexpr std::uint32_t kChunkBlocks = 1024;  // blocks per chunk
  static constexpr std::uint32_t kPageChunks = 512;    // chunk slots per page
  static constexpr std::uint32_t kRootPages = 512;     // page slots at root

  explicit MemBlockDevice(std::uint32_t block_words)
      : BlockDevice(block_words) {}
  ~MemBlockDevice() override;

  BlockId NumBlocks() const override {
    return num_blocks_.load(std::memory_order_acquire);
  }
  void EnsureCapacity(BlockId blocks) override;

  // The simulation supports zero-copy and shared read views natively: chunk
  // addresses are stable and a block never straddles chunks.
  bool SupportsBorrowedReads() const override { return true; }
  bool ViewSupportsReads() const override { return true; }
  bool ViewSupportsBorrows() const override { return true; }
  bool ViewRead(BlockId id, word_t* dst) override;
  const word_t* ViewBorrow(BlockId id) override { return BlockPtr(id); }

 protected:
  void DoRead(BlockId id, word_t* dst) override;
  void DoWrite(BlockId id, const word_t* src) override;
  void DoReadRun(BlockId first, std::uint32_t count, word_t* dst) override;
  void DoWriteRun(BlockId first, std::uint32_t count,
                  const word_t* src) override;
  const word_t* DoBorrowRead(BlockId id) override { return BlockPtr(id); }

 private:
  struct Page {
    std::atomic<word_t*> chunks[kPageChunks] = {};
  };

  std::size_t BytesPerBlock() const {
    return std::size_t{block_words()} * sizeof(word_t);
  }
  /// Address of block `id`, which must be < NumBlocks(). Safe from reader
  /// threads: chunk publication uses release stores matched by the acquire
  /// loads here and in NumBlocks().
  word_t* BlockPtr(BlockId id) const;

  std::atomic<Page*> pages_[kRootPages] = {};
  std::atomic<BlockId> num_blocks_{0};
};

/// Creates the backend `options` describes. `truncate_file` makes a file
/// backend start empty (fresh device) instead of opening existing contents;
/// it is ignored by the memory backend. Defined in file_block_device.cc.
std::unique_ptr<BlockDevice> MakeBlockDevice(const EmOptions& options,
                                             bool truncate_file);

}  // namespace tokra::em

#endif  // TOKRA_EM_BLOCK_DEVICE_H_
