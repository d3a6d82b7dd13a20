// Pager: block allocation plus pinned typed access on top of the buffer pool.
//
// Every persistent byte of every structure in this library lives in pager
// blocks; the pager is the single chokepoint through which all I/O flows.
//
// Persistence: blocks 0 and 1 of every device are reserved as two
// alternating superblock slots. Checkpoint() flushes the pool and
// serializes the allocator state (next block, free list, blocks-in-use)
// plus an application root directory into the next slot (epoch + checksum
// make the checkpoint write itself atomic); Open() restores the newest
// complete checkpoint, so a structure whose meta-block id is recorded as a
// root survives process restarts without rebuilding.
//
// Crash consistency between checkpoints: with EmOptions::wal_path set the
// pager attaches a write-ahead log and becomes its pre-image (undo) writer —
// before the first post-checkpoint overwrite of a checkpoint-live home
// block, the block's checkpoint-time content is appended to the log (the
// pool's WriteBarrier seam), so Open() can roll any torn inter-checkpoint
// state back to the exact last checkpoint before clients replay their own
// logical records from the same log (Pager::wal()). Checkpoint() stamps the
// covered LSN into the superblock and truncates the log behind it. Without
// a wal_path the contract stays checkpoint-granular, exactly as before.

#ifndef TOKRA_EM_PAGER_H_
#define TOKRA_EM_PAGER_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/io_stats.h"
#include "em/options.h"
#include "em/wal.h"
#include "util/check.h"
#include "util/status.h"

namespace tokra::em {

class Pager;

/// RAII pin on one block. Move-only; unpins on destruction.
///
/// Mutation marks the frame dirty so it is written back on eviction/flush.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    return *this;
  }
  ~PageRef() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  BlockId id() const { return pool_->FrameBlock(frame_); }

  /// Read-only view of the block's words. On a borrowed frame this is the
  /// device mapping itself (zero-copy); reads must go through here or Get,
  /// never through mutable access, to stay copy-free.
  std::span<const word_t> words() const {
    return {pool_->ReadData(frame_), WordsPerBlock()};
  }

  /// Mutable view; marks the page dirty (upgrading a borrowed frame to an
  /// owned copy first, so write-back never aliases the mapping).
  std::span<word_t> mutable_words() {
    dirty_ = true;
    return {pool_->FrameData(frame_), WordsPerBlock()};
  }

  word_t Get(std::size_t i) const {
    TOKRA_DCHECK(i < WordsPerBlock());
    return pool_->ReadData(frame_)[i];
  }
  void Set(std::size_t i, word_t v) {
    TOKRA_DCHECK(i < WordsPerBlock());
    dirty_ = true;
    pool_->FrameData(frame_)[i] = v;
  }

  double GetDouble(std::size_t i) const { return std::bit_cast<double>(Get(i)); }
  void SetDouble(std::size_t i, double v) { Set(i, std::bit_cast<word_t>(v)); }

 private:
  friend class Pager;
  PageRef(BufferPool* pool, std::uint32_t frame) : pool_(pool), frame_(frame) {}

  std::size_t WordsPerBlock() const;

  void Release() {
    if (pool_ != nullptr) {
      pool_->Unpin(frame_, dirty_);
      pool_ = nullptr;
      dirty_ = false;
    }
  }

  BufferPool* pool_ = nullptr;
  std::uint32_t frame_ = 0;
  bool dirty_ = false;
};

/// RAII hold on one published checkpoint epoch (cow_epochs mode). While any
/// pin at or before epoch E is alive, no block that epoch E references is
/// reused or overwritten — the immutability window that makes lock-free
/// snapshot reads through ShareReadView()/OpenOn() safe. Move-only; thread-
/// safe to create and release from any thread.
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  EpochPin(EpochPin&& other) noexcept
      : pager_(other.pager_), epoch_(other.epoch_) {
    other.pager_ = nullptr;
  }
  EpochPin& operator=(EpochPin&& other) noexcept {
    Release();
    pager_ = other.pager_;
    epoch_ = other.epoch_;
    other.pager_ = nullptr;
    return *this;
  }
  ~EpochPin() { Release(); }

  bool valid() const { return pager_ != nullptr; }
  std::uint64_t epoch() const { return epoch_; }
  void Release();

 private:
  friend class Pager;
  EpochPin(Pager* pager, std::uint64_t epoch)
      : pager_(pager), epoch_(epoch) {}

  Pager* pager_ = nullptr;
  std::uint64_t epoch_ = 0;
};

/// Block-accounting snapshot — the measurement seed for free-space
/// compaction: a long-lived file device never shrinks (freed blocks are
/// reused but the file keeps its high-water mark), and the gap between
/// `allocated_blocks` and `file_blocks` is exactly what a compactor could
/// reclaim by relocating live blocks downward and truncating.
struct SpaceStats {
  std::uint64_t allocated_blocks = 0;  ///< application blocks in use
  std::uint64_t free_blocks = 0;       ///< on the allocator free list
  std::uint64_t reserved_blocks = 0;   ///< superblock slots + spill region
  std::uint64_t file_blocks = 0;       ///< device high-water mark
  std::uint64_t retiring_blocks = 0;   ///< COW-superseded, awaiting epoch-pin
                                       ///< drain before rejoining the free
                                       ///< list (0 outside cow_epochs mode)
};

/// Owns the device + pool; allocates and frees blocks; hands out pins.
class Pager : private WriteBarrier, private BlockTranslator {
 public:
  /// A fresh pager on a fresh device (a file backend truncates any existing
  /// contents). Blocks 0 and 1 are reserved as superblock slots; allocation
  /// starts at block 2.
  explicit Pager(const EmOptions& options);

  /// Reopens a checkpointed device, restoring the allocator state and root
  /// directory recorded by the last Checkpoint(). File backend only (a
  /// fresh memory device has nothing to reopen). With options.read_only
  /// the device is opened O_RDONLY — the snapshot-serving mode: many
  /// pagers may open the same immutable file concurrently (kMmap shares
  /// their cached pages through the OS page cache), and Checkpoint() is
  /// refused.
  static StatusOr<std::unique_ptr<Pager>> Open(const EmOptions& options);

  /// B, in words.
  std::uint32_t B() const { return options_.block_words; }
  const EmOptions& options() const { return options_; }
  BlockDevice* device() { return device_.get(); }

  /// Sticky health of the whole durability stack: the first error recorded
  /// by the home device or the attached log. Non-OK means data written
  /// since the error may not be durable — callers must stop acknowledging
  /// (Checkpoint() refuses; the engine fails the shard).
  Status io_status() const {
    Status home = device_->io_status();
    if (!home.ok()) return home;
    return wal_ != nullptr ? wal_->io_status() : Status::Ok();
  }
  /// The two legs separately: a failed home device poisons reads and
  /// writes alike, while a failed log alone still serves reads correctly —
  /// the engine's failed-versus-read-only shard distinction. (Note the
  /// pager itself escalates a log failure to the home device the moment a
  /// write-back would need the lost pre-images; until then reads are safe.)
  Status home_io_status() const { return device_->io_status(); }
  Status wal_io_status() const {
    return wal_ != nullptr ? wal_->io_status() : Status::Ok();
  }

  /// Allocates a zeroed block. Allocation bookkeeping is O(1) metadata and
  /// costs no I/O; the block's first materialization to disk is charged when
  /// its frame is evicted or flushed.
  BlockId Allocate() {
    if (cow_) DrainRetired();
    BlockId id = AllocLocation();
    ++blocks_in_use_;
    return id;
  }

  /// Returns a block to the free list; any cached copy is discarded. In
  /// cow_epochs mode a block the last published checkpoint references is
  /// parked for epoch retirement instead of becoming reusable immediately.
  void Free(BlockId id) {
    TOKRA_CHECK(id != kNullBlock);
    pool_.Invalidate(id);
    if (cow_) {
      CowFree(id);
    } else {
      free_list_.push_back(id);
    }
    TOKRA_CHECK(blocks_in_use_ > 0);
    --blocks_in_use_;
  }

  /// Pins `id` for reading (and possibly writing). One read I/O on pool miss.
  PageRef Fetch(BlockId id) {
    return PageRef(&pool_, pool_.Pin(id, BufferPool::PinMode::kRead));
  }

  /// Pins `id` zero-filled without reading the device — for blocks whose
  /// entire contents the caller is about to overwrite (e.g. fresh nodes).
  PageRef Create(BlockId id) {
    return PageRef(&pool_, pool_.Pin(id, BufferPool::PinMode::kCreate));
  }

  /// Loads any uncached blocks of `ids` into the pool without pinning: the
  /// Fetches that follow become pool hits. A hint (blocks that do not fit
  /// next to the current pins are skipped), so it never changes results —
  /// only when transfers happen. Hint-then-Fetch keeps the O(1) pin budget
  /// of every algorithm intact, where a pin-them-all API would tie
  /// correctness to the frame count.
  void Prefetch(std::span<const BlockId> ids) { pool_.Prefetch(ids); }

  /// Flushes the pool and serializes allocator state plus `roots` — an
  /// application-defined directory of up to B - kSuperHeaderWords words,
  /// typically structure meta-block ids — into the next superblock slot,
  /// with durability barriers on either side.
  ///
  /// Guarantee: Open() restores the state as of the last *completed*
  /// checkpoint. The checkpoint write sequence itself is atomic — a torn or
  /// interrupted superblock write is detected by checksum and falls back to
  /// the previous slot, and free-list spill blocks stay reserved until the
  /// next checkpoint supersedes them — so checkpoint-then-exit is always
  /// recoverable. Updates *between* checkpoints mutate blocks in place;
  /// without a WAL a crash after them leaves the device a mix of old and
  /// new block contents and recovery of the previous checkpoint is not
  /// guaranteed. With a WAL attached (EmOptions::wal_path) every such
  /// in-place write is preceded by an undo pre-image append, Open() rolls
  /// the mix back to the checkpoint, and this method additionally stamps
  /// the covered LSN into the superblock and truncates the log once the
  /// commit supersedes it.
  Status Checkpoint(std::span<const std::uint64_t> roots);

  /// Root directory recorded by the last Checkpoint() or restored by Open().
  const std::vector<std::uint64_t>& roots() const { return roots_; }

  /// The attached write-ahead log (EmOptions::wal_path), else nullptr.
  /// Clients append their logical redo records here (one per accepted
  /// update group + one Sync is the group commit); records with LSN greater
  /// than wal_checkpoint_lsn() are the replay tail.
  WriteAheadLog* wal() { return wal_.get(); }

  /// LSN covered by the restored/last-written checkpoint: every record at
  /// or below it is already reflected in the checkpointed state.
  std::uint64_t wal_checkpoint_lsn() const { return wal_ckpt_lsn_; }

  /// For WAL-less pagers only: makes the next Checkpoint() stamp `lsn` as
  /// the covered LSN. This is how a replacement file built on the side
  /// (the engine's rebalance) adopts the live shard's log without touching
  /// it: the side file is checkpointed with the log's current head, so
  /// once renamed into place every existing record is inert and the log
  /// simply continues. A pager with its own log always stamps that log's
  /// head instead.
  void OverrideWalCheckpointLsn(std::uint64_t lsn) {
    TOKRA_CHECK(wal_ == nullptr);
    wal_ckpt_lsn_ = lsn;
  }

  /// Space usage in blocks — the paper's space metric.
  std::uint64_t BlocksInUse() const { return blocks_in_use_; }

  /// Allocator/file accounting (free-space + high-water measurement seed).
  SpaceStats Space() const {
    SpaceStats s;
    s.allocated_blocks = blocks_in_use_;
    s.free_blocks = free_list_.size();
    s.reserved_blocks = kReservedBlocks + spill_count_ + spare_spill_count_;
    s.file_blocks = device_->NumBlocks();
    if (cow_) {
      std::lock_guard<std::mutex> lock(epochs_mu_);
      s.retiring_blocks = deferred_.size() + retire_ready_.size();
      for (const auto& [tag, batch] : retire_queue_) {
        s.retiring_blocks += batch.size();
      }
    }
    return s;
  }

  /// Combined device + pool + log counters.
  IoStats stats() const {
    IoStats s = pool_.stats();
    s.reads = device_->reads();
    s.writes = device_->writes();
    s.fsyncs = device_->syncs() + (wal_ != nullptr ? wal_->fsyncs() : 0);
    s.wal_appends = wal_ != nullptr ? wal_->appends() : 0;
    s.io_errors =
        device_->io_errors() + (wal_ != nullptr ? wal_->io_errors() : 0);
    s.injected_faults = device_->injected_faults() +
                        (wal_ != nullptr ? wal_->injected_faults() : 0);
    s.retired_blocks = retired_total_.load(std::memory_order_relaxed);
    return s;
  }

  void FlushAll() { pool_.FlushAll(); }

  /// Flushes and empties the pool: the next pins all miss (cold cache).
  void DropCache() { pool_.DropAll(); }

  // ---- Epoch-based MVCC serving (cow_epochs mode; DESIGN.md §14) ----

  /// Whether this pager runs copy-on-write checkpoints (the option, or a
  /// device whose last checkpoint was written in COW mode — such a device
  /// reopens COW regardless of the flag: its translation map is live).
  bool cow_epochs() const { return cow_; }

  /// Epoch of the newest completed (published) checkpoint. 0 until the
  /// first Checkpoint() commits. Thread-safe.
  std::uint64_t published_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Pins the newest published epoch: until the pin is released, every
  /// block that checkpoint references stays byte-intact on the device.
  /// Thread-safe; O(lg #distinct-pinned-epochs).
  EpochPin PinEpoch();

  /// Number of distinct epochs currently pinned. Thread-safe.
  std::uint64_t PinnedEpochs() const {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    return pins_.size();
  }

  /// Total superseded blocks retired to the free list over this pager's
  /// lifetime (epoch pins drained + newer epoch published). Thread-safe.
  std::uint64_t retired_blocks_total() const {
    return retired_total_.load(std::memory_order_relaxed);
  }

  /// Read-only alias of the home device for lock-free snapshot serving, or
  /// nullptr when the backend cannot share one. Pair with PinEpoch() and
  /// OpenOn(): the pin freezes the published checkpoint, the view reads it
  /// without touching this pager's pool or counters.
  std::unique_ptr<BlockDevice> ShareReadView() {
    return device_->TryShareReadView();
  }

  /// Opens a read-only pager directly on `device` — typically a
  /// ShareReadView() alias of a live COW pager, whose newest published
  /// checkpoint it loads. Forces read_only, never attaches a WAL, works on
  /// any backend (including the in-memory one: the view aliases live
  /// memory, there is no file to reopen). While it serves reads the caller
  /// must hold an EpochPin on the owning pager at or before the epoch this
  /// pager has loaded (AdvanceReadView moves it forward), and the owning
  /// device must outlive it.
  static StatusOr<std::unique_ptr<Pager>> OpenOn(
      std::unique_ptr<BlockDevice> device, EmOptions options);

  /// One translation-map change: (name, location), where location == name
  /// means the name has no entry (identity, or freed).
  using MapEntry = std::pair<BlockId, BlockId>;

  /// Writer side, COW only: the last publish's map delta — every name
  /// written back or freed in (E-1, E], E = published_epoch(), once, in
  /// order, paired with its location in the map that commit serialized. A
  /// checkpoint that fails to publish keeps collecting, so the next publish
  /// reports a superset. Only a write-back or a free moves a location, so
  /// the delta covers every map entry that may differ between E-1 and E.
  const std::vector<MapEntry>& published_delta() const {
    return published_delta_;
  }

  /// Allocator-stream words (free ids, map pairs) of the last checkpoint
  /// written or loaded: the O(map) image every checkpoint serializes.
  std::size_t checkpoint_stream_words() const {
    return checkpoint_stream_words_;
  }

  /// Read-view side: moves an OpenOn() pager to the owner's epoch
  /// `expected_epoch` in place, keeping its pool warm. One epoch behind, it
  /// drops only the cached names in `delta` (the owner's published_delta()
  /// for that epoch), reads and checks both superblock slots, takes its
  /// roots from the newest, and applies the delta's pairs to the
  /// translation map — no spill read, no stream parse, and no free list
  /// kept (a read-only pager never allocates). Further behind, it drops the
  /// whole pool and loads the whole stream. Fails, leaving the roots and
  /// translation map of the old epoch, when the newest valid superblock is
  /// not `expected_epoch` (an unreadable newest slot falls back to an older
  /// one, whose blocks the caller's pin may no longer protect). The caller
  /// must hold a pin at or before `expected_epoch` and must have no page of
  /// this pager pinned.
  Status AdvanceReadView(std::uint64_t expected_epoch,
                         std::span<const MapEntry> delta);

  /// Fixed words at the head of the superblock, preceding roots and the
  /// inline free list. EmOptions::Validate() enforces block_words >= this,
  /// so every validated configuration can checkpoint.
  static constexpr std::uint32_t kSuperHeaderWords = kSuperblockHeaderWords;

  /// Blocks reserved at the front of every device (the superblock slots).
  static constexpr BlockId kReservedBlocks = 2;

  ~Pager();

 private:
  friend class EpochPin;

  Pager(const EmOptions& options, std::unique_ptr<BlockDevice> device);

  /// Restores allocator state + roots from the newest valid superblock.
  /// Non-OK on a device that was never checkpointed, disagrees with
  /// `options_`, or (when `expected_epoch` is non-zero) whose newest valid
  /// superblock has another epoch. Transactional: every check runs before
  /// any member changes, so a failed load leaves the pager as it was. With
  /// `delta` (a one-epoch advance) the header is still read and checked,
  /// but the stream is neither read nor parsed: the pairs of *delta are
  /// applied to map_, whose other entries must already match the stream.
  Status LoadSuperblock(std::uint64_t expected_epoch = 0,
                        const std::span<const MapEntry>* delta = nullptr);

  // ---- COW epoch machinery (cow_ only; see DESIGN.md §14) ----
  //
  // One id space serves two roles: the *name* a client holds (stable across
  // checkpoints) and the *location* on the device. map_ carries every name
  // whose current location differs from itself; absence means identity.
  // The free list only ever holds ids free in BOTH roles, so AllocLocation
  // can hand one out for either purpose.

  /// BlockTranslator: where a block's current contents live.
  BlockId TranslateRead(BlockId id) override {
    auto it = map_.find(id);
    return it != map_.end() ? it->second : id;
  }
  /// BlockTranslator: where this write-back lands. In place when the home
  /// location was allocated this interval (no published checkpoint can
  /// reference it); otherwise redirected to a fresh location, the old one
  /// parked for retirement at the next publish.
  BlockId RedirectWrite(BlockId id) override;

  /// Pops a location from the free list (else the high-water mark),
  /// marking it interval-fresh in COW mode. No blocks_in_use_ accounting —
  /// that counts client-named blocks only, which the Allocate() wrapper
  /// tracks; redirect targets are locations, not names.
  BlockId AllocLocation() {
    BlockId id;
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
    } else {
      id = next_block_++;
      device_->EnsureCapacity(next_block_);
    }
    if (cow_) interval_fresh_.insert(id);
    return id;
  }

  void CowFree(BlockId id);
  /// Location `loc` is no longer referenced by the live state: free it
  /// immediately if interval-fresh, else park it for epoch retirement.
  void ReleaseLocation(BlockId loc);

  void ReleaseEpochPin(std::uint64_t epoch);
  /// Moves every retire-queue batch whose epoch no pin can still observe
  /// into retire_ready_. Caller holds epochs_mu_.
  void MaybeRetireLocked();
  /// Writer-thread: folds retire_ready_ back into the allocator — an id
  /// whose name is still client-held (a map_ key) becomes an orphan
  /// (location free, name reserved until the client frees it); the rest
  /// rejoin the free list.
  void DrainRetired();

  /// WriteBarrier: appends undo pre-images of checkpoint-live blocks about
  /// to be overwritten in place (first overwrite per interval only), then
  /// makes them durable when the log is in fsync mode — the write-ahead
  /// rule that keeps the last checkpoint recoverable mid-interval.
  void BeforeHomeWrite(std::span<const BlockId> ids) override;

  /// Opens the log (torn tail dropped), then rolls the device back to the
  /// stamped checkpoint by applying pre-image records newest-first.
  Status AttachWalAndUndo();

  /// Snapshots which blocks the just-committed checkpoint considers live,
  /// resetting the once-per-interval pre-image dedup.
  void CaptureCheckpointLiveSet();

  EmOptions options_;
  std::unique_ptr<BlockDevice> device_;
  BufferPool pool_;
  std::vector<BlockId> free_list_;
  BlockId next_block_ = kReservedBlocks;
  std::uint64_t blocks_in_use_ = 0;
  std::vector<std::uint64_t> roots_;
  // Allocator-stream spill regions rotate like the superblock slots: the
  // committed checkpoint's region (spill_start_/spill_count_, persisted in
  // its superblock) must stay intact until the next commit supersedes it,
  // so the next checkpoint spills into the *spare* — the region from two
  // checkpoints ago — when the stream still fits it exactly, and claims
  // fresh high-water space only when the stream changed size. Both regions
  // are reserved (excluded from allocation and blocks_in_use_); the spare's
  // ids ARE persisted as free — a recovery has no rotation history, so to
  // it the spare is plain free space.
  BlockId spill_start_ = 0;
  std::uint32_t spill_count_ = 0;
  BlockId spare_spill_start_ = 0;
  std::uint32_t spare_spill_count_ = 0;
  // Scratch for spill-run transfers: hoisted so repeated checkpoints reuse
  // one allocation instead of building a fresh vector per spill run.
  std::vector<word_t> spill_scratch_;
  std::uint64_t epoch_ = 0;  // checkpoint counter; parity picks the slot
  std::size_t checkpoint_stream_words_ = 0;  // allocator stream, last commit

  // Write-ahead log state (EmOptions::wal_path). The live-set snapshot
  // (high-water + free set as of the last checkpoint) decides which home
  // overwrites need a pre-image: blocks beyond the checkpoint's high water
  // or on its free list are unreferenced by it, so their contents are
  // irrelevant to recovery and cost nothing.
  std::unique_ptr<WriteAheadLog> wal_;
  std::uint64_t wal_ckpt_lsn_ = 0;
  BlockId ckpt_next_block_ = kReservedBlocks;
  std::unordered_set<BlockId> ckpt_free_;
  std::unordered_set<BlockId> preimaged_;  // guarded this interval already
  std::vector<word_t> preimage_scratch_;

  // COW epoch state. Writer-thread only: map_, interval_fresh_, deferred_,
  // the change lists, orphans_ (plus free_list_ above). Shared with pinning
  // threads, guarded by epochs_mu_: pins_, retire_queue_, retire_ready_.
  bool cow_ = false;
  std::unordered_map<BlockId, BlockId> map_;  // name -> location (else id.)
  std::unordered_set<BlockId> interval_fresh_;  // locations born post-publish
  std::vector<BlockId> deferred_;  // superseded this interval
  std::vector<BlockId> interval_changes_;   // names written back or freed
  std::vector<MapEntry> published_delta_;   // those of (E-1, E], located
  // Retired locations whose names are still held. Only DrainRetired and
  // CowFree read it, so a read-only pager (which never allocates or frees)
  // keeps it empty.
  std::unordered_set<BlockId> orphans_;
  mutable std::mutex epochs_mu_;
  std::map<std::uint64_t, std::uint64_t> pins_;  // epoch -> pin count
  std::deque<std::pair<std::uint64_t, std::vector<BlockId>>> retire_queue_;
  std::vector<BlockId> retire_ready_;
  std::atomic<bool> retire_ready_flag_{false};  // lock-free Allocate gate
  std::atomic<std::uint64_t> published_epoch_{0};
  std::atomic<std::uint64_t> retired_total_{0};
};

inline void EpochPin::Release() {
  if (pager_ != nullptr) {
    pager_->ReleaseEpochPin(epoch_);
    pager_ = nullptr;
  }
}

inline std::size_t PageRef::WordsPerBlock() const {
  TOKRA_DCHECK(pool_ != nullptr);
  return pool_->block_words();
}

}  // namespace tokra::em

#endif  // TOKRA_EM_PAGER_H_
