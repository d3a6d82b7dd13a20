// LRU buffer pool: the simulated main memory of M words (M/B frames).

#ifndef TOKRA_EM_BUFFER_POOL_H_
#define TOKRA_EM_BUFFER_POOL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "em/block_device.h"
#include "em/io_stats.h"
#include "em/options.h"
#include "util/check.h"

namespace tokra::em {

/// Observer invoked with the block ids of dirty frames immediately before
/// their write-back reaches the home device — once per write-back batch, so
/// an implementation can group-commit whatever guards those writes. This is
/// the pager's WAL seam: it appends undo pre-images of checkpoint-live
/// blocks (and, in fsync mode, makes them durable) before the home file is
/// mutated, which is what lets recovery roll a torn inter-checkpoint state
/// back to the exact last checkpoint. The observer must not re-enter the
/// pool; reading the home device directly is fine.
class WriteBarrier {
 public:
  virtual ~WriteBarrier() = default;
  virtual void BeforeHomeWrite(std::span<const BlockId> ids) = 0;
};

/// Logical-to-physical block translation, consulted at the pool<->device
/// boundary. This is the COW epoch seam (DESIGN.md §14): the pool caches,
/// pins, and evicts by *logical* id (what clients name), while the device
/// transfer uses the *physical* location the translator resolves. Identity
/// when no translator is installed — the pre-MVCC behaviour.
///
/// RedirectWrite is called once per write-back, after the write barrier and
/// immediately before the device transfer; it may move the block to a fresh
/// location (copy-on-write) and must return where this write-back lands.
/// TranslateRead resolves where a block's current contents live. Neither
/// may re-enter the pool.
class BlockTranslator {
 public:
  virtual ~BlockTranslator() = default;
  virtual BlockId TranslateRead(BlockId id) = 0;
  virtual BlockId RedirectWrite(BlockId id) = 0;
};

/// Fixed-capacity LRU pool of block frames with pin/unpin semantics.
///
/// A pin that misses reads the block from the device (one I/O); evicting a
/// dirty frame writes it back (one I/O). Pinned frames are never evicted —
/// exceeding the frame budget with pins is a programming error (the model
/// only guarantees M = Omega(B), and every algorithm in this library pins
/// O(1) blocks at a time).
///
/// Recency is an intrusive doubly-linked list threaded through the frames
/// (most recent at the head): promotion on a hit and victim selection are
/// O(1), instead of the former O(num_frames) tick scan per miss. Eviction
/// order is unchanged — least recently *pinned* first, pinned frames
/// skipped.
///
/// Every write-back — a dirty victim of Pin or Prefetch, or FlushAll —
/// goes through one routine in a fixed order: the write barrier on the
/// logical ids, then the translator's redirect, then the transfer. A missed
/// block's location is resolved (TranslateRead, TryBorrowRead) only after
/// the write-backs of its own call have run, so a block evicted and re-read
/// by the same Prefetch comes back from where its write-back just put it.
///
/// Borrowed-frame mode (devices with SupportsBorrowedReads, i.e. kMmap):
/// a read pin that misses borrows a pointer straight into the device
/// mapping instead of copying the block into the frame buffer — the frame
/// becomes pure bookkeeping (id, pins, LRU position) and the OS page cache
/// holds the bytes. ReadData serves reads from the borrowed pointer;
/// FrameData (the mutable accessor) upgrades the frame copy-on-write into
/// its owned buffer first, so the dirty/write-back contract is exactly the
/// copying pool's: a borrowed frame is never dirty, and eviction of one
/// writes nothing. Hit/miss/eviction logic is shared with the copying
/// path, so logical I/O counts stay backend-identical by construction.
class BufferPool {
 public:
  enum class PinMode {
    kRead,    ///< load current block contents from the device on a miss
    kCreate,  ///< zero-fill the frame instead of reading (fresh block)
  };

  BufferPool(BlockDevice* device, std::uint32_t num_frames)
      : device_(device),
        frames_(num_frames),
        borrow_(device->SupportsBorrowedReads()) {
    TOKRA_CHECK(num_frames >= 2);
    if (!borrow_) {
      // Copying pools allocate every frame up front.
      for (Frame& f : frames_) f.buf.resize(device_->block_words(), 0);
    }
    // Borrow-capable pools allocate frame buffers lazily (OwnedBuf): a
    // frame that only ever borrows stays allocation-free, so a read-only
    // snapshot pool really is pure bookkeeping.
    // Free-stack popped from the back: reversed order hands out frames
    // 0, 1, 2, ... exactly like the former first-invalid-index scan.
    free_.reserve(num_frames);
    for (std::uint32_t i = num_frames; i > 0; --i) free_.push_back(i - 1);
    // A call evicts at most one victim per frame: the scratch below never
    // grows past this, so the miss path allocates nothing.
    pending_ids_.reserve(num_frames);
    pending_bufs_.reserve(num_frames);
    loads_.reserve(num_frames);
  }

  /// Pins the block, returning its frame index.
  std::uint32_t Pin(BlockId id, PinMode mode);

  /// Loads any of `ids` not already cached into the pool without pinning:
  /// subsequent Pins of these blocks are hits. Dirty victims are written
  /// back first, then the missing blocks are read. A hint — blocks that do
  /// not fit next to the current pins are skipped. Counts
  /// IoStats::prefetched (plus device reads), never pool misses.
  void Prefetch(std::span<const BlockId> ids);

  /// Releases one pin; `dirty` marks the frame as modified.
  void Unpin(std::uint32_t frame, bool dirty);

  /// Read-only view of the frame's block: the borrowed mapping pointer when
  /// the frame is borrowed, else the owned buffer. The zero-copy read path.
  const word_t* ReadData(std::uint32_t frame) const {
    const Frame& f = frames_[frame];
    return f.ext != nullptr ? f.ext : f.buf.data();
  }

  /// Mutable access; upgrades a borrowed frame copy-on-write into its owned
  /// buffer first, so mutation and write-back never touch the mapping.
  word_t* FrameData(std::uint32_t frame) {
    Frame& f = frames_[frame];
    if (f.ext != nullptr) {
      f.buf.assign(f.ext, f.ext + device_->block_words());
      f.ext = nullptr;
    }
    return OwnedBuf(f);
  }

  BlockId FrameBlock(std::uint32_t frame) const { return frames_[frame].id; }
  bool FrameBorrowed(std::uint32_t frame) const {
    return frames_[frame].ext != nullptr;
  }

  /// Writes back all dirty frames (each one write I/O). Frames stay cached.
  void FlushAll();

  /// Flushes and empties the pool — used to measure cold-cache costs.
  void DropAll();

  /// Discards any cached copy of `id` without write-back (used on Free).
  void Invalidate(BlockId id);

  /// Installs (or clears, with nullptr) the pre-write-back observer. Not
  /// owned; must outlive the pool or be cleared first.
  void SetWriteBarrier(WriteBarrier* barrier) { barrier_ = barrier; }

  /// Installs (or clears) the logical-to-physical translator. Not owned;
  /// must outlive the pool or be cleared first. Installing one with frames
  /// already cached is fine — frames are keyed by logical id throughout.
  void SetTranslator(BlockTranslator* xlate) { xlate_ = xlate; }

  /// Attaches the eviction-stall sink: time a pin (or batch) spends
  /// writing back dirty victims — the page-replacement cost the requester
  /// is stalled on. Null (the default) disables timing; clean evictions
  /// are never timed (they free the frame instantly).
  void SetEvictionStallHistogram(obs::Histogram* h) { evict_stall_us_ = h; }

  const IoStats& stats() const { return stats_; }
  std::uint32_t num_frames() const {
    return static_cast<std::uint32_t>(frames_.size());
  }
  std::uint32_t block_words() const { return device_->block_words(); }

 private:
  static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};

  struct Frame {
    BlockId id = kNullBlock;
    bool valid = false;
    bool dirty = false;  // never set while ext != nullptr (borrowed frames
                         // are upgraded to owned before any mutation)
    std::uint32_t pins = 0;
    // Intrusive LRU list position (valid frames only; head = most recent).
    std::uint32_t lru_prev = kNoFrame;
    std::uint32_t lru_next = kNoFrame;
    // Borrowed read: the block's bytes live at `ext` inside the device
    // mapping and `buf` is untouched; nullptr means `buf` owns the bytes.
    const word_t* ext = nullptr;
    std::vector<word_t> buf;
  };

  // O(1) LRU list primitives.
  void LruPushFront(std::uint32_t f);
  void LruRemove(std::uint32_t f);
  void LruTouch(std::uint32_t f) {
    if (lru_head_ == f) return;
    LruRemove(f);
    LruPushFront(f);
  }

  /// Free frame, else the least-recent unpinned frame; kNoFrame when every
  /// frame is pinned.
  std::uint32_t TryFindVictim();
  std::uint32_t FindVictim() {
    std::uint32_t v = TryFindVictim();
    // Too many simultaneous pins for the frame budget.
    TOKRA_CHECK(v != kNoFrame && "pool exhausted");
    return v;
  }

  /// Evicts the (unpinned) victim if valid. A dirty victim's write-back is
  /// queued (its buffer stays untouched until WriteBack runs).
  void EvictFrame(std::uint32_t v);

  /// Takes frame `v` for block `id` with one pin (the pin also keeps a
  /// later miss of the same call from choosing it as a victim).
  void Claim(std::uint32_t v, BlockId id);

  /// The only write-back path: runs the write barrier on the queued
  /// logical ids, then redirects and writes each block, then clears the
  /// queue. No-op when nothing is queued.
  void WriteBack();

  /// Fills claimed frame `v` with its block's current contents: borrows
  /// on borrow-capable devices, else reads into the owned buffer. Runs
  /// after WriteBack, so the location it resolves is current.
  void Load(std::uint32_t v);

  /// The frame's owned buffer, allocated on first need (borrow-capable
  /// pools skip the up-front allocation; frames that only ever borrow
  /// never get one).
  word_t* OwnedBuf(Frame& f) {
    if (f.buf.empty()) f.buf.resize(device_->block_words(), 0);
    return f.buf.data();
  }

  BlockDevice* device_;
  WriteBarrier* barrier_ = nullptr;
  BlockTranslator* xlate_ = nullptr;  // COW epoch translation; null = identity
  obs::Histogram* evict_stall_us_ = nullptr;  // dirty write-back stall sink
  std::vector<Frame> frames_;
  const bool borrow_;  // device supports zero-copy borrowed reads
  std::unordered_map<BlockId, std::uint32_t> map_;
  std::vector<std::uint32_t> free_;  // invalid frames, popped from the back
  std::uint32_t lru_head_ = kNoFrame;
  std::uint32_t lru_tail_ = kNoFrame;
  // Write-back queue of the current call: the logical ids of the dirty
  // blocks and, index for index, the frame buffers holding their bytes.
  std::vector<BlockId> pending_ids_;
  std::vector<const word_t*> pending_bufs_;
  std::vector<std::uint32_t> loads_;  // Prefetch: frames claimed for a read
  IoStats stats_;
};

}  // namespace tokra::em

#endif  // TOKRA_EM_BUFFER_POOL_H_
