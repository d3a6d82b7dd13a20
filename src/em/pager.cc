#include "em/pager.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "obs/metrics.h"
#include "util/bits.h"

namespace tokra::em {
namespace {

// Superblock word layout. Roots follow the header; the serialized
// allocator stream follows the roots — free-list ids, then the COW
// name->location map as (name, location) pairs — spilling into whole
// blocks claimed from the allocator when it outgrows the superblock (the
// region is reserved — recorded in the superblock and returned to the free
// list only when the *next* checkpoint supersedes it — so post-checkpoint
// allocations can never overwrite the spill a recovery would read).
//
// Two superblock slots (blocks 0 and 1) alternate by epoch, and each slot
// carries a checksum: a crash mid-checkpoint — even a torn superblock
// write — leaves the previous slot intact, so Open() always recovers the
// newest *complete* checkpoint.
constexpr word_t kSuperMagic = 0x544F4B5241504752ULL;  // "TOKRAPGR"
// Version 3: header grew 12 -> 14 words (map count + flags), and the
// stream after the roots carries the COW map behind the free list. A
// version-2 file is rejected as "no valid superblock" — this library makes
// no cross-version format promise yet.
constexpr word_t kSuperVersion = 3;
constexpr std::size_t kWMagic = 0;
constexpr std::size_t kWVersion = 1;
constexpr std::size_t kWBlockWords = 2;
constexpr std::size_t kWNextBlock = 3;
constexpr std::size_t kWBlocksInUse = 4;
constexpr std::size_t kWRootCount = 5;
constexpr std::size_t kWFreeCount = 6;
constexpr std::size_t kWSpillBlocks = 7;
constexpr std::size_t kWSpillStart = 8;
constexpr std::size_t kWEpoch = 9;
constexpr std::size_t kWChecksum = 10;
// LSN covered by this checkpoint: every WAL record at or below it is
// already reflected in the checkpointed state (0 = no log).
constexpr std::size_t kWWalLsn = 11;
// Entries in the serialized COW name->location map (0 outside COW mode).
constexpr std::size_t kWMapCount = 12;
// Feature flags. A set kFlagCowEpochs makes the device reopen in COW mode
// regardless of EmOptions::cow_epochs: the map it carries is live state.
constexpr std::size_t kWFlags = 13;
constexpr word_t kFlagCowEpochs = 1;

/// Mixes all superblock words except the checksum slot itself.
word_t SuperChecksum(std::span<const word_t> words) {
  word_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i == kWChecksum) continue;
    h ^= words[i];
    h *= 0x2545F4914F6CDD1DULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace

Pager::Pager(const EmOptions& options)
    : Pager(options, MakeBlockDevice(options, /*truncate_file=*/true)) {
  // A fresh pager formats the device; read-only only makes sense for
  // Open() on an existing checkpoint.
  TOKRA_CHECK(!options.read_only);
  if (options.cow_epochs) {
    cow_ = true;
    pool_.SetTranslator(this);
  }
  device_->EnsureCapacity(kReservedBlocks);  // the two superblock slots
  if (!options.wal_path.empty()) {
    // A fresh device makes any existing log stale: start the log fresh
    // too. Until the first checkpoint nothing is recoverable, so the
    // live-set stays empty and no pre-images are logged.
    std::remove(options.wal_path.c_str());
    WriteAheadLog::Options wo;
    wo.path = options.wal_path;
    wo.block_words = options.block_words;
    wo.fsync = options.wal_fsync;
    wo.rotate_blocks = options.wal_rotate_blocks;
    if (options.metrics != nullptr) {
      wo.append_us = options.metrics->wal_append_us;
      wo.fsync_us = options.metrics->wal_fsync_us;
    }
    wo.fault = options.fault;
    auto wal = WriteAheadLog::Open(std::move(wo));
    if (!wal.ok()) {
      // A WAL that cannot open means updates cannot be made durable: poison
      // the home device so the pager is born failed — every caller sees the
      // sticky status at its next chokepoint — instead of aborting.
      device_->PoisonIo(wal.status());
      return;
    }
    wal_ = std::move(*wal);
    pool_.SetWriteBarrier(this);
  }
}

Pager::Pager(const EmOptions& options, std::unique_ptr<BlockDevice> device)
    : options_(options),
      device_(std::move(device)),
      pool_(device_.get(), options.pool_frames) {
  options.Validate();
  if (options.metrics != nullptr) {
    pool_.SetEvictionStallHistogram(options.metrics->eviction_stall_us);
  }
}

Pager::~Pager() {
  // A live EpochPin would call back into freed memory on release; failing
  // here names the bug instead of leaving a use-after-free to find.
  std::lock_guard<std::mutex> lock(epochs_mu_);
  TOKRA_CHECK(pins_.empty() && "pager destroyed with live epoch pins");
}

EpochPin Pager::PinEpoch() {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  const std::uint64_t e = published_epoch_.load(std::memory_order_relaxed);
  ++pins_[e];
  return EpochPin(this, e);
}

void Pager::ReleaseEpochPin(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(epochs_mu_);
  auto it = pins_.find(epoch);
  TOKRA_CHECK(it != pins_.end() && it->second > 0);
  if (--it->second == 0) {
    pins_.erase(it);
    MaybeRetireLocked();
  }
}

void Pager::MaybeRetireLocked() {
  // A batch tagged E holds the locations checkpoint E was the last to
  // reference; it retires once no pin at or before E remains. Batches were
  // queued in tag order, so the scan stops at the first survivor.
  const std::uint64_t oldest_pinned =
      pins_.empty() ? ~std::uint64_t{0} : pins_.begin()->first;
  while (!retire_queue_.empty() &&
         retire_queue_.front().first < oldest_pinned) {
    std::vector<BlockId>& batch = retire_queue_.front().second;
    retired_total_.fetch_add(batch.size(), std::memory_order_relaxed);
    retire_ready_.insert(retire_ready_.end(), batch.begin(), batch.end());
    retire_queue_.pop_front();
  }
  if (!retire_ready_.empty()) {
    retire_ready_flag_.store(true, std::memory_order_release);
  }
}

void Pager::DrainRetired() {
  // Lock-free fast path: the flag is only set while holding epochs_mu_,
  // so a clear read here means nothing is waiting.
  if (!retire_ready_flag_.load(std::memory_order_acquire)) return;
  std::vector<BlockId> ready;
  {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    ready.swap(retire_ready_);
    retire_ready_flag_.store(false, std::memory_order_relaxed);
  }
  for (BlockId loc : ready) {
    if (map_.count(loc) != 0) {
      // The client still holds `loc` as a *name* (remapped elsewhere):
      // handing the id out as a fresh name would collide. Park it; the
      // name's Free() releases both roles.
      orphans_.insert(loc);
    } else {
      free_list_.push_back(loc);
    }
  }
}

BlockId Pager::RedirectWrite(BlockId id) {
  if (id < kReservedBlocks) return id;  // superblock protocol is its own
  interval_changes_.push_back(id);  // new content for readers of this name
  auto it = map_.find(id);
  const BlockId home = it != map_.end() ? it->second : id;
  // In place only when the home location was born after the last publish:
  // no published checkpoint (hence no pinned reader) can reference it.
  if (interval_fresh_.count(home) != 0) return home;
  DrainRetired();
  const BlockId fresh = AllocLocation();
  map_[id] = fresh;
  deferred_.push_back(home);
  return fresh;
}

void Pager::CowFree(BlockId id) {
  DrainRetired();
  interval_changes_.push_back(id);
  auto it = map_.find(id);
  if (it == map_.end()) {
    ReleaseLocation(id);
    return;
  }
  const BlockId loc = it->second;
  map_.erase(it);
  ReleaseLocation(loc);
  if (orphans_.erase(id) != 0) {
    // The identity location already retired while the name was held; with
    // the name now freed too, the id is free in both roles.
    free_list_.push_back(id);
  }
  // Else location `id` is still parked (deferred/retire queue): when it
  // drains, the map key is gone, so it lands on the free list there.
}

void Pager::ReleaseLocation(BlockId loc) {
  if (interval_fresh_.erase(loc) != 0) {
    free_list_.push_back(loc);  // never reached a published checkpoint
  } else {
    // The last published checkpoint references it: a pinned reader may be
    // walking it right now. Park until the next publish supersedes it.
    deferred_.push_back(loc);
  }
}

StatusOr<std::unique_ptr<Pager>> Pager::OpenOn(
    std::unique_ptr<BlockDevice> device, EmOptions options) {
  if (device == nullptr) {
    return Status::InvalidArgument("OpenOn: no device (read view refused?)");
  }
  options.read_only = true;   // the device refuses writes anyway
  options.wal_path.clear();   // a snapshot reader never logs
  options.fault = nullptr;    // fault injection belongs to the owner
  if (options.path.empty()) options.path = "<read-view>";
  auto pager = std::unique_ptr<Pager>(new Pager(options, std::move(device)));
  TOKRA_RETURN_IF_ERROR(pager->LoadSuperblock());
  return pager;
}

Status Pager::AdvanceReadView(std::uint64_t expected_epoch,
                              std::span<const MapEntry> delta) {
  if (!options_.read_only) {
    return Status::FailedPrecondition("AdvanceReadView on a writable pager");
  }
  // Every name the interval did not touch still has the same bytes at the
  // same location, which the caller's pin keeps intact: those frames stay.
  // The drops run before the load, and a failed load keeps the old map, so
  // a dropped name reloads from its old location either way.
  if (epoch_ + 1 == expected_epoch) {
    for (const MapEntry& entry : delta) pool_.Invalidate(entry.first);
    return LoadSuperblock(expected_epoch, &delta);
  }
  pool_.DropAll();
  return LoadSuperblock(expected_epoch);
}

Status Pager::Checkpoint(std::span<const std::uint64_t> roots) {
  if (options_.read_only) {
    return Status::FailedPrecondition("pager is read-only (snapshot mode)");
  }
  const std::uint32_t b = B();
  if (b < kSuperHeaderWords ||
      roots.size() > b - kSuperHeaderWords) {
    return Status::InvalidArgument("root directory exceeds superblock");
  }
  // A checkpoint commits by superblock write; on a failed stack nothing it
  // writes can be trusted durable, and the medium must stay frozen for
  // recovery (failed devices divert writes to their in-memory overlay), so
  // refuse up front rather than stamp a commit record over dropped data.
  TOKRA_RETURN_IF_ERROR(io_status());
  obs::ScopedTimer timer(options_.metrics != nullptr
                             ? options_.metrics->checkpoint_us
                             : nullptr);
  if (cow_) DrainRetired();
  // In COW mode the flush is what performs the interval's redirects (the
  // pool's write-backs go through RedirectWrite), so the translation map is
  // final only after it — serialize below, never before.
  pool_.FlushAll();

  // Spill-region rotation, mirroring the superblock's two-slot protocol:
  // the committed checkpoint's region must stay intact until this commit
  // supersedes it (a fallback recovery reads it), so the new stream spills
  // into the SPARE region — the one from two checkpoints ago — when the
  // stream still fits it exactly, and claims fresh high-water space only
  // when the stream changed size. Steady-state churn (one checkpoint per
  // COW epoch publish) thus recycles one region pair forever instead of
  // leaking a region per checkpoint. A released spare's ids rejoin the
  // free list, and hence this checkpoint's persisted free set. (COW note:
  // an epoch reader loads its spill only at open or at an advance of more
  // than one epoch, never the spare, so reusing a superseded spill region
  // never races a pinned reader's data reads.)
  std::size_t stream_len = free_list_.size() + spill_count_;
  if (cow_) {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    auto tally = [&](BlockId loc) {
      if (map_.count(loc) == 0) ++stream_len;
    };
    for (BlockId loc : deferred_) tally(loc);
    for (const auto& [tag, batch] : retire_queue_) {
      for (BlockId loc : batch) tally(loc);
    }
    for (BlockId loc : retire_ready_) tally(loc);
    stream_len += 2 * map_.size();
  }
  const std::size_t head_cap = b - kSuperHeaderWords - roots.size();
  const std::uint32_t needed = static_cast<std::uint32_t>(
      CeilDiv(stream_len > head_cap ? stream_len - head_cap : 0,
              std::size_t{b}));
  const bool reuse_spare = needed > 0 && needed == spare_spill_count_;
  if (!reuse_spare && spare_spill_count_ > 0) {
    for (std::uint32_t i = 0; i < spare_spill_count_; ++i) {
      free_list_.push_back(spare_spill_start_ + i);
    }
    spare_spill_count_ = 0;
  }

  // The serialized allocator stream: persisted free ids, then the COW map
  // as (name, location) pairs. The persisted free set is the runtime free
  // list plus every parked-for-retirement location whose name is not
  // client-held — recovery has no epoch pins, so all pending garbage is
  // free the moment this checkpoint is the newest. A parked location whose
  // name IS still held (a map_ key) must not be handed out as a fresh name;
  // it is recoverable anyway: reopen seeds the orphan set from the map
  // keys, and freeing the name releases both roles.
  std::vector<word_t> stream(free_list_.begin(), free_list_.end());
  std::size_t persisted_free = free_list_.size();
  // The outgoing region becomes the spare once this commit lands; persist
  // its ids as free — recovery has no rotation history, and nothing this
  // superblock commits ever reads that region again.
  for (std::uint32_t i = 0; i < spill_count_; ++i) {
    stream.push_back(spill_start_ + i);
    ++persisted_free;
  }
  if (cow_) {
    std::lock_guard<std::mutex> lock(epochs_mu_);
    auto persist = [&](BlockId loc) {
      if (map_.count(loc) == 0) {
        stream.push_back(loc);
        ++persisted_free;
      }
    };
    for (BlockId loc : deferred_) persist(loc);
    for (const auto& [tag, batch] : retire_queue_) {
      for (BlockId loc : batch) persist(loc);
    }
    for (BlockId loc : retire_ready_) persist(loc);
    for (const auto& [name, loc] : map_) {
      stream.push_back(name);
      stream.push_back(loc);
    }
  }

  std::vector<word_t> super(b, 0);
  super[kWMagic] = kSuperMagic;
  super[kWVersion] = kSuperVersion;
  super[kWBlockWords] = b;
  super[kWBlocksInUse] = blocks_in_use_;
  super[kWRootCount] = roots.size();
  super[kWFreeCount] = persisted_free;
  super[kWMapCount] = map_.size();
  super[kWFlags] = cow_ ? kFlagCowEpochs : 0;
  std::size_t w = kSuperHeaderWords;
  for (std::uint64_t r : roots) super[w++] = r;

  const std::size_t inline_cap = b - w;
  const std::size_t n_inline = std::min(stream.size(), inline_cap);
  for (std::size_t i = 0; i < n_inline; ++i) super[w++] = stream[i];

  const std::size_t spill = stream.size() - n_inline;
  const std::uint32_t spill_blocks =
      static_cast<std::uint32_t>(CeilDiv(spill, std::size_t{b}));
  BlockId new_spill_start = 0;
  if (spill_blocks > 0) {
    if (reuse_spare) {
      // Steady state: overwrite the region from two checkpoints ago. The
      // committed checkpoint never references it, so a crash before this
      // commit still recovers cleanly from the old superblock.
      TOKRA_CHECK(spill_blocks == spare_spill_count_);
      new_spill_start = spare_spill_start_;
    } else {
      // The stream changed size: claim a fresh reserved region at the
      // high-water mark; it is excluded from blocks_in_use_
      // (pager-internal, not application space).
      new_spill_start = next_block_;
      next_block_ += spill_blocks;
    }
    spill_scratch_.assign(std::size_t{spill_blocks} * b, 0);
    for (std::size_t i = 0; i < spill; ++i) {
      spill_scratch_[i] = stream[n_inline + i];
    }
    device_->WriteRun(new_spill_start, spill_blocks, spill_scratch_.data());
  }
  super[kWNextBlock] = next_block_;
  super[kWSpillBlocks] = spill_blocks;
  super[kWSpillStart] = new_spill_start;
  super[kWEpoch] = epoch_ + 1;
  // Stamp the covered LSN: the FlushAll above already appended this
  // checkpoint's own pre-images (the flush goes through the WriteBarrier),
  // so the head here supersedes every record the log currently holds —
  // both the logical tail being made durable and the undo records that
  // guarded its propagation. A WAL-less pager re-stamps whatever it holds
  // (0, or an OverrideWalCheckpointLsn from a side-file build).
  const word_t covered_lsn =
      wal_ != nullptr ? wal_->head_lsn() : wal_ckpt_lsn_;
  super[kWWalLsn] = covered_lsn;
  super[kWChecksum] = SuperChecksum(super);

  // Barrier, superblock to the alternate slot, barrier: data, spill, and
  // the log must be durable before a superblock supersedes the old state,
  // and a torn superblock write invalidates only the new slot (bad
  // checksum), never the old one.
  if (wal_ != nullptr) wal_->Sync();
  device_->Sync();
  // A failure anywhere in the flush or the barriers (including the flush's
  // own pre-image appends: BeforeHomeWrite poisons the home device when the
  // log fails) means the data this superblock would commit may not be on
  // the medium. Stop before the commit record: the old checkpoint stays the
  // recovery target, and the failed device's overlay has kept the medium
  // unclobbered for it.
  TOKRA_RETURN_IF_ERROR(io_status());
  device_->Write((epoch_ + 1) % kReservedBlocks, super.data());
  device_->Sync();
  // Same reasoning for the commit write itself: only advance the epoch —
  // i.e. acknowledge the checkpoint — once the superblock is provably down.
  TOKRA_RETURN_IF_ERROR(io_status());
  ++epoch_;
  // Rotation commit: the region just written is what this checkpoint's
  // recovery reads; the superseded region becomes the spare for the
  // checkpoint after next.
  const BlockId prev_spill_start = spill_start_;
  const std::uint32_t prev_spill_count = spill_count_;
  spill_start_ = new_spill_start;
  spill_count_ = spill_blocks;
  spare_spill_start_ = prev_spill_start;
  spare_spill_count_ = prev_spill_count;
  roots_.assign(roots.begin(), roots.end());
  wal_ckpt_lsn_ = covered_lsn;
  checkpoint_stream_words_ = stream.size();
  if (cow_) {
    // Publish: new pins land on this epoch, and the interval's superseded
    // locations enter the retire queue tagged with the epoch that last
    // referenced them — they free once no pin at or before that epoch
    // remains (no pins at all retires them on the spot).
    {
      std::lock_guard<std::mutex> lock(epochs_mu_);
      if (!deferred_.empty()) {
        retire_queue_.emplace_back(epoch_ - 1, std::move(deferred_));
        deferred_.clear();  // moved-from: guarantee empty
      }
      MaybeRetireLocked();
      published_epoch_.store(epoch_, std::memory_order_release);
    }
    // Everything the new checkpoint references is now protected: the next
    // interval's first write to any of it must redirect.
    interval_fresh_.clear();
    // The collected names now describe exactly (E-1, E]; paired with their
    // locations in the map just serialized, they are the read views' delta.
    std::sort(interval_changes_.begin(), interval_changes_.end());
    published_delta_.clear();
    for (BlockId name : interval_changes_) {
      if (published_delta_.empty() || published_delta_.back().first != name) {
        published_delta_.emplace_back(name, TranslateRead(name));
      }
    }
    interval_changes_.clear();
  } else {
    CaptureCheckpointLiveSet();
  }
  if (wal_ != nullptr) {
    // Records at or below the stamp are inert from here on; truncation
    // failing (rotation rename) leaves them inert on disk, so surface but
    // do not roll back.
    TOKRA_RETURN_IF_ERROR(wal_->Truncate(covered_lsn));
  }
  return Status::Ok();
}

void Pager::CaptureCheckpointLiveSet() {
  ckpt_next_block_ = next_block_;
  ckpt_free_.clear();
  ckpt_free_.insert(free_list_.begin(), free_list_.end());
  preimaged_.clear();
}

void Pager::BeforeHomeWrite(std::span<const BlockId> ids) {
  // COW replaces pre-images wholesale: a checkpoint-live block is never
  // overwritten in place (the write-back redirects), so the checkpoint
  // needs no undo log. Logical redo records still flow through wal().
  if (cow_) return;
  if (wal_ == nullptr) return;
  bool appended = false;
  for (BlockId id : ids) {
    if (id < kReservedBlocks) continue;      // superblock protocol is its own
    if (id >= ckpt_next_block_) continue;    // beyond checkpoint high water
    if (ckpt_free_.count(id) != 0) continue; // free at the checkpoint
    if (!preimaged_.insert(id).second) continue;  // already guarded
    preimage_scratch_.assign(std::size_t{B()} + 1, 0);
    preimage_scratch_[0] = id;
    // The home device still holds the checkpoint-time content: this is the
    // block's first overwrite of the interval. One read I/O, charged like
    // any other transfer, identically on every backend.
    device_->Read(id, preimage_scratch_.data() + 1);
    wal_->Append(WriteAheadLog::RecordType::kPreImage, preimage_scratch_);
    appended = true;
  }
  // Write-ahead: the pre-images must not be reorderable after the home
  // writes they guard. One barrier per write-back batch (a real fsync only
  // in wal_fsync mode; page-cache mode needs no barrier for SIGKILL
  // safety, since the kernel survives and writes back both files).
  if (appended) wal_->Sync();
  // If the log has failed, the pre-images guarding this batch may be lost —
  // letting the home writes proceed would overwrite checkpoint-live blocks
  // with no undo record, clobbering the very state recovery needs. Poison
  // the home device instead: its overlay absorbs the write-backs (the live
  // process stays coherent), the medium stays at its guarded state, and the
  // sticky status surfaces at the caller's next chokepoint.
  if (Status ws = wal_->io_status(); !ws.ok() && !device_->io_failed()) {
    device_->PoisonIo(std::move(ws));
  }
}

Status Pager::AttachWalAndUndo() {
  WriteAheadLog::Options wo;
  wo.path = options_.wal_path;
  wo.block_words = options_.block_words;
  wo.fsync = options_.wal_fsync;
  wo.rotate_blocks = options_.wal_rotate_blocks;
  if (options_.metrics != nullptr) {
    wo.append_us = options_.metrics->wal_append_us;
    wo.fsync_us = options_.metrics->wal_fsync_us;
  }
  wo.fault = options_.fault;
  TOKRA_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(std::move(wo)));
  pool_.SetWriteBarrier(this);
  // A log whose head lags the stamped checkpoint cannot be the one the
  // stamp was taken against (a shipped snapshot without its log, a log
  // recreated out-of-band): everything it holds is stamped-inert, but
  // letting appends continue below the stamp would make FUTURE records
  // inert too — silently unprotected. Fast-forward the LSN space past the
  // stamp so the guarantee resumes from here. (A healthy log always has
  // head >= stamp: checkpoints stamp their own head.)
  if (wal_->head_lsn() < wal_ckpt_lsn_) {
    TOKRA_RETURN_IF_ERROR(wal_->AdvanceTo(wal_ckpt_lsn_ + 1));
  }
  // Roll the device back to the exact stamped checkpoint: pre-images are
  // applied newest-first, so when several guard generations of the same
  // block survive (replay after a previous partial recovery), the oldest —
  // the checkpoint-time content — lands last. Logical records stay in the
  // log for the client to replay.
  const auto& recs = wal_->records();
  std::vector<word_t> payload;
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
    if (it->lsn <= wal_ckpt_lsn_ ||
        it->type != WriteAheadLog::RecordType::kPreImage) {
      continue;
    }
    TOKRA_RETURN_IF_ERROR(wal_->ReadPayload(*it, &payload));
    if (payload.size() != std::size_t{B()} + 1) {
      return Status::Internal("malformed WAL pre-image record");
    }
    device_->Write(payload[0], payload.data() + 1);
  }
  // (The undo loop above stays unconditional even in COW mode: a device
  // whose previous run was non-COW may carry pre-images that its torn
  // in-place writes still need rolled back.)
  if (!cow_) CaptureCheckpointLiveSet();
  // Undo writes on a failed device land in its overlay, not the medium:
  // that is not a recovery. Report the stack's health as the verdict.
  return io_status();
}

Status Pager::LoadSuperblock(std::uint64_t expected_epoch,
                             const std::span<const MapEntry>* delta) {
  const std::uint32_t b = B();
  if (b < kSuperHeaderWords) {
    return Status::FailedPrecondition("block too small for a superblock");
  }
  if (device_->NumBlocks() < 1) {
    return Status::FailedPrecondition("device has no superblock");
  }
  // Read both slots; take the valid one with the highest epoch (a crash
  // mid-checkpoint leaves at most the newest slot invalid).
  std::vector<word_t> super;
  word_t best_epoch = 0;
  bool found = false;
  for (BlockId slot = 0; slot < kReservedBlocks && slot < device_->NumBlocks();
       ++slot) {
    std::vector<word_t> cand(b, 0);
    device_->Read(slot, cand.data());
    if (cand[kWMagic] != kSuperMagic || cand[kWVersion] != kSuperVersion ||
        cand[kWChecksum] != SuperChecksum(cand)) {
      continue;
    }
    if (!found || cand[kWEpoch] > best_epoch) {
      best_epoch = cand[kWEpoch];
      super = std::move(cand);
      found = true;
    }
  }
  if (!found) {
    if (device_->io_failed()) return device_->io_status();
    return Status::FailedPrecondition(
        "no valid superblock (never checkpointed, or corrupt)");
  }
  if (expected_epoch != 0 && best_epoch != expected_epoch) {
    return Status::FailedPrecondition(
        "newest valid superblock is epoch " + std::to_string(best_epoch) +
        ", expected " + std::to_string(expected_epoch));
  }
  if (super[kWBlockWords] != b) {
    return Status::FailedPrecondition("block_words mismatch with checkpoint");
  }
  const std::size_t root_count = super[kWRootCount];
  const std::size_t free_count = super[kWFreeCount];
  const std::uint32_t spill_blocks =
      static_cast<std::uint32_t>(super[kWSpillBlocks]);
  const BlockId spill_start = super[kWSpillStart];
  if (root_count > b - kSuperHeaderWords) {
    return Status::FailedPrecondition("corrupt superblock root count");
  }
  const std::size_t w = kSuperHeaderWords + root_count;

  // The allocator stream: free ids, then (name, location) map pairs —
  // inline after the roots, spilling into the reserved region. A one-epoch
  // advance checks its shape but reads none of it.
  const std::size_t map_count = super[kWMapCount];
  const std::size_t stream_len = free_count + 2 * map_count;
  const std::size_t n_inline = std::min(stream_len, std::size_t{b} - w);
  const std::size_t spill = stream_len - n_inline;
  if (CeilDiv(spill, std::size_t{b}) != spill_blocks) {
    return Status::FailedPrecondition("corrupt superblock allocator stream");
  }
  if (spill_blocks > 0 && spill_start + spill_blocks > device_->NumBlocks()) {
    return Status::FailedPrecondition("truncated allocator-stream spill");
  }
  std::vector<word_t> stream;
  if (delta == nullptr) {
    stream.reserve(stream_len);
    stream.assign(super.begin() + w, super.begin() + w + n_inline);
    if (spill_blocks > 0) {
      spill_scratch_.assign(std::size_t{spill_blocks} * b, 0);
      device_->ReadRun(spill_start, spill_blocks, spill_scratch_.data());
      stream.insert(stream.end(), spill_scratch_.begin(),
                    spill_scratch_.begin() + spill);
    }
  }

  // Every check passed: commit.
  next_block_ = super[kWNextBlock];
  blocks_in_use_ = super[kWBlocksInUse];
  epoch_ = best_epoch;
  wal_ckpt_lsn_ = super[kWWalLsn];
  spill_start_ = spill_start;
  spill_count_ = spill_blocks;
  checkpoint_stream_words_ = stream_len;
  roots_.assign(super.begin() + kSuperHeaderWords,
                super.begin() + kSuperHeaderWords + root_count);

  // COW state: the flag in the file wins over the option — a COW device's
  // translation map is live state that cannot be dropped; an option-enabled
  // reopen of a non-COW device starts COW from here (empty map).
  cow_ = options_.cow_epochs || (super[kWFlags] & kFlagCowEpochs) != 0;
  if (delta != nullptr) {
    // One epoch on: only the names the interval wrote back or freed can
    // map differently (DESIGN.md §14.4), and the writer's delta carries
    // their locations at this epoch — the map the commit serialized.
    free_list_.clear();  // unknown without the stream; never allocated from
    for (const auto& [name, loc] : *delta) {
      if (loc == name) {
        map_.erase(name);
      } else {
        map_[name] = loc;
      }
    }
    TOKRA_CHECK(map_.size() == map_count);
  } else {
    free_list_.assign(stream.begin(), stream.begin() + free_count);
    map_.clear();
    orphans_.clear();
    for (std::size_t i = 0; i < map_count; ++i) {
      const BlockId name = stream[free_count + 2 * i];
      map_[name] = stream[free_count + 2 * i + 1];
      // A mapped name's original location was persisted as neither live
      // nor free: its name is still client-held. Reserve it until that
      // free (a read-only pager never allocates or frees).
      if (!options_.read_only) orphans_.insert(name);
    }
  }
  if (cow_) {
    pool_.SetTranslator(this);
    published_epoch_.store(epoch_, std::memory_order_release);
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Pager>> Pager::Open(const EmOptions& options) {
  options.Validate();
  if (options.backend == Backend::kMem) {
    return Status::InvalidArgument("Open requires a file-backed backend");
  }
  if (!std::filesystem::exists(options.path)) {
    return Status::NotFound("no such device file: " + options.path);
  }
  auto device = MakeBlockDevice(options, /*truncate_file=*/false);
  if (device->io_failed()) {
    // Open/fstat of the existing file failed (permissions, a directory in
    // the way, I/O error): report it rather than let superblock probing
    // misdiagnose the zero-filled reads as "never checkpointed".
    return device->io_status();
  }
  auto pager =
      std::unique_ptr<Pager>(new Pager(options, std::move(device)));
  TOKRA_RETURN_IF_ERROR(pager->LoadSuperblock());
  if (!options.wal_path.empty()) {
    // Physical recovery: drop the log's torn tail, then undo torn
    // inter-checkpoint home writes so the structure behind the roots is
    // byte-exactly the checkpointed one. The surviving logical tail
    // (records past wal_checkpoint_lsn()) is the caller's redo input.
    TOKRA_RETURN_IF_ERROR(pager->AttachWalAndUndo());
  }
  return pager;
}

}  // namespace tokra::em
