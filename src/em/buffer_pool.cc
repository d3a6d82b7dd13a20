#include "em/buffer_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace tokra::em {

void BufferPool::LruPushFront(std::uint32_t f) {
  Frame& fr = frames_[f];
  fr.lru_prev = kNoFrame;
  fr.lru_next = lru_head_;
  if (lru_head_ != kNoFrame) frames_[lru_head_].lru_prev = f;
  lru_head_ = f;
  if (lru_tail_ == kNoFrame) lru_tail_ = f;
}

void BufferPool::LruRemove(std::uint32_t f) {
  Frame& fr = frames_[f];
  if (fr.lru_prev != kNoFrame) {
    frames_[fr.lru_prev].lru_next = fr.lru_next;
  } else {
    lru_head_ = fr.lru_next;
  }
  if (fr.lru_next != kNoFrame) {
    frames_[fr.lru_next].lru_prev = fr.lru_prev;
  } else {
    lru_tail_ = fr.lru_prev;
  }
  fr.lru_prev = fr.lru_next = kNoFrame;
}

std::uint32_t BufferPool::TryFindVictim() {
  if (!free_.empty()) {
    std::uint32_t v = free_.back();
    free_.pop_back();
    return v;
  }
  // Least recent first; pinned frames are skipped (there are O(1) of them,
  // so this walk is O(1) in practice and the promotion/eviction fast path
  // never scans the whole pool).
  for (std::uint32_t v = lru_tail_; v != kNoFrame; v = frames_[v].lru_prev) {
    if (frames_[v].pins == 0) return v;
  }
  return kNoFrame;
}

void BufferPool::EvictFrame(std::uint32_t v) {
  Frame& f = frames_[v];
  if (!f.valid) return;
  // A borrowed frame never owns modified bytes (mutation upgrades it to an
  // owned copy first), so evicting one writes nothing and never touches
  // the mapping — it is dropped bookkeeping, not a transfer.
  TOKRA_DCHECK(!(f.dirty && f.ext != nullptr));
  if (f.dirty) {
    pending_ids_.push_back(f.id);
    pending_bufs_.push_back(f.buf.data());
    ++stats_.writes;
  }
  map_.erase(f.id);
  ++stats_.evictions;
  LruRemove(v);
  f.valid = false;
  f.ext = nullptr;
}

void BufferPool::Claim(std::uint32_t v, BlockId id) {
  Frame& f = frames_[v];
  f.id = id;
  f.valid = true;
  f.dirty = false;
  f.pins = 1;
  LruPushFront(v);
  map_[id] = v;
}

void BufferPool::WriteBack() {
  if (pending_ids_.empty()) return;
  if (barrier_ != nullptr) barrier_->BeforeHomeWrite(pending_ids_);
  // Redirect after the barrier: pre-images are about logical blocks, the
  // transfer is about physical locations.
  for (std::size_t i = 0; i < pending_ids_.size(); ++i) {
    const BlockId id = pending_ids_[i];
    device_->Write(xlate_ != nullptr ? xlate_->RedirectWrite(id) : id,
                   pending_bufs_[i]);
  }
  pending_ids_.clear();
  pending_bufs_.clear();
}

void BufferPool::Load(std::uint32_t v) {
  Frame& f = frames_[v];
  // The device transfer uses the physical location; the frame stays keyed
  // by the logical id the caller pinned.
  const BlockId phys = xlate_ != nullptr ? xlate_->TranslateRead(f.id) : f.id;
  if (borrow_ && (f.ext = device_->TryBorrowRead(phys)) != nullptr) {
    ++stats_.borrows;  // zero-copy: the frame needs no buffer at all
  } else {
    device_->Read(phys, OwnedBuf(f));
  }
  ++stats_.reads;
}

std::uint32_t BufferPool::Pin(BlockId id, PinMode mode) {
  TOKRA_CHECK(id != kNullBlock);
  auto it = map_.find(id);
  if (it != map_.end()) {
    Frame& f = frames_[it->second];
    ++f.pins;
    LruTouch(it->second);
    ++stats_.pool_hits;
    return it->second;
  }
  ++stats_.pool_misses;
  std::uint32_t v = FindVictim();
  EvictFrame(v);
  {
    // The requester is stalled on a dirty victim's write-back before it
    // can reuse the frame: the eviction stall.
    obs::ScopedTimer stall(pending_ids_.empty() ? nullptr : evict_stall_us_);
    WriteBack();
  }
  Claim(v, id);
  if (mode == PinMode::kRead) {
    Load(v);
  } else {
    Frame& f = frames_[v];
    word_t* buf = OwnedBuf(f);
    std::fill(buf, buf + device_->block_words(), 0);
    // A created frame is dirty by definition: its zeros are new content.
    f.dirty = true;
  }
  return v;
}

void BufferPool::Prefetch(std::span<const BlockId> ids) {
  // Claim a frame per miss first, queueing the dirty victims; then write
  // them all back; only then read the misses. A victim's buffer is reused
  // by exactly one newcomer, whose read lands after the victim's bytes
  // reached the device.
  loads_.clear();
  for (BlockId id : ids) {
    TOKRA_CHECK(id != kNullBlock);
    auto it = map_.find(id);
    if (it != map_.end()) {
      LruTouch(it->second);
      continue;
    }
    std::uint32_t v = TryFindVictim();
    if (v == kNoFrame) continue;  // a hint: skip when pins fill the pool
    EvictFrame(v);
    Claim(v, id);
    loads_.push_back(v);
    ++stats_.prefetched;
  }
  {
    // One eviction-stall sample per call that actually wrote.
    obs::ScopedTimer stall(pending_ids_.empty() ? nullptr : evict_stall_us_);
    WriteBack();
  }
  for (std::uint32_t v : loads_) {
    Load(v);
    frames_[v].pins = 0;
  }
}

void BufferPool::Unpin(std::uint32_t frame, bool dirty) {
  Frame& f = frames_[frame];
  TOKRA_CHECK(f.pins > 0);
  --f.pins;
  // Dirtying a still-borrowed frame would lose the mutation (write-back
  // flushes the owned buffer): mutators must go through FrameData, which
  // upgrades the frame to an owned copy first.
  TOKRA_DCHECK(!(dirty && f.ext != nullptr));
  if (dirty) f.dirty = true;
}

void BufferPool::FlushAll() {
  for (Frame& f : frames_) {
    if (f.valid && f.dirty) {
      pending_ids_.push_back(f.id);
      pending_bufs_.push_back(f.buf.data());
      ++stats_.writes;
      f.dirty = false;
    }
  }
  WriteBack();
}

void BufferPool::DropAll() {
  FlushAll();
  for (Frame& f : frames_) {
    TOKRA_CHECK(f.pins == 0);  // dropping while pinned is a bug
    f.valid = false;
    f.id = kNullBlock;
    f.ext = nullptr;
    f.lru_prev = f.lru_next = kNoFrame;
  }
  map_.clear();
  lru_head_ = lru_tail_ = kNoFrame;
  free_.clear();
  for (std::uint32_t i = num_frames(); i > 0; --i) free_.push_back(i - 1);
}

void BufferPool::Invalidate(BlockId id) {
  auto it = map_.find(id);
  if (it == map_.end()) return;
  std::uint32_t v = it->second;
  Frame& f = frames_[v];
  TOKRA_CHECK(f.pins == 0);
  LruRemove(v);
  f.valid = false;
  f.dirty = false;
  f.id = kNullBlock;
  f.ext = nullptr;
  map_.erase(it);
  free_.push_back(v);
}

}  // namespace tokra::em
