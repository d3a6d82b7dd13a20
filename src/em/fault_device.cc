#include "em/fault_device.h"

#include <cstring>

namespace tokra::em {

void FaultInjectingBlockDevice::ReadThrough(BlockId id, word_t* dst) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == shadow_id_) {
      std::memcpy(dst, shadow_.data(), BlockBytes());
      return;
    }
  }
  inner_->Read(id, dst);
}

void FaultInjectingBlockDevice::WriteThrough(BlockId id, const word_t* src) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == shadow_id_) {
      // The shadow tracks the block's intended bytes; the backend gets the
      // (full) rewrite too, like any other write.
      std::memcpy(shadow_.data(), src, BlockBytes());
    }
  }
  inner_->Write(id, src);
}

void FaultInjectingBlockDevice::DoRead(BlockId id, word_t* dst) {
  if (auto kind = injector_->OnRead()) {
    ReadThrough(id, dst);
    if (*kind == FaultInjector::Kind::kBitFlip) {
      const std::uint64_t bit =
          injector_->seed() % (std::uint64_t{block_words()} * 64);
      dst[bit / 64] ^= word_t{1} << (bit % 64);
    } else {
      RecordIoError(Status::IoError("injected read fault"));
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++injected_;
    return;
  }
  ReadThrough(id, dst);
}

void FaultInjectingBlockDevice::DoWrite(BlockId id, const word_t* src) {
  if (auto kind = injector_->OnWrite()) {
    if (*kind == FaultInjector::Kind::kTornWrite) {
      // Persist a seeded prefix of the new bytes over the old block tail —
      // what a torn sector leaves on the medium — and shadow the intended
      // bytes for the live process.
      const std::uint32_t words = block_words();
      const std::uint32_t cut = static_cast<std::uint32_t>(
          1 + injector_->seed() % (words > 1 ? words - 1 : 1));
      std::vector<word_t> torn(words, 0);
      if (id < inner_->NumBlocks()) inner_->Read(id, torn.data());
      std::memcpy(torn.data(), src, std::size_t{cut} * sizeof(word_t));
      inner_->Write(id, torn.data());
      std::lock_guard<std::mutex> lock(mu_);
      shadow_id_ = id;
      shadow_.assign(src, src + words);
      ++injected_;
      RecordIoError(Status::IoError("injected torn write"));
      return;
    }
    WriteThrough(id, src);
    RecordIoError(Status::IoError("injected write fault"));
    std::lock_guard<std::mutex> lock(mu_);
    ++injected_;
    return;
  }
  WriteThrough(id, src);
}

void FaultInjectingBlockDevice::DoReadRun(BlockId first, std::uint32_t count,
                                          word_t* dst) {
  // Per-block dispatch: every member is one injector op, so a fault index
  // can land inside a fused run. The backend's run fusion is a throughput
  // optimization this test wrapper does not need.
  for (std::uint32_t i = 0; i < count; ++i) {
    DoRead(first + i, dst + std::size_t{i} * block_words());
  }
}

void FaultInjectingBlockDevice::DoWriteRun(BlockId first, std::uint32_t count,
                                           const word_t* src) {
  for (std::uint32_t i = 0; i < count; ++i) {
    DoWrite(first + i, src + std::size_t{i} * block_words());
  }
}

const word_t* FaultInjectingBlockDevice::DoBorrowRead(BlockId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == shadow_id_) return shadow_.data();
  }
  if (auto kind = injector_->OnRead()) {
    if (*kind == FaultInjector::Kind::kBitFlip) {
      // A borrowed pointer into the real mapping cannot be corrupted in
      // place; shadow a flipped copy instead.
      std::vector<word_t> copy(block_words(), 0);
      inner_->Read(id, copy.data());
      const std::uint64_t bit =
          injector_->seed() % (std::uint64_t{block_words()} * 64);
      copy[bit / 64] ^= word_t{1} << (bit % 64);
      std::lock_guard<std::mutex> lock(mu_);
      shadow_id_ = id;
      shadow_ = std::move(copy);
      ++injected_;
      return shadow_.data();
    }
    const word_t* p = inner_->TryBorrowRead(id);
    RecordIoError(Status::IoError("injected read fault"));
    std::lock_guard<std::mutex> lock(mu_);
    ++injected_;
    return p;  // true bytes (or null -> caller falls back to the copy path)
  }
  return inner_->TryBorrowRead(id);
}

void FaultInjectingBlockDevice::EnsureCapacity(BlockId blocks) {
  if (blocks <= inner_->NumBlocks()) return;
  if (injector_->OnGrow()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++injected_;
    }
    RecordIoError(Status::ResourceExhausted("injected grow fault (ENOSPC)"));
    // The physical growth still proceeds (see the file-comment model): the
    // failure is logical-only, so the live structure stays coherent while
    // kResourceExhausted propagates; real refused growth is covered by the
    // RLIMIT_FSIZE test leg.
  }
  inner_->EnsureCapacity(blocks);
}

void FaultInjectingBlockDevice::Sync() {
  // fsyncgate applies to the wrapper's own sticky state too: an injected
  // sync fault latches the error HERE, not on the (healthy) inner device,
  // so without this gate a retried Sync() would reach the inner fsync and
  // falsely acknowledge a barrier the injected failure already dropped.
  if (io_failed()) return;
  if (injector_->OnSync()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++injected_;
    }
    RecordIoError(Status::IoError("injected sync fault"));
    return;  // the barrier never happens; sticky state is the fsyncgate
  }
  inner_->Sync();
  CountSyncIfInnerAdvanced();
}

void FaultInjectingBlockDevice::CountSyncIfInnerAdvanced() {
  std::lock_guard<std::mutex> lock(mu_);
  while (mirrored_syncs_ < inner_->syncs()) {
    ++mirrored_syncs_;
    CountSync();
  }
}

}  // namespace tokra::em
