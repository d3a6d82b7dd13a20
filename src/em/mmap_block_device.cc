#include "em/mmap_block_device.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace tokra::em {

MmapBlockDevice::MmapBlockDevice(std::uint32_t block_words,
                                 FileOptions options)
    : FileBlockDevice(block_words, std::move(options)) {
  // Read-only devices map exactly the (immutable) file; writable ones take
  // the full growth reservation. Either way the mapping is created once
  // and never remapped, which is what keeps borrowed pointers stable.
  map_len_ = read_only() ? NumBlocks() * BlockBytes() : kMapBytes;
  if (map_len_ == 0) return;  // empty read-only file: nothing to map
  // PROT_READ is enough even for a writable device: writes go through
  // pwrite and reach the mapping via the unified page cache. MAP_NORESERVE
  // keeps the growth reservation free of swap accounting.
  void* m = ::mmap(nullptr, map_len_, PROT_READ, MAP_SHARED | MAP_NORESERVE,
                   fd(), 0);
  if (m != MAP_FAILED) map_ = m;
  // mmap refused (unlikely: no-mmu, rlimits): the device still works as a
  // plain file device — SupportsBorrowedReads() reports false and every
  // read takes the inherited pread path.
}

MmapBlockDevice::~MmapBlockDevice() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

void MmapBlockDevice::EnsureCapacity(BlockId blocks) {
  // The reservation is fixed, so growth must stay inside it for borrowed
  // pointers to remain stable (this is ~2^32 blocks at B=256 — unreachable
  // before memory runs out, but the contract deserves a check). Read-only
  // devices cannot grow at all; the base class enforces that.
  TOKRA_CHECK(read_only() || blocks * BlockBytes() <= map_len_);
  FileBlockDevice::EnsureCapacity(blocks);
}

void MmapBlockDevice::DropOsCache() {
  FileBlockDevice::DropOsCache();
  if (map_ != nullptr && NumBlocks() > 0) {
    // Drop the mapped pages too: the next access refaults from the file.
    // Contents are unaffected (the file was flushed above); only where the
    // next reads are served from changes — the bench's cold-cache contract.
    ::madvise(map_, std::min(NumBlocks() * BlockBytes(), map_len_),
              MADV_DONTNEED);
  }
}

void MmapBlockDevice::DoRead(BlockId id, word_t* dst) {
  if (map_ == nullptr) {
    FileBlockDevice::DoRead(id, dst);
    return;
  }
  std::memcpy(dst, BlockPtr(id), BlockBytes());
}

void MmapBlockDevice::DoReadRun(BlockId first, std::uint32_t count,
                                word_t* dst) {
  if (map_ == nullptr) {
    FileBlockDevice::DoReadRun(first, count, dst);
    return;
  }
  std::memcpy(dst, BlockPtr(first), count * BlockBytes());
}

const word_t* MmapBlockDevice::DoBorrowRead(BlockId id) {
  return map_ == nullptr ? nullptr : BlockPtr(id);
}

bool MmapBlockDevice::ViewRead(BlockId id, word_t* dst) {
  if (map_ == nullptr || id >= NumBlocks()) {
    return FileBlockDevice::ViewRead(id, dst);
  }
  std::memcpy(dst, BlockPtr(id), BlockBytes());
  return true;
}

}  // namespace tokra::em
