// mmap backend: the file device serving reads straight from the OS page
// cache, with zero-copy borrowed reads for the buffer pool.

#ifndef TOKRA_EM_MMAP_BLOCK_DEVICE_H_
#define TOKRA_EM_MMAP_BLOCK_DEVICE_H_

#include <cstdint>

#include "em/file_block_device.h"

namespace tokra::em {

/// FileBlockDevice whose reads are served from a shared read-only mapping
/// of the backing file.
///
/// The mapping is one fixed-size reservation (kMapBytes of virtual address
/// space, costing no memory) created at open: ftruncate growth makes the
/// new pages accessible in place, so a pointer handed out by
/// TryBorrowRead stays valid for the device's whole lifetime — no remap
/// ever happens, which is what makes borrowed frames safe to cache in the
/// buffer pool. Copying reads (Read/ReadRun) memcpy from the
/// mapping instead of pread, and TryBorrowRead returns the mapping address
/// itself: a warm query's leaf reads become pointer handouts backed by the
/// page cache, the memcpy into a pool frame gone.
///
/// Writes stay on the inherited pwrite path; MAP_SHARED of the same file
/// observes them through the unified page cache, so a borrow after a write
/// sees the new bytes. With FileOptions::read_only the file is opened
/// O_RDONLY and every write CHECK-fails — the immutable-snapshot serving
/// mode, where many devices may map one file and share its cached pages.
class MmapBlockDevice final : public FileBlockDevice {
 public:
  /// Virtual address reservation for a *writable* device: 1 TiB, far above
  /// any device this library backs, and free until pages are touched. A
  /// read-only device can never grow, so it maps exactly the file size
  /// instead — many snapshot replicas then cost file-size address space
  /// each, not 1 TiB each (which would hit the 128 TiB x86-64 VA limit at
  /// ~128 replicas and silently degrade later ones to copying reads).
  static constexpr std::uint64_t kMapBytes = 1ull << 40;

  MmapBlockDevice(std::uint32_t block_words, FileOptions options);
  ~MmapBlockDevice() override;

  bool SupportsBorrowedReads() const override { return map_ != nullptr; }
  void EnsureCapacity(BlockId blocks) override;
  void DropOsCache() override;

  // Read views borrow straight from the mapping: the reservation is fixed
  // for the device's lifetime, so view pointers stay valid across growth.
  bool ViewSupportsBorrows() const override { return map_ != nullptr; }
  const word_t* ViewBorrow(BlockId id) override {
    return map_ != nullptr ? BlockPtr(id) : nullptr;
  }
  bool ViewRead(BlockId id, word_t* dst) override;

 protected:
  void DoRead(BlockId id, word_t* dst) override;
  void DoReadRun(BlockId first, std::uint32_t count, word_t* dst) override;
  const word_t* DoBorrowRead(BlockId id) override;

 private:
  const word_t* BlockPtr(BlockId id) const {
    return reinterpret_cast<const word_t*>(
        static_cast<const char*>(map_) + id * BlockBytes());
  }

  void* map_ = nullptr;  // nullptr: mmap refused; reads fall back to pread
  std::uint64_t map_len_ = 0;
};

}  // namespace tokra::em

#endif  // TOKRA_EM_MMAP_BLOCK_DEVICE_H_
