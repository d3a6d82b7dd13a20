// Durable file backend of the block device interface.

#ifndef TOKRA_EM_FILE_BLOCK_DEVICE_H_
#define TOKRA_EM_FILE_BLOCK_DEVICE_H_

#include <cstdint>
#include <string>

#include "em/block_device.h"

namespace tokra::em {

/// pread/pwrite-backed block device on a regular file.
///
/// Block `id` occupies bytes [id * Bb, (id+1) * Bb) of the file, where
/// Bb = block_words * sizeof(word_t), so the on-disk image is position-
/// independent and a workload replayed against MemBlockDevice produces a
/// word-identical layout. Growth is ftruncate — sparse and free, matching
/// the model's zero-cost formatting. Runs are fused into single syscalls.
///
/// Sync() is fsync when `durable_sync` is set, else a no-op (data still
/// reaches the file through the OS page cache on clean process exit).
///
/// Reads and writes use explicit offsets on one fd, so concurrent access to
/// *distinct* blocks is safe; callers serialize per-block access (the buffer
/// pool already does).
class FileBlockDevice : public BlockDevice {
 public:
  struct FileOptions {
    std::string path;
    bool truncate = true;       ///< discard any existing contents
    bool durable_sync = false;  ///< fsync on Sync()
    bool read_only = false;     ///< O_RDONLY open; every write CHECK-fails
  };

  /// Opens (creating if needed) the backing file. An open/stat failure
  /// does not abort: it yields a sticky-failed zero-block device (see
  /// BlockDevice::io_status()), which Pager::Open reports as kIoError. A
  /// size that is not a whole number of blocks is floored; the pager's
  /// superblock validation turns the mismatch into a proper error.
  FileBlockDevice(std::uint32_t block_words, FileOptions options);
  ~FileBlockDevice() override;

  BlockId NumBlocks() const override {
    return num_blocks_.load(std::memory_order_acquire);
  }
  void EnsureCapacity(BlockId blocks) override;
  void Sync() override;
  void DropOsCache() override;

  const std::string& path() const { return path_; }

  // Shared read views: positional pread on one fd is naturally thread-safe,
  // so any healthy file device can serve epoch readers concurrently.
  bool ViewSupportsReads() const override { return fd_ >= 0; }
  bool ViewRead(BlockId id, word_t* dst) override;
  BlockId ViewNumBlocks() const override { return NumBlocks(); }

 protected:
  void DoRead(BlockId id, word_t* dst) override;
  void DoWrite(BlockId id, const word_t* src) override;
  void DoReadRun(BlockId first, std::uint32_t count, word_t* dst) override;
  void DoWriteRun(BlockId first, std::uint32_t count,
                  const word_t* src) override;

  std::uint64_t BlockBytes() const {
    return std::uint64_t{block_words()} * sizeof(word_t);
  }
  int fd() const { return fd_; }
  bool read_only() const { return read_only_; }

 private:
  void PreadFull(std::uint64_t offset, void* buf, std::size_t len);
  void PwriteFull(std::uint64_t offset, const void* buf, std::size_t len);

  std::string path_;
  int fd_ = -1;
  bool durable_sync_ = false;
  bool read_only_ = false;
  // Atomic only for the benefit of read views on other threads; all
  // mutation stays on the owner's thread.
  std::atomic<BlockId> num_blocks_{0};
};

}  // namespace tokra::em

#endif  // TOKRA_EM_FILE_BLOCK_DEVICE_H_
