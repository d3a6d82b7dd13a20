#include "em/file_block_device.h"

#include "em/fault_device.h"
#include "em/mmap_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/io_retry.h"

namespace tokra::em {

namespace {
std::string Errno(int err) { return std::strerror(err); }
}  // namespace

FileBlockDevice::FileBlockDevice(std::uint32_t block_words, FileOptions options)
    : BlockDevice(block_words),
      path_(std::move(options.path)),
      durable_sync_(options.durable_sync),
      read_only_(options.read_only) {
  TOKRA_CHECK(!path_.empty());
  // A read-only device cannot create or truncate: it serves an existing
  // immutable file (the snapshot contract).
  TOKRA_CHECK(!(read_only_ && options.truncate));
  int flags = read_only_ ? O_RDONLY
                         : O_RDWR | O_CREAT | (options.truncate ? O_TRUNC : 0);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    // A missing or unopenable file makes a sticky-failed zero-block device
    // instead of an abort; Pager::Open turns it into a proper kIoError.
    RecordIoError(Status::IoError("open failed: " + path_ + ": " +
                                  Errno(errno)));
    return;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    RecordIoError(Status::IoError("fstat failed: " + path_ + ": " +
                                  Errno(errno)));
    ::close(fd_);
    fd_ = -1;
    return;
  }
  // Floor a size that is not a whole number of blocks (geometry mismatch or
  // external tampering): the pager's superblock validation rejects such
  // devices with a proper Status instead of an abort here.
  num_blocks_ = static_cast<std::uint64_t>(st.st_size) / BlockBytes();
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ < 0) return;
  // Last chance to learn about writes the page cache never made it to the
  // medium: an fsync refused at close means dirty pages may be dropped
  // silently. Nobody is left to take a Status from a destructor, so count
  // it, log it, and leave the device marked failed for anything still
  // holding it through teardown. A device that already sticky-failed skips
  // the barrier (fsyncgate: a failed device must not re-arm the kernel's
  // error-reported flag and then report a clean close).
  if (!read_only_ && !io_failed() && ::fsync(fd_) != 0) {
    RecordIoError(Status::IoError("close-time fsync failed: " + path_ + ": " +
                                  Errno(errno)));
    std::fprintf(stderr, "tokra: close-time fsync failed on %s: %s\n",
                 path_.c_str(), Errno(errno).c_str());
  }
  ::close(fd_);
}

void FileBlockDevice::EnsureCapacity(BlockId blocks) {
  if (blocks <= num_blocks_) return;
  TOKRA_CHECK(!read_only_ && "cannot grow a read-only device");
  if (io_failed()) return;  // fail-stop: a failed device stops growing
  // Growing before publishing the new count keeps read views in-bounds:
  // by the time a reader can observe `blocks`, the file already has them.
  if (::ftruncate(fd_, static_cast<off_t>(blocks * BlockBytes())) != 0) {
    const int err = errno;
    // A full disk (or file-size limit / quota) is the one storage failure a
    // healthy deployment recovers from by freeing space, so it gets its own
    // code; everything else is a generic device error. Both are sticky.
    Status st = (err == ENOSPC || err == EFBIG || err == EDQUOT)
                    ? Status::ResourceExhausted("grow failed: " + path_ +
                                                ": " + Errno(err))
                    : Status::IoError("ftruncate failed: " + path_ + ": " +
                                      Errno(err));
    RecordIoError(std::move(st));
    return;
  }
  num_blocks_.store(blocks, std::memory_order_release);
}

bool FileBlockDevice::ViewRead(BlockId id, word_t* dst) {
  // Raw positional read on the shared fd: thread-safe, and neither counters
  // nor sticky error state of this (writer-owned) device are touched — a
  // view reader's failure is recorded on the view, not here.
  std::size_t transferred = 0;
  return tokra::PreadFull(fd_, dst, BlockBytes(), id * BlockBytes(),
                          &transferred) == 0;
}

void FileBlockDevice::Sync() {
  if (!durable_sync_ || read_only_) return;
  // fsyncgate semantics: after ANY device failure — in particular a failed
  // fsync, whose dirty pages the kernel marks clean anyway — this device
  // never acknowledges a barrier again. Retrying the fsync would return 0
  // and falsely promise durability for writes that were already dropped.
  if (io_failed()) return;
  if (::fsync(fd_) != 0) {
    RecordIoError(Status::IoError("fsync failed: " + path_ + ": " +
                                  Errno(errno)));
    return;
  }
  CountSync();
}

void FileBlockDevice::DropOsCache() {
  // Dirty pages are immune to DONTNEED, so flush first; then ask the kernel
  // to drop the file's clean page-cache pages. Advisory — a best-effort
  // bench hook, not a correctness barrier — but a refused fsync still marks
  // the device failed: the kernel just told us it dropped dirty data.
  if (!read_only_ && !io_failed() && ::fsync(fd_) != 0) {
    RecordIoError(Status::IoError("fsync in DropOsCache failed: " + path_ +
                                  ": " + Errno(errno)));
    return;
  }
  ::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
}

void FileBlockDevice::DoRead(BlockId id, word_t* dst) {
  PreadFull(id * BlockBytes(), dst, BlockBytes());
}

void FileBlockDevice::DoWrite(BlockId id, const word_t* src) {
  TOKRA_CHECK(!read_only_ && "write to a read-only device");
  PwriteFull(id * BlockBytes(), src, BlockBytes());
}

void FileBlockDevice::DoReadRun(BlockId first, std::uint32_t count,
                                word_t* dst) {
  PreadFull(first * BlockBytes(), dst, count * BlockBytes());
}

void FileBlockDevice::DoWriteRun(BlockId first, std::uint32_t count,
                                 const word_t* src) {
  PwriteFull(first * BlockBytes(), src, count * BlockBytes());
}

void FileBlockDevice::PreadFull(std::uint64_t offset, void* buf,
                                std::size_t len) {
  std::size_t transferred = 0;
  const int err = tokra::PreadFull(fd_, buf, len, offset, &transferred);
  if (err == 0) return;
  // Error, or EOF inside the device (a truncated/corrupt file). The
  // remainder past the transferred prefix is zero-filled: contents of a
  // failed read are unspecified, and validated callers (superblock
  // checksum, WAL CRC) reject zeros just like any other garbage.
  RecordIoError(err == kIoEof
                    ? Status::IoError("unexpected EOF: " + path_)
                    : Status::IoError("pread failed: " + path_ + ": " +
                                      Errno(err)));
  std::memset(static_cast<char*>(buf) + transferred, 0, len - transferred);
}

void FileBlockDevice::PwriteFull(std::uint64_t offset, const void* buf,
                                 std::size_t len) {
  TOKRA_CHECK(!read_only_ && "write to a read-only device");
  // Fail-stop: once the device failed, later writes are dropped rather
  // than partially applied — the caller can no longer be acknowledged, and
  // recovery rebuilds from the checkpoint + WAL anyway.
  if (io_failed()) return;
  if (const int err = tokra::PwriteFull(fd_, buf, len, offset); err != 0) {
    RecordIoError(Status::IoError("pwrite failed: " + path_ + ": " +
                                  Errno(err)));
  }
}

std::unique_ptr<BlockDevice> MakeBlockDevice(const EmOptions& options,
                                             bool truncate_file) {
  const FileBlockDevice::FileOptions file_options{
      .path = options.path,
      .truncate = truncate_file,
      .durable_sync = options.durable_sync,
      .read_only = options.read_only};
  std::unique_ptr<BlockDevice> device;
  switch (options.backend) {
    case Backend::kMem:
      device = std::make_unique<MemBlockDevice>(options.block_words);
      break;
    case Backend::kFile:
      device =
          std::make_unique<FileBlockDevice>(options.block_words, file_options);
      break;
    case Backend::kMmap:
      // Same file format as kFile; only where reads are served from
      // differs. Falls back to plain file reads internally if the kernel
      // refuses the mapping, so kMmap is always safe to request.
      device =
          std::make_unique<MmapBlockDevice>(options.block_words, file_options);
      break;
  }
  TOKRA_CHECK(device != nullptr);
  if (options.fault != nullptr) {
    device = std::make_unique<FaultInjectingBlockDevice>(std::move(device),
                                                         options.fault);
  }
  return device;
}

}  // namespace tokra::em
