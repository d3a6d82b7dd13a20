#include "em/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "em/fault_device.h"
#include "em/file_block_device.h"
#include "obs/metrics.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/fsync_dir.h"

namespace tokra::em {
namespace {

// Segment header (block 0).
constexpr word_t kSegMagic = 0x544F4B57414C5347ULL;  // "TOKWALSG"
constexpr word_t kSegVersion = 1;
constexpr std::size_t kSegWMagic = 0;
constexpr std::size_t kSegWVersion = 1;
constexpr std::size_t kSegWBlockWords = 2;
constexpr std::size_t kSegWBaseLsn = 3;
constexpr std::size_t kSegWChecksum = 4;
constexpr std::size_t kSegHeaderWords = 5;

// Frame header, block-aligned at the start of each record.
constexpr word_t kFrameMagic = 0x544F4B57414C4652ULL;  // "TOKWALFR"
constexpr std::size_t kFrWMagic = 0;
constexpr std::size_t kFrWLsn = 1;
constexpr std::size_t kFrWTypeLen = 2;  // (type << 32) | payload_words
constexpr std::size_t kFrWCrc = 3;
constexpr std::size_t kFrameHeaderWords = 4;

/// Side-file suffix used by segment rotation.
constexpr char kRotateSuffix[] = ".rotate";

/// CRC-32 (reflected, poly 0xEDB88320) over a word span. Table built once.
std::uint32_t Crc32(std::span<const word_t> words, std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int j = 0; j < 8; ++j) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (word_t w : words) {
    for (int b = 0; b < 8; ++b) {
      crc = table[(crc ^ static_cast<std::uint8_t>(w)) & 0xFF] ^ (crc >> 8);
      w >>= 8;
    }
  }
  return ~crc;
}

word_t SegChecksum(std::span<const word_t> header) {
  return Crc32(header.subspan(0, kSegWChecksum));
}

void FormatSegmentHeader(std::vector<word_t>* header, std::uint64_t base,
                         std::uint32_t block_words) {
  (*header)[kSegWMagic] = kSegMagic;
  (*header)[kSegWVersion] = kSegVersion;
  (*header)[kSegWBlockWords] = block_words;
  (*header)[kSegWBaseLsn] = base;
  (*header)[kSegWChecksum] = SegChecksum(*header);
}

}  // namespace

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(Options options) {
  TOKRA_CHECK(!options.path.empty());
  TOKRA_CHECK(options.block_words >= kSegHeaderWords &&
              options.block_words >= kFrameHeaderWords + 1);
  auto log = std::unique_ptr<WriteAheadLog>(new WriteAheadLog(options));
  if (!options.read_only) {
    // A crashed rotation can leave a fully-written side segment that never
    // got renamed; it holds no records the stamped checkpoint needs (frames
    // at or below the stamp are inert), so drop it rather than risk a later
    // rotation colliding with it.
    std::remove((options.path + kRotateSuffix).c_str());
  } else if (!std::filesystem::exists(options.path)) {
    return Status::NotFound("no such WAL segment: " + options.path);
  }
  TOKRA_RETURN_IF_ERROR(log->LoadOrFormat());
  return log;
}

Status WriteAheadLog::LoadOrFormat() {
  FileBlockDevice::FileOptions fo{.path = options_.path,
                                  .truncate = false,
                                  .durable_sync = options_.fsync,
                                  .read_only = options_.read_only};
  device_ = std::make_unique<FileBlockDevice>(options_.block_words, fo);
  if (device_->io_failed()) return device_->io_status();
  if (options_.fault != nullptr) {
    device_ = std::make_unique<FaultInjectingBlockDevice>(std::move(device_),
                                                          options_.fault);
  }
  const std::uint32_t b = options_.block_words;
  std::vector<word_t> header(b, 0);
  if (device_->NumBlocks() > 0) {
    device_->Read(0, header.data());
    // A failed read proves nothing about the header: never format over it.
    if (!device_->io_status().ok()) return device_->io_status();
  }
  // Unformatted: empty, or grown to one block but not yet headed.
  // Formatting grows the file to exactly one block (ftruncate) before the
  // header write lands, so a reader racing a fresh segment, or a writer
  // reopening after a crash in that window, sees one of these two states
  // and never a record. A writer formats it; a read-only consumer reports
  // the segment as not created yet. A longer segment with a zero header
  // has frames behind a damaged header: it stays corrupt below, because
  // formatting it would drop the records a recovery must replay.
  if (device_->NumBlocks() <= 1 &&
      std::all_of(header.begin(), header.end(),
                  [](word_t w) { return w == 0; })) {
    if (options_.read_only) {
      return Status::NotFound("WAL segment not formatted yet: " +
                              options_.path);
    }
    base_lsn_ = 1;
    head_lsn_ = 0;
    tail_block_ = 1;
    WriteSegmentHeader();
    return device_->io_status();
  }
  if (header[kSegWMagic] != kSegMagic || header[kSegWVersion] != kSegVersion ||
      header[kSegWChecksum] != SegChecksum(header)) {
    return Status::FailedPrecondition("corrupt WAL segment header: " +
                                      options_.path);
  }
  if (header[kSegWBlockWords] != b) {
    return Status::FailedPrecondition("WAL block_words mismatch: " +
                                      options_.path);
  }
  base_lsn_ = header[kSegWBaseLsn];
  head_lsn_ = base_lsn_ - 1;
  tail_block_ = 1;
  // A matching scan-resume hint skips the already-consumed prefix: the
  // caller vouches it holds every record below hint_lsn, and a rotated
  // segment (base mismatch) invalidates the hint wholesale. hint_lsn must
  // be past the base — an empty-at-hint-time segment resolves to a full
  // scan, which is equally correct and avoids trusting a stale block.
  if (options_.read_only && options_.hint_block >= 1 &&
      options_.hint_base_lsn == base_lsn_ && options_.hint_lsn > base_lsn_) {
    head_lsn_ = options_.hint_lsn - 1;
    tail_block_ = options_.hint_block;
  }
  ScanFrames();
  return device_->io_status();
}

void WriteAheadLog::WriteSegmentHeader() {
  std::vector<word_t> header(options_.block_words, 0);
  FormatSegmentHeader(&header, base_lsn_, options_.block_words);
  device_->Write(0, header.data());
}

void WriteAheadLog::ScanFrames() {
  const std::uint32_t b = options_.block_words;
  const BlockId file_blocks = device_->NumBlocks();
  std::vector<word_t> head(b, 0);
  BlockId block = tail_block_;       // 1 unless a scan-resume hint applied
  std::uint64_t expect = head_lsn_ + 1;
  while (block < file_blocks) {
    device_->Read(block, head.data());
    if (head[kFrWMagic] != kFrameMagic || head[kFrWLsn] != expect) break;
    const std::uint32_t payload_words =
        static_cast<std::uint32_t>(head[kFrWTypeLen]);
    const auto type =
        static_cast<RecordType>(head[kFrWTypeLen] >> 32);
    if (type != RecordType::kPreImage && type != RecordType::kLogical) break;
    const std::uint64_t frame_blocks =
        CeilDiv(kFrameHeaderWords + payload_words, b);
    if (frame_blocks == 0 || block + frame_blocks > file_blocks) break;
    scratch_.assign(frame_blocks * b, 0);
    device_->ReadRun(block, static_cast<std::uint32_t>(frame_blocks),
                     scratch_.data());
    const word_t stored_crc = scratch_[kFrWCrc];
    scratch_[kFrWCrc] = 0;
    const std::uint32_t crc = Crc32(
        std::span<const word_t>(scratch_.data(),
                                kFrameHeaderWords + payload_words));
    if (stored_crc != crc) break;  // torn or corrupt: drop this frame on
    records_.push_back(Record{expect, type, block, payload_words});
    head_lsn_ = expect;
    ++expect;
    block += frame_blocks;
  }
  // Everything from `block` on is the torn tail (or empty space): the next
  // append overwrites it. Nothing is acknowledged past a valid frame, so
  // dropping it loses only un-committed suffix.
  tail_block_ = block;
}

std::uint64_t WriteAheadLog::Append(RecordType type,
                                    std::span<const word_t> payload) {
  TOKRA_CHECK(!options_.read_only);
  obs::ScopedTimer timer(options_.append_us);
  const std::uint32_t b = options_.block_words;
  const std::uint64_t lsn = head_lsn_ + 1;
  const std::uint64_t frame_blocks =
      CeilDiv(kFrameHeaderWords + payload.size(), b);
  scratch_.assign(frame_blocks * b, 0);
  scratch_[kFrWMagic] = kFrameMagic;
  scratch_[kFrWLsn] = lsn;
  scratch_[kFrWTypeLen] = (static_cast<word_t>(type) << 32) |
                          static_cast<word_t>(payload.size());
  if (!payload.empty()) {
    std::memcpy(scratch_.data() + kFrameHeaderWords, payload.data(),
                payload.size() * sizeof(word_t));
  }
  scratch_[kFrWCrc] = 0;
  scratch_[kFrWCrc] = Crc32(std::span<const word_t>(
      scratch_.data(), kFrameHeaderWords + payload.size()));

  // One run write for the whole contiguous frame — the group-commit write.
  device_->WriteRun(tail_block_, static_cast<std::uint32_t>(frame_blocks),
                    scratch_.data());
  records_.push_back(Record{lsn, type, tail_block_,
                            static_cast<std::uint32_t>(payload.size())});
  head_lsn_ = lsn;
  tail_block_ += frame_blocks;
  ++appends_;
  return lsn;
}

void WriteAheadLog::Sync() {
  // FileBlockDevice::Sync is the real barrier exactly when options_.fsync
  // configured durable_sync on the log device; it counts itself. Only real
  // barriers are worth timing: the page-cache no-op would pollute the
  // fsync histogram with sub-microsecond samples.
  obs::ScopedTimer timer(options_.fsync ? options_.fsync_us : nullptr);
  device_->Sync();
}

Status WriteAheadLog::Truncate(std::uint64_t upto) {
  TOKRA_CHECK(!options_.read_only);
  truncated_lsn_ = std::max(truncated_lsn_, upto);
  std::erase_if(records_, [&](const Record& r) { return r.lsn <= upto; });
  // Logical truncation suffices while the segment is small: surviving (or
  // stale-but-inert) frames stay in place and appends continue. Rotation —
  // only once every record is obsolete, so no live record needs copying —
  // bounds the file at roughly one checkpoint interval past the threshold.
  if (!records_.empty() || device_->NumBlocks() <= options_.rotate_blocks) {
    return Status::Ok();
  }
  return Rotate(head_lsn_ + 1);
}

Status WriteAheadLog::AdvanceTo(std::uint64_t next) {
  TOKRA_CHECK(!options_.read_only);
  TOKRA_CHECK(next > head_lsn_);
  // Every current record is at or below head < next, i.e. at or below the
  // caller's stamp: inert, safe to drop with the old segment.
  records_.clear();
  return Rotate(next);
}

Status WriteAheadLog::Rotate(std::uint64_t new_base) {
  TOKRA_CHECK(records_.empty());
  const std::string side = options_.path + kRotateSuffix;
  {
    FileBlockDevice fresh(options_.block_words,
                          FileBlockDevice::FileOptions{
                              .path = side,
                              .truncate = true,
                              .durable_sync = options_.fsync});
    std::vector<word_t> header(options_.block_words, 0);
    FormatSegmentHeader(&header, new_base, options_.block_words);
    fresh.Write(0, header.data());
    fresh.Sync();
    retired_syncs_ += fresh.syncs();
    if (fresh.io_failed()) {
      // The rotation never published; the old (still valid) segment stays.
      return fresh.io_status();
    }
  }
  // The new segment's header must be durable before the rename publishes
  // it; the rename itself must be journaled before the next checkpoint can
  // rely on the rotated log. Both barriers only matter (and only run) under
  // fsync mode — page-cache mode tolerates losing the rotation entirely,
  // because the old segment's frames are all stamped-inert.
  if (std::rename(side.c_str(), options_.path.c_str()) != 0) {
    return Status::Internal("WAL rotation rename failed: " + side);
  }
  if (options_.fsync && !FsyncDirContaining(options_.path)) {
    return Status::Internal("WAL rotation dir fsync failed");
  }
  retired_syncs_ += device_->syncs();
  device_ = std::make_unique<FileBlockDevice>(
      options_.block_words, FileBlockDevice::FileOptions{
                                .path = options_.path,
                                .truncate = false,
                                .durable_sync = options_.fsync});
  if (device_->io_failed()) return device_->io_status();
  if (options_.fault != nullptr) {
    device_ = std::make_unique<FaultInjectingBlockDevice>(std::move(device_),
                                                          options_.fault);
  }
  base_lsn_ = new_base;
  head_lsn_ = new_base - 1;
  tail_block_ = 1;
  return Status::Ok();
}

Status WriteAheadLog::ReadPayload(const Record& rec,
                                  std::vector<word_t>* out) const {
  const std::uint32_t b = options_.block_words;
  const std::uint64_t frame_blocks =
      CeilDiv(kFrameHeaderWords + rec.payload_words, b);
  if (rec.first_block + frame_blocks > device_->NumBlocks()) {
    return Status::Internal("WAL record out of segment bounds");
  }
  std::vector<word_t> frame(frame_blocks * b, 0);
  device_->ReadRun(rec.first_block, static_cast<std::uint32_t>(frame_blocks),
                   frame.data());
  out->assign(frame.begin() + kFrameHeaderWords,
              frame.begin() + kFrameHeaderWords + rec.payload_words);
  return Status::Ok();
}

StatusOr<std::unique_ptr<WalReader>> WalReader::Open(
    std::string path, std::uint32_t block_words) {
  WriteAheadLog::Options o;
  o.path = std::move(path);
  o.block_words = block_words;
  return Open(std::move(o));
}

StatusOr<std::unique_ptr<WalReader>> WalReader::Open(
    WriteAheadLog::Options options) {
  options.read_only = true;
  TOKRA_ASSIGN_OR_RETURN(auto log, WriteAheadLog::Open(std::move(options)));
  return std::unique_ptr<WalReader>(new WalReader(std::move(log)));
}

void WalReader::Seek(std::uint64_t after) {
  const auto& recs = log_->records();
  pos_ = 0;
  while (pos_ < recs.size() && recs[pos_].lsn <= after) ++pos_;
}

bool WalReader::Next(WriteAheadLog::Record* rec,
                     std::vector<word_t>* payload) {
  const auto& recs = log_->records();
  if (pos_ >= recs.size()) return false;
  *rec = recs[pos_++];
  // A payload that scanned valid but can no longer be read means the
  // device failed underneath us; end the iteration instead of aborting —
  // the caller sees the shortfall through the log's sticky io_status().
  if (!log_->ReadPayload(*rec, payload).ok()) {
    pos_ = recs.size();
    return false;
  }
  return true;
}

}  // namespace tokra::em
