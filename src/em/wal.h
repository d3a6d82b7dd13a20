// Write-ahead log: an append-only, CRC-framed, LSN-stamped segment file.
//
// The log closes the durability window between pager checkpoints. Two kinds
// of records share one per-shard log (and one LSN sequence):
//
//   * kPreImage — the pager's undo protection: before the first overwrite
//     of a checkpoint-live home block in a checkpoint interval, the block's
//     checkpoint-time content is appended here. Recovery applies pre-images
//     newest-first, which rolls the home file back to the exact state of
//     the last completed checkpoint regardless of where a crash landed —
//     including mid-checkpoint, because the checkpoint's own flush logs
//     pre-images before it propagates and commits by superblock write.
//   * kLogical — the client's redo records (the engine logs one per
//     accepted update batch: the group commit). Recovery replays those with
//     LSN greater than the checkpoint-covered LSN onto the restored
//     checkpoint, reconstructing every acknowledged update.
//
// Frames are block-aligned: a record occupies whole log blocks, written as
// one WriteRun (one pwrite on the file backend), optionally followed by one
// fsync — group commit is one append
// plus one barrier no matter how many updates the batch carried. A torn
// tail (crash mid-append, byte flip) is detected by magic/CRC/LSN checks at
// open: the valid prefix is kept and the tail is dropped, which is exactly
// the unacknowledged suffix.
//
// Truncation: Checkpoint() stamps the covered LSN into the pager superblock
// and calls Truncate(lsn). Records at or below the stamp are inert (both
// recovery passes ignore them), so truncation is logical until the segment
// outgrows EmOptions::wal_rotate_blocks, at which point the log rotates to
// a fresh segment file (write header, fsync if durable, rename over the old
// segment) — steady-state log size is bounded by one checkpoint interval.

#ifndef TOKRA_EM_WAL_H_
#define TOKRA_EM_WAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "em/block_device.h"
#include "em/options.h"
#include "util/status.h"

namespace tokra::em {

class WriteAheadLog {
 public:
  struct Options {
    std::string path;
    std::uint32_t block_words = 256;
    /// Every Sync() is a real fsync (power-loss durability). Off, appends
    /// ride the OS page cache: they survive SIGKILL but not power loss.
    bool fsync = false;
    /// Segment rotation threshold for Truncate(), in log blocks.
    std::uint32_t rotate_blocks = 1024;
    /// Scan an existing log without creating, truncating, or repairing it
    /// (the WalReader mode; Append/Truncate are refused).
    bool read_only = false;
    /// Optional latency sinks (null = no timing, no clock reads). Must
    /// outlive the log.
    obs::Histogram* append_us = nullptr;
    obs::Histogram* fsync_us = nullptr;
    /// Test hook: wrap the log's device (and every rotated successor) in a
    /// FaultInjectingBlockDevice consulting this injector. Non-owning;
    /// null adds no wrapper. Plumbed from EmOptions::fault by the pager.
    FaultInjector* fault = nullptr;
    /// Scan-resume hint for live-tail pollers (em::WalTailFollower): when
    /// the opened segment's base LSN equals hint_base_lsn and hint_block is
    /// at least 1, the frame scan starts at hint_block expecting hint_lsn
    /// instead of walking from block 1 — a poll of a growing log costs
    /// O(new frames), not O(file). Records below hint_lsn are then absent
    /// from records(), so only consumers that already hold them may hint.
    /// A base mismatch (the segment rotated) ignores the hint entirely.
    std::uint64_t hint_base_lsn = 0;
    std::uint64_t hint_lsn = 0;
    BlockId hint_block = 0;
  };

  enum class RecordType : std::uint32_t {
    kPreImage = 1,  ///< payload: [home block id][block_words words of image]
    kLogical = 2,   ///< payload: client-defined redo record
  };

  /// Directory entry of one valid record (payload read on demand).
  struct Record {
    std::uint64_t lsn = 0;
    RecordType type = RecordType::kLogical;
    BlockId first_block = 0;  ///< log block where the frame starts
    std::uint32_t payload_words = 0;
  };

  /// Opens (creating if needed, unless read_only) the segment at
  /// `options.path`, scans it, and drops any torn tail. An unformatted
  /// segment (empty, or one all-zero block) is formatted by a writer and
  /// is kNotFound to a read-only open, like a missing one. A leftover
  /// `<path>.rotate` side file from a crashed rotation is removed (kept in
  /// read-only mode).
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(Options options);

  /// Appends one record, returning its LSN. One WriteRun of
  /// ceil((header + payload) / block_words) log blocks; durability follows
  /// Sync().
  std::uint64_t Append(RecordType type, std::span<const word_t> payload);

  /// Group-commit barrier: one fsync when Options::fsync, else a no-op
  /// (page-cache durability). Call once per appended group.
  void Sync();

  /// Declares every record with lsn <= upto obsolete. Rotates to a fresh
  /// segment once the file exceeds rotate_blocks; otherwise drops the
  /// directory entries and keeps appending to the same file.
  Status Truncate(std::uint64_t upto);

  /// Restarts the log as an empty segment whose next Append returns
  /// `next`. For when an attached checkpoint's stamp is AHEAD of this
  /// log's head (a shipped snapshot without its log, a log recreated
  /// out-of-band): everything the log could currently hold is at or below
  /// the stamp — inert — while fresh appends would reuse stamped LSNs and
  /// be silently ignored by the next recovery. Committed atomically via
  /// the rotation side-file rename.
  Status AdvanceTo(std::uint64_t next);

  /// Reads a record's payload words.
  Status ReadPayload(const Record& rec, std::vector<word_t>* out) const;

  /// Valid records in LSN order (survivors of the last Truncate).
  const std::vector<Record>& records() const { return records_; }

  /// LSN of the last appended record; base_lsn()-1 when the log is empty.
  std::uint64_t head_lsn() const { return head_lsn_; }
  /// First LSN this segment may contain.
  std::uint64_t base_lsn() const { return base_lsn_; }

  std::uint64_t appends() const { return appends_; }
  std::uint64_t fsyncs() const { return retired_syncs_ + device_->syncs(); }
  /// Current segment size in log blocks (header block included).
  std::uint64_t file_blocks() const { return device_->NumBlocks(); }
  /// Log block where the next frame would start — together with head_lsn()
  /// and base_lsn(), the scan-resume hint a poller feeds its next Open.
  BlockId tail_block() const { return tail_block_; }

  /// The log device's sticky health (see BlockDevice::io_status). Callers
  /// check this after their group's Append + Sync: a non-OK status means
  /// the group may not be durable and MUST NOT be acknowledged.
  Status io_status() const { return device_->io_status(); }
  std::uint64_t io_errors() const { return device_->io_errors(); }
  std::uint64_t injected_faults() const { return device_->injected_faults(); }

  const std::string& path() const { return options_.path; }
  std::uint32_t block_words() const { return options_.block_words; }

 private:
  explicit WriteAheadLog(Options options) : options_(std::move(options)) {}

  Status LoadOrFormat();
  void WriteSegmentHeader();
  /// Scans frames from block 1, filling records_; stops at the first
  /// invalid frame (torn tail) and positions the append cursor there.
  void ScanFrames();
  /// Replaces the segment with a fresh one at `new_base` via the
  /// side-file + rename commit. Requires every current record obsolete.
  Status Rotate(std::uint64_t new_base);

  Options options_;
  std::unique_ptr<BlockDevice> device_;
  std::vector<Record> records_;
  std::uint64_t base_lsn_ = 1;
  std::uint64_t head_lsn_ = 0;   // base_lsn_ - 1 when empty
  BlockId tail_block_ = 1;       // next frame starts here
  std::uint64_t truncated_lsn_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t retired_syncs_ = 0;  // barriers issued by rotated-away fds
  std::vector<word_t> scratch_;  // frame assembly buffer
};

/// Read-only iteration over a log's valid records — the replication seam: a
/// follower opens the shard's log, seeks past the LSN its snapshot covers,
/// and applies the remaining kLogical records. Never writes, repairs, or
/// rotates; the underlying segment must stay quiescent while reading.
class WalReader {
 public:
  static StatusOr<std::unique_ptr<WalReader>> Open(std::string path,
                                                   std::uint32_t block_words);

  /// Open with full options (read_only is forced on) — the scan-resume
  /// hint path used by WalTailFollower for O(new data) polls.
  static StatusOr<std::unique_ptr<WalReader>> Open(
      WriteAheadLog::Options options);

  /// Positions the iterator at the first record with lsn > after.
  void Seek(std::uint64_t after);

  /// Advances to the next record; false at end. `payload` receives the
  /// record's words.
  bool Next(WriteAheadLog::Record* rec, std::vector<word_t>* payload);

  std::uint64_t head_lsn() const { return log_->head_lsn(); }
  std::uint64_t base_lsn() const { return log_->base_lsn(); }
  BlockId tail_block() const { return log_->tail_block(); }
  const std::vector<WriteAheadLog::Record>& records() const {
    return log_->records();
  }

 private:
  explicit WalReader(std::unique_ptr<WriteAheadLog> log)
      : log_(std::move(log)) {}

  std::unique_ptr<WriteAheadLog> log_;
  std::size_t pos_ = 0;
};

}  // namespace tokra::em

#endif  // TOKRA_EM_WAL_H_
