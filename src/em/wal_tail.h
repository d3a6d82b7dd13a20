// WalTailFollower: a position-remembering poller over a live shard WAL —
// the consumer half of the replication seam.
//
// A replica (or any log-shipping consumer) needs to see every record an
// appender commits after some starting LSN, across an arbitrary number of
// polls, while the appender keeps appending, logically truncating, and
// occasionally rotating the segment underneath. WalReader alone makes that
// awkward: it scans once at open, so a poller must re-open per poll, and a
// naive re-open re-scans the whole file and forgets where it stopped.
//
// WalTailFollower owns that loop:
//   * it remembers the last LSN it delivered and never re-delivers;
//   * each poll re-opens the segment with a scan-resume hint (base LSN +
//     block + next LSN from the previous poll), so a poll of a grown log
//     costs O(new frames), not O(file);
//   * an unchanged file (same inode, same size — appends strictly grow a
//     segment and rotation replaces the inode) skips the open entirely;
//   * rotation is survived by construction: a rotated segment's base LSN
//     invalidates the hint (full rescan of the fresh segment) and LSNs are
//     monotonic across rotations, so delivery just continues. If the log
//     rotated PAST records the consumer never saw (it fell behind a
//     checkpoint's truncation), Poll reports kOutOfRange — the signal to
//     re-bootstrap from a snapshot rather than silently skip updates.
//
// Safe against a live appender: frames become visible block-ordered
// through the page cache, a partially-visible tail frame fails the CRC or
// bounds check and ends the scan exactly like a torn tail, and the next
// poll picks it up whole (tested in wal_test.cc's racing-reader suite).
// Not thread-safe; one follower per consumer.

#ifndef TOKRA_EM_WAL_TAIL_H_
#define TOKRA_EM_WAL_TAIL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "em/wal.h"
#include "util/status.h"

namespace tokra::em {

class WalTailFollower {
 public:
  struct Options {
    std::string path;
    std::uint32_t block_words = 256;
    /// Records with lsn <= start_after are considered already consumed
    /// (the checkpoint-covered stamp of a shipped snapshot).
    std::uint64_t start_after = 0;
  };

  /// Receives each new record in LSN order. A non-OK return aborts the
  /// poll (already-delivered records stay delivered) and surfaces from
  /// Poll().
  using Callback = std::function<Status(const WriteAheadLog::Record& rec,
                                        std::span<const word_t> payload)>;

  explicit WalTailFollower(Options options) : options_(std::move(options)) {
    delivered_ = options_.start_after;
  }

  /// One poll: delivers every record with lsn > delivered_lsn(), in LSN
  /// order, and returns how many were delivered (0 when nothing new).
  /// kNotFound: the segment does not exist or has no header yet — benign
  /// for a poller, try again. kOutOfRange: the log rotated past
  /// undelivered records; the consumer must re-bootstrap. Other errors
  /// propagate from the scan or the callback.
  StatusOr<std::uint64_t> Poll(const Callback& fn);

  /// LSN of the last record handed to the callback.
  std::uint64_t delivered_lsn() const { return delivered_; }
  /// The log's head as of the last successful poll (delivered or not —
  /// a callback abort can leave delivered_lsn() behind head_lsn()).
  std::uint64_t head_lsn() const { return head_; }
  std::uint64_t polls() const { return polls_; }
  std::uint64_t skipped_polls() const { return skipped_polls_; }

 private:
  Options options_;
  std::uint64_t delivered_ = 0;
  std::uint64_t head_ = 0;
  // Scan-resume hint captured from the last open (valid for hint_base_).
  std::uint64_t hint_base_ = 0;
  std::uint64_t hint_lsn_ = 0;
  BlockId hint_block_ = 0;
  // Unchanged-file fast path: inode + size of the segment at the last
  // poll. Appends strictly grow a segment and rotation renames a fresh
  // inode over the path, so (ino, size) equality proves nothing changed.
  std::uint64_t last_ino_ = 0;
  std::uint64_t last_size_ = std::uint64_t(-1);
  std::uint64_t polls_ = 0;
  std::uint64_t skipped_polls_ = 0;
};

}  // namespace tokra::em

#endif  // TOKRA_EM_WAL_TAIL_H_
