// Write-ahead log unit tests: frame round trips, torn-tail detection,
// truncation/rotation, the reader seam, and the pager's pre-image/undo
// integration (crash between checkpoints rolls back to the exact
// checkpoint).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "em/pager.h"
#include "em/wal.h"
#include "em/wal_tail.h"

namespace tokra::em {
namespace {

namespace fs = std::filesystem;

/// A unique temp directory for one test; removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tokra-wal-" + tag + "-" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::vector<word_t> Payload(std::uint64_t tag, std::size_t n) {
  std::vector<word_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = tag * 1000 + i;
  return p;
}

/// Flips one byte of `path` at `offset`.
void FlipByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c ^= 0x40;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(WalTest, AppendReopenRoundTrip) {
  TempDir dir("roundtrip");
  WriteAheadLog::Options o;
  o.path = dir.File("seg.wal");
  o.block_words = 16;
  std::vector<std::vector<word_t>> payloads;
  {
    auto log = WriteAheadLog::Open(o);
    ASSERT_TRUE(log.ok());
    // Mixed sizes: sub-block, exactly one block of payload, multi-block.
    payloads.push_back(Payload(1, 3));
    payloads.push_back(Payload(2, 16));
    payloads.push_back(Payload(3, 45));
    payloads.push_back({});  // empty payload is legal
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ((*log)->Append(WriteAheadLog::RecordType::kLogical,
                               payloads[i]),
                i + 1);
      (*log)->Sync();
    }
    EXPECT_EQ((*log)->head_lsn(), 4u);
    EXPECT_EQ((*log)->appends(), 4u);
  }  // destroyed without any flush call: appends are already on the file

  auto log = WriteAheadLog::Open(o);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->head_lsn(), 4u);
  ASSERT_EQ((*log)->records().size(), payloads.size());
  std::vector<word_t> got;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const auto& rec = (*log)->records()[i];
    EXPECT_EQ(rec.lsn, i + 1);
    EXPECT_EQ(rec.type, WriteAheadLog::RecordType::kLogical);
    ASSERT_TRUE((*log)->ReadPayload(rec, &got).ok());
    EXPECT_EQ(got, payloads[i]);
  }
  // The reopened log appends past the recovered head.
  EXPECT_EQ((*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(5, 2)),
            5u);
}

TEST(WalTest, TornTailIsDroppedAndOverwritten) {
  TempDir dir("torn");
  WriteAheadLog::Options o;
  o.path = dir.File("seg.wal");
  o.block_words = 16;
  WriteAheadLog::Record last;
  {
    auto log = WriteAheadLog::Open(o);
    ASSERT_TRUE(log.ok());
    for (int i = 1; i <= 3; ++i) {
      (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(i, 20));
    }
    last = (*log)->records().back();
  }
  // A byte flip inside the last frame's payload breaks its CRC.
  FlipByte(o.path, (last.first_block * o.block_words + 6) * sizeof(word_t));
  {
    auto log = WriteAheadLog::Open(o);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->head_lsn(), 2u);  // prefix kept, torn record dropped
    ASSERT_EQ((*log)->records().size(), 2u);
    // The next append reuses the torn record's LSN and space.
    EXPECT_EQ((*log)->Append(WriteAheadLog::RecordType::kLogical,
                             Payload(9, 4)),
              3u);
  }
  auto log = WriteAheadLog::Open(o);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ((*log)->records().size(), 3u);
  std::vector<word_t> got;
  ASSERT_TRUE((*log)->ReadPayload((*log)->records()[2], &got).ok());
  EXPECT_EQ(got, Payload(9, 4));
}

TEST(WalTest, TruncateMidFrameDropsOnlyTheTail) {
  TempDir dir("shear");
  WriteAheadLog::Options o;
  o.path = dir.File("seg.wal");
  o.block_words = 16;
  {
    auto log = WriteAheadLog::Open(o);
    ASSERT_TRUE(log.ok());
    for (int i = 1; i <= 3; ++i) {
      (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(i, 40));
    }
  }
  // Shear the file mid-way through the last (3-block) frame — the torn
  // write a power cut leaves behind.
  const auto bytes = fs::file_size(o.path);
  fs::resize_file(o.path, bytes - o.block_words * sizeof(word_t));
  auto log = WriteAheadLog::Open(o);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->head_lsn(), 2u);
  EXPECT_EQ((*log)->records().size(), 2u);
}

TEST(WalTest, TruncateRotatesOnceObsoleteAndBoundsTheFile) {
  TempDir dir("rotate");
  WriteAheadLog::Options o;
  o.path = dir.File("seg.wal");
  o.block_words = 16;
  o.rotate_blocks = 4;
  auto log = WriteAheadLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (int i = 1; i <= 8; ++i) {
    (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(i, 20));
  }
  const std::uint64_t head = (*log)->head_lsn();
  ASSERT_GT((*log)->file_blocks(), o.rotate_blocks);
  // Partial truncation keeps live records (and therefore the file).
  ASSERT_TRUE((*log)->Truncate(head - 1).ok());
  EXPECT_EQ((*log)->records().size(), 1u);
  ASSERT_GT((*log)->file_blocks(), o.rotate_blocks);
  // Full truncation rotates: fresh segment, continued LSN space.
  ASSERT_TRUE((*log)->Truncate(head).ok());
  EXPECT_EQ((*log)->records().size(), 0u);
  EXPECT_EQ((*log)->file_blocks(), 1u);  // header only
  EXPECT_EQ((*log)->base_lsn(), head + 1);
  EXPECT_EQ((*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(9, 2)),
            head + 1);
  // The rotated segment reopens with the advanced base.
  log->reset();
  auto reopened = WriteAheadLog::Open(o);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->base_lsn(), head + 1);
  EXPECT_EQ((*reopened)->head_lsn(), head + 1);
}

TEST(WalTest, ReaderIteratesTailAfterSeek) {
  TempDir dir("reader");
  WriteAheadLog::Options o;
  o.path = dir.File("seg.wal");
  o.block_words = 16;
  {
    auto log = WriteAheadLog::Open(o);
    ASSERT_TRUE(log.ok());
    for (int i = 1; i <= 5; ++i) {
      (*log)->Append(i % 2 == 0 ? WriteAheadLog::RecordType::kPreImage
                                : WriteAheadLog::RecordType::kLogical,
                     Payload(i, 17));
    }
  }
  auto reader = WalReader::Open(o.path, o.block_words);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->head_lsn(), 5u);
  (*reader)->Seek(3);
  WriteAheadLog::Record rec;
  std::vector<word_t> payload;
  std::vector<std::uint64_t> lsns;
  while ((*reader)->Next(&rec, &payload)) lsns.push_back(rec.lsn);
  EXPECT_EQ(lsns, (std::vector<std::uint64_t>{4, 5}));
  // Opening a missing log is a NotFound, never a create.
  EXPECT_EQ(WalReader::Open(dir.File("absent.wal"), 16).status().code(),
            StatusCode::kNotFound);
}

// The pager integration: a crash between checkpoints leaves the home file a
// mix of checkpoint-time and newer blocks; opening with the log attached
// must roll it back to byte-exactly the checkpoint.
TEST(WalPagerTest, OpenUndoesTornInterCheckpointWrites) {
  TempDir dir("undo");
  EmOptions opts{.block_words = 64, .pool_frames = 4};
  opts.backend = Backend::kFile;
  opts.path = dir.File("data.blk");
  opts.wal_path = dir.File("data.wal");
  constexpr int kBlocks = 12;
  std::vector<BlockId> ids;
  {
    Pager pager(opts);
    for (int i = 0; i < kBlocks; ++i) {
      ids.push_back(pager.Allocate());
      PageRef p = pager.Create(ids.back());
      p.Set(0, 1000 + i);
    }
    ASSERT_TRUE(pager.Checkpoint({}).ok());
    // Mutate every block and force the mutations onto the home file; the
    // 4-frame pool also exercises the eviction write-back path, not just
    // FlushAll.
    for (int i = 0; i < kBlocks; ++i) {
      PageRef p = pager.Fetch(ids[i]);
      p.Set(0, 2000 + i);
    }
    pager.FlushAll();
    // Every overwritten checkpoint-live block logged exactly one pre-image.
    EXPECT_EQ(pager.stats().wal_appends, std::uint64_t{kBlocks});
  }  // destroyed WITHOUT a checkpoint: the crash

  auto reopened = Pager::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int i = 0; i < kBlocks; ++i) {
    PageRef p = (*reopened)->Fetch(ids[i]);
    EXPECT_EQ(p.Get(0), static_cast<std::uint64_t>(1000 + i)) << "block " << i;
  }
  // The recovered pager is fully live: mutate, checkpoint (which truncates
  // the log), and reopen once more.
  {
    PageRef p = (*reopened)->Fetch(ids[0]);
    p.Set(0, 4242);
  }
  ASSERT_TRUE((*reopened)->Checkpoint({}).ok());
  EXPECT_TRUE((*reopened)->wal()->records().empty());
  reopened->reset();
  auto again = Pager::Open(opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->Fetch(ids[0]).Get(0), 4242u);
  EXPECT_EQ((*again)->Fetch(ids[1]).Get(0), 1001u);
}

// Only the FIRST overwrite of a block per interval logs a pre-image, and
// blocks born after the checkpoint log none at all.
TEST(WalPagerTest, PreImagesAreOncePerBlockPerInterval) {
  TempDir dir("once");
  EmOptions opts{.block_words = 64, .pool_frames = 4};
  opts.backend = Backend::kFile;
  opts.path = dir.File("data.blk");
  opts.wal_path = dir.File("data.wal");
  Pager pager(opts);
  const BlockId a = pager.Allocate();
  pager.Create(a).Set(0, 7);
  // Pre-checkpoint: nothing is recoverable yet, so nothing is guarded.
  pager.FlushAll();
  EXPECT_EQ(pager.stats().wal_appends, 0u);
  ASSERT_TRUE(pager.Checkpoint({}).ok());

  for (int round = 0; round < 5; ++round) {
    pager.Fetch(a).Set(0, 100 + round);
    pager.FlushAll();
  }
  EXPECT_EQ(pager.stats().wal_appends, 1u);  // one guard, five overwrites
  // A block allocated after the checkpoint needs no guard either.
  const BlockId b = pager.Allocate();
  pager.Create(b).Set(0, 9);
  pager.FlushAll();
  EXPECT_EQ(pager.stats().wal_appends, 1u);
  // The next interval guards the block again (its checkpoint content moved).
  ASSERT_TRUE(pager.Checkpoint({}).ok());
  pager.Fetch(a).Set(0, 55);
  pager.FlushAll();
  EXPECT_EQ(pager.stats().wal_appends, 2u);
}

// wal_fsync mode issues real barriers and counts them; page-cache mode
// issues none.
TEST(WalPagerTest, FsyncModeCountsBarriers) {
  TempDir dir("fsync");
  EmOptions opts{.block_words = 64, .pool_frames = 4};
  opts.backend = Backend::kFile;
  opts.path = dir.File("data.blk");
  opts.wal_path = dir.File("data.wal");
  {
    Pager pager(opts);
    pager.Create(pager.Allocate()).Set(0, 1);
    ASSERT_TRUE(pager.Checkpoint({}).ok());
    EXPECT_EQ(pager.stats().fsyncs, 0u);  // page-cache mode: no barriers
  }
  opts.path = dir.File("data2.blk");
  opts.wal_path = dir.File("data2.wal");
  opts.wal_fsync = true;
  Pager pager(opts);
  const BlockId a = pager.Allocate();
  pager.Create(a).Set(0, 1);
  ASSERT_TRUE(pager.Checkpoint({}).ok());
  pager.Fetch(a).Set(0, 2);
  pager.FlushAll();  // pre-image append + barrier before the home write
  EXPECT_GT(pager.stats().fsyncs, 0u);
  EXPECT_EQ(pager.stats().wal_appends, 1u);
}

// ---------------------------------------------------------------------------
// WalTailFollower: the position-remembering live-tail poller behind the
// replication seam (em/wal_tail.h).

TEST(WalTailFollowerTest, DeliversAcrossPollsAndSkipsUnchangedFiles) {
  TempDir dir("tail-basic");
  WalTailFollower::Options fo;
  fo.path = dir.File("t.wal");
  fo.block_words = 64;
  WalTailFollower follower(fo);

  std::vector<std::uint64_t> seen;
  auto cb = [&seen](const WriteAheadLog::Record& rec,
                    std::span<const word_t> payload) -> Status {
    EXPECT_EQ(payload.size(), 3u);
    const std::vector<word_t> want = Payload(rec.lsn, 3);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), want.begin()));
    seen.push_back(rec.lsn);
    return Status::Ok();
  };

  // Segment not created yet: benign NotFound, try again later.
  EXPECT_EQ(follower.Poll(cb).status().code(), StatusCode::kNotFound);

  WriteAheadLog::Options o;
  o.path = fo.path;
  o.block_words = 64;
  auto log = WriteAheadLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ((*log)->Append(WriteAheadLog::RecordType::kLogical,
                             Payload(i, 3)),
              i);
  }
  (*log)->Sync();

  auto polled = follower.Poll(cb);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 5u);
  EXPECT_EQ(follower.delivered_lsn(), 5u);

  // Nothing new: the (ino, size) fast path skips the re-open entirely.
  polled = follower.Poll(cb);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 0u);
  EXPECT_EQ(follower.skipped_polls(), 1u);

  for (std::uint64_t i = 6; i <= 7; ++i) {
    (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(i, 3));
  }
  (*log)->Sync();
  polled = follower.Poll(cb);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 2u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
}

// Formatting grows a segment before its header lands, so a poller or a
// reopening writer can meet a grown-but-zero block 0. That is an
// unformatted segment, not a corrupt one: a reader waits (kNotFound) and a
// writer formats it. A zero header in front of frames, or a non-zero header
// with a bad checksum, stays corrupt.
TEST(WalTailFollowerTest, ZeroFilledSegmentIsNotCreatedYet) {
  TempDir dir("tail-zero");
  const std::string path = dir.File("t.wal");
  {
    std::ofstream f(path, std::ios::binary);
    const std::vector<char> zeros(64 * sizeof(word_t), 0);
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  WalTailFollower::Options fo;
  fo.path = path;
  fo.block_words = 64;
  WalTailFollower follower(fo);
  std::vector<std::uint64_t> seen;
  auto cb = [&seen](const WriteAheadLog::Record& rec,
                    std::span<const word_t>) -> Status {
    seen.push_back(rec.lsn);
    return Status::Ok();
  };
  EXPECT_EQ(follower.Poll(cb).status().code(), StatusCode::kNotFound);

  WriteAheadLog::Options o;
  o.path = path;
  o.block_words = 64;
  {
    auto log = WriteAheadLog::Open(o);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->Append(WriteAheadLog::RecordType::kLogical,
                             Payload(1, 3)),
              1u);
    (*log)->Sync();
  }
  auto polled = follower.Poll(cb);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1}));

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::vector<char> zeros(64 * sizeof(word_t), 0);
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  EXPECT_EQ(WalReader::Open(path, 64).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(WriteAheadLog::Open(o).status().code(),
            StatusCode::kFailedPrecondition);

  FlipByte(path, 0);
  EXPECT_EQ(WalReader::Open(path, 64).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(WriteAheadLog::Open(o).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WalTailFollowerTest, StartAfterSkipsCoveredRecords) {
  TempDir dir("tail-start");
  WriteAheadLog::Options o;
  o.path = dir.File("t.wal");
  o.block_words = 64;
  auto log = WriteAheadLog::Open(o);
  ASSERT_TRUE(log.ok());
  for (std::uint64_t i = 1; i <= 6; ++i) {
    (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(i, 2));
  }
  (*log)->Sync();

  WalTailFollower::Options fo;
  fo.path = o.path;
  fo.block_words = 64;
  fo.start_after = 4;  // a shipped snapshot covered LSNs 1..4
  WalTailFollower follower(fo);
  std::vector<std::uint64_t> seen;
  auto polled = follower.Poll(
      [&seen](const WriteAheadLog::Record& rec,
              std::span<const word_t>) -> Status {
        seen.push_back(rec.lsn);
        return Status::Ok();
      });
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{5, 6}));
}

TEST(WalTailFollowerTest, SurvivesRotationAndReportsFallingBehind) {
  TempDir dir("tail-rotate");
  WriteAheadLog::Options o;
  o.path = dir.File("t.wal");
  o.block_words = 64;
  o.rotate_blocks = 4;  // tiny: every full truncation rotates
  auto log = WriteAheadLog::Open(o);
  ASSERT_TRUE(log.ok());

  WalTailFollower::Options fo;
  fo.path = o.path;
  fo.block_words = 64;
  WalTailFollower follower(fo);
  std::uint64_t last = 0;
  auto cb = [&last](const WriteAheadLog::Record& rec,
                    std::span<const word_t>) -> Status {
    EXPECT_EQ(rec.lsn, last + 1);  // monotonic across rotations, no gaps
    last = rec.lsn;
    return Status::Ok();
  };

  for (std::uint64_t i = 1; i <= 5; ++i) {
    (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(i, 3));
  }
  (*log)->Sync();
  ASSERT_TRUE(follower.Poll(cb).ok());
  EXPECT_EQ(follower.delivered_lsn(), 5u);

  // Rotate (all records obsolete, file past rotate_blocks) and keep
  // appending: the follower's hint is invalidated by the new base, but
  // delivery just continues — it had already consumed everything rotated
  // away.
  ASSERT_TRUE((*log)->Truncate(5).ok());
  for (std::uint64_t i = 6; i <= 8; ++i) {
    (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(i, 3));
  }
  (*log)->Sync();
  auto polled = follower.Poll(cb);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*polled, 3u);
  EXPECT_EQ(follower.delivered_lsn(), 8u);

  // A consumer that never saw LSNs 1..8 cannot be served by this segment
  // any more: Poll must refuse loudly (re-bootstrap signal), not skip.
  ASSERT_TRUE((*log)->Truncate(8).ok());
  (*log)->Append(WriteAheadLog::RecordType::kLogical, Payload(9, 3));
  (*log)->Sync();
  WalTailFollower fresh(
      WalTailFollower::Options{o.path, o.block_words, 0});
  EXPECT_EQ(fresh.Poll(cb).status().code(), StatusCode::kOutOfRange);
}

// A reader polling a log while an appender commits into it must only ever
// observe whole, CRC-valid records, in LSN order — the property the
// replication primary's tail shipping stands on.
TEST(WalTest, RacingReaderSeesWholeRecordsInLsnOrder) {
  TempDir dir("racing");
  const std::string path = dir.File("t.wal");
  constexpr std::uint64_t kRecords = 400;

  std::atomic<bool> appender_done{false};
  std::thread appender([&] {
    WriteAheadLog::Options o;
    o.path = path;
    o.block_words = 64;
    auto log = WriteAheadLog::Open(o);
    ASSERT_TRUE(log.ok());
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      (*log)->Append(WriteAheadLog::RecordType::kLogical,
                     Payload(i, 1 + i % 7));
      if (i % 4 == 0) (*log)->Sync();  // group commits
      if (i % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    (*log)->Sync();
    appender_done.store(true);
  });

  WalTailFollower::Options fo;
  fo.path = path;
  fo.block_words = 64;
  WalTailFollower follower(fo);
  std::uint64_t last = 0;
  bool corrupt = false;
  auto cb = [&](const WriteAheadLog::Record& rec,
                std::span<const word_t> payload) -> Status {
    if (rec.lsn != last + 1) corrupt = true;  // gap or reorder
    const std::vector<word_t> want = Payload(rec.lsn, 1 + rec.lsn % 7);
    if (payload.size() != want.size() ||
        !std::equal(payload.begin(), payload.end(), want.begin())) {
      corrupt = true;  // partial or torn record observed
    }
    last = rec.lsn;
    return Status::Ok();
  };

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (last < kRecords && std::chrono::steady_clock::now() < deadline) {
    auto polled = follower.Poll(cb);
    if (!polled.ok()) {
      // Only the not-created-yet window is acceptable mid-race.
      ASSERT_EQ(polled.status().code(), StatusCode::kNotFound);
    }
    ASSERT_FALSE(corrupt);
  }
  appender.join();
  EXPECT_TRUE(appender_done.load());
  EXPECT_EQ(last, kRecords);
  EXPECT_FALSE(corrupt);
  EXPECT_GT(follower.polls(), 1u);
}

}  // namespace
}  // namespace tokra::em
