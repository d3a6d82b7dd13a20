// Unit tests for the external-memory substrate: device, pool, pager, arrays.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/file_block_device.h"
#include "em/paged_array.h"
#include "em/pager.h"

namespace tokra::em {
namespace {

/// A unique temp-file path for one test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("tokra-em-" + tag + "-" + std::to_string(::getpid()) + ".blk"))
                .string();
    std::filesystem::remove(path_);
  }
  ~TempFile() { std::filesystem::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(BlockDeviceTest, RoundTripCountsIos) {
  MemBlockDevice dev(8);
  std::vector<word_t> buf(8, 0);
  for (int i = 0; i < 8; ++i) buf[i] = 100 + i;
  dev.Write(3, buf.data());
  EXPECT_EQ(dev.writes(), 1u);
  EXPECT_EQ(dev.NumBlocks(), 4u);

  std::vector<word_t> got(8, 0);
  dev.Read(3, got.data());
  EXPECT_EQ(dev.reads(), 1u);
  EXPECT_EQ(got, buf);
}

TEST(BufferPoolTest, HitsAreFree) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(10);
  BufferPool pool(&dev, 4);
  std::uint32_t fr = pool.Pin(0, BufferPool::PinMode::kRead);
  pool.Unpin(fr, false);
  EXPECT_EQ(dev.reads(), 1u);
  // Re-pin: served from cache.
  fr = pool.Pin(0, BufferPool::PinMode::kRead);
  pool.Unpin(fr, false);
  EXPECT_EQ(dev.reads(), 1u);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST(BufferPoolTest, LruEvictionWritesBackDirty) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(10);
  BufferPool pool(&dev, 2);
  // Dirty block 0.
  std::uint32_t fr = pool.Pin(0, BufferPool::PinMode::kRead);
  pool.FrameData(fr)[0] = 77;
  pool.Unpin(fr, true);
  // Fill the pool: 1, then 2 evicts LRU (block 0) and writes it back.
  pool.Unpin(pool.Pin(1, BufferPool::PinMode::kRead), false);
  pool.Unpin(pool.Pin(2, BufferPool::PinMode::kRead), false);
  EXPECT_EQ(dev.writes(), 1u);
  // Re-reading block 0 sees the written value.
  fr = pool.Pin(0, BufferPool::PinMode::kRead);
  EXPECT_EQ(pool.FrameData(fr)[0], 77u);
  pool.Unpin(fr, false);
}

TEST(BlockDeviceTest, RunTransfersCountPerBlock) {
  MemBlockDevice dev(8);
  std::vector<word_t> buf(3 * 8);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i;
  dev.WriteRun(2, 3, buf.data());
  EXPECT_EQ(dev.writes(), 3u);  // one I/O per block even when fused
  EXPECT_EQ(dev.NumBlocks(), 5u);

  std::vector<word_t> got(3 * 8, 0);
  dev.ReadRun(2, 3, got.data());
  EXPECT_EQ(dev.reads(), 3u);
  EXPECT_EQ(got, buf);
  dev.ReadRun(2, 0, got.data());  // empty run: no I/O
  EXPECT_EQ(dev.reads(), 3u);
}

TEST(FileBlockDeviceTest, RoundTripAndReopen) {
  TempFile tmp("roundtrip");
  std::vector<word_t> buf(8);
  for (int i = 0; i < 8; ++i) buf[i] = 100 + i;
  {
    FileBlockDevice dev(8, {.path = tmp.path(), .truncate = true});
    dev.Write(3, buf.data());
    EXPECT_EQ(dev.writes(), 1u);
    EXPECT_EQ(dev.NumBlocks(), 4u);
    std::vector<word_t> got(8, 0);
    dev.Read(3, got.data());
    EXPECT_EQ(got, buf);
    dev.Sync();
  }
  // Contents survive the device object (and would survive the process).
  {
    FileBlockDevice dev(8, {.path = tmp.path(), .truncate = false});
    EXPECT_EQ(dev.NumBlocks(), 4u);
    std::vector<word_t> got(8, 0);
    dev.Read(3, got.data());
    EXPECT_EQ(got, buf);
    dev.Read(0, got.data());  // untouched blocks read back zero-filled
    EXPECT_EQ(got, std::vector<word_t>(8, 0));
  }
  // Truncate starts fresh.
  {
    FileBlockDevice dev(8, {.path = tmp.path(), .truncate = true});
    EXPECT_EQ(dev.NumBlocks(), 0u);
  }
}

TEST(FileBlockDeviceTest, RunTransfers) {
  TempFile tmp("runs");
  FileBlockDevice dev(8, {.path = tmp.path(), .truncate = true});
  std::vector<word_t> buf(4 * 8);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = 7 * i + 1;
  dev.WriteRun(1, 4, buf.data());
  EXPECT_EQ(dev.writes(), 4u);
  EXPECT_EQ(dev.NumBlocks(), 5u);
  std::vector<word_t> got(4 * 8, 0);
  dev.ReadRun(1, 4, got.data());
  EXPECT_EQ(dev.reads(), 4u);
  EXPECT_EQ(got, buf);
}

TEST(BufferPoolTest, CreateModeSkipsRead) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(4);
  BufferPool pool(&dev, 2);
  std::uint32_t fr = pool.Pin(1, BufferPool::PinMode::kCreate);
  EXPECT_EQ(dev.reads(), 0u);
  EXPECT_EQ(pool.FrameData(fr)[3], 0u);  // zero-filled
  pool.Unpin(fr, true);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(10);
  BufferPool pool(&dev, 3);
  pool.Unpin(pool.Pin(0, BufferPool::PinMode::kRead), false);
  pool.Unpin(pool.Pin(1, BufferPool::PinMode::kRead), false);
  pool.Unpin(pool.Pin(2, BufferPool::PinMode::kRead), false);
  // Touch 0 so 1 becomes the LRU, then overflow with 3.
  pool.Unpin(pool.Pin(0, BufferPool::PinMode::kRead), false);
  pool.Unpin(pool.Pin(3, BufferPool::PinMode::kRead), false);
  std::uint64_t reads = dev.reads();
  // 0 and 2 survived the eviction ...
  pool.Unpin(pool.Pin(0, BufferPool::PinMode::kRead), false);
  pool.Unpin(pool.Pin(2, BufferPool::PinMode::kRead), false);
  EXPECT_EQ(dev.reads(), reads);
  // ... and 1 (the LRU) did not.
  pool.Unpin(pool.Pin(1, BufferPool::PinMode::kRead), false);
  EXPECT_EQ(dev.reads(), reads + 1);
}

TEST(BufferPoolTest, EvictionWriteBackIoCounts) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(10);
  BufferPool pool(&dev, 2);
  // One dirty frame, one clean frame.
  std::uint32_t fr = pool.Pin(0, BufferPool::PinMode::kRead);
  pool.FrameData(fr)[0] = 1;
  pool.Unpin(fr, true);
  pool.Unpin(pool.Pin(1, BufferPool::PinMode::kRead), false);
  EXPECT_EQ(dev.writes(), 0u);  // nothing written while cached
  // Evicting the dirty LRU costs exactly one write; evicting the clean one
  // costs none.
  pool.Unpin(pool.Pin(2, BufferPool::PinMode::kRead), false);  // evicts 0
  EXPECT_EQ(dev.writes(), 1u);
  EXPECT_EQ(pool.stats().evictions, 1u);
  pool.Unpin(pool.Pin(3, BufferPool::PinMode::kRead), false);  // evicts 1
  EXPECT_EQ(dev.writes(), 1u);
  EXPECT_EQ(pool.stats().evictions, 2u);
  EXPECT_EQ(pool.stats().writes, 1u);
  EXPECT_EQ(dev.reads(), 4u);
  EXPECT_EQ(pool.stats().reads, 4u);
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(10);
  BufferPool pool(&dev, 2);
  std::uint32_t pinned = pool.Pin(0, BufferPool::PinMode::kRead);
  pool.FrameData(pinned)[0] = 42;
  // Cycle many other blocks through the remaining frame; the pinned frame
  // must survive untouched.
  for (BlockId id = 1; id < 8; ++id) {
    pool.Unpin(pool.Pin(id, BufferPool::PinMode::kRead), false);
  }
  EXPECT_EQ(pool.FrameBlock(pinned), 0u);
  EXPECT_EQ(pool.FrameData(pinned)[0], 42u);
  std::uint64_t reads = dev.reads();
  std::uint32_t again = pool.Pin(0, BufferPool::PinMode::kRead);
  EXPECT_EQ(again, pinned);          // served from the pinned frame
  EXPECT_EQ(dev.reads(), reads);     // no device read
  pool.Unpin(again, false);
  pool.Unpin(pinned, false);
}

TEST(BufferPoolTest, FlushAllKeepsCacheWarm) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(10);
  BufferPool pool(&dev, 4);
  std::uint32_t fr = pool.Pin(0, BufferPool::PinMode::kRead);
  pool.FrameData(fr)[0] = 9;
  pool.Unpin(fr, true);
  pool.FlushAll();
  EXPECT_EQ(dev.writes(), 1u);
  pool.FlushAll();  // now clean: second flush writes nothing
  EXPECT_EQ(dev.writes(), 1u);
  // The frame stayed cached: re-pin is a hit.
  std::uint64_t reads = dev.reads();
  pool.Unpin(pool.Pin(0, BufferPool::PinMode::kRead), false);
  EXPECT_EQ(dev.reads(), reads);
}

TEST(BufferPoolTest, DropAllGoesCold) {
  MemBlockDevice dev(8);
  dev.EnsureCapacity(10);
  BufferPool pool(&dev, 4);
  std::uint32_t fr = pool.Pin(0, BufferPool::PinMode::kRead);
  pool.FrameData(fr)[0] = 5;
  pool.Unpin(fr, true);
  pool.DropAll();
  EXPECT_EQ(dev.writes(), 1u);  // dirty data flushed, not lost
  // Cache is empty: the next pin misses and re-reads the flushed value.
  std::uint64_t reads = dev.reads();
  fr = pool.Pin(0, BufferPool::PinMode::kRead);
  EXPECT_EQ(dev.reads(), reads + 1);
  EXPECT_EQ(pool.FrameData(fr)[0], 5u);
  pool.Unpin(fr, false);
}

TEST(PagerTest, AllocateFreeReuse) {
  Pager pager(EmOptions{.block_words = 16, .pool_frames = 4});
  BlockId a = pager.Allocate();
  BlockId b = pager.Allocate();
  EXPECT_NE(a, 0u);  // block 0 is the reserved superblock
  EXPECT_NE(a, b);
  EXPECT_EQ(pager.BlocksInUse(), 2u);
  pager.Free(a);
  EXPECT_EQ(pager.BlocksInUse(), 1u);
  BlockId c = pager.Allocate();
  EXPECT_EQ(c, a);  // free list reuse
}

TEST(PagerTest, PageRefPersistsThroughEviction) {
  Pager pager(EmOptions{.block_words = 16, .pool_frames = 4});
  std::vector<BlockId> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(pager.Allocate());
  for (int i = 0; i < 32; ++i) {
    PageRef p = pager.Create(ids[i]);
    p.Set(0, 1000 + i);
    p.SetDouble(1, i * 0.5);
  }
  pager.DropCache();
  for (int i = 0; i < 32; ++i) {
    PageRef p = pager.Fetch(ids[i]);
    EXPECT_EQ(p.Get(0), 1000u + i);
    EXPECT_EQ(p.GetDouble(1), i * 0.5);
  }
}

TEST(PagerTest, ColdFetchCostsExactlyOneRead) {
  Pager pager(EmOptions{.block_words = 16, .pool_frames = 4});
  BlockId id = pager.Allocate();
  { PageRef p = pager.Create(id); p.Set(0, 9); }
  pager.DropCache();
  IoStats before = pager.stats();
  { PageRef p = pager.Fetch(id); EXPECT_EQ(p.Get(0), 9u); }
  IoStats delta = pager.stats() - before;
  EXPECT_EQ(delta.reads, 1u);
  EXPECT_EQ(delta.writes, 0u);
}

TEST(PagerTest, MovedPageRefDoesNotDoubleUnpin) {
  Pager pager(EmOptions{.block_words = 16, .pool_frames = 4});
  BlockId id = pager.Allocate();
  PageRef a = pager.Create(id);
  PageRef b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move) intentional
  EXPECT_TRUE(b.valid());
  b.Set(0, 5);
}

struct Rec {
  std::uint64_t id;
  double val;
};

TEST(PagedArrayTest, GetSetAcrossBlocks) {
  Pager pager(EmOptions{.block_words = 16, .pool_frames = 4});
  // 16-word blocks, 2-word records -> 8 per block; 20 records -> 3 blocks.
  auto blocks = PagedArray<Rec>::AllocateBlocks(&pager, 20);
  EXPECT_EQ(blocks.size(), 3u);
  PagedArray<Rec> arr(&pager, blocks);
  EXPECT_GE(arr.capacity(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    arr.Set(i, Rec{i, i * 1.5});
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    Rec r = arr.Get(i);
    EXPECT_EQ(r.id, i);
    EXPECT_EQ(r.val, i * 1.5);
  }
}

TEST(PagedArrayTest, RangeIoTouchesEachBlockOnce) {
  Pager pager(EmOptions{.block_words = 16, .pool_frames = 8});
  auto blocks = PagedArray<Rec>::AllocateBlocks(&pager, 64);  // 8 blocks
  PagedArray<Rec> arr(&pager, blocks);
  std::vector<Rec> vals;
  for (std::uint32_t i = 0; i < 64; ++i) vals.push_back(Rec{i, 0.25 * i});
  arr.WriteRange(0, vals);
  pager.DropCache();
  IoStats before = pager.stats();
  std::vector<Rec> out;
  arr.ReadRange(0, 64, &out);
  IoStats delta = pager.stats() - before;
  EXPECT_EQ(delta.reads, 8u);  // one per block, not one per element
  ASSERT_EQ(out.size(), 64u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[i].id, i);
    EXPECT_EQ(out[i].val, 0.25 * i);
  }
}

// A rewrite that leaves a block's bytes as they were leaves the block clean
// (no write-back, and under COW no redirect); a changed element dirties
// only its own block.
TEST(PagedArrayTest, RewriteOfEqualBytesStaysClean) {
  Pager pager(EmOptions{.block_words = 16, .pool_frames = 8});
  auto blocks = PagedArray<Rec>::AllocateBlocks(&pager, 64);  // 8 blocks
  PagedArray<Rec> arr(&pager, blocks);
  std::vector<Rec> vals;
  for (std::uint32_t i = 0; i < 64; ++i) vals.push_back(Rec{i, 0.25 * i});
  arr.WriteRange(0, vals);
  pager.FlushAll();
  IoStats before = pager.stats();
  arr.WriteRange(0, vals);
  pager.FlushAll();
  EXPECT_EQ((pager.stats() - before).writes, 0u);

  vals[37].val = -1.0;
  before = pager.stats();
  arr.WriteRange(0, vals);
  pager.FlushAll();
  EXPECT_EQ((pager.stats() - before).writes, 1u);
  pager.DropCache();
  std::vector<Rec> out;
  arr.ReadRange(0, 64, &out);
  ASSERT_EQ(out.size(), 64u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[i].id, vals[i].id);
    EXPECT_EQ(out[i].val, vals[i].val);
  }
}

// Free-space / high-water accounting (the compaction measurement seed).
TEST(SpaceStatsTest, TracksAllocatorAndHighWater) {
  EmOptions opts{.block_words = 64, .pool_frames = 8};
  Pager pager(opts);
  const SpaceStats s0 = pager.Space();
  EXPECT_EQ(s0.allocated_blocks, 0u);
  EXPECT_EQ(s0.free_blocks, 0u);
  EXPECT_EQ(s0.reserved_blocks, Pager::kReservedBlocks);
  EXPECT_EQ(s0.file_blocks, Pager::kReservedBlocks);

  std::vector<BlockId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(pager.Allocate());
  SpaceStats s1 = pager.Space();
  EXPECT_EQ(s1.allocated_blocks, 20u);
  EXPECT_EQ(s1.file_blocks, 22u);  // grown by exactly the allocations
  // Every file block is accounted for: allocated + free + reserved.
  EXPECT_EQ(s1.allocated_blocks + s1.free_blocks + s1.reserved_blocks,
            s1.file_blocks);

  // Freeing returns blocks to the allocator but never shrinks the file —
  // the high-water mark a compactor would reclaim.
  for (int i = 0; i < 10; ++i) pager.Free(ids[i]);
  SpaceStats s2 = pager.Space();
  EXPECT_EQ(s2.allocated_blocks, 10u);
  EXPECT_EQ(s2.free_blocks, 10u);
  EXPECT_EQ(s2.file_blocks, 22u);
  EXPECT_EQ(s2.allocated_blocks + s2.free_blocks + s2.reserved_blocks,
            s2.file_blocks);

  // Reuse drains the free list before the file grows further.
  for (int i = 0; i < 10; ++i) pager.Allocate();
  EXPECT_EQ(pager.Space().free_blocks, 0u);
  EXPECT_EQ(pager.Space().file_blocks, 22u);
}


TEST(IoStatsTest, DeltaArithmetic) {
  IoStats a{.reads = 10, .writes = 5, .pool_hits = 3, .pool_misses = 7,
            .evictions = 2};
  IoStats b{.reads = 4, .writes = 1, .pool_hits = 1, .pool_misses = 2,
            .evictions = 0};
  IoStats d = a - b;
  EXPECT_EQ(d.reads, 6u);
  EXPECT_EQ(d.writes, 4u);
  EXPECT_EQ(d.TotalIos(), 10u);
}

}  // namespace
}  // namespace tokra::em
