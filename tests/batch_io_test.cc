// Pool-to-device transfer tests: device round trips and run counts, buffer-
// pool Prefetch semantics (including write-back before re-read on a COW
// pager), mmap borrowed pins, backend parity (Mem / File / Mmap produce
// identical logical I/O counts and oracle-identical query results), and
// parallel-vs-serial engine checkpoint equivalence.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/topk_index.h"
#include "em/block_device.h"
#include "em/buffer_pool.h"
#include "em/file_block_device.h"
#include "em/mmap_block_device.h"
#include "em/pager.h"
#include "engine/sharded_engine.h"
#include "internal/naive.h"
#include "util/point.h"
#include "util/random.h"

namespace tokra {
namespace {

namespace fs = std::filesystem;

/// A unique temp directory for one test; removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tokra-batchio-" + tag + "-" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string File(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<Point> MakePoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1e6);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

/// The file-backed backends: copying reads (kFile) and borrowed reads
/// (kMmap, which falls back to plain file reads if the kernel refuses the
/// mapping).
std::vector<em::Backend> FileBackends() {
  return {em::Backend::kFile, em::Backend::kMmap};
}

// ---------------------------------------------------------------------------
// Device transfers

TEST(DeviceTransferTest, ScatteredRoundTripEveryBackend) {
  TempDir dir("roundtrip");
  for (em::Backend backend :
       {em::Backend::kMem, em::Backend::kFile, em::Backend::kMmap}) {
    em::EmOptions opts{.block_words = 16, .pool_frames = 4};
    opts.backend = backend;
    opts.path = dir.File("rt-" + std::to_string(static_cast<int>(backend)));
    auto dev = em::MakeBlockDevice(opts, /*truncate_file=*/true);

    // Scattered, unsorted writes of 11 distinct blocks, each one I/O.
    constexpr std::uint32_t kCount = 11;
    std::vector<em::BlockId> ids;
    std::vector<std::vector<em::word_t>> bufs(kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      ids.push_back((i * 7 + 3) % 23);
      bufs[i].assign(16, 0);
      for (std::uint32_t w = 0; w < 16; ++w) bufs[i][w] = ids[i] * 100 + w;
      dev->Write(ids[i], bufs[i].data());
    }
    EXPECT_EQ(dev->writes(), kCount);

    std::vector<em::word_t> got(16);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      std::fill(got.begin(), got.end(), ~em::word_t{0});
      dev->Read(ids[i], got.data());
      EXPECT_EQ(got, bufs[i]);
    }
    EXPECT_EQ(dev->reads(), kCount);
  }
}

TEST(DeviceTransferTest, RunCountsMatchPerBlockLoop) {
  TempDir dir("counts");
  for (em::Backend backend : FileBackends()) {
    em::EmOptions opts{.block_words = 16, .pool_frames = 4};
    opts.backend = backend;
    opts.path = dir.File("cnt-" + std::to_string(static_cast<int>(backend)));
    auto run_dev = em::MakeBlockDevice(opts, true);
    opts.path += ".seq";
    auto seq_dev = em::MakeBlockDevice(opts, true);

    constexpr std::uint32_t kCount = 8;
    std::vector<em::word_t> src(kCount * 16);
    for (std::size_t w = 0; w < src.size(); ++w) src[w] = w;
    run_dev->WriteRun(5, kCount, src.data());
    for (std::uint32_t i = 0; i < kCount; ++i) {
      seq_dev->Write(5 + i, src.data() + i * 16);
    }
    std::vector<em::word_t> run_got(src.size()), seq_got(src.size());
    run_dev->ReadRun(5, kCount, run_got.data());
    for (std::uint32_t i = 0; i < kCount; ++i) {
      seq_dev->Read(5 + i, seq_got.data() + i * 16);
    }

    // The model charges per block transferred, however it is scheduled.
    EXPECT_EQ(run_got, src);
    EXPECT_EQ(seq_got, src);
    EXPECT_EQ(run_dev->reads(), seq_dev->reads());
    EXPECT_EQ(run_dev->writes(), seq_dev->writes());
    EXPECT_EQ(run_dev->NumBlocks(), seq_dev->NumBlocks());
  }
}

// ---------------------------------------------------------------------------
// Buffer-pool batching

TEST(BufferPoolBatchTest, PrefetchedBlocksAreByteIdenticalToColdPins) {
  TempDir dir("prefetch");
  for (em::Backend backend : FileBackends()) {
    em::EmOptions opts{.block_words = 8, .pool_frames = 8};
    opts.backend = backend;
    opts.path = dir.File("pf-" + std::to_string(static_cast<int>(backend)));
    auto dev = em::MakeBlockDevice(opts, true);
    std::vector<em::word_t> buf(8);
    for (em::BlockId id = 0; id < 6; ++id) {
      for (std::uint32_t w = 0; w < 8; ++w) buf[w] = id * 1000 + w;
      dev->Write(id, buf.data());
    }

    // Cold pins on one pool; prefetch-then-pin on a second.
    em::BufferPool cold(dev.get(), 8), warm(dev.get(), 8);
    std::vector<em::BlockId> ids{0, 1, 2, 3, 4, 5};
    warm.Prefetch(ids);
    EXPECT_EQ(warm.stats().prefetched, 6u);
    EXPECT_EQ(warm.stats().pool_misses, 0u);
    std::uint64_t dev_reads = dev->reads();
    for (em::BlockId id : ids) {
      std::uint32_t cf = cold.Pin(id, em::BufferPool::PinMode::kRead);
      std::uint32_t wf = warm.Pin(id, em::BufferPool::PinMode::kRead);
      EXPECT_EQ(std::vector<em::word_t>(cold.FrameData(cf),
                                        cold.FrameData(cf) + 8),
                std::vector<em::word_t>(warm.FrameData(wf),
                                        warm.FrameData(wf) + 8));
      cold.Unpin(cf, false);
      warm.Unpin(wf, false);
    }
    // The warm pool's pins were all hits: only the cold pool read.
    EXPECT_EQ(dev->reads(), dev_reads + 6);
    EXPECT_EQ(warm.stats().pool_hits, 6u);
  }
}

TEST(BufferPoolBatchTest, PrefetchRespectsPinsAndSkipsWhenFull) {
  em::MemBlockDevice dev(8);
  dev.EnsureCapacity(64);
  em::BufferPool pool(&dev, 4);
  // Pin three of four frames.
  std::uint32_t f0 = pool.Pin(0, em::BufferPool::PinMode::kRead);
  std::uint32_t f1 = pool.Pin(1, em::BufferPool::PinMode::kRead);
  std::uint32_t f2 = pool.Pin(2, em::BufferPool::PinMode::kRead);
  pool.FrameData(f0)[0] = 42;
  // Prefetch far more than fits: it must fill the one free frame, evict
  // nothing pinned, and silently skip the rest.
  std::vector<em::BlockId> many;
  for (em::BlockId id = 10; id < 40; ++id) many.push_back(id);
  pool.Prefetch(many);
  EXPECT_EQ(pool.stats().prefetched, 1u);
  EXPECT_EQ(pool.FrameBlock(f0), 0u);
  EXPECT_EQ(pool.FrameData(f0)[0], 42u);
  // A prefetch that fits no frame at all is a no-op, not an error.
  std::uint32_t f3 = pool.Pin(3, em::BufferPool::PinMode::kRead);
  pool.Prefetch(many);
  EXPECT_EQ(pool.stats().prefetched, 1u);
  for (std::uint32_t f : {f0, f1, f2, f3}) pool.Unpin(f, false);
}

TEST(BufferPoolBatchTest, BatchEvictionWritesBackDirtyVictims) {
  em::MemBlockDevice dev(8);
  dev.EnsureCapacity(64);
  em::BufferPool pool(&dev, 4);
  // Dirty all four frames.
  for (em::BlockId id = 0; id < 4; ++id) {
    std::uint32_t f = pool.Pin(id, em::BufferPool::PinMode::kRead);
    pool.FrameData(f)[0] = 7 + id;
    pool.Unpin(f, true);
  }
  // A 4-block Prefetch evicts all four dirty frames and writes them back.
  pool.Prefetch(std::vector<em::BlockId>{10, 11, 12, 13});
  EXPECT_EQ(dev.writes(), 4u);
  EXPECT_EQ(pool.stats().evictions, 4u);
  // The written-back contents are intact.
  for (em::BlockId id = 0; id < 4; ++id) {
    std::uint32_t f = pool.Pin(id, em::BufferPool::PinMode::kRead);
    EXPECT_EQ(pool.FrameData(f)[0], 7 + id);
    pool.Unpin(f, false);
  }
}

// A COW pager redirects a checkpoint-live block's write-back to a fresh
// location. When a Prefetch evicts such a dirty block and the same id list
// then misses on it, the re-read must come from where the write-back just
// put the block, not from its superseded location. Copying (kFile) and
// borrowing (kMmap) pools resolve the location on different paths.
TEST(BufferPoolBatchTest, PrefetchRereadOfEvictedCowBlockSeesNewContents) {
  TempDir dir("cow-reread");
  for (em::Backend backend : FileBackends()) {
    SCOPED_TRACE(backend == em::Backend::kFile ? "kFile" : "kMmap");
    em::Pager pager(em::EmOptions{
        .block_words = 16,
        .pool_frames = 4,
        .backend = backend,
        .path = dir.File("cow-" + std::to_string(static_cast<int>(backend))),
        .cow_epochs = true});
    std::vector<em::BlockId> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(pager.Allocate());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      pager.Create(ids[i]).Set(0, 100 + i);
    }
    std::uint64_t roots[1] = {ids[0]};
    ASSERT_TRUE(pager.Checkpoint(roots).ok());
    pager.DropCache();

    // Dirty the checkpoint-live block x, then touch three others so x is
    // the least recently used frame of the full pool.
    const em::BlockId x = ids[0];
    pager.Fetch(x).Set(0, 999);
    for (int i = 1; i <= 3; ++i) {
      EXPECT_EQ(pager.Fetch(ids[i]).Get(0), 100u + i);
    }

    // ids[4] misses first and evicts x; x then misses in the same call.
    pager.Prefetch(std::vector<em::BlockId>{ids[4], x});
    EXPECT_EQ(pager.Fetch(x).Get(0), 999u);
    EXPECT_EQ(pager.Fetch(ids[4]).Get(0), 104u);
  }
}

// ---------------------------------------------------------------------------
// Mmap device + borrowed pins

TEST(MmapDeviceTest, BorrowedReadsSeeWritesAndCountIos) {
  TempDir dir("mmap-dev");
  em::EmOptions opts{.block_words = 16, .pool_frames = 4};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("dev.blk");
  auto dev = em::MakeBlockDevice(opts, /*truncate_file=*/true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }

  std::vector<em::word_t> buf(16);
  for (std::uint32_t w = 0; w < 16; ++w) buf[w] = 100 + w;
  dev->Write(3, buf.data());

  // A borrow is one logical read and observes the written bytes in place.
  std::uint64_t reads = dev->reads();
  const em::word_t* p = dev->TryBorrowRead(3);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(dev->reads(), reads + 1);
  for (std::uint32_t w = 0; w < 16; ++w) EXPECT_EQ(p[w], 100 + w);

  // The pointer is a live view of the page cache: a later write to the
  // same block shows through it (pwrite and MAP_SHARED are coherent), and
  // it stays valid across device growth (no remap ever happens).
  for (std::uint32_t w = 0; w < 16; ++w) buf[w] = 900 + w;
  dev->Write(3, buf.data());
  dev->EnsureCapacity(4096);
  for (std::uint32_t w = 0; w < 16; ++w) EXPECT_EQ(p[w], 900 + w);
}

TEST(MmapDeviceTest, ReadOnlyDeviceServesExistingFile) {
  TempDir dir("mmap-ro");
  em::EmOptions opts{.block_words = 16, .pool_frames = 4};
  opts.backend = em::Backend::kFile;
  opts.path = dir.File("ro.blk");
  std::vector<em::word_t> buf(16, 7);
  {
    auto writer = em::MakeBlockDevice(opts, true);
    writer->Write(0, buf.data());
    writer->Write(5, buf.data());
    writer->Sync();
  }
  opts.backend = em::Backend::kMmap;
  opts.read_only = true;
  auto ro = em::MakeBlockDevice(opts, /*truncate_file=*/false);
  EXPECT_EQ(ro->NumBlocks(), 6u);
  std::vector<em::word_t> got(16, 0);
  ro->Read(5, got.data());
  EXPECT_EQ(got, buf);
  if (ro->SupportsBorrowedReads()) {
    const em::word_t* p = ro->TryBorrowRead(0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p[0], 7u);
  }
}

TEST(BorrowedPinTest, ReadPinsBorrowAndWritePinsCopyOnWrite) {
  TempDir dir("borrow");
  em::EmOptions opts{.block_words = 8, .pool_frames = 4};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("borrow.blk");
  auto dev = em::MakeBlockDevice(opts, true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }
  std::vector<em::word_t> buf(8);
  for (em::BlockId id = 0; id < 8; ++id) {
    for (std::uint32_t w = 0; w < 8; ++w) buf[w] = id * 10 + w;
    dev->Write(id, buf.data());
  }

  em::BufferPool pool(dev.get(), 4);
  // Read pin: the frame borrows (no copy into the frame buffer), and the
  // read-only view serves the mapping's bytes.
  std::uint32_t f = pool.Pin(2, em::BufferPool::PinMode::kRead);
  EXPECT_TRUE(pool.FrameBorrowed(f));
  EXPECT_EQ(pool.stats().borrows, 1u);
  EXPECT_EQ(pool.ReadData(f)[3], 23u);

  // First mutable access upgrades copy-on-write: borrowed -> owned, bytes
  // preserved, mapping untouched by the mutation until write-back.
  em::word_t* mut = pool.FrameData(f);
  EXPECT_FALSE(pool.FrameBorrowed(f));
  EXPECT_EQ(mut[3], 23u);
  mut[3] = 777;
  pool.Unpin(f, /*dirty=*/true);
  EXPECT_EQ(dev->TryBorrowRead(2)[3], 23u);  // not yet written back
  pool.FlushAll();
  EXPECT_EQ(dev->TryBorrowRead(2)[3], 777u);  // write-back reached the file

  // Re-pinning after the flush borrows again and sees the new bytes.
  std::uint32_t f2 = pool.Pin(2, em::BufferPool::PinMode::kRead);
  EXPECT_EQ(pool.ReadData(f2)[3], 777u);
  pool.Unpin(f2, false);
}

TEST(BorrowedPinTest, EvictionNeverWritesBorrowedFrames) {
  TempDir dir("borrow-evict");
  em::EmOptions opts{.block_words = 8, .pool_frames = 4};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("evict.blk");
  auto dev = em::MakeBlockDevice(opts, true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }
  std::vector<em::word_t> buf(8, 1);
  for (em::BlockId id = 0; id < 16; ++id) dev->Write(id, buf.data());
  const std::uint64_t writes_before = dev->writes();

  em::BufferPool pool(dev.get(), 4);
  // Cycle far more blocks than frames through read pins: every miss
  // borrows, every eviction drops a borrowed frame, and none of it may
  // write a single block.
  for (int round = 0; round < 4; ++round) {
    for (em::BlockId id = 0; id < 16; ++id) {
      std::uint32_t f = pool.Pin(id, em::BufferPool::PinMode::kRead);
      EXPECT_TRUE(pool.FrameBorrowed(f));
      pool.Unpin(f, false);
    }
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_EQ(dev->writes(), writes_before);
  pool.DropAll();
  EXPECT_EQ(dev->writes(), writes_before);
}

TEST(BorrowedPinTest, PrefetchBorrows) {
  TempDir dir("borrow-batch");
  em::EmOptions opts{.block_words = 8, .pool_frames = 8};
  opts.backend = em::Backend::kMmap;
  opts.path = dir.File("batch.blk");
  auto dev = em::MakeBlockDevice(opts, true);
  if (!dev->SupportsBorrowedReads()) {
    GTEST_SKIP() << "kernel refused the mapping";
  }
  std::vector<em::word_t> buf(8);
  for (em::BlockId id = 0; id < 8; ++id) {
    for (std::uint32_t w = 0; w < 8; ++w) buf[w] = id * 10 + w;
    dev->Write(id, buf.data());
  }

  em::BufferPool pool(dev.get(), 8);
  pool.Prefetch(std::vector<em::BlockId>{0, 1, 2});
  EXPECT_EQ(pool.stats().prefetched, 3u);
  EXPECT_EQ(pool.stats().borrows, 3u);

  // Pins of prefetched blocks are hits on the borrowed frames.
  std::uint32_t f = pool.Pin(2, em::BufferPool::PinMode::kRead);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().pool_misses, 0u);
  EXPECT_TRUE(pool.FrameBorrowed(f));
  EXPECT_EQ(pool.ReadData(f)[2], 22u);
  pool.Unpin(f, false);
}

// ---------------------------------------------------------------------------
// Backend parity on the full structure

TEST(BackendParityTest, IdenticalIoCountsAndOracleResults) {
  TempDir dir("parity");
  constexpr std::size_t kN = 4096;
  constexpr int kQueries = 200;
  Rng rng(77);
  auto points = MakePoints(&rng, kN);

  struct RunOut {
    em::IoStats build, query;
    std::vector<std::vector<Point>> results;
  };
  auto run = [&](em::Backend backend, const std::string& path) {
    em::EmOptions opts{.block_words = 64, .pool_frames = 16};
    opts.backend = backend;
    opts.path = path;
    em::Pager pager(opts);
    RunOut out;
    auto built = core::TopkIndex::Build(&pager, points);
    TOKRA_CHECK(built.ok());
    pager.FlushAll();
    out.build = pager.stats();
    Rng qrng(78);
    em::IoStats before = pager.stats();
    for (int i = 0; i < kQueries; ++i) {
      pager.DropCache();  // cold: every touched block is a real transfer
      double a = qrng.UniformDouble(0.0, 1e6);
      double b = qrng.UniformDouble(0.0, 1e6);
      std::uint64_t k = 1 + qrng.Uniform(200);
      auto r = (*built)->TopK(std::min(a, b), std::max(a, b), k);
      TOKRA_CHECK(r.ok());
      out.results.push_back(std::move(*r));
    }
    out.query = pager.stats() - before;
    return out;
  };

  RunOut mem = run(em::Backend::kMem, "");
  RunOut file = run(em::Backend::kFile, dir.File("parity-file.blk"));
  RunOut mmap = run(em::Backend::kMmap, dir.File("parity-mmap.blk"));

  // Logical I/O counts are a property of the access sequence, not the
  // backend or whether reads were copied or borrowed.
  for (const RunOut* other : {&file, &mmap}) {
    EXPECT_EQ(mem.build.reads, other->build.reads);
    EXPECT_EQ(mem.build.writes, other->build.writes);
    EXPECT_EQ(mem.query.reads, other->query.reads);
    EXPECT_EQ(mem.query.writes, other->query.writes);
    EXPECT_EQ(mem.query.pool_hits, other->query.pool_hits);
    EXPECT_EQ(mem.query.pool_misses, other->query.pool_misses);
    EXPECT_EQ(mem.query.prefetched, other->query.prefetched);
    ASSERT_EQ(mem.results.size(), other->results.size());
    for (std::size_t i = 0; i < mem.results.size(); ++i) {
      EXPECT_EQ(mem.results[i], other->results[i]) << "query " << i;
    }
  }

  // And the shared answers are right: check against the oracle.
  Rng qrng(78);
  for (int i = 0; i < kQueries; ++i) {
    double a = qrng.UniformDouble(0.0, 1e6);
    double b = qrng.UniformDouble(0.0, 1e6);
    std::uint64_t k = 1 + qrng.Uniform(200);
    auto expect =
        internal::NaiveTopK(points, std::min(a, b), std::max(a, b), k);
    EXPECT_EQ(mem.results[i], expect) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Parallel checkpoints

engine::EngineOptions BaseEngineOptions(const std::string& dir) {
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.threads = 4;
  opts.em.block_words = 64;
  opts.em.pool_frames = 16;
  opts.storage_dir = dir;
  return opts;
}

// Shard checkpoints run concurrently on the pool; the recovered engine must
// answer exactly like the oracle over the checkpointed point set.
TEST(ParallelCheckpointTest, MatchesOracleAndRecovers) {
  TempDir dir("ckpt-par");
  Rng rng(91);
  auto points = MakePoints(&rng, 2048);
  auto extra = MakePoints(&rng, 256);

  engine::EngineOptions opts = BaseEngineOptions(dir.path());
  auto built = engine::ShardedTopkEngine::Build(points, opts);
  ASSERT_TRUE(built.ok());
  // Mutate after build so the checkpoint has real dirty state to flush.
  std::vector<Point> live;
  for (const Point& p : extra) {
    ASSERT_TRUE((*built)->Insert(p).ok());
    live.push_back(p);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i % 5 == 0) {
      ASSERT_TRUE((*built)->Delete(points[i]).ok());
    } else {
      live.push_back(points[i]);
    }
  }
  ASSERT_TRUE((*built)->Checkpoint().ok());
  built->reset();

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  (*recovered)->CheckInvariants();
  EXPECT_EQ((*recovered)->size(), live.size());
  Rng qrng(92);
  for (int i = 0; i < 100; ++i) {
    double a = qrng.UniformDouble(0.0, 1e6);
    double b = qrng.UniformDouble(0.0, 1e6);
    std::uint64_t k = 1 + qrng.Uniform(64);
    auto got = (*recovered)->TopK(std::min(a, b), std::max(a, b), k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, internal::NaiveTopK(live, std::min(a, b), std::max(a, b),
                                        k))
        << "query " << i;
  }
}

TEST(ParallelCheckpointTest, CleanShardsAreSkippedAndStayRecoverable) {
  TempDir dir("ckpt-clean");
  Rng rng(95);
  auto points = MakePoints(&rng, 2048);
  engine::EngineOptions opts = BaseEngineOptions(dir.path());
  auto built = engine::ShardedTopkEngine::Build(points, opts);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Checkpoint().ok());

  // Nothing changed: a second checkpoint must skip every shard — zero
  // block writes (the files already hold exactly this state).
  em::IoStats before = (*built)->AggregatedIoStats();
  ASSERT_TRUE((*built)->Checkpoint().ok());
  EXPECT_EQ(((*built)->AggregatedIoStats() - before).writes, 0u);

  // Dirty exactly one shard; the next checkpoint writes only that shard
  // (strictly fewer blocks than the full first checkpoint flushed).
  auto one = MakePoints(&rng, 1);
  ASSERT_TRUE((*built)->Insert(one[0]).ok());
  before = (*built)->AggregatedIoStats();
  ASSERT_TRUE((*built)->Checkpoint().ok());
  const std::uint64_t dirty_writes =
      ((*built)->AggregatedIoStats() - before).writes;
  EXPECT_GT(dirty_writes, 0u);

  // Skipped checkpoints must not cost recoverability.
  std::uint64_t final_size = (*built)->size();
  built->reset();
  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->size(), final_size);
  (*recovered)->CheckInvariants();
}

TEST(ParallelCheckpointTest, RepeatedCheckpointsStayRecoverable) {
  TempDir dir("ckpt-repeat");
  Rng rng(93);
  auto points = MakePoints(&rng, 1024);
  engine::EngineOptions opts = BaseEngineOptions(dir.path());
  opts.em.backend = em::Backend::kFile;  // file shards + parallel ckpt
  auto built = engine::ShardedTopkEngine::Build(points, opts);
  ASSERT_TRUE(built.ok());
  auto more = MakePoints(&rng, 512);
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = round * 128; i < (round + 1) * 128; ++i) {
      ASSERT_TRUE((*built)->Insert(more[i]).ok());
    }
    ASSERT_TRUE((*built)->Checkpoint().ok());
  }
  std::uint64_t final_size = (*built)->size();
  built->reset();  // close all shard files before reopening

  auto recovered = engine::ShardedTopkEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->size(), final_size);
  (*recovered)->CheckInvariants();
}

}  // namespace
}  // namespace tokra
