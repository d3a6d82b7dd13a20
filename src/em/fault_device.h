// Deterministic fault injection for the durability stack.
//
// A FaultInjectingBlockDevice wraps any BlockDevice and delivers one armed
// fault at an exact operation index, chosen by a shared FaultInjector. The
// torture harness (tests/fault_injection_test.cc) first runs a workload
// with an unarmed injector to count every I/O site, then replays it once
// per site with the fault armed at that index — the LevelDB/SQLite
// fault-injection methodology.
//
// The injected-fault model is chosen so that a live process can NEVER be
// driven to an abort by an injection, only to a propagated Status:
//
//  - kReadError / kWriteError perform the real transfer and then latch the
//    sticky device error. Callers are told the contents/durability of a
//    failed op are unspecified and must discard at their next chokepoint;
//    delivering the true bytes underneath keeps structure-internal
//    invariant checks (which cannot return a Status) satisfied while the
//    error propagates out. Physical divergence is exercised separately by
//    the torn-write and bit-flip kinds below, which target the
//    checksum-validated reopen paths.
//  - kTornWrite persists only a prefix of the block (the torn bytes are
//    what a reopened device sees) while the live device keeps serving the
//    intended bytes from a shadow copy, and latches the sticky error. This
//    models a torn sector at power loss: the leg abandons the live engine
//    and must recover through the WAL pre-image / CRC machinery.
//  - kGrowError latches kResourceExhausted (ENOSPC) but lets the physical
//    growth proceed, so the failure is purely logical and loss-free; the
//    RLIMIT_FSIZE test leg covers real refused growth.
//  - kSyncError skips the barrier and latches the sticky error; fsyncgate
//    semantics then come from the sticky state itself — no later Sync()
//    on this device ever acknowledges again.
//  - kBitFlip flips one seeded bit of one read and stays silent (no sticky
//    error): silent corruption that only a validated read path (superblock
//    checksum, WAL CRC) can catch.

#ifndef TOKRA_EM_FAULT_DEVICE_H_
#define TOKRA_EM_FAULT_DEVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "em/block_device.h"

namespace tokra::em {

/// The fault schedule shared by every device of one stack under test (each
/// shard's home device and its WAL device all consult the same injector),
/// so an armed operation index addresses one global sequence of I/O sites
/// across the whole engine. Thread-safe; one armed fault fires exactly
/// once.
class FaultInjector {
 public:
  enum class Kind {
    kReadError,   ///< read delivered, device sticky-fails (EIO)
    kWriteError,  ///< write performed, device sticky-fails (EIO)
    kTornWrite,   ///< prefix of the block persisted, device sticky-fails
    kGrowError,   ///< EnsureCapacity latches kResourceExhausted (ENOSPC)
    kSyncError,   ///< barrier skipped, device sticky-fails (fsyncgate)
    kBitFlip,     ///< one seeded bit of one read flipped, silently
  };
  static constexpr int kNumKinds = 6;

  /// Operation counts per category, across every device sharing this
  /// injector. The discovery pass reads these to learn how many distinct
  /// fault points a workload exposes per schedule.
  struct OpCounts {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t grows = 0;
    std::uint64_t syncs = 0;
  };

  /// Arms `kind` to fire on the `at_op`-th (0-based) operation of its
  /// category counted from now. `seed` picks the torn-prefix length and
  /// the flipped bit. Re-arming replaces any previous plan; each plan
  /// fires at most once.
  void Arm(Kind kind, std::uint64_t at_op, std::uint64_t seed = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    kind_ = kind;
    seed_ = seed | 1;  // never zero
    switch (kind) {
      case Kind::kReadError:
      case Kind::kBitFlip:
        fire_at_ = seen_.reads + at_op;
        break;
      case Kind::kWriteError:
      case Kind::kTornWrite:
        fire_at_ = seen_.writes + at_op;
        break;
      case Kind::kGrowError:
        fire_at_ = seen_.grows + at_op;
        break;
      case Kind::kSyncError:
        fire_at_ = seen_.syncs + at_op;
        break;
    }
  }

  void Disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
  }

  bool armed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return armed_;
  }

  OpCounts ops_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

  std::uint64_t injected_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (std::uint64_t n : injected_) total += n;
    return total;
  }

  std::uint64_t injected(Kind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_[static_cast<int>(kind)];
  }

  std::uint64_t seed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seed_;
  }

  // Hooks the wrapping device calls once per block transfer / grow /
  // barrier. Each returns the fault to deliver on this very operation, or
  // nothing.

  std::optional<Kind> OnRead() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t idx = seen_.reads++;
    return Fire(idx, Kind::kReadError, Kind::kBitFlip);
  }

  std::optional<Kind> OnWrite() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t idx = seen_.writes++;
    return Fire(idx, Kind::kWriteError, Kind::kTornWrite);
  }

  bool OnGrow() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t idx = seen_.grows++;
    return Fire(idx, Kind::kGrowError, Kind::kGrowError).has_value();
  }

  bool OnSync() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t idx = seen_.syncs++;
    return Fire(idx, Kind::kSyncError, Kind::kSyncError).has_value();
  }

 private:
  std::optional<Kind> Fire(std::uint64_t idx, Kind a, Kind b) {
    if (!armed_ || (kind_ != a && kind_ != b) || idx != fire_at_) {
      return std::nullopt;
    }
    armed_ = false;  // one-shot
    ++injected_[static_cast<int>(kind_)];
    return kind_;
  }

  mutable std::mutex mu_;
  bool armed_ = false;
  Kind kind_ = Kind::kReadError;
  std::uint64_t fire_at_ = 0;
  std::uint64_t seed_ = 1;
  OpCounts seen_;
  std::uint64_t injected_[kNumKinds] = {};
};

/// BlockDevice wrapper delivering the injector's armed fault (see the
/// model in the file comment). Set EmOptions::fault to have
/// MakeBlockDevice (and the pager's WAL) install one of these over every
/// device it builds.
class FaultInjectingBlockDevice final : public BlockDevice {
 public:
  FaultInjectingBlockDevice(std::unique_ptr<BlockDevice> inner,
                            FaultInjector* injector)
      : BlockDevice(inner->block_words()),
        inner_(std::move(inner)),
        injector_(injector) {
    TOKRA_CHECK(injector_ != nullptr);
  }

  BlockId NumBlocks() const override { return inner_->NumBlocks(); }
  void EnsureCapacity(BlockId blocks) override;
  void Sync() override;
  void DropOsCache() override { inner_->DropOsCache(); }
  bool SupportsBorrowedReads() const override {
    return inner_->SupportsBorrowedReads();
  }

  /// The wrapper's own sticky error (injected) or, failing that, the
  /// wrapped backend's (real).
  Status io_status() const override {
    Status own = BlockDevice::io_status();
    if (!own.ok()) return own;
    return inner_->io_status();
  }
  std::uint64_t io_errors() const override {
    return BlockDevice::io_errors() + inner_->io_errors();
  }
  std::uint64_t injected_faults() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_;
  }

  BlockDevice* inner() { return inner_.get(); }

 protected:
  void DoRead(BlockId id, word_t* dst) override;
  void DoWrite(BlockId id, const word_t* src) override;
  void DoReadRun(BlockId first, std::uint32_t count, word_t* dst) override;
  void DoWriteRun(BlockId first, std::uint32_t count,
                  const word_t* src) override;
  const word_t* DoBorrowRead(BlockId id) override;

 private:
  std::size_t BlockBytes() const {
    return std::size_t{block_words()} * sizeof(word_t);
  }
  /// Serves `id` from the shadow copy when it holds the block's true
  /// bytes (after a torn write), else from the backend.
  void ReadThrough(BlockId id, word_t* dst);
  void WriteThrough(BlockId id, const word_t* src);
  /// Mirrors the backend's real-barrier count into this wrapper's syncs()
  /// (callers only see the wrapper).
  void CountSyncIfInnerAdvanced();

  std::unique_ptr<BlockDevice> inner_;
  FaultInjector* injector_;

  mutable std::mutex mu_;
  std::uint64_t injected_ = 0;
  std::uint64_t mirrored_syncs_ = 0;
  // After a torn write, the live process keeps reading the block's
  // intended bytes from here while the backend holds the torn prefix: an
  // injection must surface as a Status, never as a structure walking
  // garbage into an invariant CHECK. A reopened device sees the torn
  // bytes.
  BlockId shadow_id_ = kNullBlock;
  std::vector<word_t> shadow_;
};

}  // namespace tokra::em

#endif  // TOKRA_EM_FAULT_DEVICE_H_
