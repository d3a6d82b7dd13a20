// I/O accounting: the cost metric of the EM model.

#ifndef TOKRA_EM_IO_STATS_H_
#define TOKRA_EM_IO_STATS_H_

#include <cstdint>
#include <string>

namespace tokra::em {

/// Counters of simulated block transfers and cache behaviour.
///
/// `reads` and `writes` are the model's cost: each is one block transferred
/// between the (simulated) disk and memory. Pool hits are free, exactly as
/// CPU work is free in the model.
struct IoStats {
  std::uint64_t reads = 0;        ///< blocks read from the device
  std::uint64_t writes = 0;       ///< blocks written to the device
  std::uint64_t pool_hits = 0;    ///< pins served from the buffer pool
  std::uint64_t pool_misses = 0;  ///< pins requiring a device read
  std::uint64_t evictions = 0;    ///< frames evicted (clean or dirty)
  std::uint64_t prefetched = 0;   ///< blocks loaded by Prefetch
  std::uint64_t borrows = 0;      ///< zero-copy reads served as borrowed
                                  ///< pointers into the device mapping (each
                                  ///< also counted in `reads`: the logical
                                  ///< cost is backend-independent)
  std::uint64_t wal_appends = 0;  ///< records appended to the write-ahead
                                  ///< log (one per group-committed update
                                  ///< batch or pre-image frame)
  std::uint64_t fsyncs = 0;       ///< real durability barriers issued (home
                                  ///< device fsyncs + WAL fsyncs); page-cache
                                  ///< no-op Syncs are not counted
  std::uint64_t io_errors = 0;    ///< device-level I/O failures recorded
                                  ///< (home + WAL devices); a sticky-failed
                                  ///< device keeps counting every refused op
  std::uint64_t injected_faults = 0;  ///< faults delivered by a
                                      ///< FaultInjectingBlockDevice wrapper
                                      ///< (0 outside fault-injection tests)
  std::uint64_t retired_blocks = 0;   ///< COW-superseded blocks returned to
                                      ///< the free list after their last
                                      ///< pinned epoch drained (0 outside
                                      ///< cow_epochs mode)

  /// Total block transfers — the paper's cost metric. WAL traffic lives on
  /// its own log device and is reported separately (`wal_appends`).
  std::uint64_t TotalIos() const { return reads + writes; }

  IoStats& operator+=(const IoStats& rhs) {
    reads += rhs.reads;
    writes += rhs.writes;
    pool_hits += rhs.pool_hits;
    pool_misses += rhs.pool_misses;
    evictions += rhs.evictions;
    prefetched += rhs.prefetched;
    borrows += rhs.borrows;
    wal_appends += rhs.wal_appends;
    fsyncs += rhs.fsyncs;
    io_errors += rhs.io_errors;
    injected_faults += rhs.injected_faults;
    retired_blocks += rhs.retired_blocks;
    return *this;
  }

  IoStats operator-(const IoStats& rhs) const {
    IoStats d;
    d.reads = reads - rhs.reads;
    d.writes = writes - rhs.writes;
    d.pool_hits = pool_hits - rhs.pool_hits;
    d.pool_misses = pool_misses - rhs.pool_misses;
    d.evictions = evictions - rhs.evictions;
    d.prefetched = prefetched - rhs.prefetched;
    d.borrows = borrows - rhs.borrows;
    d.wal_appends = wal_appends - rhs.wal_appends;
    d.fsyncs = fsyncs - rhs.fsyncs;
    d.io_errors = io_errors - rhs.io_errors;
    d.injected_faults = injected_faults - rhs.injected_faults;
    d.retired_blocks = retired_blocks - rhs.retired_blocks;
    return d;
  }

  std::string ToString() const {
    return "reads=" + std::to_string(reads) + " writes=" +
           std::to_string(writes) + " hits=" + std::to_string(pool_hits) +
           " misses=" + std::to_string(pool_misses) +
           " evictions=" + std::to_string(evictions) +
           " prefetched=" + std::to_string(prefetched) +
           " borrows=" + std::to_string(borrows) +
           " wal_appends=" + std::to_string(wal_appends) +
           " fsyncs=" + std::to_string(fsyncs) +
           " io_errors=" + std::to_string(io_errors) +
           " injected_faults=" + std::to_string(injected_faults) +
           " retired_blocks=" + std::to_string(retired_blocks);
  }
};

}  // namespace tokra::em

#endif  // TOKRA_EM_IO_STATS_H_
