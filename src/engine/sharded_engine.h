// ShardedTopkEngine: a concurrent, range-partitioned service layer over
// independent TopkIndex shards.
//
// The key space is split into S contiguous ranges; each shard owns one range
// as a private TopkIndex on a private em::Pager (buffer pools never contend).
// Updates route to the owning shard under that shard's mutex; TopK fans out
// to the overlapping shards on a fixed thread pool and merges the per-shard
// lists with a k-bounded tournament heap (engine/merge.h, built on
// select/heap_view.h).
//
// Guarantees preserved from the paper: each shard holds n_i points of its
// subrange with the per-index bounds intact — O(n_i/B) space, O(lg_B n_i)
// amortized updates, O(lg n_i + k/B) query I/Os — so a query touching q
// shards costs O(sum_i lg n_i + k/B) I/Os spread across q independent
// devices, and the merge adds O(k + q) free CPU work (see DESIGN.md).
//
// Concurrency model:
//   * topology_mu_ (shared/unique): shard count and boundaries. All
//     operations take it shared; Rebalance takes it unique.
//   * one mutex per shard: serializes that shard's index and pager, and —
//     because x determines its shard — totally orders all operations on any
//     given x, so registry reservations are never observable half-applied.
//   * registry_mu_: the exact-membership registry (x -> score), which gives
//     the service layer safe duplicate/missing rejection that the raw
//     TopkIndex (per the paper's distinctness assumption) does not check.
// Lock order: topology -> shard -> registry; no path takes two shard
// mutexes, so the engine is deadlock-free. An MVCC publish also takes each
// read handle's mutex under the shard mutex; a probe holds one handle
// mutex and releases it before it would ever take the shard mutex.

#ifndef TOKRA_ENGINE_SHARDED_ENGINE_H_
#define TOKRA_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/topk_index.h"
#include "em/io_stats.h"
#include "em/pager.h"
#include "em/wal.h"
#include "engine/options.h"
#include "engine/request.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "sketch/shard_fence.h"
#include "util/point.h"
#include "util/status.h"

namespace tokra::engine {

/// One update inside a shard's logical WAL record.
struct WalOp {
  bool insert = true;  ///< false: delete
  Point p;
};

/// Serializes a group of accepted updates as ONE logical WAL record payload
/// — the engine's redo format and its replication wire format: a follower
/// reads a shard's log tail (em::WalReader), decodes each record with
/// DecodeWalOps, and applies the ops onto its snapshot copy.
std::vector<em::word_t> EncodeWalOps(std::span<const WalOp> ops);
StatusOr<std::vector<WalOp>> DecodeWalOps(std::span<const em::word_t> payload);

/// What Recover() had to do beyond reopening checkpoints.
struct RecoveryReport {
  std::uint64_t replayed_records = 0;  ///< logical WAL records re-applied
  std::uint64_t replayed_ops = 0;      ///< updates inside those records
  bool rolled_forward_rebalance = false;
};

/// Per-query observability, aggregated across the queried shards.
struct EngineQueryStats {
  std::uint32_t shards_queried = 0;      ///< shards actually probed
  std::uint64_t shard_candidates = 0;    ///< per-shard hits fed to the merge
  std::uint64_t merge_nodes_visited = 0; ///< tournament-heap visits (<= k+q)
  // Fence-guided pruning (DESIGN.md §11): every overlapping shard is either
  // pruned or queried, so shards_queried + shards_pruned is the overlap.
  std::uint32_t shards_pruned = 0;  ///< overlapping shards proven skippable
  std::uint32_t fence_checks = 0;   ///< fence consultations for this query
  std::uint32_t waves = 0;          ///< dispatch waves the fan-out took
  em::IoStats io;                   ///< summed I/O delta of the query
};

/// Cached pointers into the engine's MetricsRegistry — one registry lookup
/// per metric at construction, then every record is a direct histogram/
/// gauge hit. All null when telemetry is disabled, which turns every
/// instrumentation site into a branch on nullptr (DESIGN.md §10 overhead
/// budget). `em` is handed to every shard's pager/pool/WAL via
/// EmOptions::metrics.
struct EngineMetricSet {
  // Query path.
  obs::Histogram* query_latency_us = nullptr;  ///< whole TopK, end to end
  obs::Histogram* stage_fanout_us = nullptr;   ///< dispatch + slowest probe
  obs::Histogram* stage_probe_us = nullptr;    ///< one per shard probe
  obs::Histogram* stage_merge_us = nullptr;    ///< k-bounded tournament merge
  obs::Histogram* stage_reply_us = nullptr;    ///< stats aggregation + return
  // Update / batch path.
  obs::Histogram* update_latency_us = nullptr;  ///< direct Insert/Delete
  obs::Histogram* batch_exec_us = nullptr;      ///< whole ExecuteBatch
  obs::Histogram* admission_wait_us = nullptr;  ///< batcher window wait
  obs::Gauge* queue_depth = nullptr;            ///< batcher pending requests
  // Maintenance.
  obs::Histogram* checkpoint_us = nullptr;  ///< whole engine Checkpoint()
  obs::Histogram* recover_us = nullptr;     ///< whole Recover()
  obs::Histogram* rebalance_us = nullptr;   ///< whole Rebalance()
  // Thread pool.
  obs::Histogram* pool_task_wait_us = nullptr;
  obs::Histogram* pool_task_run_us = nullptr;
  // Fence-guided pruning (DESIGN.md §11).
  obs::Counter* shards_pruned_total = nullptr;
  obs::Counter* fence_checks_total = nullptr;
  obs::Counter* query_waves_total = nullptr;
  // MVCC view publication (DESIGN.md §14.4).
  obs::Histogram* view_publish_us = nullptr;  ///< whole StoreShardView
  obs::Counter* view_advances_total = nullptr;
  obs::Counter* view_full_reloads_total = nullptr;
  // The em layer's sinks (eviction stall, WAL append/fsync, pager
  // checkpoint), pointed into the same registry.
  em::EmMetrics em;
};

/// Monotonic service counters (snapshot).
struct EngineCounters {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t queries = 0;
  std::uint64_t rejected = 0;   ///< duplicate inserts + missing deletes
  std::uint64_t batches = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t shards_pruned = 0;  ///< fence-skipped shard probes (lifetime)
  std::uint64_t fence_checks = 0;   ///< fence consultations (lifetime)
  std::uint64_t query_waves = 0;    ///< dispatch waves across all queries
  std::uint64_t query_shard_locks = 0;  ///< shard-mutex acquisitions on the
                                        ///< query path; stays 0 while every
                                        ///< probe rides a read view —
                                        ///< the lock-free-reads assertion
  std::uint64_t view_advances = 0;  ///< read handles moved to a new epoch
  std::uint64_t view_full_reloads = 0;  ///< of those, advances that dropped
                                        ///< the handle's whole pool (it was
                                        ///< more than one epoch behind)
};

class ShardedTopkEngine {
 public:
  /// Builds the engine over the initial point set (globally distinct x and
  /// scores, as in TopkIndex::Build). Shard boundaries are chosen so the
  /// initial points split evenly.
  static StatusOr<std::unique_ptr<ShardedTopkEngine>> Build(
      std::vector<Point> points, EngineOptions options);

  /// Reopens an engine persisted by Checkpoint(): every shard's pager is
  /// restored from its backing file (options.storage_dir), the shard
  /// boundaries come from the checkpoint roots, and the exact-membership
  /// registry is rebuilt with one O(n_i/B) scan per shard — no index
  /// rebuild. `options` must match the checkpointed topology (same
  /// num_shards, same em geometry).
  ///
  /// Under a WAL durability mode this is full point-in-time recovery: an
  /// interrupted rebalance is reconciled file-by-file (shard and log files
  /// roll forward or back together), each shard's pager undoes torn
  /// inter-checkpoint home writes back to its stamped checkpoint LSN, and
  /// the log tail past that LSN — every acknowledged update batch — is
  /// replayed through the index. A torn log tail (crash mid-append) is
  /// dropped, which is exactly the never-acknowledged suffix.
  static StatusOr<std::unique_ptr<ShardedTopkEngine>> Recover(
      EngineOptions options, RecoveryReport* report = nullptr);

  /// Read-only snapshot serving mode: opens every checkpointed shard file
  /// read-only (backend forced to kMmap unless the caller picked another
  /// file backend) and publishes one read view per shard, exactly like an
  /// MVCC engine's epoch views but never replaced: `threads + 1` read
  /// handles over the shard's device, claimed by a rotating try-lock, so N
  /// readers scale instead of serializing on one shard mutex. On kMmap the
  /// handles borrow straight from one shared mapping, so the OS page cache
  /// is the only real cache. Updates, Checkpoint() and Rebalance() are
  /// refused (kFailedPrecondition) and the files are never written. The
  /// files must stay quiescent while the snapshot is open: the snapshot
  /// never writes, but a concurrent *writer* to the same inodes (a live
  /// engine applying updates or checkpointing in place) would mutate pages
  /// under the snapshot's borrowed pointers mid-query. Serve a checkpointed
  /// directory whose owner is idle or closed, or a copy shipped to a
  /// replica machine. Unlike Recover() it never repairs an interrupted
  /// rebalance (that would write); run Recover() first in that state.
  static StatusOr<std::unique_ptr<ShardedTopkEngine>> OpenSnapshot(
      EngineOptions options);

  /// Whether this engine is a read-only snapshot (OpenSnapshot).
  bool snapshot() const { return snapshot_; }

  /// Persists every shard: flushes dirty blocks and records each shard's
  /// index meta + lower bound + shard count + topology generation in its
  /// pager superblock. Exclusive (waits for in-flight operations);
  /// kFailedPrecondition without a storage_dir or under Durability::kNone.
  /// Recover() restores the last completed checkpoint; it is guaranteed
  /// recoverable after checkpoint-then-exit (clean shutdown) or a crash
  /// during the checkpoint itself.
  ///
  /// Under Durability::kCheckpoint, updates applied between checkpoints
  /// mutate shard blocks in place, so a crash after them can leave shards
  /// unrecoverable to the earlier checkpoint. Under the WAL modes each
  /// shard's checkpoint additionally stamps the LSN it covers into the
  /// shard superblock and truncates the log behind it (steady-state log
  /// size is bounded by one checkpoint interval), and the inter-checkpoint
  /// window is closed entirely. `covered_lsns`, when non-null, receives
  /// each shard's stamped LSN (0 without a log) — the handle a replica
  /// needs to ask for the right log tail.
  Status Checkpoint(std::vector<std::uint64_t>* covered_lsns = nullptr);

  /// Checkpoint + atomic export: runs a full Checkpoint() and then, still
  /// holding the engine exclusively, copies every shard's checkpoint file
  /// into `dest_dir` (created if needed; existing files overwritten). No
  /// update can interleave between the stamp and the copy, so the exported
  /// files are byte-for-byte the state of ONE checkpoint and
  /// `covered_lsns` are exactly the LSNs a replica resumes each shard's
  /// log tail from. The export contains shard files only (no logs): open
  /// it with Recover() under Durability::kCheckpoint or with
  /// OpenSnapshot(). Updates are blocked for the duration of the copy —
  /// the replication primary's bootstrap cost (DESIGN.md §13).
  Status ExportSnapshot(const std::string& dest_dir,
                        std::vector<std::uint64_t>* covered_lsns = nullptr);

  // All public methods below are thread-safe.

  /// Inserts p. kAlreadyExists on duplicate x or score (checked globally).
  Status Insert(const Point& p);

  /// Deletes p. kNotFound unless a point with exactly (p.x, p.score) exists.
  Status Delete(const Point& p);

  /// The k highest-scored points with x in [x1, x2], score-descending —
  /// byte-identical to a single TopkIndex over the union of the shards.
  StatusOr<std::vector<Point>> TopK(double x1, double x2, std::uint64_t k,
                                    EngineQueryStats* stats = nullptr) const;

  /// Executes a batch: updates are grouped by owning shard and applied with
  /// ONE lock acquisition per shard (shard groups run in parallel, each
  /// group in submission order); queries then run concurrently. Within a
  /// batch, every update happens-before every query. Ordering between
  /// different shards' update groups is unspecified — observable only via
  /// same-score conflicts inside one batch. out->at(i) answers batch[i].
  void ExecuteBatch(std::span<const Request> batch,
                    std::vector<Response>* out);

  /// Re-splits the key space so every shard holds ~n/S points. Exclusive:
  /// waits for in-flight operations. On a file-backed engine the new shards
  /// are built and checkpointed in side files and renamed over the live
  /// files only once complete, so the previous checkpoint stays recoverable
  /// throughout and a successful rebalance leaves the post-rebalance state
  /// checkpointed.
  Status Rebalance();

  /// Rebalance hook for skewed insert streams: rebalances iff the largest
  /// shard exceeds rebalance_skew * average and the engine holds at least
  /// rebalance_min_points. Returns whether a rebalance ran.
  bool MaybeRebalance();

  std::uint64_t size() const;
  /// Fixed at Build; reads no mutable state.
  std::uint32_t num_shards() const { return options_.num_shards; }
  std::vector<std::uint64_t> ShardSizes() const;
  /// Lower bound of each shard's key range; element 0 is -infinity.
  std::vector<double> ShardLowerBounds() const;

  /// Sum of all shards' pager counters. Rebalance replaces shard pagers, so
  /// the aggregate restarts from zero after one. A snapshot's read handles
  /// are counted too (they serve every probe). An MVCC engine's are not:
  /// every publication reloads their superblocks, and counting those reads
  /// would charge them to updates, so its aggregate covers the writer's
  /// live pagers only and omits lock-free probe reads.
  em::IoStats AggregatedIoStats() const;
  /// Sum of all shards' Pager::Space() — file_blocks is the volume a full
  /// replication bootstrap ships.
  em::SpaceStats AggregatedSpaceStats() const;
  /// Sum of all shards' blocks in use — the paper's space metric, summed.
  std::uint64_t BlocksInUse() const;
  EngineCounters counters() const;

  /// Validates every shard's index, the shard partition, and the registry.
  /// O(n); exclusive.
  void CheckInvariants() const;

  // ---- Telemetry (null/no-op when options.telemetry.enabled is false) ----

  bool telemetry_enabled() const { return metrics_ != nullptr; }
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  obs::Tracer* tracer() const { return tracer_.get(); }
  obs::SlowQueryLog* slow_query_log() const { return slow_log_.get(); }
  /// The cached metric pointers (all null when disabled) — the batcher and
  /// benches record through these directly.
  const EngineMetricSet& metric_set() const { return mset_; }

  /// Prometheus-style text exposition of every registered metric, with the
  /// service counters and per-shard Space() gauges refreshed first. Empty
  /// when telemetry is disabled.
  std::string DumpMetrics() const;

 private:
  /// One lock-free read handle — a read-only pager over a shared read
  /// view of the shard's device, plus an index opened on that pager. It
  /// belongs to its shard for the shard's whole life: each MVCC publish
  /// advances it in place to the new epoch (DESIGN.md §14.4), so its pool
  /// stays warm. mu serializes queries on this handle and the advance;
  /// rotation finds a free one. `epoch` is the epoch `index` serves; a
  /// null index (reopen failed after an advance) sends probes to the
  /// locked path until the next advance.
  struct ReadHandle {
    std::unique_ptr<em::Pager> pager;
    std::unique_ptr<core::TopkIndex> index;
    std::uint64_t epoch = 0;
    std::mutex mu;
  };
  using ReadHandles = std::vector<std::unique_ptr<ReadHandle>>;

  /// What a reader captures of one shard to route and probe it without the
  /// shard mutex: an MVCC epoch published after a per-shard checkpoint
  /// (DESIGN.md §14), or a snapshot shard's only view (DESIGN.md §8.3). The
  /// handles are the shard's own set, shared with every view; they may
  /// already serve a newer epoch than `pin`, which then keeps that epoch's
  /// blocks too (retirement waits for the oldest pin). A snapshot's pin is
  /// empty: nothing writes its files.
  struct ShardView {
    em::EpochPin pin;
    // Fence snapshot taken at publication: the router prunes with the
    // view's own fence, an upper bound on the image it was published with
    // (the live fence may already reflect post-epoch updates).
    sketch::ShardFence fence;
    std::shared_ptr<const ReadHandles> handles;
    mutable std::atomic<std::uint32_t> next{0};
  };

  struct Shard {
    Shard() = default;  // Recover fills pager/index from the checkpoint
    explicit Shard(const em::EmOptions& em)
        : pager(std::make_unique<em::Pager>(em)) {}
    std::unique_ptr<em::Pager> pager;
    // The threads + 1 read handles every published view shares; null until
    // the first publication. Declared after `pager`, so destroyed before
    // it: the handles alias its device. Written under mu only.
    std::shared_ptr<const ReadHandles> handles;
    std::unique_ptr<core::TopkIndex> index;
    mutable std::mutex mu;
    // Set on every accepted update; cleared by a successful checkpoint of
    // this shard. A clean shard's checkpoint is skipped (its file already
    // holds this exact state).
    std::atomic<bool> dirty{true};
    // Pruning sketch (DESIGN.md §11), in memory only: built by every open
    // path from the shard's points before the shard serves. Its exact count
    // is the shard's size. fence_mu lets the router read bounds without
    // taking the shard mutex (which queries in flight hold for the whole
    // probe); updates touch the fence under BOTH mu and fence_mu, so a
    // router holding only fence_mu still sees a sound fence. fence_mu is a
    // leaf lock: nothing else is acquired while it is held.
    mutable std::mutex fence_mu;
    sketch::ShardFence fence;
    // The currently published view when the engine publishes views (MVCC
    // or snapshot); null before the first publication or when it failed,
    // and queries then fall back to the locked probe. view_mu is held only
    // to copy or replace the pointer, never across a probe. (libstdc++ 12's
    // atomic<shared_ptr> load releases its internal lock with a relaxed
    // store, which leaves the pointer read racing the next store.) `view`
    // is declared LAST so it is destroyed FIRST — its pin unregisters with
    // this shard's pager, which must still be alive.
    mutable std::mutex view_mu;
    std::shared_ptr<const ShardView> view;

    /// Points the shard holds: the fence's exact count, read under fence_mu.
    std::uint64_t size() const {
      std::lock_guard<std::mutex> g(fence_mu);
      return fence.count();
    }

    std::shared_ptr<const ShardView> LoadView() const {
      std::lock_guard<std::mutex> g(view_mu);
      return view;
    }
    /// Publishes `v`; the replaced view is released after view_mu drops.
    void StoreView(std::shared_ptr<const ShardView> v) {
      std::lock_guard<std::mutex> g(view_mu);
      view.swap(v);
    }
  };

  explicit ShardedTopkEngine(EngineOptions options);

  /// Creates the registry/tracer/slow-query log, registers every metric,
  /// and wires options_.em.metrics + the pool's sinks. Called from the
  /// constructor only; no-op when telemetry is disabled.
  void InitTelemetry();

  /// Index of the shard owning x. Caller holds topology_mu_.
  std::size_t ShardFor(double x) const;

  /// Validate-against-registry + apply + finalize for one update. Caller
  /// holds topology_mu_ shared and sh.mu (which excludes every other
  /// operation on this point's x). With a WAL, an accepted op is appended
  /// to `group` when non-null (the batch path's group commit — the caller
  /// logs once per shard group) and logged immediately otherwise.
  Status InsertLocked(Shard& sh, const Point& p, std::vector<WalOp>* group);
  Status DeleteLocked(Shard& sh, const Point& p, std::vector<WalOp>* group);

  /// Appends `ops` as one logical record to sh's log and runs the group-
  /// commit barrier. Caller holds sh.mu. No-op when empty or WAL-less.
  /// Non-OK (the log's sticky error) means the record's durability is
  /// unknown: the caller must NOT acknowledge the group — revoke the
  /// applied ops with RollbackShardOps and hand the status back.
  Status LogShardOps(Shard& sh, std::span<const WalOp> ops);

  /// Reverts `ops` (already applied to sh's index, fence, registry, and
  /// counters) in reverse order, returning the live state to exactly the
  /// acknowledged prefix after a failed group commit. Caller holds sh.mu.
  /// If an inverse apply itself fails the shard's home device is poisoned
  /// (the shard leaves service; the on-disk checkpoint + logged prefix
  /// remain the recovery truth).
  void RollbackShardOps(Shard& sh, std::span<const WalOp> ops);

  /// Sticky health gate for accepting updates on sh: the home device's
  /// first error (shard failed outright), else the log's (shard read-only:
  /// reads still serve, but no new update can be made durable). Caller
  /// holds sh.mu.
  Status ShardUpdateStatus(const Shard& sh) const;

  /// Folds one ACCEPTED update into sh's fence. Caller holds sh.mu; takes
  /// sh.fence_mu internally so routers reading bounds under fence_mu alone
  /// always see a sound fence.
  void FenceApply(Shard& sh, bool insert, const Point& p) const;

  /// Non-OK when a WAL mode must stop accepting updates because a failed
  /// rebalance commit left the disk ahead of the in-memory topology (see
  /// storage_failed_): logging against the superseded topology would
  /// poison the roll-forward recovery. Caller holds topology_mu_ (any
  /// mode — storage_failed_ writes hold it exclusively).
  Status RefuseWalAfterStorageFailureLocked() const;

  /// (Re)creates shards and boundaries from `points`. Caller holds
  /// topology_mu_ exclusively (or is Build, pre-publication). When file-
  /// backed shards already exist, the replacements are built into
  /// `<path>.rebuild` side files, checkpointed, and renamed into place only
  /// after every shard succeeded, so the previous checkpoint is never
  /// destroyed by a failed or interrupted rebuild.
  Status BuildShardsLocked(std::vector<Point> points);

  /// Fan-out + merge. Caller holds topology_mu_ shared. `parallel` uses the
  /// pool; batch query tasks pass false (they already run on the pool).
  StatusOr<std::vector<Point>> TopKLocked(double x1, double x2,
                                          std::uint64_t k,
                                          EngineQueryStats* stats,
                                          bool parallel) const;

  Status RebalanceLocked();
  bool SkewedLocked() const;

  /// Checkpoint body. Caller holds topology_mu_ exclusively.
  Status CheckpointLocked(std::vector<std::uint64_t>* covered_lsns);

  /// Checkpoints shard `i` (pager Checkpoint with the engine roots) if
  /// dirty; the single checkpoint implementation shared by
  /// CheckpointLocked and PublishShardLocked. Caller holds sh.mu (or has
  /// exclusive ownership of the shard). `covered_lsn`, when non-null,
  /// receives the stamped WAL LSN (0 without a log).
  Status CheckpointShardLocked(std::size_t i, Shard& sh,
                               std::uint64_t* covered_lsn);

  /// MVCC: checkpoints shard `i` if dirty and publishes a fresh epoch view
  /// through StoreShardView. No-op unless options_.mvcc. Caller holds
  /// sh.mu. Failures leave the previous view in place — readers just keep
  /// serving the older epoch.
  void PublishShardLocked(std::size_t i, Shard& sh);

  /// Builds shard `i`'s view — `pin`, a snapshot of the fence, and the
  /// shard's read handles at pin's epoch — and publishes it with
  /// sh.StoreView. The first call (a snapshot's only one) opens the
  /// threads + 1 handles (ShareReadView -> Pager::OpenOn ->
  /// TopkIndex::Open); each later one advances every handle in place under
  /// its mu (Pager::AdvanceReadView with the writer's published_delta(),
  /// then TopkIndex::Open). Leaves sh.view untouched when the backend
  /// cannot share a read view or a handle fails to open or advance. Caller
  /// holds sh.mu (or owns sh before publication).
  void StoreShardView(std::size_t i, Shard& sh, em::EpochPin pin) const;

  /// sh's pager counters plus, on a snapshot, its read handles'. Takes
  /// sh.mu and each handle's mu in turn.
  em::IoStats ShardIoStats(const Shard& sh) const;

  EngineOptions options_;
  // Telemetry sits directly after options_ so it is destroyed LAST: shard
  // pagers/pools/WALs and the thread pool all hold raw pointers into the
  // registry (via EmOptions::metrics / SetMetrics) and may record during
  // their own destruction.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  EngineMetricSet mset_;

  bool snapshot_ = false;  // read-only serving mode (OpenSnapshot)
  mutable std::shared_mutex topology_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<double> lower_bounds_;  // lower_bounds_[0] == -inf
  // Topology generation, checkpointed as root 3 of every shard. Bumped at
  // the START of every rebuild attempt and handed back only when a clean
  // abort removed every side file, so an on-disk artifact of a failed
  // attempt can never carry the same generation as a later checkpoint;
  // Recover() uses the agreement of live-file generations to distinguish a
  // committed rebalance from an interrupted one.
  std::uint64_t generation_ = 0;
  // Set when a rebalance commit failed partway through its renames: the
  // disk then mixes topology generations and only Recover() (fresh process,
  // roll-forward) can reconcile it, so Checkpoint() and further rebalances
  // refuse instead of acknowledging durability they cannot deliver.
  // Guarded by topology_mu_ (exclusive).
  bool storage_failed_ = false;

  mutable std::mutex registry_mu_;
  std::unordered_map<double, double> by_x_;  // x -> score, exact membership
  std::unordered_set<double> scores_;

  mutable ThreadPool pool_;

  mutable std::atomic<std::uint64_t> n_inserts_{0}, n_deletes_{0},
      n_queries_{0}, n_rejected_{0}, n_batches_{0}, n_rebalances_{0};
  mutable std::atomic<std::uint64_t> n_shards_pruned_{0}, n_fence_checks_{0},
      n_query_waves_{0};
  // Shard-mutex acquisitions by the query path. Engines without views
  // count every probe here; MVCC and snapshot engines count only locked
  // fallbacks, so a test can assert 0 to prove every probe rode a view.
  mutable std::atomic<std::uint64_t> n_query_shard_locks_{0};
  mutable std::atomic<std::uint64_t> n_view_advances_{0},
      n_view_full_reloads_{0};
};

}  // namespace tokra::engine

#endif  // TOKRA_ENGINE_SHARDED_ENGINE_H_
