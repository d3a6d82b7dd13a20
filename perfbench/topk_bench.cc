// Benchmark harness for the top-k service: one closed-loop client drives a
// ShardedTopkEngine (directly or through a RequestBatcher) with a seeded,
// pre-generated op stream, checks a fixed sample of answers against
// internal::NaiveTopK, and prints every metric by name as one JSON line.
//
// A run of one workload, in order:
//   1. Generate the points and a cyclic op stream from --seed (untimed). The
//      stream's updates come in open/close pairs that all close inside the
//      cycle, so the live set after every full cycle equals the initial one
//      and the stream can repeat for as long as the run lasts.
//   2. Set up: Build + first checkpoint + warm-up queries, timed as setup_s
//      (repeated setup_repeats times; the median is reported).
//   3. Count pass: one full cycle, untimed, with per-op I/O deltas. Every
//      count metric comes from this pass, so equal seeds give equal counts.
//   4. Timed phase: the cycle repeats from position 0 until --seconds pass.
//   5. Checks: replay the cycle on an ordered-map mirror, compare every
//      sampled answer, and on the file-backed workloads drop the engine
//      without a checkpoint, Recover() it and compare its fingerprint.
//
// The process and its one engine worker run on one CPU (see PinToOneCpu).
// --trace 0 reports the end-to-end metrics from a run with telemetry off.
// --trace 1 runs a plain leg and a traced leg (telemetry on) of the same
// workload, plus a core leg against a standalone TopkIndex, and reports
// the per-layer metrics. The harness adds no instrumentation to the
// library: it times its own calls and reads what the engine exports.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/topk_index.h"
#include "em/pager.h"
#include "engine/batcher.h"
#include "engine/sharded_engine.h"
#include "internal/naive.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace tokra::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using engine::EngineOptions;
using engine::EngineQueryStats;
using engine::Request;
using engine::RequestBatcher;
using engine::Response;
using engine::ShardedTopkEngine;

constexpr std::uint32_t kBlockWords = 256;
constexpr std::uint32_t kShards = 4;
// Frames per shard pool, as in examples/sharded_service.cpp: far fewer than
// the blocks of every workload's data.
constexpr std::uint32_t kPoolFrames = 32;
// Initial points sit on even keys of a grid with kKeyStride slots per point;
// inserted points take odd keys, so they can never collide with one.
constexpr std::uint64_t kKeyStride = 32;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
// Progress lines on stderr: phase name and seconds since the run began.
void Log(const char* phase) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[%7.2fs] %s\n", Seconds(start, Clock::now()), phase);
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------- workloads --

struct Workload {
  std::string name;
  std::size_t n = 0;               // initial live points
  bool file_backed = false;        // storage_dir + Durability::kWal
  bool mvcc = false;
  std::size_t window = 1;          // >1: RequestBatcher with this window
  double update_share = 0;         // of the op stream, evenly spread
  std::size_t cycle_ops = 0;       // ops per cycle
  std::size_t checkpoint_every = 0;  // Checkpoint() every this many ops
  // The timed phase ends this many ops into a cycle, so the state a
  // recovery must reproduce differs from the initial one and, under
  // periodic checkpoints, the log tail it replays has a fixed length.
  std::size_t stop_offset = 0;
  std::size_t samples = 0;         // sampled answers per cycle
  std::size_t warmup_queries = 0;
  int setup_repeats = 3;           // set-ups per run; setup_s is the median
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> v;
    Workload narrow;
    narrow.name = "narrow_topk";
    narrow.n = 1'000'000;
    narrow.update_share = 0.05;
    narrow.cycle_ops = 20'000;
    narrow.samples = 200;
    narrow.warmup_queries = 2'000;
    v.push_back(narrow);

    Workload wal;
    wal.name = "wal_ingest";
    wal.n = 200'000;
    wal.file_backed = true;
    // As in examples/sharded_service.cpp, the repo's RequestBatcher caller.
    wal.window = 128;
    wal.update_share = 0.8;
    wal.cycle_ops = 8'192;
    // The service never checkpoints on a timer; this interval is the
    // benchmark's own, short enough that a run covers many checkpoints.
    wal.checkpoint_every = 4'096;
    wal.stop_offset = 2'048;
    wal.samples = 200;
    wal.warmup_queries = 1'000;
    wal.setup_repeats = 9;
    v.push_back(wal);

    Workload mvcc;
    mvcc.name = "mvcc_ingest";
    mvcc.n = 200'000;
    mvcc.file_backed = true;
    mvcc.mvcc = true;
    mvcc.update_share = 0.5;
    mvcc.cycle_ops = 2'000;
    mvcc.stop_offset = 501;
    mvcc.samples = 100;
    mvcc.warmup_queries = 1'000;
    mvcc.setup_repeats = 9;
    v.push_back(mvcc);
    return v;
  }();
  return kAll;
}

// ------------------------------------------------------------ generation --

struct Op {
  enum class Kind : std::uint8_t { kQuery, kInsert, kDelete };
  Kind kind = Kind::kQuery;
  Point p;                // kInsert / kDelete
  double x1 = 0, x2 = 0;  // kQuery
  std::uint64_t k = 0;
  bool sampled = false;   // answer checked against the oracle
};

struct Inputs {
  std::vector<Point> points;  // sorted by x
  std::vector<Op> cycle;
  double key_space = 0;
  std::uint64_t fingerprint = 0;  // of everything above
};

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001B3ULL;
}
std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

std::uint64_t HashPoints(const std::vector<Point>& pts) {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ pts.size();
  for (const Point& p : pts) h = Mix(Mix(h, Bits(p.x)), Bits(p.score));
  return h;
}

Inputs Generate(const Workload& w, std::uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + std::hash<std::string>{}(w.name));
  Inputs in;
  const std::size_t n = w.n;
  in.key_space = static_cast<double>(n * kKeyStride);

  std::vector<std::uint64_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  in.points.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        static_cast<double>(i * kKeyStride + 2 * rng.Uniform(kKeyStride / 2));
    in.points[i] = {x, 2.0 * static_cast<double>(perm[i])};  // even scores
  }

  // Narrow queries: 0.2% of the key space, k in [1, 64].
  auto make_query = [&]() {
    Op op;
    const double width = in.key_space * 0.002;
    op.k = 1 + rng.Uniform(64);
    op.x1 = rng.UniformDouble(0, in.key_space - width);
    op.x2 = op.x1 + width;
    return op;
  };

  // Fresh points: odd keys and odd scores, each used at most once per
  // cycle, so no insert can collide with a live or just-deleted point
  // (inside one batch the batcher orders only same-shard updates).
  std::unordered_set<double> used_x, used_score;
  auto fresh_point = [&]() {
    Point p;
    do {
      p.x = static_cast<double>(2 * rng.Uniform(n * kKeyStride / 2) + 1);
    } while (!used_x.insert(p.x).second);
    do {
      p.score = static_cast<double>(2 * rng.Uniform(n) + 1);
    } while (!used_score.insert(p.score).second);
    return p;
  };

  // Op kinds first: updates spread evenly at update_share (0.5 alternates
  // strictly), with an even number of them so every pair closes.
  std::vector<bool> is_update(w.cycle_ops);
  std::size_t updates = 0;
  for (std::size_t i = 0; i < w.cycle_ops; ++i) {
    const double at = static_cast<double>(i) * w.update_share;
    is_update[i] = std::floor(at + w.update_share) > std::floor(at);
    updates += is_update[i];
  }
  if (updates % 2 == 1) {
    for (std::size_t i = w.cycle_ops; i-- > 0;) {
      if (!is_update[i]) {
        is_update[i] = true;
        ++updates;
        break;
      }
    }
  }

  // Open pairs are inserted fresh points (closed by deleting them) or
  // deleted initial points (closed by re-inserting them); opening both
  // kinds equally often keeps n level.
  std::vector<Op> open;
  std::unordered_set<std::size_t> deleted_initial;
  std::size_t remaining = updates;
  for (std::size_t i = 0; i < w.cycle_ops; ++i) {
    if (!is_update[i]) {
      in.cycle.push_back(make_query());
      continue;
    }
    const bool close = open.size() == remaining ||
                       (!open.empty() && rng.Bernoulli(0.5));
    Op op;
    if (close) {
      const std::size_t j = rng.Uniform(open.size());
      op = open[j];
      op.kind = op.kind == Op::Kind::kInsert ? Op::Kind::kDelete
                                             : Op::Kind::kInsert;
      open[j] = open.back();
      open.pop_back();
    } else if (rng.Bernoulli(0.5)) {
      op.kind = Op::Kind::kInsert;
      op.p = fresh_point();
      open.push_back(op);
    } else {
      std::size_t j;
      do {
        j = rng.Uniform(n);
      } while (!deleted_initial.insert(j).second);
      op.kind = Op::Kind::kDelete;
      op.p = in.points[j];
      open.push_back(op);
    }
    in.cycle.push_back(op);
    --remaining;
  }
  TOKRA_CHECK(open.empty());

  // A fixed, evenly spaced sample of the cycle's queries.
  std::vector<std::size_t> queries;
  for (std::size_t i = 0; i < in.cycle.size(); ++i) {
    if (in.cycle[i].kind == Op::Kind::kQuery) queries.push_back(i);
  }
  const std::size_t step = std::max<std::size_t>(1, queries.size() / w.samples);
  for (std::size_t j = 0; j < queries.size(); j += step) {
    in.cycle[queries[j]].sampled = true;
  }

  std::uint64_t h = HashPoints(in.points);
  for (const Op& op : in.cycle) {
    h = Mix(Mix(Mix(h, static_cast<std::uint64_t>(op.kind)), Bits(op.p.x)),
            Mix(Bits(op.x1), Mix(Bits(op.x2), op.k)));
  }
  in.fingerprint = h;
  return in;
}

// Queries whose answers fingerprint a recovered engine.
std::vector<Op> FingerprintQueries(const Inputs& in) {
  std::vector<Op> qs;
  for (int i = 0; i < 64; ++i) {
    Op q;
    q.x1 = in.key_space * i / 64.0;
    q.x2 = q.x1 + in.key_space * 0.003;
    q.k = 32;
    qs.push_back(q);
  }
  Op all;
  all.x1 = 0;
  all.x2 = in.key_space;
  all.k = 256;
  qs.push_back(all);
  return qs;
}

// ---------------------------------------------------------------- oracle --

class Mirror {
 public:
  explicit Mirror(const std::vector<Point>& sorted) {
    for (const Point& p : sorted) live_.emplace_hint(live_.end(), p.x, p.score);
  }
  void Apply(const Op& op) {
    if (op.kind == Op::Kind::kInsert) live_.emplace(op.p.x, op.p.score);
    if (op.kind == Op::Kind::kDelete) live_.erase(op.p.x);
  }
  std::uint64_t Answer(const Op& q) const {
    std::vector<Point> in_range;
    for (auto it = live_.lower_bound(q.x1);
         it != live_.end() && it->first <= q.x2; ++it) {
      in_range.push_back({it->first, it->second});
    }
    return HashPoints(internal::NaiveTopK(in_range, q.x1, q.x2, q.k));
  }
  std::size_t size() const { return live_.size(); }

 private:
  std::map<double, double> live_;
};

// -------------------------------------------------------------- counting --

// Per-op work attributed to queries or to updates (checkpoints included).
struct Counts {
  std::uint64_t queries = 0, updates = 0, results = 0;
  em::IoStats query_io, update_io;
  std::uint64_t shard_candidates = 0, merge_nodes = 0;
  std::uint64_t io_mismatches = 0;  // EngineQueryStats.io vs aggregate delta
};

bool SameIo(const em::IoStats& a, const em::IoStats& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.pool_hits == b.pool_hits && a.pool_misses == b.pool_misses &&
         a.evictions == b.evictions && a.prefetched == b.prefetched &&
         a.borrows == b.borrows && a.wal_appends == b.wal_appends;
}

// Every telemetry histogram the per-layer metrics read.
struct Histos {
  std::vector<std::pair<std::string, obs::Histogram*>> named;
  explicit Histos(const engine::EngineMetricSet& m) {
    named = {{"fanout", m.stage_fanout_us},
             {"probe", m.stage_probe_us},
             {"merge", m.stage_merge_us},
             {"batch_exec", m.batch_exec_us},
             {"admission_wait", m.admission_wait_us},
             {"task_wait", m.pool_task_wait_us},
             {"eviction_stall", m.em.eviction_stall_us},
             {"wal_append", m.em.wal_append_us},
             {"pager_checkpoint", m.em.checkpoint_us}};
  }
  std::map<std::string, obs::HistogramSnapshot> Snap() const {
    std::map<std::string, obs::HistogramSnapshot> s;
    for (const auto& [name, h] : named) {
      if (h != nullptr) s[name] = h->Snapshot();
    }
    return s;
  }
};

using HistSnaps = std::map<std::string, obs::HistogramSnapshot>;

obs::HistogramSnapshot Diff(const HistSnaps& a, const HistSnaps& b,
                            const std::string& name) {
  obs::HistogramSnapshot d;
  auto ia = a.find(name), ib = b.find(name);
  if (ia == a.end() || ib == b.end()) return d;
  d.count = ib->second.count - ia->second.count;
  d.sum = ib->second.sum - ia->second.sum;
  d.max = ib->second.max;
  for (std::uint32_t i = 0; i < obs::kHistogramBuckets; ++i) {
    d.buckets[i] = ib->second.buckets[i] - ia->second.buckets[i];
  }
  return d;
}

std::uint64_t SumGauge(const std::string& dump, const std::string& name) {
  std::uint64_t total = 0;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + "{", 0) == 0) {
      total += std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  return total;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(std::ceil(q * v.size())) - 1);
  std::nth_element(v.begin(), v.begin() + i, v.end());
  return v[i];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One full cycle of the timed phase; the latency vectors' entries up to
// query_end / update_end (exclusive) belong to this or earlier cycles.
struct CycleTime {
  double seconds = 0;
  std::size_t query_end = 0, update_end = 0;
};

// Median over cycles of each cycle's q-quantile latency. `end` names the
// CycleTime field that marks where a cycle's entries in `us` stop. Every
// cycle replays the same ops, so its percentiles move only with
// interference, and the median over cycles discards bursts of it.
double CycleQuantile(const std::vector<double>& us,
                     const std::vector<CycleTime>& cycles,
                     std::size_t CycleTime::*end, double q) {
  std::vector<double> per_cycle;
  std::size_t begin = 0;
  for (const CycleTime& c : cycles) {
    if (c.*end > begin) {
      per_cycle.push_back(Quantile(
          std::vector<double>(us.begin() + begin, us.begin() + c.*end), q));
    }
    begin = c.*end;
  }
  return Median(per_cycle);
}

// ------------------------------------------------------------------- leg --

// One engine lifetime: set-up, count pass, timed phase.
struct LegResult {
  std::vector<double> setup_s;
  double ops_per_s = 0;  // median over the timed phase's cycles
  std::vector<CycleTime> cycles;
  std::vector<double> query_us, update_us;
  Counts counts;
  em::SpaceStats space;
  std::uint64_t live_points = 0;
  std::uint64_t attempted = 0, failed_status = 0;
  // (cycle position, answer hash) of every sampled query executed.
  std::vector<std::pair<std::size_t, std::uint64_t>> answers;
  std::uint64_t end_position = 0;  // cycle position after the timed phase
  // Peak RSS up to the end of the timed phase: the checks after it (the
  // oracle's mirror, a recovery whose shards finish in varying order) would
  // otherwise set a peak that moves from run to run.
  double peak_rss_mb = 0;
  // Telemetry (traced legs only).
  HistSnaps hist_count_start, hist_count_end, hist_timed_start,
      hist_timed_end;
  std::uint64_t epochs_count = 0;
  engine::EngineCounters counters_count;
  RequestBatcher::Stats batcher;
  std::uint64_t query_shard_locks = 0;
};

EngineOptions MakeOptions(const Workload& w, bool traced,
                          const std::string& dir) {
  EngineOptions o;
  o.num_shards = kShards;
  o.threads = 1;  // one worker beside the client, on one CPU (PinToOneCpu)
  o.em.block_words = kBlockWords;
  o.em.pool_frames = kPoolFrames;
  o.telemetry.enabled = traced;
  o.mvcc = w.mvcc;
  if (w.file_backed) {
    // Flush policy: the log rides the OS page cache (no fsync).
    o.storage_dir = dir;
    o.durability = engine::Durability::kWal;
  } else {
    o.durability = engine::Durability::kNone;
  }
  return o;
}

class Leg {
 public:
  Leg(const Workload& w, const Inputs& in, bool traced, std::string dir)
      : w_(w), in_(in), traced_(traced), dir_(std::move(dir)) {}

  EngineOptions Options() const { return MakeOptions(w_, traced_, dir_); }

  // Build + first checkpoint + warm-up, `repeats` times; keeps the last.
  Status Setup(int repeats, LegResult* r) {
    for (int i = 0; i < repeats; ++i) {
      batcher_.reset();
      engine_.reset();
      if (w_.file_backed) {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
      }
      std::vector<Point> pts = in_.points;
      const auto t0 = Clock::now();
      auto e = ShardedTopkEngine::Build(std::move(pts), Options());
      if (!e.ok()) return e.status();
      engine_ = std::move(*e);
      // Under kWal, Build already took the first checkpoint.
      std::size_t warmed = 0;
      for (const Op& op : in_.cycle) {
        if (warmed == w_.warmup_queries) break;
        if (op.kind != Op::Kind::kQuery) continue;
        auto res = engine_->TopK(op.x1, op.x2, op.k);
        if (!res.ok()) return res.status();
        ++warmed;
      }
      r->setup_s.push_back(Seconds(t0, Clock::now()));
    }
    if (w_.window > 1) {
      batcher_ = std::make_unique<RequestBatcher>(engine_.get(), w_.window);
    }
    return Status::Ok();
  }

  // The count pass: one cycle from position 0, with per-op I/O deltas.
  void CountPass(LegResult* r) {
    Histos histos(engine_->metric_set());
    if (traced_) {
      r->hist_count_start = histos.Snap();
      r->epochs_count = SumGauge(engine_->DumpMetrics(),
                                 "tokra_engine_live_epoch");
    }
    const engine::EngineCounters c0 = engine_->counters();
    Counts& c = r->counts;
    for (std::size_t i = 0; i < in_.cycle.size(); i += Step()) {
      const std::size_t end = std::min(in_.cycle.size(), i + Step());
      const em::IoStats before = engine_->AggregatedIoStats();
      if (batcher_) {
        RunWindow(i, end, r, nullptr);
        c.update_io += engine_->AggregatedIoStats() - before;
        for (std::size_t j = i; j < end; ++j) {
          const bool q = in_.cycle[j].kind == Op::Kind::kQuery;
          c.queries += q;
          c.updates += !q;
        }
      } else {
        const Op& op = in_.cycle[i];
        if (op.kind == Op::Kind::kQuery) {
          EngineQueryStats qs;
          const std::size_t got = RunQuery(i, r, nullptr, &qs);
          const em::IoStats delta = engine_->AggregatedIoStats() - before;
          c.queries++;
          c.results += got;
          c.query_io += qs.io;
          c.shard_candidates += qs.shard_candidates;
          c.merge_nodes += qs.merge_nodes_visited;
          // MVCC probes read through view handles whose pagers sit outside
          // the aggregate; everywhere else the two must agree exactly.
          if (!w_.mvcc && !SameIo(delta, qs.io)) c.io_mismatches++;
        } else {
          RunUpdate(op, r, nullptr);
          c.updates++;
          c.update_io += engine_->AggregatedIoStats() - before;
        }
      }
      MaybeCheckpoint(end, r, &c);
    }
    r->counters_count = engine_->counters();
    r->counters_count.queries -= c0.queries;
    r->counters_count.shards_pruned -= c0.shards_pruned;
    r->counters_count.fence_checks -= c0.fence_checks;
    r->counters_count.query_waves -= c0.query_waves;
    r->counters_count.query_shard_locks -= c0.query_shard_locks;
    r->space = engine_->AggregatedSpaceStats();
    r->live_points = engine_->size();
    if (traced_) {
      r->hist_count_end = histos.Snap();
      r->epochs_count = SumGauge(engine_->DumpMetrics(),
                                 "tokra_engine_live_epoch") -
                        r->epochs_count;
    }
  }

  // The timed phase: whole cycles from position 0 until `seconds` pass,
  // then on to stop_offset ops into the next cycle. Throughput and
  // latency are medians over the whole cycles, which all do the same work,
  // so a burst of interference from outside the process moves them less
  // than a mean would.
  void Timed(double seconds, LegResult* r) {
    Histos histos(engine_->metric_set());
    if (traced_) r->hist_timed_start = histos.Snap();
    const std::size_t cycle = in_.cycle.size();
    std::uint64_t t = 0;
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    auto cycle_start = t0;
    bool done = false;
    while (!(done && t % cycle == w_.stop_offset)) {
      const std::size_t pos = t % cycle;
      const std::size_t end = std::min(cycle, pos + Step());
      const std::size_t first_update = r->update_us.size();
      if (batcher_) {
        RunWindow(pos, end, r, r);
      } else if (in_.cycle[pos].kind == Op::Kind::kQuery) {
        EngineQueryStats qs;
        RunQuery(pos, r, r, &qs);
      } else {
        RunUpdate(in_.cycle[pos], r, r);
      }
      t += end - pos;
      // A checkpoint holds up the client like a slow reply: its time is
      // charged to the updates of the window that triggered it.
      const double checkpoint_us = MaybeCheckpoint(end, r, nullptr);
      for (std::size_t i = first_update; i < r->update_us.size(); ++i) {
        r->update_us[i] += checkpoint_us;
      }
      if (t % cycle == 0 && !done) {
        const auto now = Clock::now();
        r->cycles.push_back({Seconds(cycle_start, now), r->query_us.size(),
                             r->update_us.size()});
        cycle_start = now;
        done = now >= deadline;
      }
    }
    std::vector<double> rates;
    for (const CycleTime& c : r->cycles) {
      rates.push_back(static_cast<double>(cycle) / c.seconds);
    }
    std::fprintf(stderr, "  %zu cycles, %.1f..%.1f ops/s\n", rates.size(),
                 *std::min_element(rates.begin(), rates.end()),
                 *std::max_element(rates.begin(), rates.end()));
    r->ops_per_s = Median(rates);
    r->end_position = t % cycle;
    r->peak_rss_mb = PeakRssMb();
    if (traced_) r->hist_timed_end = histos.Snap();
    r->query_shard_locks = engine_->counters().query_shard_locks;
    if (batcher_) r->batcher = batcher_->stats();
  }

  // Drops the engine without a checkpoint, then recovers the directory.
  // Returns the recovery time; *fingerprint gets the recovered answers.
  double DropAndRecover(std::uint64_t* fingerprint, std::uint64_t* size,
                        LegResult* r) {
    batcher_.reset();
    engine_.reset();
    const auto t0 = Clock::now();
    auto e = ShardedTopkEngine::Recover(Options());
    const double s = Seconds(t0, Clock::now());
    r->attempted++;
    if (!e.ok()) {
      std::fprintf(stderr, "recover failed: %s\n",
                   e.status().ToString().c_str());
      r->failed_status++;
      return s;
    }
    engine_ = std::move(*e);
    *fingerprint = Fingerprint(*engine_, r);
    *size = engine_->size();
    return s;
  }

  std::uint64_t Fingerprint(const ShardedTopkEngine& e, LegResult* r) {
    std::uint64_t h = 0;
    for (const Op& q : FingerprintQueries(in_)) {
      auto res = e.TopK(q.x1, q.x2, q.k);
      r->attempted++;
      if (!res.ok()) {
        r->failed_status++;
        continue;
      }
      h = Mix(h, HashPoints(*res));
    }
    return h;
  }

  ShardedTopkEngine& engine() { return *engine_; }

 private:
  std::size_t Step() const { return std::max<std::size_t>(1, w_.window); }

  // Checkpoints when end_pos closes an interval; returns its time in us.
  double MaybeCheckpoint(std::size_t end_pos, LegResult* r, Counts* c) {
    if (w_.checkpoint_every == 0 || end_pos % w_.checkpoint_every != 0) return 0;
    const em::IoStats before = engine_->AggregatedIoStats();
    const auto t0 = Clock::now();
    r->attempted++;
    if (!engine_->Checkpoint().ok()) r->failed_status++;
    const double us = Micros(t0, Clock::now());
    if (c != nullptr) c->update_io += engine_->AggregatedIoStats() - before;
    return us;
  }

  std::size_t RunQuery(std::size_t pos, LegResult* r, LegResult* timing,
                       EngineQueryStats* qs) {
    const Op& op = in_.cycle[pos];
    const auto t0 = Clock::now();
    auto res = engine_->TopK(op.x1, op.x2, op.k, qs);
    const auto t1 = Clock::now();
    r->attempted++;
    if (timing != nullptr) timing->query_us.push_back(Micros(t0, t1));
    if (!res.ok()) {
      r->failed_status++;
      return 0;
    }
    if (op.sampled) r->answers.emplace_back(pos, HashPoints(*res));
    return res->size();
  }

  void RunUpdate(const Op& op, LegResult* r, LegResult* timing) {
    const auto t0 = Clock::now();
    const Status st = op.kind == Op::Kind::kInsert ? engine_->Insert(op.p)
                                                   : engine_->Delete(op.p);
    const auto t1 = Clock::now();
    r->attempted++;
    if (timing != nullptr) timing->update_us.push_back(Micros(t0, t1));
    if (!st.ok()) r->failed_status++;
  }

  // One batcher window: submit every op (the last Submit fills the window
  // and executes the batch inline), then collect the replies.
  void RunWindow(std::size_t begin, std::size_t end, LegResult* r,
                 LegResult* timing) {
    std::vector<std::future<Response>> futures;
    std::vector<Clock::time_point> submitted;
    futures.reserve(end - begin);
    submitted.reserve(end - begin);
    for (std::size_t j = begin; j < end; ++j) {
      const Op& op = in_.cycle[j];
      Request req = op.kind == Op::Kind::kQuery
                        ? Request::MakeTopk(op.x1, op.x2, op.k)
                    : op.kind == Op::Kind::kInsert ? Request::MakeInsert(op.p)
                                                   : Request::MakeDelete(op.p);
      submitted.push_back(Clock::now());
      futures.push_back(batcher_->Submit(req));
    }
    if (batcher_->pending() != 0) batcher_->Flush();  // cycle-end remainder
    for (std::size_t j = begin; j < end; ++j) {
      Response resp = futures[j - begin].get();
      const auto done = Clock::now();
      const Op& op = in_.cycle[j];
      r->attempted++;
      if (timing != nullptr) {
        (op.kind == Op::Kind::kQuery ? timing->query_us : timing->update_us)
            .push_back(Micros(submitted[j - begin], done));
      }
      if (!resp.status.ok()) {
        r->failed_status++;
      } else if (op.sampled) {
        r->answers.emplace_back(j, HashPoints(resp.points));
      }
    }
  }

  const Workload& w_;
  const Inputs& in_;
  const bool traced_;
  const std::string dir_;
  std::unique_ptr<ShardedTopkEngine> engine_;
  std::unique_ptr<RequestBatcher> batcher_;
};

// ----------------------------------------------------------- oracle pass --

struct OracleResult {
  std::uint64_t wrong_answers = 0;
  std::uint64_t recovered_fingerprint = 0;  // expected, at end_position
  std::uint64_t recovered_size = 0;
};

// Replays one cycle on the mirror. Batched queries see every update of
// their window (ExecuteBatch applies a batch's updates before its queries).
OracleResult CheckAnswers(const Workload& w, const Inputs& in,
                          const std::vector<const LegResult*>& legs,
                          std::uint64_t end_position) {
  OracleResult out;
  std::vector<std::uint64_t> expected(in.cycle.size(), 0);
  Mirror mirror(in.points);
  const std::size_t step = std::max<std::size_t>(1, w.window);
  auto fingerprint = [&]() {
    std::uint64_t h = 0;
    for (const Op& q : FingerprintQueries(in)) h = Mix(h, mirror.Answer(q));
    return h;
  };
  for (std::size_t i = 0; i < in.cycle.size(); i += step) {
    if (i == end_position) {
      out.recovered_fingerprint = fingerprint();
      out.recovered_size = mirror.size();
    }
    const std::size_t end = std::min(in.cycle.size(), i + step);
    for (std::size_t j = i; j < end; ++j) mirror.Apply(in.cycle[j]);
    for (std::size_t j = i; j < end; ++j) {
      // Direct ops run one at a time: a query sees only earlier updates,
      // which with step == 1 is exactly the state applied so far.
      if (in.cycle[j].sampled) expected[j] = mirror.Answer(in.cycle[j]);
    }
  }
  for (const LegResult* leg : legs) {
    for (const auto& [pos, h] : leg->answers) {
      if (expected[pos] != h) out.wrong_answers++;
    }
  }
  return out;
}

// -------------------------------------------------------------- core leg --

struct CoreResult {
  double topk_us_p50 = 0, update_us_p50 = 0;
  double threshold_path_share = 0, retries_per_query = 0;
  double candidates_per_result = 0;
  double query_ios_over_bound = 0, update_ios_over_bound = 0;
};

// Replays the cycle's ops that touch shard 0's key range against a
// standalone TopkIndex holding shard 0's points, on a memory pager with
// the workload's block size and pool: the per-shard probe without the
// engine around it. Queries are clipped to the shard's range.
CoreResult CoreLeg(const Inputs& in, double shard_hi, std::uint64_t* failed,
                   std::uint64_t* attempted) {
  std::vector<Point> pts;
  for (const Point& p : in.points) {
    if (p.x < shard_hi) pts.push_back(p);
  }
  em::EmOptions eo;
  eo.block_words = kBlockWords;
  eo.pool_frames = kPoolFrames;
  em::Pager pager(eo);
  auto idx = core::TopkIndex::Build(&pager, pts);
  TOKRA_CHECK(idx.ok());
  core::TopkIndex& index = **idx;

  std::vector<double> q_us, u_us;
  std::uint64_t threshold = 0, retries = 0, candidates = 0, results = 0;
  double q_ios = 0, q_bound = 0, u_ios = 0, u_bound = 0;
  for (const Op& op : in.cycle) {
    const em::IoStats before = pager.stats();
    const double n = static_cast<double>(std::max<std::uint64_t>(2, index.size()));
    if (op.kind == Op::Kind::kQuery) {
      if (op.x1 >= shard_hi) continue;
      core::TopkQueryStats qs;
      const auto t0 = Clock::now();
      auto res = index.TopK(op.x1, std::min(op.x2, shard_hi), op.k, &qs);
      q_us.push_back(Micros(t0, Clock::now()));
      ++*attempted;
      if (!res.ok()) {
        ++*failed;
        continue;
      }
      threshold += qs.path != core::QueryPath::kPilotDirect;
      retries += qs.threshold_retries;
      candidates += qs.reported_candidates;
      results += res->size();
      q_ios += static_cast<double>((pager.stats() - before).TotalIos());
      q_bound += std::log2(n) + static_cast<double>(res->size()) / kBlockWords;
    } else {
      if (op.p.x >= shard_hi) continue;
      const auto t0 = Clock::now();
      const Status st = op.kind == Op::Kind::kInsert ? index.Insert(op.p)
                                                     : index.Delete(op.p);
      u_us.push_back(Micros(t0, Clock::now()));
      ++*attempted;
      if (!st.ok()) ++*failed;
      u_ios += static_cast<double>((pager.stats() - before).TotalIos());
      u_bound += std::log(n) / std::log(static_cast<double>(kBlockWords));
    }
  }
  CoreResult c;
  c.topk_us_p50 = Median(q_us);
  c.update_us_p50 = Median(u_us);
  c.threshold_path_share = Ratio(threshold, q_us.size());
  c.retries_per_query = Ratio(retries, q_us.size());
  c.candidates_per_result = Ratio(candidates, results);
  c.query_ios_over_bound = Ratio(q_ios, q_bound);
  c.update_ios_over_bound = Ratio(u_ios, u_bound);
  return c;
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Confines the process, and so the engine worker it starts later, to one
// CPU. On the shared 4-vCPU machine the bounds were set on, a process that
// kept 3 or 4 vCPUs busy (2 or 3 engine workers beside the client) drew
// about 20% steal time from the host, and its throughput and p99 latencies
// spread by 12-39% between runs; on one CPU they spread by 2-13%. So the
// engine runs with one worker (RunAll runs a call's first task inline on
// the client thread, the worker takes the rest), the two time-slice one
// CPU, and the benchmark measures the work an op costs, not how well the
// engine's threads overlap it.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

struct Args {
  std::string workload, workdir;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "topk_bench: %s\nusage: topk_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--workdir") {
        a.workdir = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || a.seconds <= 0 || a.workdir.empty()) {
    Usage("--seed, --seconds > 0 and --workdir are required");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const Workload* wp = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) wp = &w;
  }
  if (wp == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wp;
  PinToOneCpu();

  Log("generate");
  const Inputs in = Generate(w, args.seed);
  std::fprintf(stderr, "input_fingerprint %016llx\n",
               static_cast<unsigned long long>(in.fingerprint));

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "check failed: %s\n", what);
    correct = false;
  };

  // Runs one leg end to end: set-up, count pass, timed phase, then the
  // workload-specific checks on the same engine.
  struct Done {
    LegResult r;
    double recover_s = 0;
    double shard0_hi = 0;
    std::uint64_t recovered_fingerprint = 0, recovered_size = 0;
  };
  auto run_leg = [&](bool traced, int repeats, const std::string& dir) {
    Done d;
    Leg leg(w, in, traced, dir);
    Log(traced ? "setup (traced)" : "setup");
    const Status st = leg.Setup(repeats, &d.r);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    const std::vector<double> bounds = leg.engine().ShardLowerBounds();
    d.shard0_hi = bounds.size() > 1 ? bounds[1] : in.key_space;
    Log("count pass");
    leg.CountPass(&d.r);
    Log("timed phase");
    leg.Timed(args.seconds, &d.r);
    Log("checks");
    if (w.file_backed) {
      d.recover_s = leg.DropAndRecover(&d.recovered_fingerprint,
                                       &d.recovered_size, &d.r);
    }
    return d;
  };
  // Fails the run unless a leg's traffic kept its invariants.
  auto check_leg = [&](const Done& d, const OracleResult& o) {
    attempted += d.r.attempted;
    failed += d.r.failed_status;
    if (d.r.counts.io_mismatches != 0) {
      fail("EngineQueryStats.io differs from the AggregatedIoStats delta");
    }
    if (w.mvcc && d.r.query_shard_locks != 0) fail("MVCC query took a shard lock");
    if (w.file_backed && (d.recovered_fingerprint != o.recovered_fingerprint ||
                          d.recovered_size != o.recovered_size)) {
      failed++;
      fail("recovered engine differs from the oracle");
    }
  };

  std::vector<Metric> m;
  if (!args.trace) {
    const Done d = run_leg(false, w.setup_repeats, args.workdir + "/plain");
    const OracleResult o = CheckAnswers(w, in, {&d.r}, d.r.end_position);
    check_leg(d, o);
    failed += o.wrong_answers;
    const LegResult& r = d.r;
    m.push_back({"setup_s", "s", Median(r.setup_s)});
    m.push_back({"ops_per_s", "1/s", r.ops_per_s});
    m.push_back({"query_p50_us", "us",
                 CycleQuantile(r.query_us, r.cycles, &CycleTime::query_end, 0.5)});
    m.push_back({"query_p99_us", "us",
                 CycleQuantile(r.query_us, r.cycles, &CycleTime::query_end, 0.99)});
    m.push_back({"update_p50_us", "us",
                 CycleQuantile(r.update_us, r.cycles, &CycleTime::update_end, 0.5)});
    m.push_back({"update_p99_us", "us",
                 CycleQuantile(r.update_us, r.cycles, &CycleTime::update_end, 0.99)});
    m.push_back({"space_amp", "ratio",
                 Ratio(static_cast<double>(r.space.file_blocks) * kBlockWords,
                       2.0 * static_cast<double>(r.live_points))});
    m.push_back({"peak_rss_mb", "MB", r.peak_rss_mb});
  } else {
    const Done plain = run_leg(false, 1, args.workdir + "/plain");
    const Done traced = run_leg(true, 1, args.workdir + "/traced");
    const OracleResult op = CheckAnswers(w, in, {&plain.r}, plain.r.end_position);
    const OracleResult ot = CheckAnswers(w, in, {&traced.r}, traced.r.end_position);
    check_leg(plain, op);
    check_leg(traced, ot);
    failed += op.wrong_answers + ot.wrong_answers;

    const LegResult& r = traced.r;
    const Counts& c = r.counts;
    const double q = static_cast<double>(c.queries);
    const double u = static_cast<double>(c.updates);
    const em::IoStats all = [&] {
      em::IoStats s = c.query_io;
      s += c.update_io;
      return s;
    }();
    const HistSnaps& cs = r.hist_count_start;
    const HistSnaps& ce = r.hist_count_end;
    const HistSnaps& ts = r.hist_timed_start;
    const HistSnaps& te = r.hist_timed_end;
    auto p50 = [&](const char* name) {
      return Diff(ts, te, name).Percentile(0.5);
    };
    const double probes = static_cast<double>(Diff(cs, ce, "probe").count);
    const engine::EngineCounters& k = r.counters_count;
    const CoreResult core =
        CoreLeg(in, traced.shard0_hi, &failed, &attempted);

    m.push_back({"em.device.reads_per_query", "count", Ratio(c.query_io.reads, q)});
    m.push_back({"em.device.ios_per_query", "count", Ratio(c.query_io.TotalIos(), q)});
    m.push_back({"em.device.writes_per_update", "count", Ratio(c.update_io.writes, u)});
    m.push_back({"em.device.ios_per_update", "count", Ratio(c.update_io.TotalIos(), u)});
    m.push_back({"em.device.fsyncs_per_update", "count", Ratio(c.update_io.fsyncs, u)});
    m.push_back({"em.buffer_pool.pins_per_query", "count",
                 Ratio(c.query_io.pool_hits + c.query_io.pool_misses, q)});
    m.push_back({"em.buffer_pool.pins_per_update", "count",
                 Ratio(c.update_io.pool_hits + c.update_io.pool_misses, u)});
    m.push_back({"em.buffer_pool.hit_rate", "ratio",
                 Ratio(all.pool_hits, all.pool_hits + all.pool_misses)});
    m.push_back({"em.buffer_pool.evictions_per_op", "count", Ratio(all.evictions, q + u)});
    m.push_back({"em.buffer_pool.eviction_stall_us_p50", "us", p50("eviction_stall")});
    m.push_back({"em.pager.checkpoints_per_update", "count",
                 Ratio(Diff(cs, ce, "pager_checkpoint").count, u)});
    m.push_back({"em.pager.checkpoint_us_p50", "us", p50("pager_checkpoint")});
    m.push_back({"em.pager.retired_blocks_per_update", "count",
                 Ratio(c.update_io.retired_blocks, u)});
    m.push_back({"em.pager.file_over_allocated", "ratio",
                 Ratio(r.space.file_blocks, r.space.allocated_blocks)});
    m.push_back({"em.wal.appends_per_update", "count", Ratio(c.update_io.wal_appends, u)});
    m.push_back({"em.wal.append_us_p50", "us", p50("wal_append")});
    m.push_back({"core.topk_us_p50", "us", core.topk_us_p50});
    m.push_back({"core.update_us_p50", "us", core.update_us_p50});
    m.push_back({"core.threshold_path_share", "ratio", core.threshold_path_share});
    m.push_back({"core.threshold_retries_per_query", "count", core.retries_per_query});
    m.push_back({"core.candidates_per_result", "ratio", core.candidates_per_result});
    m.push_back({"core.query_ios_over_bound", "ratio", core.query_ios_over_bound});
    m.push_back({"core.update_ios_over_bound", "ratio", core.update_ios_over_bound});
    m.push_back({"sketch.fence.pruned_share", "ratio",
                 Ratio(k.shards_pruned, k.shards_pruned + probes)});
    m.push_back({"sketch.fence.checks_per_query", "count", Ratio(k.fence_checks, k.queries)});
    m.push_back({"engine.fanout.shards_probed_per_query", "count", Ratio(probes, k.queries)});
    m.push_back({"engine.fanout.waves_per_query", "count", Ratio(k.query_waves, k.queries)});
    m.push_back({"engine.merge.candidates_per_result", "ratio",
                 Ratio(c.shard_candidates, c.results)});
    m.push_back({"engine.merge.nodes_per_query", "count", Ratio(c.merge_nodes, q)});
    m.push_back({"engine.stage.fanout_us_p50", "us", p50("fanout")});
    m.push_back({"engine.stage.probe_us_p50", "us", p50("probe")});
    m.push_back({"engine.stage.merge_us_p50", "us", p50("merge")});
    m.push_back({"engine.thread_pool.task_wait_us_p50", "us", p50("task_wait")});
    m.push_back({"engine.batcher.requests_per_batch", "count",
                 Ratio(r.batcher.requests, r.batcher.batches)});
    m.push_back({"engine.batcher.admission_wait_us_p50", "us", p50("admission_wait")});
    m.push_back({"engine.batcher.batch_exec_us_p50", "us", p50("batch_exec")});
    m.push_back({"engine.mvcc.epochs_per_update", "count", Ratio(r.epochs_count, u)});
    m.push_back({"engine.mvcc.query_shard_locks", "count",
                 static_cast<double>(r.query_shard_locks)});
    m.push_back({"engine.recover_s", "s", traced.recover_s});
    m.push_back({"obs.trace_overhead_pct", "%",
                 100.0 * (Ratio(plain.r.ops_per_s, r.ops_per_s) - 1.0)});
  }
  Log("done");
  if (failed != 0) correct = false;
  PrintResult(correct, std::max<std::uint64_t>(attempted, 1), failed, m);
  return 0;
}

}  // namespace
}  // namespace tokra::perfbench

int main(int argc, char** argv) { return tokra::perfbench::Main(argc, argv); }
