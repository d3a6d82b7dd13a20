// Shared helpers for the experiment harnesses (E1..E11).
//
// Every experiment measures *I/Os* (the EM model's cost metric) with cold
// caches and deterministic seeds, and prints a markdown table row-for-row
// reproducing the claims recorded in EXPERIMENTS.md.

#ifndef TOKRA_BENCH_COMMON_H_
#define TOKRA_BENCH_COMMON_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "em/pager.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/point.h"
#include "util/random.h"
#include "util/status.h"

namespace tokra::bench {

/// Aborts on error — experiment harnesses have no recovery story.
inline void Must(const Status& s) { TOKRA_CHECK(s.ok()); }

inline std::vector<Point> RandomPoints(Rng* rng, std::size_t n,
                                       double x_hi = 1e6) {
  auto xs = rng->DistinctDoubles(n, 0.0, x_hi);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

/// Cold-cache I/O cost of one operation.
template <typename Fn>
std::uint64_t ColdIos(em::Pager* pager, Fn&& fn) {
  pager->DropCache();
  em::IoStats before = pager->stats();
  fn();
  return (pager->stats() - before).TotalIos();
}

/// Accumulated I/O cost of a batch (no cache drops inside: amortized view).
template <typename Fn>
std::uint64_t BatchIos(em::Pager* pager, Fn&& fn) {
  em::IoStats before = pager->stats();
  fn();
  return (pager->stats() - before).TotalIos();
}

// --------------------------------------------------------------------------
// Machine-readable mirror of the markdown tables.
//
// Call InitJson("e7_candidates") once at the top of main(); every Header/Row
// after that is also recorded and written to BENCH_<name>.json at exit, so
// the perf trajectory can be tracked across PRs without scraping stdout.

namespace detail {

struct JsonTable {
  std::string title;
  std::vector<std::string> cols;
  std::vector<std::vector<std::string>> rows;
};

struct IoRow {
  std::string phase;
  em::IoStats io;
  // Fence-pruning counters for the phase (zero when it ran unpruned or
  // predates pruning) — see EngineQueryStats.
  std::uint64_t shards_pruned = 0;
  std::uint64_t fence_checks = 0;
  std::uint64_t waves = 0;
  // Pager::Space() snapshot at the end of the phase (all zero when the
  // phase didn't record one): file_blocks is the shipping volume a
  // replication bootstrap of this state would move, and the gap to
  // allocated_blocks the compactable high-water mark.
  em::SpaceStats space;
};

struct JsonState {
  bool enabled = false;
  std::string name;
  std::vector<JsonTable> tables;
  std::vector<IoRow> io_rows;
  // Per-phase latency distributions ("latency_us" table) and per-stage
  // breakdowns ("stage_breakdown_us" table), mirrored from obs histograms.
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> lat_rows;
  std::vector<std::pair<std::pair<std::string, std::string>,
                        obs::HistogramSnapshot>>
      stage_rows;
};

inline JsonState& State() {
  static JsonState s;
  return s;
}

inline std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Emits a cell as a JSON number when it parses fully as a *finite* decimal
/// number, else a string. strtod alone would pass "inf"/"nan"/hex, which are
/// not valid JSON tokens.
inline std::string JsonCell(const std::string& cell) {
  if (!cell.empty() &&
      cell.find_first_not_of("0123456789+-.eE") == std::string::npos) {
    char* end = nullptr;
    double v = std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0' && std::isfinite(v)) return cell;
  }
  std::string out = "\"";
  out += JsonEscape(cell);
  out += '"';
  return out;
}

inline void WriteJson() {
  JsonState& st = State();
  if (!st.enabled) return;
  std::string path = "BENCH_" + st.name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  // The recorded per-phase I/O counters become one more table, so the JSON
  // trajectory tracks block transfers alongside the experiment's own rows.
  std::vector<JsonTable> tables = st.tables;
  if (!st.io_rows.empty()) {
    JsonTable io{"io_stats",
                 {"phase", "reads", "writes", "pool_hits", "pool_misses",
                  "evictions", "prefetched", "borrows", "wal_appends",
                  "fsyncs", "retired_blocks", "total_ios", "shards_pruned",
                  "fence_checks", "waves", "alloc_blocks", "free_blocks",
                  "reserved_blocks", "file_blocks"},
                 {}};
    for (const auto& row : st.io_rows) {
      const em::IoStats& s = row.io;
      io.rows.push_back({row.phase, std::to_string(s.reads),
                         std::to_string(s.writes), std::to_string(s.pool_hits),
                         std::to_string(s.pool_misses),
                         std::to_string(s.evictions),
                         std::to_string(s.prefetched),
                         std::to_string(s.borrows),
                         std::to_string(s.wal_appends),
                         std::to_string(s.fsyncs),
                         std::to_string(s.retired_blocks),
                         std::to_string(s.TotalIos()),
                         std::to_string(row.shards_pruned),
                         std::to_string(row.fence_checks),
                         std::to_string(row.waves),
                         std::to_string(row.space.allocated_blocks),
                         std::to_string(row.space.free_blocks),
                         std::to_string(row.space.reserved_blocks),
                         std::to_string(row.space.file_blocks)});
    }
    tables.push_back(std::move(io));
  }
  // Latency distributions mirrored from obs histograms: exact count/max,
  // log-bucket-interpolated percentiles — the per-PR latency trajectory.
  auto fmt1 = [](double v) {
    char b[32];
    std::snprintf(b, sizeof(b), "%.1f", v);
    return std::string(b);
  };
  auto dist_cells = [&](const obs::HistogramSnapshot& s) {
    return std::vector<std::string>{
        std::to_string(s.count), fmt1(s.Percentile(0.50)),
        fmt1(s.Percentile(0.95)), fmt1(s.Percentile(0.99)),
        std::to_string(s.max)};
  };
  if (!st.lat_rows.empty()) {
    JsonTable lat{"latency_us",
                  {"phase", "count", "p50_us", "p95_us", "p99_us", "max_us"},
                  {}};
    for (const auto& [phase, s] : st.lat_rows) {
      std::vector<std::string> row{phase};
      auto cells = dist_cells(s);
      row.insert(row.end(), cells.begin(), cells.end());
      lat.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(lat));
  }
  if (!st.stage_rows.empty()) {
    JsonTable stg{"stage_breakdown_us",
                  {"phase", "stage", "count", "p50_us", "p95_us", "p99_us",
                   "max_us"},
                  {}};
    for (const auto& [key, s] : st.stage_rows) {
      std::vector<std::string> row{key.first, key.second};
      auto cells = dist_cells(s);
      row.insert(row.end(), cells.begin(), cells.end());
      stg.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(stg));
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"tables\": [",
               JsonEscape(st.name).c_str());
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const JsonTable& tab = tables[t];
    std::fprintf(f, "%s\n    {\n      \"title\": \"%s\",\n      \"columns\": [",
                 t == 0 ? "" : ",", JsonEscape(tab.title).c_str());
    for (std::size_t i = 0; i < tab.cols.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                   JsonEscape(tab.cols[i]).c_str());
    }
    std::fprintf(f, "],\n      \"rows\": [");
    for (std::size_t r = 0; r < tab.rows.size(); ++r) {
      std::fprintf(f, "%s\n        [", r == 0 ? "" : ",");
      for (std::size_t i = 0; i < tab.rows[r].size(); ++i) {
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                     JsonCell(tab.rows[r][i]).c_str());
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "\n      ]\n    }");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace detail

/// Enables the JSON mirror; `name` becomes BENCH_<name>.json (written at
/// process exit, in the working directory).
inline void InitJson(const std::string& name) {
  detail::JsonState& st = detail::State();
  st.enabled = true;
  st.name = name;
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(detail::WriteJson);
  }
}

inline void Header(const std::string& title,
                   const std::vector<std::string>& cols) {
  std::printf("\n### %s\n\n|", title.c_str());
  for (const auto& c : cols) std::printf(" %s |", c.c_str());
  std::printf("\n|");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("---|");
  std::printf("\n");
  detail::JsonState& st = detail::State();
  if (st.enabled) st.tables.push_back({title, cols, {}});
}

inline void Row(const std::vector<std::string>& cells) {
  std::printf("|");
  for (const auto& c : cells) std::printf(" %s |", c.c_str());
  std::printf("\n");
  detail::JsonState& st = detail::State();
  if (st.enabled && !st.tables.empty()) st.tables.back().rows.push_back(cells);
}

/// Records one phase's aggregate I/O counters. Echoed to stdout and written
/// to BENCH_<name>.json as an "io_stats" table, so the perf trajectory
/// tracks block transfers per phase, not just wall time. The trailing
/// arguments are the phase's fence-pruning totals (summed EngineQueryStats);
/// phases that predate pruning or ran with it off just leave them zero.
inline void RecordIoStats(const std::string& phase, const em::IoStats& io,
                          std::uint64_t shards_pruned = 0,
                          std::uint64_t fence_checks = 0,
                          std::uint64_t waves = 0,
                          const em::SpaceStats& space = {}) {
  std::printf("[io] %s: %s total=%llu", phase.c_str(),
              io.ToString().c_str(),  // now covers every counter
              static_cast<unsigned long long>(io.TotalIos()));
  if (shards_pruned != 0 || fence_checks != 0 || waves != 0) {
    std::printf(" pruned=%llu fence_checks=%llu waves=%llu",
                static_cast<unsigned long long>(shards_pruned),
                static_cast<unsigned long long>(fence_checks),
                static_cast<unsigned long long>(waves));
  }
  if (space.file_blocks != 0) {
    std::printf(" alloc_blocks=%llu file_blocks=%llu",
                static_cast<unsigned long long>(space.allocated_blocks),
                static_cast<unsigned long long>(space.file_blocks));
  }
  std::printf("\n");
  detail::JsonState& st = detail::State();
  if (st.enabled) {
    st.io_rows.push_back(
        {phase, io, shards_pruned, fence_checks, waves, space});
  }
}

/// Records one phase's latency distribution. Echoed to stdout and written to
/// BENCH_<name>.json as a "latency_us" table: exact count/max, p50/p95/p99
/// from the histogram's log buckets — tail latency per PR, not just means.
inline void RecordLatency(const std::string& phase,
                          const obs::HistogramSnapshot& s) {
  std::printf(
      "[lat] %s: count=%llu p50=%lluus p95=%lluus p99=%lluus max=%lluus\n",
      phase.c_str(), static_cast<unsigned long long>(s.count),
      static_cast<unsigned long long>(s.Percentile(0.50)),
      static_cast<unsigned long long>(s.Percentile(0.95)),
      static_cast<unsigned long long>(s.Percentile(0.99)),
      static_cast<unsigned long long>(s.max));
  detail::JsonState& st = detail::State();
  if (st.enabled) st.lat_rows.emplace_back(phase, s);
}

/// Records a phase's per-stage latency breakdown (one histogram snapshot per
/// pipeline stage) into the "stage_breakdown_us" table — where inside the
/// query pipeline the time went.
inline void RecordStages(
    const std::string& phase,
    const std::vector<std::pair<std::string, obs::HistogramSnapshot>>&
        stages) {
  for (const auto& [stage, s] : stages) {
    std::printf(
        "[stage] %s/%s: count=%llu p50=%lluus p95=%lluus p99=%lluus "
        "max=%lluus\n",
        phase.c_str(), stage.c_str(), static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.Percentile(0.50)),
        static_cast<unsigned long long>(s.Percentile(0.95)),
        static_cast<unsigned long long>(s.Percentile(0.99)),
        static_cast<unsigned long long>(s.max));
    detail::JsonState& st = detail::State();
    if (st.enabled) st.stage_rows.emplace_back(std::make_pair(phase, stage), s);
  }
}

/// Wall-clock microseconds of fn() — for experiments comparing real
/// backends, where time is a metric alongside the model's I/O count.
template <typename Fn>
double WallMicros(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

inline std::string D(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}
inline std::string U(std::uint64_t v) { return std::to_string(v); }

}  // namespace tokra::bench

#endif  // TOKRA_BENCH_COMMON_H_
