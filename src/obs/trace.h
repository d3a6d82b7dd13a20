// Span-based tracing with a fixed lock-free ring of completed spans.
//
// A span is one timed stage (a query, a shard probe, a merge, a checkpoint);
// ScopedSpan measures it RAII-style and deposits a completed record into the
// tracer's ring on destruction. The ring keeps the most recent `capacity`
// spans — recording is an atomic cursor bump plus release stores into the
// claimed slot (a per-slot sequence counter lets readers skip slots being
// rewritten), so the hot path never takes a lock and retention is bounded.
//
// Nesting: each thread tracks its innermost open span; a ScopedSpan opened
// without an explicit parent nests under it. Work handed to another thread
// (the engine's shard fan-out) passes the parent id explicitly.
//
// Export: ExportChromeJson() renders the ring as a chrome://tracing /
// Perfetto-compatible JSON document of complete ("ph":"X") events on the
// shared NowUs() timebase.

#ifndef TOKRA_OBS_TRACE_H_
#define TOKRA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tokra::obs {

class Tracer {
 public:
  /// One completed span. `name` must point at a string literal (or other
  /// storage outliving the tracer): the ring stores the pointer.
  struct Span {
    const char* name = nullptr;
    std::uint64_t id = 0;      ///< unique, never 0
    std::uint64_t parent = 0;  ///< enclosing span id; 0 = root
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    std::uint32_t tid = 0;  ///< ThreadSlot() of the recording thread
  };

  /// `capacity` (rounded up to a power of two) bounds retention: the ring
  /// keeps the most recent spans and overwrites the oldest.
  explicit Tracer(std::size_t capacity = 4096);

  /// Fresh span id (monotonic, never 0).
  std::uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Deposits a completed span (lock-free; overwrites the oldest slot once
  /// the ring is full).
  void Record(const Span& span);

  /// Consistent copies of the ring's completed spans, start-time order.
  /// Slots concurrently being rewritten are skipped.
  std::vector<Span> Snapshot() const;

  /// Spans recorded since construction (includes overwritten ones).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Spans overwritten by ring wraparound.
  std::uint64_t dropped() const {
    const std::uint64_t r = recorded();
    return r > slots_.size() ? r - slots_.size() : 0;
  }
  std::size_t capacity() const { return slots_.size(); }

  /// chrome://tracing JSON: {"traceEvents":[{"ph":"X",...}, ...]}.
  std::string ExportChromeJson() const;

 private:
  // Every field is atomic so concurrent writers/readers stay data-race-free
  // (TSan-clean); `seq` is odd while a writer is mid-store and readers skip
  // or retry, seqlock-style.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::uint64_t> start_us{0};
    std::atomic<std::uint64_t> dur_us{0};
    std::atomic<std::uint32_t> tid{0};
  };

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span: stamps the start on construction, records into the tracer on
/// destruction. Default-constructed (or null-tracer) spans are inert and
/// read no clock. Opening one pushes its id as the thread's current
/// implicit parent; destruction pops it.
class ScopedSpan {
 public:
  ScopedSpan() = default;

  /// Nests under this thread's innermost open span.
  ScopedSpan(Tracer* tracer, const char* name);

  /// Explicit parent — for spans whose logical parent ran on another
  /// thread (shard fan-out tasks under their query's root span).
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept { *this = std::move(other); }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept;

  ~ScopedSpan() { Finish(); }

  /// 0 when inert.
  std::uint64_t id() const { return span_.id; }

 private:
  void Finish();

  Tracer* tracer_ = nullptr;
  Tracer::Span span_;
  std::uint64_t saved_parent_ = 0;  // restored as the thread's current span
};

}  // namespace tokra::obs

#endif  // TOKRA_OBS_TRACE_H_
