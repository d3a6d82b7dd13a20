#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace tokra::obs {

namespace {

/// Innermost open span id of the calling thread (implicit parent).
thread_local std::uint64_t tls_current_span = 0;

}  // namespace

Tracer::Tracer(std::size_t capacity) {
  if (capacity < 2) capacity = 2;
  slots_ = std::vector<Slot>(std::bit_ceil(capacity));
  mask_ = slots_.size() - 1;
}

void Tracer::Record(const Span& span) {
  const std::uint64_t pos = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[pos & mask_];
  // Seqlock write: odd seq marks the slot mid-rewrite; readers seeing odd
  // (or a seq that changed across their copy) discard it. Each payload
  // store is a release, so a reader whose acquire load sees a new payload
  // byte also sees the odd seq stored before it; releasing only the seq
  // stores would not order the payload stores after the odd seq.
  const std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_release);
  s.name.store(span.name, std::memory_order_release);
  s.id.store(span.id, std::memory_order_release);
  s.parent.store(span.parent, std::memory_order_release);
  s.start_us.store(span.start_us, std::memory_order_release);
  s.dur_us.store(span.dur_us, std::memory_order_release);
  s.tid.store(span.tid, std::memory_order_release);
  s.seq.store(seq + 2, std::memory_order_release);
}

std::vector<Tracer::Span> Tracer::Snapshot() const {
  std::vector<Span> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    const std::uint64_t seq0 = s.seq.load(std::memory_order_acquire);
    if (seq0 == 0 || (seq0 & 1) != 0) continue;  // empty or mid-rewrite
    Span span;
    // Acquire loads: any payload byte from a later write carries that
    // write's odd seq with it, so the re-check below sees seq0 change.
    span.name = s.name.load(std::memory_order_acquire);
    span.id = s.id.load(std::memory_order_acquire);
    span.parent = s.parent.load(std::memory_order_acquire);
    span.start_us = s.start_us.load(std::memory_order_acquire);
    span.dur_us = s.dur_us.load(std::memory_order_acquire);
    span.tid = s.tid.load(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq0) continue;  // torn
    if (span.name == nullptr || span.id == 0) continue;
    out.push_back(span);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.id < b.id;
  });
  return out;
}

std::string Tracer::ExportChromeJson() const {
  const std::vector<Span> spans = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
                  "\"dur\":%llu,\"pid\":0,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  first ? "" : ",", s.name != nullptr ? s.name : "?",
                  static_cast<unsigned long long>(s.start_us),
                  static_cast<unsigned long long>(s.dur_us), s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : ScopedSpan(tracer, name, tls_current_span) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.start_us = NowUs();
  span_.tid = ThreadSlot();
  saved_parent_ = tls_current_span;
  tls_current_span = span_.id;
}

ScopedSpan& ScopedSpan::operator=(ScopedSpan&& other) noexcept {
  if (this != &other) {
    Finish();
    tracer_ = other.tracer_;
    span_ = other.span_;
    saved_parent_ = other.saved_parent_;
    other.tracer_ = nullptr;  // disarm the source
  }
  return *this;
}

void ScopedSpan::Finish() {
  if (tracer_ == nullptr) return;
  span_.dur_us = NowUs() - span_.start_us;
  // Pop this span off the thread's implicit-parent chain. Cross-thread
  // moves would corrupt the chain, so only pop when it is still ours.
  if (tls_current_span == span_.id) tls_current_span = saved_parent_;
  tracer_->Record(span_);
  tracer_ = nullptr;
}

}  // namespace tokra::obs
