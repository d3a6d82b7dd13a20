#include "obs/slow_query_log.h"

namespace tokra::obs {

std::string SlowQueryEntry::ToString() const {
  std::string out = std::string("#") + std::to_string(seq) + " t+" +
                    std::to_string(start_us) + "us total=" +
                    std::to_string(total_us) + "us range=[" +
                    std::to_string(x1) + "," + std::to_string(x2) +
                    "] k=" + std::to_string(k) +
                    " results=" + std::to_string(results);
  if (!stages.empty()) {
    out += "\n  stages:";
    for (const Stage& s : stages) {
      out += " ";
      out += s.name;
      out += "=";
      out += std::to_string(s.us);
      out += "us";
    }
  }
  for (const ShardWork& w : shards) {
    out += "\n  shard " + std::to_string(w.shard) + ": results=" +
           std::to_string(w.part_results) + " " + w.io.ToString();
  }
  return out;
}

void SlowQueryLog::Capture(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> g(mu_);
  entry.seq = ++captured_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[next_] = std::move(entry);
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<SlowQueryEntry> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t SlowQueryLog::captured() const {
  std::lock_guard<std::mutex> g(mu_);
  return captured_;
}

std::string SlowQueryLog::Dump() const {
  const std::vector<SlowQueryEntry> entries = Entries();
  std::string out = "slow queries (threshold " +
                    std::to_string(threshold_us_) + "us, " +
                    std::to_string(entries.size()) + " retained of " +
                    std::to_string(captured()) + " captured):\n";
  for (const SlowQueryEntry& e : entries) {
    out += e.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace tokra::obs
