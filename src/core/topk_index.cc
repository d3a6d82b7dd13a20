#include "core/topk_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "util/bits.h"
#include "util/check.h"

namespace tokra::core {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Meta block layout. Words 4-7 persist the full build-time Options so an
// Open()ed index carries the exact configuration it was built with; word 8
// is TopkIndex::kPilotLayoutWord (the superblock floor guarantees
// >= em::kSuperblockHeaderWords = 14 words).
constexpr em::word_t kMetaMagic = 0x544F4B52544F504BULL;  // "TOKRTOPK"
constexpr std::size_t kWMagic = 0;
constexpr std::size_t kWUseLemma4 = 1;
constexpr std::size_t kWPilotMeta = 2;
constexpr std::size_t kWSelectorMeta = 3;
constexpr std::size_t kWSelectorOption = 4;  // configured Options::Selector
constexpr std::size_t kWLemma4Fanout = 5;
constexpr std::size_t kWLemma4L = 6;
constexpr std::size_t kWLemma4LeafCap = 7;

// True iff `vals` holds a repeated value; sorts it.
bool HasDuplicate(std::vector<double>* vals) {
  std::sort(vals->begin(), vals->end());
  return std::adjacent_find(vals->begin(), vals->end()) != vals->end();
}

}  // namespace

bool TopkIndex::AutoUsesLemma4(std::uint64_t n, std::uint32_t block_words) {
  // Section 1.2 regime rule: the ST12 component already achieves
  // logarithmic updates when lg n <= B^(1/6); otherwise (B < lg^6 n) the
  // Lemma 4 structure takes over for the small-k thresholds. The rule has
  // no constant; this implementation's is measured. Lemma 4 needs B >= 64.
  const double b16 = std::pow(static_cast<double>(block_words), 1.0 / 6.0);
  return block_words >= 64 &&
         static_cast<double>(Lg(std::max<std::uint64_t>(n, 2))) >
             kLemma4Crossover * b16;
}

StatusOr<std::unique_ptr<TopkIndex>> TopkIndex::Build(
    em::Pager* pager, std::vector<Point> points, Options options) {
  // Enforce the distinctness assumption up front; an x duplicate is
  // reported ahead of a score duplicate.
  {
    std::vector<double> vals(points.size());
    std::transform(points.begin(), points.end(), vals.begin(),
                   [](const Point& p) { return p.x; });
    if (HasDuplicate(&vals)) {
      return Status::InvalidArgument("duplicate x coordinate");
    }
    std::transform(points.begin(), points.end(), vals.begin(),
                   [](const Point& p) { return p.score; });
    if (HasDuplicate(&vals)) {
      return Status::InvalidArgument("duplicate score");
    }
  }
  auto idx = std::unique_ptr<TopkIndex>(new TopkIndex(pager, options));

  switch (options.selector) {
    case Options::Selector::kSt12:
      idx->use_lemma4_ = false;
      break;
    case Options::Selector::kLemma4:
      idx->use_lemma4_ = true;
      break;
    case Options::Selector::kAuto:
      idx->use_lemma4_ = AutoUsesLemma4(points.size(), pager->B());
      break;
  }

  idx->pilot_ = std::make_unique<pilot::PilotPst>(
      pilot::PilotPst::Build(pager, points));
  if (idx->use_lemma4_) {
    idx->lemma4_ = std::make_unique<lemma4::Lemma4Selector>(
        lemma4::Lemma4Selector::Build(pager, points,
                                      options.lemma4_params));
  } else {
    idx->st12_ = std::make_unique<st12::ShengTaoSelector>(
        st12::ShengTaoSelector::Build(pager, points));
  }
  idx->meta_ = pager->Allocate();
  idx->WriteMeta();
  return idx;
}

void TopkIndex::WriteMeta() {
  em::PageRef mp = pager_->Create(meta_);
  mp.Set(kWMagic, kMetaMagic);
  mp.Set(kWUseLemma4, use_lemma4_ ? 1 : 0);
  mp.Set(kWPilotMeta, pilot_->meta_block());
  mp.Set(kWSelectorMeta,
         use_lemma4_ ? lemma4_->meta_block() : st12_->meta_block());
  mp.Set(kWSelectorOption, static_cast<em::word_t>(options_.selector));
  mp.Set(kWLemma4Fanout, options_.lemma4_params.fanout);
  mp.Set(kWLemma4L, options_.lemma4_params.l);
  mp.Set(kWLemma4LeafCap, options_.lemma4_params.leaf_cap);
  mp.Set(kPilotLayoutWord, kPilotLayoutXOrdered);
}

Status TopkIndex::Checkpoint(std::span<const std::uint64_t> extra_roots) {
  // Component meta-block ids are stable across updates and rebuilds, but
  // rewrite ours anyway: it is one pool write and guards against drift.
  WriteMeta();
  std::vector<std::uint64_t> roots;
  roots.reserve(1 + extra_roots.size());
  roots.push_back(meta_);
  roots.insert(roots.end(), extra_roots.begin(), extra_roots.end());
  return pager_->Checkpoint(roots);
}

StatusOr<std::unique_ptr<TopkIndex>> TopkIndex::Open(em::Pager* pager) {
  if (pager->roots().empty()) {
    return Status::FailedPrecondition("pager has no checkpoint roots");
  }
  em::BlockId meta = pager->roots()[0];
  Options options;
  auto idx = std::unique_ptr<TopkIndex>(new TopkIndex(pager, options));
  idx->meta_ = meta;
  em::BlockId pilot_meta, selector_meta;
  {
    em::PageRef mp = pager->Fetch(meta);
    if (mp.Get(kWMagic) != kMetaMagic) {
      return Status::FailedPrecondition("bad TopkIndex meta block");
    }
    // Scans binary-search every pilot set by x; an unordered set would
    // answer wrongly, so an older file fails here instead.
    if (mp.Get(kPilotLayoutWord) != kPilotLayoutXOrdered) {
      return Status::FailedPrecondition(
          "pilot sets of an older layout: rebuild the index");
    }
    idx->use_lemma4_ = mp.Get(kWUseLemma4) != 0;
    pilot_meta = mp.Get(kWPilotMeta);
    selector_meta = mp.Get(kWSelectorMeta);
    // Restore the full build-time Options, not just the selector decision:
    // a future query-time Options consumer must see the same configuration
    // before and after recovery.
    const em::word_t sel = mp.Get(kWSelectorOption);
    if (sel > static_cast<em::word_t>(Options::Selector::kLemma4)) {
      return Status::FailedPrecondition("bad selector option in meta block");
    }
    idx->options_.selector = static_cast<Options::Selector>(sel);
    idx->options_.lemma4_params.fanout =
        static_cast<std::uint32_t>(mp.Get(kWLemma4Fanout));
    idx->options_.lemma4_params.l =
        static_cast<std::uint32_t>(mp.Get(kWLemma4L));
    idx->options_.lemma4_params.leaf_cap =
        static_cast<std::uint32_t>(mp.Get(kWLemma4LeafCap));
  }
  idx->pilot_ = std::make_unique<pilot::PilotPst>(
      pilot::PilotPst::Open(pager, pilot_meta));
  if (idx->use_lemma4_) {
    idx->lemma4_ = std::make_unique<lemma4::Lemma4Selector>(
        lemma4::Lemma4Selector::Open(pager, selector_meta));
  } else {
    idx->st12_ = std::make_unique<st12::ShengTaoSelector>(
        st12::ShengTaoSelector::Open(pager, selector_meta));
  }
  return idx;
}

std::uint64_t TopkIndex::PilotCutoff() const {
  std::uint64_t n = std::max<std::uint64_t>(pilot_->size(), 2);
  std::uint64_t cutoff =
      static_cast<std::uint64_t>(pager_->B()) * Lg(n);
  if (use_lemma4_) {
    // Lemma 4 supports thresholds only up to its l parameter.
    cutoff = std::min<std::uint64_t>(cutoff, lemma4_->l());
  }
  return cutoff;
}

Status TopkIndex::Insert(const Point& p) {
  TOKRA_RETURN_IF_ERROR(pilot_->Insert(p));
  if (use_lemma4_) return lemma4_->Insert(p);
  return st12_->Insert(p);
}

Status TopkIndex::Delete(const Point& p) {
  TOKRA_RETURN_IF_ERROR(pilot_->Delete(p));
  if (use_lemma4_) return lemma4_->Delete(p);
  return st12_->Delete(p);
}

StatusOr<std::vector<Point>> TopkIndex::TopK(double x1, double x2,
                                             std::uint64_t k,
                                             TopkQueryStats* stats) const {
  if (x1 > x2) return Status::InvalidArgument("x1 > x2");
  if (k == 0) return std::vector<Point>{};

  // Large k: the pilot PST answers directly at O(k/B).
  const std::uint64_t cutoff = PilotCutoff();
  if (k >= cutoff) {
    if (stats != nullptr) stats->path = QueryPath::kPilotDirect;
    return pilot_->TopK(x1, x2, k);
  }
  if (stats != nullptr) {
    stats->path = use_lemma4_ ? QueryPath::kLemma4Threshold
                              : QueryPath::kSt12Threshold;
  }

  // Approximate range k-selection -> threshold -> 3-sided report -> select.
  // [x1, x2] is decomposed once (the selector's O(lg_B n) walk); every
  // attempt below re-selects on the held decomposition. The retry loop
  // covers the case where the approximate threshold under-delivers; each
  // retry doubles the requested rank, capped by the large-k path. Starting
  // the ask below k exploits the selectors' one-sided slack (returned rank
  // >= ask): the loop converges geometrically onto a tight threshold,
  // keeping the reported candidate volume O(k) even when the selector's
  // approximation constant is large. Every ask stays below the cutoff, which
  // is at most Lemma 4's l.
  std::optional<st12::RangeSketches> st12_range;
  std::optional<lemma4::RangeSelection> lemma4_range;
  if (use_lemma4_) {
    lemma4_range.emplace(lemma4_->Decompose(x1, x2));
  } else {
    st12_range.emplace(st12_->Decompose(x1, x2));
  }
  std::uint64_t ask = std::max<std::uint64_t>(1, k / 4);
  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    StatusOr<double> thr = use_lemma4_ ? lemma4_range->Select(ask)
                                       : st12_range->Select(ask);
    double y;
    if (!thr.ok()) {
      if (thr.status().code() == StatusCode::kOutOfRange) {
        // k exceeds the range population: everything in range qualifies.
        y = -kInf;
      } else {
        return thr.status();
      }
    } else {
      y = *thr;
    }
    std::vector<Point> cand;
    TOKRA_RETURN_IF_ERROR(pilot_->Report3Sided(x1, x2, y, &cand));
    if (stats != nullptr) {
      stats->reported_candidates = cand.size();
      stats->threshold_retries = attempt;
    }
    if (cand.size() >= k || y == -kInf) {
      std::size_t take = std::min<std::size_t>(k, cand.size());
      std::nth_element(cand.begin(), cand.begin() + take, cand.end(),
                       ByScoreDesc{});
      cand.resize(take);
      std::sort(cand.begin(), cand.end(), ByScoreDesc{});
      return cand;
    }
    ask *= 2;
    if (ask >= cutoff) {
      if (stats != nullptr) stats->path = QueryPath::kPilotDirect;
      return pilot_->TopK(x1, x2, k);
    }
  }
  return Status::Internal("threshold retries exhausted");
}

void TopkIndex::DestroyAll() {
  pilot_->DestroyAll();
  if (use_lemma4_) {
    lemma4_->DestroyAll();
  } else {
    st12_->DestroyAll();
  }
  if (meta_ != em::kNullBlock) {
    pager_->Free(meta_);
    meta_ = em::kNullBlock;
  }
}

void TopkIndex::CheckInvariants() const {
  pilot_->CheckInvariants();
  if (use_lemma4_) {
    lemma4_->CheckInvariants();
    TOKRA_CHECK_EQ(lemma4_->size(), pilot_->size());
  } else {
    st12_->CheckInvariants();
    TOKRA_CHECK_EQ(st12_->size(), pilot_->size());
  }
}

}  // namespace tokra::core
