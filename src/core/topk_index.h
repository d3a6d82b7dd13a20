// The Theorem 1 structure: dynamic top-k range reporting in external memory.
//
//   space O(n/B); query O(lg n + k/B) I/Os; updates O(lg_B n) amortized.
//
// (The paper claims query O(lg_B n + k/B); our reduction reuses the Lemma 1
// structure for 3-sided reporting instead of a bootstrapped ASV tree, which
// costs O(lg n + k/B) — identical k/B term, base-2 instead of base-B
// logarithm in the additive term. The *update* bound, the paper's headline
// improvement over [14], is reproduced exactly. See DESIGN.md.)
//
// Composition per Section 1.2:
//   * k >= B lg n            -> the Lemma 1 pilot PST answers directly
//                               (its O(lg n + k/B) = O(k/B) here);
//   * k <  B lg n, lg n <= B^(1/6) -> ST12 selector provides a k-threshold
//                               (its update cost is O(lg_B n) in this regime);
//   * k <  B lg n, B < lg^6 n -> the Lemma 4 structure provides the
//                               threshold (k < B lg n < lg^7 n = polylg n);
//   kAuto draws the line between the two at lg n = c B^(1/6), with a
//   measured constant c (AutoUsesLemma4);
//   then 3-sided reporting above the threshold + an O(k'/B) selection.
//
// TopkIndex maintains all components under one update path and exposes the
// dispatch for experiment E9. A threshold query decomposes [x1, x2] once with
// its selector; a retry loop then doubles the threshold rank if the
// approximate selection under-delivers (robustness net for the documented
// constant-factor relaxations), re-selecting on the held decomposition
// rather than walking the selector again.

#ifndef TOKRA_CORE_TOPK_INDEX_H_
#define TOKRA_CORE_TOPK_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "em/pager.h"
#include "lemma4/structure.h"
#include "pilot/pilot_pst.h"
#include "st12/selector.h"
#include "util/point.h"
#include "util/status.h"

namespace tokra::core {

/// Which component answered a query (experiment E9).
enum class QueryPath {
  kPilotDirect,     ///< k >= B lg n: Lemma 1 structure alone
  kSt12Threshold,   ///< threshold from the ST12 selector
  kLemma4Threshold  ///< threshold from the Lemma 4 structure
};

struct TopkQueryStats {
  QueryPath path = QueryPath::kPilotDirect;
  std::uint32_t threshold_retries = 0;
  std::uint64_t reported_candidates = 0;
};

class TopkIndex {
 public:
  struct Options {
    /// Force a selector for benches; kAuto applies the Section 1.2 rule
    /// with its measured constant (AutoUsesLemma4).
    enum class Selector { kAuto, kSt12, kLemma4 } selector = Selector::kAuto;
    /// Parameters forwarded to the Lemma 4 structure (0 = derive).
    lemma4::Lemma4Selector::Params lemma4_params;
  };

  /// Builds the index over the initial point set (distinct x, distinct
  /// scores — the paper's standard assumption, enforced here).
  static StatusOr<std::unique_ptr<TopkIndex>> Build(
      em::Pager* pager, std::vector<Point> points, Options options);
  static StatusOr<std::unique_ptr<TopkIndex>> Build(
      em::Pager* pager, std::vector<Point> points) {
    return Build(pager, std::move(points), Options());
  }

  /// The constant c of the kAuto rule below, measured by E2's warm-pool
  /// leg (DESIGN.md §3): under a warm pool Lemma 4's updates cost fewer
  /// I/Os than ST12's only once lg n exceeds about c * B^(1/6).
  static constexpr double kLemma4Crossover = 9.0;

  /// kAuto's choice for an index built over n points with B-word blocks:
  /// the Section 1.2 rule with a measured constant, Lemma 4 exactly when
  /// lg n > kLemma4Crossover * B^(1/6) and B >= 64 (Lemma 4's minimum
  /// block), ST12 otherwise.
  static bool AutoUsesLemma4(std::uint64_t n, std::uint32_t block_words);

  /// The meta-block word naming the pilot sets' on-disk layout, and the
  /// value Build writes there: every set stored in increasing x. A file
  /// without it (value 0, unordered sets) is not migrated.
  static constexpr std::size_t kPilotLayoutWord = 8;
  static constexpr std::uint64_t kPilotLayoutXOrdered = 1;

  /// Reopens the index recorded by the last Checkpoint() on `pager` (which
  /// must come from em::Pager::Open): no rebuild, O(1) I/Os.
  /// FailedPrecondition if the meta block is not a TopkIndex's or names
  /// another pilot layout.
  static StatusOr<std::unique_ptr<TopkIndex>> Open(em::Pager* pager);

  /// Persists the index through the pager's superblock: flushes every dirty
  /// block and records this index's meta block as root 0, followed by
  /// `extra_roots` (caller-defined words, e.g. shard metadata). After a
  /// restart, Open() on a reopened pager restores the exact structure.
  Status Checkpoint(std::span<const std::uint64_t> extra_roots = {});

  std::uint64_t size() const { return pilot_->size(); }
  QueryPath SelectorKind() const {
    return use_lemma4_ ? QueryPath::kLemma4Threshold
                       : QueryPath::kSt12Threshold;
  }

  /// Inserts p. O(lg_B n) I/Os amortized.
  Status Insert(const Point& p);

  /// Deletes p (x and score must match). O(lg_B n) I/Os amortized.
  Status Delete(const Point& p);

  /// The k highest-scored points with x in [x1, x2], score-descending; all
  /// of S ∩ [x1,x2] if it has fewer than k points.
  StatusOr<std::vector<Point>> TopK(double x1, double x2, std::uint64_t k,
                                    TopkQueryStats* stats = nullptr) const;

  /// Frees every block.
  void DestroyAll();

  /// Validates every component. O(n).
  void CheckInvariants() const;

 private:
  TopkIndex(em::Pager* pager, Options options) : pager_(pager),
                                                 options_(options) {}

  /// k at or above this goes straight to the pilot PST (B lg n rule).
  std::uint64_t PilotCutoff() const;

  /// (Re)writes the meta block linking the component structures.
  void WriteMeta();

  em::Pager* pager_;
  Options options_;
  em::BlockId meta_ = em::kNullBlock;
  bool use_lemma4_ = false;
  std::unique_ptr<pilot::PilotPst> pilot_;
  std::unique_ptr<st12::ShengTaoSelector> st12_;
  std::unique_ptr<lemma4::Lemma4Selector> lemma4_;
};

}  // namespace tokra::core

#endif  // TOKRA_CORE_TOPK_INDEX_H_
