// E2 — THE HEADLINE: amortized update I/Os, this paper (O(lg_B n)) vs the
// Sheng-Tao'12 baseline (O(lg^2_B n)). We compare the two approximate
// range k-selection components directly (both sit on top of the same pilot
// PST in the full index, so the selector delta IS the paper's delta), and
// also report full-index update costs.

#include <cmath>

#include "bench/common.h"
#include "core/topk_index.h"
#include "lemma4/structure.h"
#include "st12/selector.h"
#include "util/bits.h"

using namespace tokra;
using namespace tokra::bench;

namespace {

struct WarmCost {
  double update_ios;
  double query_ios;
};

// One full TopkIndex with a forced selector on a fixed 32-frame pool that
// is never dropped: the `fresh` inserts, then their deletes, then 1000
// narrow queries with k < 64 (the threshold path).
WarmCost MeasureWarm(std::uint32_t block_words, const std::vector<Point>& pts,
                     const std::vector<Point>& fresh,
                     core::TopkIndex::Options::Selector selector) {
  em::Pager pager(em::EmOptions{.block_words = block_words, .pool_frames = 32});
  core::TopkIndex::Options options;
  options.selector = selector;
  auto idx = std::move(core::TopkIndex::Build(&pager, pts, options).value());
  std::uint64_t upd = BatchIos(&pager, [&] {
    for (const Point& q : fresh) Must(idx->Insert(q));
    for (const Point& q : fresh) Must(idx->Delete(q));
  });
  Rng rng(5);
  const int queries = 1000;
  std::uint64_t qry = BatchIos(&pager, [&] {
    for (int i = 0; i < queries; ++i) {
      double x1 = rng.UniformDouble(0, 1e6 - 800);
      idx->TopK(x1, x1 + rng.UniformDouble(1, 800), 1 + rng.Uniform(63))
          .value();
    }
  });
  return {static_cast<double>(upd) / (2.0 * fresh.size()),
          static_cast<double>(qry) / queries};
}

// The warm-pool leg behind kAuto's constant (TopkIndex::kLemma4Crossover):
// under a pool that stays warm, at which n does Lemma 4 start to update
// more cheaply than ST12, for each B? Prints the rule's choice next to the
// measured costs. n stops at 2^21 (0.66 GB resident); 2^22 more than doubles
// that and the run time.
void WarmPoolLeg() {
  using Selector = core::TopkIndex::Options::Selector;
  Header("full index, warm 32-frame pool: I/Os per update and per query",
         {"B", "n", "lg n", "c B^(1/6)", "st12 update", "lemma4 update",
          "st12 query", "lemma4 query", "kAuto picks"});
  // A pick is dominated when the other selector costs fewer I/Os both per
  // update and per query; c is the smallest constant that makes none.
  int dominated = 0;
  for (std::uint32_t bw : {64u, 128u, 256u}) {
    for (std::size_t lg = 17; lg <= 21; ++lg) {
      const std::size_t n = std::size_t{1} << lg;
      Rng rng(4);
      auto pts = RandomPoints(&rng, n);
      auto fresh = RandomPoints(&rng, 2000, 1e6 - 1);
      WarmCost st = MeasureWarm(bw, pts, fresh, Selector::kSt12);
      WarmCost l4 = MeasureWarm(bw, pts, fresh, Selector::kLemma4);
      const bool lemma4 = core::TopkIndex::AutoUsesLemma4(n, bw);
      const WarmCost& picked = lemma4 ? l4 : st;
      const WarmCost& other = lemma4 ? st : l4;
      if (other.update_ios < picked.update_ios &&
          other.query_ios < picked.query_ios) {
        ++dominated;
      }
      const double bound = core::TopkIndex::kLemma4Crossover *
                           std::pow(static_cast<double>(bw), 1.0 / 6.0);
      Row({U(bw), U(n), U(lg), D(bound), D(st.update_ios), D(l4.update_ios),
           D(st.query_ios), D(l4.query_ios), lemma4 ? "lemma4" : "st12"});
    }
  }
  std::printf(
      "\nShape check: under a warm pool ST12 updates more cheaply until lg n "
      "is well past B^(1/6), and its queries always cost fewer I/Os; kAuto "
      "switches to Lemma 4 only when lg n > c B^(1/6), c = %.1f. Dominated "
      "kAuto picks: %d.\n",
      core::TopkIndex::kLemma4Crossover, dominated);
}

}  // namespace

int main() {
  tokra::bench::InitJson("e2_update");
  std::printf("# E2: amortized update I/Os — tokra (Lemma 4) vs [14]-style"
              " baseline\n");
  // Cold per-operation measurement with a minimal pool (M = 8B): the model
  // only guarantees M = Omega(B), and a warm cache would hide the baseline's
  // extra log factor (its repairs re-descend paths that an ample cache keeps
  // resident).
  Header("selector update cost vs n (B=64, cold cache per op)",
         {"n", "lg_B n", "lemma4 I/Os/update", "st12 I/Os/update",
          "ratio st12/lemma4"});
  std::vector<double> ratios;  // st12/lemma4, one per n in table order
  for (std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    em::Pager pager(em::EmOptions{.block_words = 64, .pool_frames = 8});
    Rng rng(3);
    auto pts = RandomPoints(&rng, n);
    lemma4::Lemma4Selector::Params p4{.fanout = 8, .l = 32,
                                      .leaf_cap = 1024};
    auto l4 = lemma4::Lemma4Selector::Build(&pager, pts, p4);
    auto st = st12::ShengTaoSelector::Build(&pager, pts);

    const int rounds = 150;
    auto fresh = RandomPoints(&rng, rounds, 1e6 - 1);
    std::uint64_t l4_ios = 0, st_ios = 0;
    for (const Point& q : fresh) {
      l4_ios += ColdIos(&pager, [&] { Must(l4.Insert(q)); });
      l4_ios += ColdIos(&pager, [&] { Must(l4.Delete(q)); });
    }
    for (const Point& q : fresh) {
      st_ios += ColdIos(&pager, [&] { Must(st.Insert(q)); });
      st_ios += ColdIos(&pager, [&] { Must(st.Delete(q)); });
    }
    double a = static_cast<double>(l4_ios) / (2 * rounds);
    double b = static_cast<double>(st_ios) / (2 * rounds);
    Row({U(n), U(LogB(64, n)), D(a), D(b), D(b / a)});
    ratios.push_back(b / a);
    RecordIoStats("n=" + U(n), pager.stats());
  }
  std::printf(
      "\nShape check: the ratio grows with lg_B n (the baseline pays an "
      "extra log factor per update), i.e. the Theorem 1 improvement.\n");
  // The separation is the experiment's claim, so it gates the exit code: at
  // the largest n the baseline must cost more than Lemma 4, and by a wider
  // margin than at the smallest n.
  const bool separated =
      ratios.back() > 1.0 && ratios.back() > ratios.front();
  std::printf("E2 separation: ratio %.2f at n=2^12, %.2f at n=2^18: %s\n",
              ratios.front(), ratios.back(), separated ? "ok" : "LOST");
  WarmPoolLeg();
  return separated ? 0 : 1;
}
