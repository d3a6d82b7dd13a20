// E8 — space: every structure uses O(n/B) blocks; ratios flatten as n grows.
// The pilot PST is also measured after seeded churn, and both of its
// columns gate the exit code at n = 2^18.

#include <algorithm>

#include "bench/common.h"
#include "lemma4/structure.h"
#include "pilot/pilot_pst.h"
#include "st12/selector.h"

using namespace tokra;
using namespace tokra::bench;

namespace {

// Pilot sets hold only the blocks their points fill; measured at about 9
// blocks per n/B, where reserving four blocks per set read 23.3.
constexpr double kPilotSpaceBound = 12.0;

}  // namespace

int main() {
  tokra::bench::InitJson("e8_space");
  std::printf("# E8: space in blocks, normalized by n/B (B=256)\n");
  Header("blocks / (n/B)",
         {"n", "pilot PST", "pilot PST after churn", "st12", "lemma4",
          "raw data (2 words/pt)"});
  double pilot_at_gate = 0, churned_at_gate = 0;
  for (std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    Rng rng(10);
    auto pts = RandomPoints(&rng, n);
    double unit = static_cast<double>(n) / 256.0;

    double pilot_ratio, churn_ratio, st_ratio, l4_ratio;
    {
      em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 16});
      auto s = pilot::PilotPst::Build(&pager, pts);
      pilot_ratio = pager.BlocksInUse() / unit;
      // Churn at constant size: n/4 rounds of one fresh insert and one
      // delete of a random live point.
      std::vector<Point> live = pts;
      auto fresh = RandomPoints(&rng, n / 4, 1e6 - 1);
      for (const Point& p : fresh) {
        Must(s.Insert(p));
        std::size_t pick = rng.Uniform(live.size());
        Must(s.Delete(live[pick]));
        live[pick] = p;
      }
      churn_ratio = pager.BlocksInUse() / unit;
    }
    {
      em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 16});
      auto s = st12::ShengTaoSelector::Build(&pager, pts);
      (void)s;
      st_ratio = pager.BlocksInUse() / unit;
    }
    {
      em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 16});
      auto s = lemma4::Lemma4Selector::Build(
          &pager, pts, {.fanout = 16, .l = 64, .leaf_cap = 4096});
      (void)s;
      l4_ratio = pager.BlocksInUse() / unit;
    }
    Row({U(n), D(pilot_ratio), D(churn_ratio), D(st_ratio), D(l4_ratio),
         D(2.0 / 256 * 256)});
    pilot_at_gate = pilot_ratio;
    churned_at_gate = churn_ratio;
  }
  std::printf("\nShape check: each column converges to a constant (linear "
              "space). A pilot set holds only the blocks its points fill, "
              "so the pilot PST keeps its constant after churn as after a "
              "build; the st12/lemma4 constants reflect pre-allocated sketch "
              "blocks as documented in DESIGN.md.\n");
  const bool within = std::max(pilot_at_gate, churned_at_gate) <=
                      kPilotSpaceBound;
  std::printf("E8 pilot space at n=2^18: %.2f after build, %.2f after "
              "churn, bound %.1f: %s\n",
              pilot_at_gate, churned_at_gate, kPilotSpaceBound,
              within ? "ok" : "EXCEEDED");
  return within ? 0 : 1;
}
