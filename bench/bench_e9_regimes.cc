// E9 — Section 1.2 regime decomposition: which component answers which
// (B, k) combination, and at what cost.

#include "bench/common.h"
#include "core/topk_index.h"
#include "util/bits.h"

using namespace tokra;
using namespace tokra::bench;

int main() {
  tokra::bench::InitJson("e9_regimes");
  std::printf("# E9: Theorem 1 dispatch across regimes (n=2^16)\n");
  Header("path taken and cost vs (B, k)",
         {"B", "k", "B lg n", "path", "query I/Os", "retries"});
  const std::size_t n = 1u << 16;
  for (std::uint32_t Bw : {64u, 256u, 1024u}) {
    em::Pager pager(em::EmOptions{.block_words = Bw, .pool_frames = 64});
    Rng rng(11);
    auto built = core::TopkIndex::Build(&pager, RandomPoints(&rng, n));
    auto& idx = *built;
    for (std::uint64_t k : {4u, 256u, 4096u, 32768u}) {
      core::TopkQueryStats stats;
      std::uint64_t ios = ColdIos(&pager, [&] {
        idx->TopK(1e5, 9e5, k, &stats).value();
      });
      const char* path = stats.path == core::QueryPath::kPilotDirect
                             ? "pilot-direct"
                             : stats.path == core::QueryPath::kSt12Threshold
                                   ? "st12-threshold"
                                   : "lemma4-threshold";
      Row({U(Bw), U(k), U(static_cast<std::uint64_t>(Bw) * Lg(n)), path,
           U(ios), U(stats.threshold_retries)});
    }
  }
  std::printf("\nShape check: k >= B lg n flips to pilot-direct; below it "
              "every B here takes the ST12 component, because kAuto selects "
              "Lemma 4 only when lg n > c B^(1/6) (c = %.1f, measured by "
              "E2's warm-pool leg) and lg n = 16; retries stay at most 1, "
              "the first ask being k/4 (DESIGN.md §1).\n",
              core::TopkIndex::kLemma4Crossover);
  return 0;
}
