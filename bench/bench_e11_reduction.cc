// E11 — the threshold reduction pipeline: selector query O(lg_B n) +
// 3-sided reporting + O(k'/B) selection; reported candidate volume stays
// O(k) thanks to the approximate threshold. A narrow-range leg gates the
// exit code on the 3-sided report's cold I/Os.

#include <algorithm>
#include <string>

#include "bench/common.h"
#include "core/topk_index.h"
#include "pilot/pilot_pst.h"
#include "st12/selector.h"

using namespace tokra;
using namespace tokra::bench;

namespace {

// Narrow leg: each range spans 0.2% of the keys, so the pilot sets the
// 3-sided report visits are boundary sets, binary-searched in place. The
// leg measures 15.81 (k = 4) and 30.44 (k = 64) report I/Os per range;
// reading every visited set whole cost 19.12 and 37.69. Its counts are
// deterministic, and it exits non-zero above the bound.
constexpr std::size_t kNarrowRanges = 16;
constexpr double kNarrowReportIosBound = 32.0;

}  // namespace

int main() {
  tokra::bench::InitJson("e11_reduction");
  std::printf("# E11: the reduction — threshold + 3-sided report + select\n");
  Header("pipeline breakdown vs k (n=2^16, B=256, st12 selector)",
         {"k", "threshold I/Os", "report I/Os", "candidates k'", "k'/k",
          "end-to-end I/Os"});
  em::Pager pager(em::EmOptions{.block_words = 256, .pool_frames = 64});
  Rng rng(13);
  const std::size_t n = 1u << 16;
  auto pts = RandomPoints(&rng, n);
  auto pst = pilot::PilotPst::Build(&pager, pts);
  auto sel = st12::ShengTaoSelector::Build(&pager, pts);
  core::TopkIndex::Options options;
  options.selector = core::TopkIndex::Options::Selector::kSt12;
  auto idx = core::TopkIndex::Build(&pager, pts, options).value();

  for (std::uint64_t k : {4u, 64u, 512u, 2048u}) {
    double x1 = 1e5, x2 = 9e5;
    double thr = 0;
    std::uint64_t thr_ios = ColdIos(&pager, [&] {
      thr = sel.SelectApprox(x1, x2, k).value();
    });
    std::vector<Point> cand;
    std::uint64_t rep_ios = ColdIos(&pager, [&] {
      Must(pst.Report3Sided(x1, x2, thr, &cand));
    });
    std::uint64_t full_ios = ColdIos(&pager, [&] {
      idx->TopK(x1, x2, k).value();
    });
    Row({U(k), U(thr_ios), U(rep_ios), U(cand.size()),
         D(static_cast<double>(cand.size()) / k), U(full_ios)});
  }
  std::printf("\nShape check: threshold cost is flat (O(lg_B n)); reported "
              "candidates stay within the selector's constant factor of k; "
              "report I/Os track k'/B plus a logarithmic base.\n");

  std::vector<double> xs(pts.size());
  std::transform(pts.begin(), pts.end(), xs.begin(),
                 [](const Point& p) { return p.x; });
  std::sort(xs.begin(), xs.end());
  const std::size_t span = n / 500;  // 0.2% of the keys
  Header("narrow ranges (0.2% of the keys, " + std::to_string(kNarrowRanges) +
             " ranges, n=2^16, B=256): cold 3-sided report",
         {"k", "report I/Os per range", "candidates per range"});
  double worst = 0;
  for (std::uint64_t k : {4u, 64u}) {
    std::uint64_t ios = 0, cands = 0;
    for (std::size_t r = 0; r < kNarrowRanges; ++r) {
      const std::size_t first = (r * (n - span)) / kNarrowRanges;
      const double x1 = xs[first], x2 = xs[first + span - 1];
      const double thr = sel.SelectApprox(x1, x2, k).value();
      std::vector<Point> cand;
      ios += ColdIos(&pager, [&] {
        Must(pst.Report3Sided(x1, x2, thr, &cand));
      });
      cands += cand.size();
    }
    const double per = static_cast<double>(ios) / kNarrowRanges;
    worst = std::max(worst, per);
    Row({U(k), D(per), D(static_cast<double>(cands) / kNarrowRanges)});
  }
  const bool within = worst <= kNarrowReportIosBound;
  std::printf("E11 narrow report I/Os per range: %.2f, bound %.1f: %s\n",
              worst, kNarrowReportIosBound, within ? "ok" : "EXCEEDED");
  return within ? 0 : 1;
}
