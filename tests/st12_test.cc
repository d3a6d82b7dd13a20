// Tests for the Sheng-Tao'12-style baseline selector.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <set>
#include <vector>

#include "em/pager.h"
#include "internal/naive.h"
#include "st12/selector.h"
#include "util/random.h"

namespace tokra::st12 {
namespace {

em::EmOptions Opts(std::uint32_t bw = 128) {
  return em::EmOptions{.block_words = bw, .pool_frames = 32};
}

std::vector<Point> RandomPoints(Rng* rng, std::size_t n) {
  auto xs = rng->DistinctDoubles(n, 0.0, 1000.0);
  auto scores = rng->DistinctDoubles(n, 0.0, 1.0);
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = Point{xs[i], scores[i]};
  return pts;
}

TEST(St12Test, EmptyAndErrors) {
  em::Pager pager(Opts());
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, {});
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.Decompose(0, 1).count(), 0u);
  EXPECT_FALSE(s.SelectApprox(0, 1, 1).ok());
  EXPECT_EQ(s.Delete({1, 1}).code(), StatusCode::kNotFound);
  s.CheckInvariants();
}

TEST(St12Test, CountInRangeExact) {
  em::Pager pager(Opts());
  Rng rng(3);
  auto pts = RandomPoints(&rng, 5000);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, pts);
  s.CheckInvariants();
  for (int probe = 0; probe < 40; ++probe) {
    double a = rng.UniformDouble(-10, 1010), b = rng.UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    EXPECT_EQ(s.Decompose(x1, x2).count(),
              internal::NaiveRangeCount(pts, x1, x2));
  }
}

// One decomposition per random range, several ranks selected on it: each
// answer must meet the SelectApprox bound for its own rank.
void ExpectMultiRankSelect(const ShengTaoSelector& s,
                           const std::vector<Point>& live, Rng* rng) {
  for (int probe = 0; probe < 30; ++probe) {
    double a = rng->UniformDouble(-10, 1010), b = rng->UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    std::uint64_t total = internal::NaiveRangeCount(live, x1, x2);
    RangeSketches range = s.Decompose(x1, x2);
    ASSERT_EQ(range.count(), total);
    EXPECT_EQ(range.Select(total + 1).status().code(),
              StatusCode::kOutOfRange);
    if (total == 0) continue;
    for (std::uint64_t r : {std::uint64_t{1}, 1 + rng->Uniform(total),
                            (total + 1) / 2, total}) {
      auto res = range.Select(r);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      std::uint64_t rank =
          internal::NaiveScoreRankInRange(live, x1, x2, *res);
      EXPECT_GE(rank, r);
      EXPECT_LT(rank, ShengTaoSelector::kApproxFactor * r);
    }
  }
}

// Applies `updates` random operations to s and live: 60% inserts of fresh
// distinct x and score, the rest deletes of a random live point.
void MixedUpdates(ShengTaoSelector* s, std::vector<Point>* live, Rng* rng,
                  int updates) {
  std::set<double> used_x, used_s;
  for (const Point& p : *live) {
    used_x.insert(p.x);
    used_s.insert(p.score);
  }
  for (int op = 0; op < updates; ++op) {
    if (live->empty() || rng->Bernoulli(0.6)) {
      double x, sc;
      do {
        x = rng->UniformDouble(0, 1000);
      } while (!used_x.insert(x).second);
      do {
        sc = rng->UniformDouble(0, 1);
      } while (!used_s.insert(sc).second);
      ASSERT_TRUE(s->Insert({x, sc}).ok());
      live->push_back({x, sc});
    } else {
      std::size_t pick = rng->Uniform(live->size());
      ASSERT_TRUE(s->Delete((*live)[pick]).ok());
      live->erase(live->begin() + pick);
    }
  }
}

struct StCase {
  std::size_t n;
  int updates;
  std::uint64_t seed;
};

class St12PropertyTest : public ::testing::TestWithParam<StCase> {};

TEST_P(St12PropertyTest, ApproximationHolds) {
  const auto& c = GetParam();
  em::Pager pager(Opts());
  Rng rng(c.seed);
  std::vector<Point> live = RandomPoints(&rng, c.n);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, live);

  ASSERT_NO_FATAL_FAILURE(MixedUpdates(&s, &live, &rng, c.updates));
  s.CheckInvariants();
  EXPECT_EQ(s.size(), live.size());

  for (int probe = 0; probe < 60; ++probe) {
    double a = rng.UniformDouble(-10, 1010), b = rng.UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    std::uint64_t total = internal::NaiveRangeCount(live, x1, x2);
    if (total == 0) continue;
    std::uint64_t k = 1 + rng.Uniform(total);
    auto res = s.SelectApprox(x1, x2, k);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    std::uint64_t rank =
        internal::NaiveScoreRankInRange(live, x1, x2, *res);
    EXPECT_GE(rank, k);
    EXPECT_LT(rank, ShengTaoSelector::kApproxFactor * k);
  }
  ExpectMultiRankSelect(s, live, &rng);

  // A batch of deletions (a third of the live points), then again.
  for (std::size_t d = live.size() / 3; d > 0; --d) {
    std::size_t pick = rng.Uniform(live.size());
    ASSERT_TRUE(s.Delete(live[pick]).ok());
    live.erase(live.begin() + pick);
  }
  s.CheckInvariants();
  ExpectMultiRankSelect(s, live, &rng);
}

INSTANTIATE_TEST_SUITE_P(Sweep, St12PropertyTest,
                         ::testing::Values(StCase{100, 200, 1},
                                           StCase{2000, 500, 2},
                                           StCase{8000, 800, 3},
                                           StCase{500, 2000, 4}),
                         [](const ::testing::TestParamInfo<StCase>& info) {
                           return std::string("n")
                               .append(std::to_string(info.param.n))
                               .append("u")
                               .append(std::to_string(info.param.updates));
                         });

// 200 seeded (range, k) selections on an updated structure, pinned bit for
// bit to the answers of the sort-based Lemma 7 sweep that preceded the
// heap sweep and the truncated boundary sketch: a change that only saves
// CPU in Select must not move a threshold. Half the ranks are small (the
// sketch repairs' ranks), half uniform up to an eighth of the range.
std::vector<double> PinnedSelections() {
  em::Pager pager(Opts(128));
  Rng rng(20);
  std::vector<Point> live = RandomPoints(&rng, 5000);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, live);
  MixedUpdates(&s, &live, &rng, 500);
  std::vector<double> got;
  while (got.size() < 200) {
    double a = rng.UniformDouble(-10, 1010), b = rng.UniformDouble(-10, 1010);
    double x1 = std::min(a, b), x2 = std::max(a, b);
    RangeSketches range = s.Decompose(x1, x2);
    if (range.count() == 0) continue;
    std::uint64_t n = range.count();
    std::uint64_t k = 1 + rng.Uniform(rng.Bernoulli(0.5)
                                          ? std::min<std::uint64_t>(n, 64)
                                          : std::max<std::uint64_t>(n / 8, 1));
    got.push_back(range.Select(k).value());
  }
  return got;
}

TEST(St12Test, SelectAnswersUnchanged) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // clang-format off
  static constexpr double kPinned[200] = {
      0x1.3b1fc17b807e4p-1, 0x1.21ed8275db233p-1, 0x1.a4b05a8448395p-1,
      0x1.0e72a1097745ap-2, 0x1.bc40ead5ae226p-1, 0x1.72382c039ae48p-1,
      0x1.30d251cbdcef3p-1, 0x1.b126b99486e04p-1, 0x1.d12d2d831a315p-1,
      0x1.52e2cada6fe9ap-1, 0x1.d300656454567p-1, 0x1.d0d411c18dca4p-1,
      0x1.e6b4f4179e357p-1, 0x1.910811260f7bep-1, 0x1.d0c66f56cbb14p-1,
      0x1.bca3cacb7547cp-1, 0x1.a9193de20e6f4p-3, 0x1.9a203ecb71cb3p-1,
      0x1.392ec2adb2814p-1, 0x1.2a3d387ccaa29p-1, 0x1.d300656454567p-1,
      0x1.3b47667a981a9p-1, 0x0p+0, 0x1.3425741ee6fc9p-1,
      0x1.057681b73215ap-1, 0x1.f4cb8d7151bep-1, 0x1.cd1a1a9e54c52p-1,
      0x1.9a203ecb71cb3p-1, 0x1.a659bb30f2102p-1, 0x1.eb035f88027cbp-1,
      0x1.cd9aca1490d82p-1, 0x1.c1f988852465p-1, 0x1.a659bb30f2102p-1,
      0x1.c38d26d8a213bp-1, 0x1.b412f01ef5146p-1, 0x1.f3d2304138c28p-1,
      0x1.ee3fc8a578ec3p-1, 0x1.e330978cdfd07p-1, 0x1.a75c4c46a7836p-1,
      0x1.84570f9f89defp-1, 0x1.d9139fa1ade45p-1, 0x1.f30ab7a182874p-1,
      0x1.eb035f88027cbp-1, 0x1.eb37526374dc1p-1, 0x1.56377a894643ep-1,
      0x1.a7ed47a0b2bbap-1, 0x1.3b47667a981a9p-1, 0x1.e6f288085daffp-1,
      0x1.4882b1d6eb40bp-1, 0x1.e6c2e217f43d7p-1, 0x1.2c9805b4c8203p-1,
      0x1.c1f988852465p-1, 0x1.ed3c8ffa57b19p-1, 0x1.e1dcb3745b257p-1,
      0x1.94325cf22a549p-1, 0x1.ee3df8c570c4ap-1, 0x1.6848f852db24bp-1,
      0x1.3eb02a3e81436p-2, 0x1.e36f7fc57ae61p-1, 0x1.f6235c833bd36p-1,
      0x1.e1bea08a8f336p-1, 0x1.e499ecc0fdb52p-1, 0x1.870880ba75439p-1,
      0x1.f9c17961a109ep-1, 0x1.fb4a4bfa18e7bp-1, 0x1.b219659472861p-1,
      0x1.8ef74c8ae36dep-1, 0x1.d0c66f56cbb14p-1, 0x1.edfc87a80bd8fp-1,
      0x1.f8ef450ef75d9p-1, 0x1.64af5720e8301p-1, 0x1.3a8afa2f69aecp-1,
      0x1.e09b7c66eee87p-1, 0x1.efdc2a1382799p-1, 0x1.e499ecc0fdb52p-1,
      0x1.bff0752be9e4bp-1, -kInf, 0x1.f248e22057108p-1,
      0x1.d386c094b50cp-1, 0x1.e45ee6fd2fabcp-1, 0x1.41d58265f2962p-1,
      0x1.e7faefe01b646p-1, 0x1.eb035f88027cbp-1, 0x1.28c614517c15ap-1,
      0x1.e499ecc0fdb52p-1, 0x1.3a8afa2f69aecp-1, 0x1.546650a053379p-1,
      0x1.e471afc8dbf6bp-1, 0x1.f9c17961a109ep-1, 0x1.38b1b198fa5dcp-1,
      0x1.56377a894643ep-1, 0x1.e7faefe01b646p-1, 0x1.d9139fa1ade45p-1,
      0x1.0cf3711b62e92p-2, 0x1.53346ac34e47fp-1, 0x1.56377a894643ep-1,
      0x1.f06d4d4d3ec7bp-1, 0x1.6848f852db24bp-1, 0x1.e7faefe01b646p-1,
      0x1.6b87e53780b53p-1, 0x1.392ec2adb2814p-1, 0x1.f8ef450ef75d9p-1,
      0x1.c1f988852465p-1, 0x1.56377a894643ep-1, 0x1.e1e31a71b83d9p-1,
      0x1.b72726776412fp-1, 0x1.086081582b9d1p-1, 0x1.64af5720e8301p-1,
      0x1.e36ba82b536eep-1, 0x1.910811260f7bep-1, 0x1.e7faefe01b646p-1,
      0x1.f3d2304138c28p-1, 0x1.8c84b1ef553a5p-1, 0x1.8ef74c8ae36dep-1,
      0x1.e330978cdfd07p-1, 0x1.2c9805b4c8203p-1, 0x1.52e2cada6fe9ap-1,
      0x1.30d251cbdcef3p-1, 0x1.18cd9ba8047p-9, 0x1.e479f95cc8269p-1,
      0x1.f248e22057108p-1, 0x1.67f15fe43a6f1p-1, 0x1.cad2cacc3f8b4p-1,
      0x1.5912b1a841485p-1, 0x1.eb035f88027cbp-1, 0x1.1d544539138e9p-1,
      0x1.e36f7fc57ae61p-1, 0x1.21ed8275db233p-1, 0x1.30d251cbdcef3p-1,
      0x1.de1973a7bada8p-1, 0x1.7445d15abb89p-2, 0x1.4cc2479de2c7cp-2,
      0x1.138d9bd0304cp-1, 0x1.f06d4d4d3ec7bp-1, 0x1.e36f7fc57ae61p-1,
      0x1.f248e22057108p-1, 0x1.f30ab7a182874p-1, 0x1.38b1b198fa5dcp-1,
      0x1.dc2f46c3affe2p-1, 0x1.d55916f257f05p-1, 0x1.2c9805b4c8203p-1,
      0x1.e45ee6fd2fabcp-1, 0x1.2c9805b4c8203p-1, 0x1.057681b73215ap-1,
      0x1.a7ed47a0b2bbap-1, 0x1.42bd7356aacebp-1, 0x1.41d58265f2962p-1,
      0x1.f2148ab887f4ep-1, 0x1.e45ee6fd2fabcp-1, 0x1.e6b4dfbe637dap-1,
      0x1.f1e7f82e86bd2p-1, 0x1.c621ebf5ca6afp-1, 0x1.2a3d387ccaa29p-1,
      0x1.f12abef965fffp-1, 0x1.f1e7f82e86bd2p-1, 0x1.73e7349fdd8bcp-1,
      0x1.e479f95cc8269p-1, 0x1.8ef74c8ae36dep-1, 0x1.d300656454567p-1,
      0x1.8ef74c8ae36dep-1, 0x1.dcc86de8ea52dp-1, -kInf,
      0x1.eb37526374dc1p-1, -kInf, 0x1.eed84d2328cd6p-1,
      0x1.138d9bd0304cp-1, 0x1.e30dc4370decap-1, 0x1.de1036ff52149p-1,
      0x1.546650a053379p-1, 0x1.e330978cdfd07p-1, 0x1.efa4c833cd019p-1,
      0x1.a7f1d9f9d188cp-1, 0x1.1ffb91ad12c5bp-1, 0x1.9224563dedcfap-1,
      0x1.33df57b72b9a6p-1, 0x1.b979c7cc0813ep-1, 0x1.ef36433e160b9p-1,
      0x1.ee053c316a405p-1, 0x1.32b7141fdbf7ep-1, 0x1.2c9805b4c8203p-1,
      0x1.41d58265f2962p-1, 0x1.e7c19ff6eeb11p-1, 0x1.9598f26e94cc8p-2,
      0x1.9fddf8c4ea991p-1, 0x1.a115738bf3566p-1, 0x1.1ffb91ad12c5bp-1,
      0x1.c1f988852465p-1, 0x1.e7faefe01b646p-1, 0x1.c2ade1d6e5028p-1,
      0x1.f3bd4a76d75a6p-2, 0x1.057681b73215ap-1, 0x1.8ce0ae560173ap-1,
      0x1.ed30286d69658p-1, 0x1.e31fda4a9e2dbp-1, 0x1.a4941cd20cbe4p-1,
      0x1.e7faefe01b646p-1, 0x1.587139fdf25ep-1, 0x1.9a8817939819dp-1,
      0x1.64af5720e8301p-1, 0x1.64af5720e8301p-1,
  };
  // clang-format on
  std::vector<double> got = PinnedSelections();
  ASSERT_EQ(got.size(), std::size(kPinned));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(kPinned[i]))
        << "selection " << i << ": " << got[i] << " vs " << kPinned[i];
  }
}

TEST(St12Test, DestroyReleasesBlocks) {
  em::Pager pager(Opts());
  std::uint64_t base = pager.BlocksInUse();
  Rng rng(5);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, RandomPoints(&rng, 2000));
  s.DestroyAll();
  EXPECT_EQ(pager.BlocksInUse(), base);
}

TEST(St12Test, UpdateCostExceedsSingleLogShape) {
  // The baseline's per-update I/Os include Theta(1) recursive selections per
  // path node — the lg^2 mechanism. Sanity: updates cost several times a
  // plain root-to-leaf descent.
  em::Pager pager(Opts(256));
  Rng rng(9);
  auto pts = RandomPoints(&rng, 30000);
  ShengTaoSelector s = ShengTaoSelector::Build(&pager, pts);
  auto fresh = RandomPoints(&rng, 300);
  em::IoStats before = pager.stats();
  std::uint64_t n_ok = 0;
  for (const Point& p : fresh) {
    if (s.Insert(p).ok()) ++n_ok;
  }
  double per_op =
      static_cast<double>((pager.stats() - before).TotalIos()) / n_ok;
  EXPECT_GT(per_op, 6.0);  // well above a bare descent of ~3 nodes
}

}  // namespace
}  // namespace tokra::st12
