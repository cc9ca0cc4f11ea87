#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/storage/nand_channel.hpp"
#include "ldpc/util/args.hpp"
#include "ldpc/util/rng.hpp"
#include "ldpc/util/stats.hpp"
#include "ldpc/util/table.hpp"

namespace {

using ldpc::util::Args;
using ldpc::util::ErrorCounter;
using ldpc::util::RunningStats;
using ldpc::util::Table;
using ldpc::util::Xoshiro256;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Xoshiro256 rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

// ---- Gaussian battery --------------------------------------------------------
// The ziggurat must draw exact N(0,1): moments, tail masses and a
// 64-bin chi-square over 10^7 draws of one fixed seed, each within a
// bound derived from its sampling distribution (5 sigma for moments,
// 4 sigma binomial for tails, the 1e-4 upper chi-square quantile).

struct GaussianSummary {
  static constexpr long long kDraws = 10'000'000;
  static constexpr int kBins = 64;
  double mean = 0.0, variance = 0.0, kurtosis = 0.0;
  std::array<long long, 3> beyond{};  // |x| > 2, 3, 4
  long long beyond_tail_start = 0;    // |x| > R: the tail sampler's output
  std::array<long long, kBins> bins{};
};

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Inverse of normal_cdf by bisection (test-only; accuracy ~1e-15).
double normal_quantile(double p) {
  double lo = -12.0, hi = 12.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (normal_cdf(mid) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

const GaussianSummary& gaussian_summary() {
  static const GaussianSummary summary = [] {
    GaussianSummary g;
    std::array<double, GaussianSummary::kBins - 1> edges{};
    for (int j = 1; j < GaussianSummary::kBins; ++j)
      edges[static_cast<std::size_t>(j - 1)] =
          normal_quantile(static_cast<double>(j) / GaussianSummary::kBins);
    Xoshiro256 rng(0x6A055);
    std::vector<double> block(1 << 14);
    double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
    for (long long done = 0; done < GaussianSummary::kDraws;
         done += static_cast<long long>(block.size())) {
      rng.fill_gaussian(block);
      for (double x : block) {
        const double x2 = x * x;
        s1 += x;
        s2 += x2;
        s3 += x2 * x;
        s4 += x2 * x2;
        const double a = std::fabs(x);
        for (int k = 0; k < 3; ++k)
          g.beyond[static_cast<std::size_t>(k)] += a > k + 2.0 ? 1 : 0;
        g.beyond_tail_start += a > 3.442619855899 ? 1 : 0;
        ++g.bins[static_cast<std::size_t>(
            std::upper_bound(edges.begin(), edges.end(), x) - edges.begin())];
      }
    }
    const auto n = static_cast<double>(GaussianSummary::kDraws);
    g.mean = s1 / n;
    const double m2 = s2 / n, m3 = s3 / n, m4 = s4 / n, mu = g.mean;
    g.variance = m2 - mu * mu;
    const double c4 =
        m4 - 4.0 * mu * m3 + 6.0 * mu * mu * m2 - 3.0 * mu * mu * mu * mu;
    g.kurtosis = c4 / (g.variance * g.variance);
    return g;
  }();
  return summary;
}

TEST(GaussianBattery, MomentsMatchStandardNormal) {
  const GaussianSummary& g = gaussian_summary();
  const double n = GaussianSummary::kDraws;
  EXPECT_LT(std::fabs(g.mean), 5.0 / std::sqrt(n));
  EXPECT_LT(std::fabs(g.variance - 1.0), 5.0 * std::sqrt(2.0 / n));
  EXPECT_LT(std::fabs(g.kurtosis - 3.0), 5.0 * std::sqrt(24.0 / n));
}

TEST(GaussianBattery, TailMassesWithinBinomialBounds) {
  const GaussianSummary& g = gaussian_summary();
  const double n = GaussianSummary::kDraws;
  const auto expect_mass = [n](long long count, double threshold) {
    const double p = 2.0 * (1.0 - normal_cdf(threshold));
    const double bound = 4.0 * std::sqrt(n * p * (1.0 - p));
    EXPECT_LT(std::fabs(static_cast<double>(count) - n * p), bound)
        << "P(|x| > " << threshold << ")";
  };
  for (int k = 0; k < 3; ++k)
    expect_mass(g.beyond[static_cast<std::size_t>(k)], k + 2.0);
  // The bottom layer's tail sampler is exercised, at its own mass.
  EXPECT_GT(g.beyond_tail_start, 0);
  expect_mass(g.beyond_tail_start, 3.442619855899);
}

TEST(GaussianBattery, ChiSquareOverEquiprobableBins) {
  const GaussianSummary& g = gaussian_summary();
  const double expected =
      static_cast<double>(GaussianSummary::kDraws) / GaussianSummary::kBins;
  double chi2 = 0.0;
  for (long long c : g.bins) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // Upper 1e-4 quantile of chi-square with 63 degrees of freedom
  // (Wilson-Hilferty, z = 3.719).
  const double k = GaussianSummary::kBins - 1;
  const double c = 2.0 / (9.0 * k);
  const double limit = k * std::pow(1.0 - c + 3.719 * std::sqrt(c), 3.0);
  EXPECT_LT(chi2, limit);
}

bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(GaussianBattery, FillGaussianIsTheScalarStream) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1'000'003}}) {
    Xoshiro256 block_rng(n + 11), scalar_rng(n + 11);
    std::vector<double> block(n);
    block_rng.fill_gaussian(block);
    std::size_t mismatches = 0;
    for (double v : block)
      mismatches += bitwise_equal(v, scalar_rng.gaussian()) ? 0 : 1;
    EXPECT_EQ(mismatches, 0u) << "n = " << n;
    // Same state afterwards: the next draws agree too.
    EXPECT_TRUE(bitwise_equal(block_rng.gaussian(), scalar_rng.gaussian()))
        << "n = " << n;
    EXPECT_EQ(block_rng(), scalar_rng()) << "n = " << n;
  }
}

TEST(GaussianBattery, ForEachGaussianIsTheScalarStream) {
  // Crosses the stack-block boundary several times, with a ragged end.
  const std::size_t n = 1000;
  Xoshiro256 block_rng(5), scalar_rng(5);
  std::size_t mismatches = 0, visited = 0;
  ldpc::util::for_each_gaussian(block_rng, n, [&](std::size_t i, double g) {
    mismatches += i == visited && bitwise_equal(g, scalar_rng.gaussian())
                      ? 0
                      : 1;
    ++visited;
  });
  EXPECT_EQ(visited, n);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(block_rng(), scalar_rng());
}

TEST(GaussianBattery, BlockFadingMatchesScalarLoop) {
  using ldpc::channel::BlockFadingChannel;
  const double sigma = 0.7;
  const double amplitude = 1.0 / std::sqrt(2.0);
  Xoshiro256 bits(3);
  std::vector<double> samples(1000);
  for (double& x : samples) x = bits.bit() ? -amplitude : amplitude;
  for (const int coherence : {0, 1, 37, 300}) {
    std::vector<double> got = samples;
    Xoshiro256 rng(coherence + 100);
    BlockFadingChannel(sigma, coherence).transmit_demap(got, amplitude, rng);

    // Reference: the per-sample scalar loop (2 fade draws, then one noise
    // draw per sample, per coherence block).
    Xoshiro256 ref_rng(coherence + 100);
    const std::size_t block = coherence == 0
                                  ? samples.size()
                                  : static_cast<std::size_t>(coherence);
    const double scale = 2.0 * amplitude / (sigma * sigma);
    std::size_t mismatches = 0;
    for (std::size_t start = 0; start < samples.size(); start += block) {
      const double g1 = ref_rng.gaussian();
      const double g2 = ref_rng.gaussian();
      const double h = std::sqrt((g1 * g1 + g2 * g2) / 2.0);
      for (std::size_t i = start; i < std::min(start + block, samples.size());
           ++i) {
        const double y = h * samples[i] + sigma * ref_rng.gaussian();
        mismatches += bitwise_equal(got[i], scale * h * y) ? 0 : 1;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "coherence " << coherence;
    EXPECT_EQ(rng(), ref_rng()) << "coherence " << coherence;
  }
}

TEST(GaussianBattery, NandReadMatchesScalarLoop) {
  // read()'s two block fills (programming stream, then read stream) equal
  // the interleaved per-cell scalar draws: the streams are independent
  // generators. The substream tags and the bin rule are read()'s own.
  using namespace ldpc;
  const auto code =
      codes::make_code({codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  Xoshiro256 bits(17);
  std::vector<std::uint8_t> codeword(static_cast<std::size_t>(code.n()));
  for (auto& b : codeword) b = bits.bit() ? 1 : 0;
  const storage::NandReadLadder ladder(storage::default_ladder());
  const storage::NandLadderConfig& cfg = ladder.config();
  const std::uint64_t key = 0xC0FFEE;
  for (int rung = 0; rung < ladder.rungs(); ++rung) {
    const auto got = ladder.read(code, codeword, key, rung);
    const storage::ReadRung& r = cfg.rungs[static_cast<std::size_t>(rung)];
    std::vector<double> thresholds;
    if (r.levels == 2) {
      thresholds = {0.0};
    } else {
      for (int j = 0; j < r.levels - 1; ++j)
        thresholds.push_back(-r.sense_span + 2.0 * r.sense_span * (j + 1) /
                                                 static_cast<double>(r.levels));
    }
    const double sigma_tot = std::sqrt(cfg.program_sigma * cfg.program_sigma +
                                       r.read_sigma * r.read_sigma);
    const auto cdf = [&](double x) {
      return 0.5 * std::erfc(-x / (sigma_tot * std::sqrt(2.0)));
    };
    const auto bin_prob = [&](std::size_t k, double mu) {
      const double hi = k < thresholds.size() ? cdf(thresholds[k] - mu) : 1.0;
      const double lo = k > 0 ? cdf(thresholds[k - 1] - mu) : 0.0;
      return std::max(hi - lo, 1e-300);
    };
    Xoshiro256 program_rng(util::substream_seed(key, 0x4e50524f47ULL));
    Xoshiro256 read_rng(util::substream_seed(
        key, 0x4e52454144ULL + static_cast<std::uint64_t>(rung)));
    ASSERT_EQ(got.size(), codeword.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < codeword.size(); ++i) {
      const double s = codeword[i] ? -1.0 : 1.0;
      const double v = s + cfg.program_sigma * program_rng.gaussian();
      const double y = v + r.read_sigma * read_rng.gaussian();
      std::size_t bin = 0;
      while (bin < thresholds.size() && y > thresholds[bin]) ++bin;
      const double want =
          std::clamp(std::log(bin_prob(bin, 1.0)) -
                         std::log(bin_prob(bin, -1.0)),
                     -cfg.llr_clamp, cfg.llr_clamp);
      mismatches += bitwise_equal(got[i], want) ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0u) << "rung " << rung;
  }
}

TEST(Rng, BoundedStaysInRangeAndHitsAllValues) {
  Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.bounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, JumpProducesDisjointStream) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, BitIsRoughlyFair) {
  Xoshiro256 rng(21);
  int ones = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ones += rng.bit() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.01);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Xoshiro256 rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(ErrorCounter, RatesComputedCorrectly) {
  ErrorCounter c;
  c.add_frame(0, 100);
  c.add_frame(3, 100);
  EXPECT_EQ(c.frames(), 2u);
  EXPECT_EQ(c.frame_errors(), 1u);
  EXPECT_DOUBLE_EQ(c.ber(), 3.0 / 200.0);
  EXPECT_DOUBLE_EQ(c.fer(), 0.5);
}

TEST(ErrorCounter, MergeAccumulates) {
  ErrorCounter a, b;
  a.add_frame(1, 10);
  b.add_frame(0, 10);
  b.add_frame(2, 10);
  a.merge(b);
  EXPECT_EQ(a.frames(), 3u);
  EXPECT_EQ(a.bit_errors(), 3u);
  EXPECT_EQ(a.frame_errors(), 2u);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t("demo");
  t.header({"a", "bee"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("bee"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t;
  t.header({"x", "y"}).row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(ldpc::util::fmt_fixed(3.456, 2), "3.46");
  EXPECT_EQ(ldpc::util::fmt_group(12774), "12,774");
  EXPECT_EQ(ldpc::util::fmt_group(-1234567), "-1,234,567");
  EXPECT_EQ(ldpc::util::fmt_sci(0.000123), "1.23e-04");
}

TEST(Args, FlagFormsAndTypes) {
  const char* argv[] = {"prog", "pos1", "--iters", "10",
                        "--snr=2.5", "--name", "x", "--et"};
  Args args(8, argv, {"iters", "snr", "et", "name"});
  EXPECT_EQ(args.get_or("iters", 0LL), 10);
  EXPECT_DOUBLE_EQ(args.get_or("snr", 0.0), 2.5);
  EXPECT_TRUE(args.get_or("et", false));
  EXPECT_EQ(args.get_or("name", std::string{}), "x");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Args, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_THROW(Args(2, argv, {"known"}), std::invalid_argument);
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Args args(1, argv, {"x"});
  EXPECT_FALSE(args.has("x"));
  EXPECT_EQ(args.get_or("x", 7LL), 7);
}

// ---- substream seeding ------------------------------------------------------

TEST(SubstreamSeed, DistinctAcrossStreamsAndSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {0ULL, 1ULL, 2ULL, 0xDEADBEEFULL})
    for (std::uint64_t stream = 0; stream < 64; ++stream)
      seen.insert(ldpc::util::substream_seed(seed, stream));
  EXPECT_EQ(seen.size(), 4u * 64u);  // no collisions in this grid
}

TEST(SubstreamSeed, NearbyStreamsDecorrelated) {
  // The old `seed ^ (const * key)` point mix kept low-bit structure across
  // nearby keys; the SplitMix64 substream must not. Check that adjacent
  // streams differ in roughly half their bits.
  int total_bits = 0;
  for (std::uint64_t stream = 0; stream < 100; ++stream) {
    const auto a = ldpc::util::substream_seed(42, stream);
    const auto b = ldpc::util::substream_seed(42, stream + 1);
    total_bits += std::popcount(a ^ b);
  }
  EXPECT_GT(total_bits, 100 * 20);
  EXPECT_LT(total_bits, 100 * 44);
}

TEST(SubstreamSeed, SeedsIndependentGenerators) {
  Xoshiro256 a(ldpc::util::substream_seed(7, 0));
  Xoshiro256 b(ldpc::util::substream_seed(7, 1));
  int agree = 0;
  for (int i = 0; i < 64; ++i) agree += a() == b() ? 1 : 0;
  EXPECT_EQ(agree, 0);
}

}  // namespace
