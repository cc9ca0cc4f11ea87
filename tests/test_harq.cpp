// HARQ link-layer suite: redundancy-version geometry, cross-round
// soft combining, the fading-channel models behind retransmission, and
// the closed-loop LinkSimulator.
//
// Contracts:
//   1. QCCode::rv_start places the 38.212-style k0 anchors (BG1
//      {0,17,33,56}/66, BG2 {0,13,25,43}/50, z-aligned) and
//      extract_transmitted at every rv equals the reference
//      tx_bit_index((k0 + i) % sendable) walk — including windows that
//      straddle the circular-buffer end, start next to the filler block,
//      and repeat past E > sendable.
//   2. Cross-round combining is accumulate-then-quantise: a
//      HarqSoftBuffer of rounds quantises (deposit_combined_quant at
//      int32/int16/int8, every dispatch tier) to exactly the int32
//      deposit_combined codes, and a single-rv0-round buffer reproduces
//      deposit_transmitted_quant byte for byte — round-1 HARQ is the
//      one-shot path, no special case. The buffer's run walk (rv 0-3,
//      fillers, punctured columns, E > sendable repetition) sums and
//      covers exactly what the per-position walk does.
//   3. Channel models: AwgnChannel::transmit_demap is the historical
//      noise stream; BlockFadingChannel is unit-power, per-block
//      constant, and deterministic per seed.
//   4. The closed loop: Es/N0-based cumulative energy accounting equals
//      the nominal one-shot Eb/N0 when every block delivers in round 1;
//      on a fading channel the round-2 combined FER beats the round-1
//      FER (the IR gain), combining beats not combining, and every
//      LinkPoint statistic is bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/golden.hpp"
#include "ldpc/core/harq.hpp"
#include "ldpc/core/layer_engine.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/harq_link.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/util/rng.hpp"

namespace {

using namespace ldpc;
namespace kernels = core::kernels;

std::vector<kernels::Tier> available_tiers() {
  std::set<kernels::Tier> seen;
  for (const kernels::Tier t :
       {kernels::Tier::kScalar, kernels::Tier::kSse42, kernels::Tier::kAvx2,
        kernels::Tier::kAvx512})
    seen.insert(kernels::force_tier(t));
  kernels::clear_forced_tier();
  return {seen.begin(), seen.end()};
}

core::DecoderConfig harq_config() {
  core::DecoderConfig cfg;
  cfg.max_iterations = 10;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.stop_on_codeword = true;
  cfg.early_termination.enabled = true;
  return cfg;
}

core::DecoderConfig strict_app_config() {
  core::DecoderConfig cfg = harq_config();
  cfg.app_extra_bits = 0;
  return cfg;
}

std::vector<std::uint8_t> random_codeword(const codes::QCCode& code,
                                          std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto encoder = enc::make_encoder(code);
  std::vector<std::uint8_t> info(
      static_cast<std::size_t>(code.payload_bits()));
  enc::random_bits(rng, info);
  return encoder->encode(info);
}

// ---------------------------------------------------------------------------
// Contract 1: redundancy-version geometry.

TEST(RvGeometry, Bg1AnchorsAreZAligned38212) {
  // BG1 sendable = 66z, so k0 = z * floor(num * 66z / (66z)) = num * z.
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52);
  EXPECT_EQ(code.rv_start(0), 0);
  EXPECT_EQ(code.rv_start(1), 17 * 52);
  EXPECT_EQ(code.rv_start(2), 33 * 52);
  EXPECT_EQ(code.rv_start(3), 56 * 52);
}

TEST(RvGeometry, Bg2AnchorsAreZAligned38212) {
  const auto code = codes::make_nr_code(codes::Rate::kR15, 36);
  EXPECT_EQ(code.rv_start(0), 0);
  EXPECT_EQ(code.rv_start(1), 13 * 36);
  EXPECT_EQ(code.rv_start(2), 25 * 36);
  EXPECT_EQ(code.rv_start(3), 43 * 36);
}

TEST(RvGeometry, ClassicCodesFallBackToQuarters) {
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  const int sendable = code.sendable_bits();
  EXPECT_EQ(code.rv_start(0), 0);
  for (int rv = 1; rv < 4; ++rv) {
    const int k0 = code.rv_start(rv);
    EXPECT_EQ(k0 % code.z(), 0) << "rv" << rv;
    EXPECT_EQ(k0, code.z() * (rv * sendable / (4 * code.z()))) << "rv" << rv;
  }
}

TEST(RvGeometry, RejectsOutOfRangeRv) {
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52);
  EXPECT_THROW(code.rv_start(-1), std::invalid_argument);
  EXPECT_THROW(code.rv_start(4), std::invalid_argument);
  codes::TransmissionScheme scheme = code.scheme();
  scheme.redundancy_version = 4;
  auto copy = code;
  EXPECT_THROW(copy.set_scheme(scheme), std::invalid_argument);
}

TEST(RvGeometry, NonZeroRvBreaksDegeneracy) {
  auto code = codes::make_nr_code(codes::Rate::kR13, 52);
  codes::TransmissionScheme scheme = code.scheme();
  ASSERT_FALSE(scheme.is_degenerate());  // NR schemes puncture
  const auto classic = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  codes::TransmissionScheme plain = classic.scheme();
  ASSERT_TRUE(plain.is_degenerate());
  plain.redundancy_version = 2;
  EXPECT_FALSE(plain.is_degenerate());
}

/// Reference extraction: the documented circular-buffer walk.
std::vector<std::uint8_t> reference_extract(const codes::QCCode& code,
                                            std::span<const std::uint8_t> cw,
                                            int rv) {
  const int sendable = code.sendable_bits();
  const int k0 = code.rv_start(rv);
  std::vector<std::uint8_t> tx(
      static_cast<std::size_t>(code.transmitted_bits()));
  for (int i = 0; i < code.transmitted_bits(); ++i)
    tx[static_cast<std::size_t>(i)] =
        cw[static_cast<std::size_t>(code.tx_bit_index((k0 + i) % sendable))];
  return tx;
}

TEST(RvExtraction, MatchesReferenceWalkOnEveryWindowShape) {
  // E chosen so the four rv windows cover: fits-before-end, straddles the
  // circular-buffer end, starts just past the filler block, and E >
  // sendable (wraparound repetition) — on both base graphs.
  struct Case {
    codes::Rate rate;
    int z;
    int e;
    int fillers;
  };
  const Case cases[] = {
      {codes::Rate::kR13, 52, 2600, 0},   // BG1, E < sendable
      {codes::Rate::kR13, 96, 5000, 120}, // BG1, fillers next to rv windows
      {codes::Rate::kR13, 36, 66 * 36 + 500, 0},  // BG1, E > sendable
      {codes::Rate::kR15, 36, 1500, 40},  // BG2, fillers
      {codes::Rate::kR15, 96, 6000, 0},   // BG2, E > sendable
      {codes::Rate::kR15, 52, 50 * 52, 0},  // BG2, E == sendable exactly
  };
  for (const Case& c : cases) {
    const auto code =
        codes::make_nr_code(c.rate, c.z, c.e, c.fillers);
    const auto cw = random_codeword(code, 0xABCDu ^ c.z);
    for (int rv = 0; rv < 4; ++rv) {
      // Straddle check is meaningful: at least one window must wrap.
      std::vector<std::uint8_t> tx(
          static_cast<std::size_t>(code.transmitted_bits()));
      code.extract_transmitted(cw, tx, rv);
      EXPECT_EQ(tx, reference_extract(code, cw, rv))
          << code.name() << " rv" << rv;
    }
    // At least one non-zero rv window straddles the buffer end for these
    // E values (k0 + E > sendable) — the boundary this suite exists for.
    bool straddles = false;
    for (int rv = 1; rv < 4; ++rv)
      straddles |= code.rv_start(rv) + code.transmitted_bits() >
                   code.sendable_bits();
    EXPECT_TRUE(straddles) << code.name();
  }
}

TEST(RvExtraction, SchemeRvDrivesTheDefaultOverload) {
  auto code = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
  const auto cw = random_codeword(code, 7);
  codes::TransmissionScheme scheme = code.scheme();
  scheme.redundancy_version = 2;
  code.set_scheme(scheme);
  std::vector<std::uint8_t> via_scheme(
      static_cast<std::size_t>(code.transmitted_bits()));
  code.extract_transmitted(cw, via_scheme);
  EXPECT_EQ(via_scheme, reference_extract(code, cw, 2));
}

// ---------------------------------------------------------------------------
// Contract 2: cross-round combining bit-identity.

/// Builds a buffer of `rounds` fading-channel rounds following the
/// default rv sequence and checks every lane type x tier emits the int32
/// codes elementwise; returns the int32 codes for further checks.
template <class T>
void check_combined_quant(const codes::QCCode& code,
                          const core::DecoderConfig& cfg,
                          const core::HarqSoftBuffer& soft,
                          std::span<const std::int32_t> wide) {
  const core::DatapathTraits<std::int32_t> traits{cfg};
  const auto n = static_cast<std::size_t>(code.n());
  std::vector<T> narrow(n);
  for (const kernels::Tier tier : available_tiers()) {
    ASSERT_EQ(kernels::force_tier(tier), tier);
    core::deposit_combined_quant<T>(code, traits, soft,
                                    std::span<T>(narrow));
    for (std::size_t v = 0; v < n; ++v)
      ASSERT_EQ(static_cast<std::int32_t>(narrow[v]), wide[v])
          << code.name() << " tier=" << to_string(tier)
          << " type=" << to_string(kernels::lane_type_of<T>) << " v=" << v;
  }
  kernels::clear_forced_tier();
}

class HarqCombining
    : public ::testing::TestWithParam<core::golden::NrRateMatchedCase> {};

TEST_P(HarqCombining, FusedNarrowLanesMatchInt32AtEveryTier) {
  const auto& c = GetParam();
  const auto code =
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits);
  const auto cw = random_codeword(code, 0xC0FFEEu ^ c.z);
  const double sigma = channel::esn0_to_sigma(-1.0,
                                              channel::Modulation::kBpsk);
  const auto chan = channel::make_channel(channel::ChannelKind::kRayleighBlock,
                                          sigma, 128);
  util::Xoshiro256 rng(99);

  core::HarqSoftBuffer soft;
  soft.reset(code);
  const int rv_seq[] = {0, 2, 3, 1};
  for (int r = 0; r < 3; ++r) {
    const auto llrs = sim::transmit_llrs(
        code, cw, channel::Modulation::kBpsk, *chan, rng, rv_seq[r]);
    soft.add_round(code, llrs, rv_seq[r]);

    // After every round: the generic int32 deposit is the reference...
    const core::DatapathTraits<std::int32_t> traits{harq_config()};
    std::vector<std::int32_t> wide(static_cast<std::size_t>(code.n()));
    core::deposit_combined(code, traits, soft,
                           std::span<std::int32_t>(wide));
    // ...and the fused narrow paths must equal it elementwise.
    check_combined_quant<std::int32_t>(code, harq_config(), soft, wide);
    check_combined_quant<std::int16_t>(code, harq_config(), soft, wide);

    const core::DatapathTraits<std::int32_t> strict{strict_app_config()};
    std::vector<std::int32_t> wide8(static_cast<std::size_t>(code.n()));
    core::deposit_combined(code, strict, soft,
                           std::span<std::int32_t>(wide8));
    check_combined_quant<std::int8_t>(code, strict_app_config(), soft,
                                      wide8);
  }
}

TEST_P(HarqCombining, SingleRv0RoundEqualsOneShotDeposit) {
  const auto& c = GetParam();
  const auto code =
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits);
  const auto cw = random_codeword(code, 0xBEEFu ^ c.z);
  const double sigma = channel::esn0_to_sigma(0.5,
                                              channel::Modulation::kBpsk);
  const channel::AwgnChannel chan(sigma);
  util::Xoshiro256 rng(11);
  const auto llrs = sim::transmit_llrs(code, cw, channel::Modulation::kBpsk,
                                       chan, rng, 0);

  const core::DatapathTraits<std::int32_t> traits{harq_config()};
  core::HarqSoftBuffer soft;
  soft.reset(code);
  soft.add_round(code, llrs, 0);

  const auto n = static_cast<std::size_t>(code.n());
  std::vector<std::int16_t> combined(n), oneshot(n);
  std::vector<double> acc;
  core::deposit_combined_quant<std::int16_t>(
      code, traits, soft, std::span<std::int16_t>(combined));
  core::deposit_transmitted_quant<std::int16_t>(
      code, traits, llrs, std::span<std::int16_t>(oneshot), acc);
  EXPECT_EQ(combined, oneshot) << code.name();

  // And the decoded result of the combined frame is the one-shot decode.
  core::ReconfigurableDecoder ref(code, harq_config());
  std::vector<std::int32_t> raw(n);
  core::deposit_combined(code, traits, soft, std::span<std::int32_t>(raw));
  const auto via_combined = ref.decode_raw(raw);
  const auto via_llrs = ref.decode(llrs);
  EXPECT_EQ(via_combined.bits, via_llrs.bits);
  EXPECT_EQ(via_combined.iterations, via_llrs.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    RateMatched, HarqCombining,
    ::testing::ValuesIn(core::golden::nr_rate_matched_cases()),
    [](const auto& info) {
      return std::string(info.param.rate == codes::Rate::kR13 ? "BG1"
                                                              : "BG2") +
             "_z" + std::to_string(info.param.z) + "_E" +
             std::to_string(info.param.transmitted_bits) + "_F" +
             std::to_string(info.param.filler_bits);
    });

TEST(HarqCombining, UncoveredPositionsStayExactZeroErasures) {
  // rv2 alone covers a window deep in the parity: everything outside it
  // (and the punctured columns, and nothing else) must read exact zero.
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
  const auto cw = random_codeword(code, 3);
  const double sigma = channel::esn0_to_sigma(0.0,
                                              channel::Modulation::kBpsk);
  const channel::AwgnChannel chan(sigma);
  util::Xoshiro256 rng(5);
  const auto llrs = sim::transmit_llrs(code, cw, channel::Modulation::kBpsk,
                                       chan, rng, 2);

  core::HarqSoftBuffer soft;
  soft.reset(code);
  soft.add_round(code, llrs, 2);
  const core::DatapathTraits<std::int32_t> traits{harq_config()};
  std::vector<std::int16_t> raw(static_cast<std::size_t>(code.n()));
  core::deposit_combined_quant<std::int16_t>(code, traits, soft,
                                             std::span<std::int16_t>(raw));
  std::vector<std::uint8_t> covered(static_cast<std::size_t>(code.n()));
  for (const auto& run : soft.covered())
    std::fill(covered.begin() + run.begin, covered.begin() + run.end, 1);
  long long uncovered = 0, nonzero_uncovered = 0;
  for (int v = 0; v < code.n(); ++v) {
    if (covered[static_cast<std::size_t>(v)]) continue;
    ++uncovered;
    if (raw[static_cast<std::size_t>(v)] != 0) ++nonzero_uncovered;
  }
  EXPECT_GT(uncovered, 0);  // rv2's window cannot cover the whole buffer
  EXPECT_EQ(nonzero_uncovered, 0);
}

TEST(HarqCombining, RunWalkMatchesThePerPositionReference) {
  // add_round walks each rv window as dense runs; the reference is the
  // per-position tx_bit_index((k0 + i) % sendable) walk. Sums must agree
  // bit for bit (same per-position addition order), the covered runs
  // must be exactly the reference coverage, and the combined deposit must
  // equal a per-position quantisation of the reference.
  std::vector<codes::QCCode> codes_under_test;
  for (const auto& c : core::golden::nr_rate_matched_cases())
    codes_under_test.push_back(codes::make_nr_code(
        c.rate, c.z, c.transmitted_bits, c.filler_bits));
  codes_under_test.push_back(codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24}));
  const std::vector<std::vector<int>> rv_sequences = {
      {0}, {1}, {2}, {3}, {0, 2, 3, 1}, {3, 3}, {2, 0}};
  const core::DatapathTraits<std::int32_t> traits{harq_config()};

  for (const auto& code : codes_under_test) {
    const auto n = static_cast<std::size_t>(code.n());
    const int e_bits = code.transmitted_bits();
    const int sendable = code.sendable_bits();
    for (const auto& rvs : rv_sequences) {
      SCOPED_TRACE(code.name() + " rounds=" + std::to_string(rvs.size()) +
                   " first rv=" + std::to_string(rvs[0]));
      util::Xoshiro256 rng(code.n() * 31u + rvs.size());
      core::HarqSoftBuffer soft;
      soft.reset(code);
      std::vector<double> acc(n, 0.0);
      std::vector<std::uint8_t> mask(n, 0);
      for (const int rv : rvs) {
        std::vector<double> tx(static_cast<std::size_t>(e_bits));
        for (double& x : tx) x = 8.0 * rng.uniform() - 4.0;
        soft.add_round(code, tx, rv);
        const int k0 = code.rv_start(rv);
        for (int i = 0; i < e_bits; ++i) {
          const auto v = static_cast<std::size_t>(
              code.tx_bit_index((k0 + i) % sendable));
          acc[v] += tx[static_cast<std::size_t>(i)];
          mask[v] = 1;
        }
      }
      EXPECT_EQ(soft.rounds(), static_cast<int>(rvs.size()));
      ASSERT_TRUE(std::equal(acc.begin(), acc.end(), soft.llrs().begin(),
                             soft.llrs().end()));

      std::vector<std::uint8_t> from_runs(n, 0);
      int prev_end = -1;
      for (const auto& run : soft.covered()) {
        EXPECT_LT(run.begin, run.end);
        EXPECT_GT(run.begin, prev_end) << "runs overlap or touch";
        prev_end = run.end;
        std::fill(from_runs.begin() + run.begin, from_runs.begin() + run.end,
                  1);
      }
      EXPECT_EQ(from_runs, mask);

      std::vector<std::int32_t> want(n, 0);
      for (std::size_t v = 0; v < n; ++v)
        if (mask[v]) want[v] = traits.quantize_llr(acc[v]);
      const int filler_start = code.k_info() - code.scheme().filler_bits;
      for (int f = 0; f < code.scheme().filler_bits; ++f)
        want[static_cast<std::size_t>(filler_start + f)] =
            traits.filler_value();
      std::vector<std::int16_t> fused(n);
      core::deposit_combined_quant<std::int16_t>(
          code, traits, soft, std::span<std::int16_t>(fused));
      EXPECT_TRUE(std::equal(want.begin(), want.end(), fused.begin()));
      // The generic (double-datapath) deposit walks the same runs.
      const core::DatapathTraits<double> exact{harq_config()};
      std::vector<double> generic(n);
      core::deposit_combined(code, exact, soft, std::span<double>(generic));
      for (std::size_t v = 0; v < n; ++v) {
        const bool filler = static_cast<int>(v) >= filler_start &&
                            static_cast<int>(v) <
                                filler_start + code.scheme().filler_bits;
        const double expect = filler    ? exact.filler_value()
                              : mask[v] ? exact.quantize_llr(acc[v])
                                        : 0.0;
        ASSERT_EQ(generic[v], expect) << "v=" << v;
      }
    }
  }
}

TEST(RvExtraction, TransmitWalkEqualsExtractModulateDemap) {
  // sim::transmit_llrs walks the transmit index map itself; it must equal
  // extract_transmitted -> modulate -> transmit_demap on the same noise
  // stream for every rv window shape (fillers, wraparound repetition) and
  // both modulations, and a degenerate scheme transmits the whole
  // codeword in order.
  struct Case {
    codes::Rate rate;
    int z;
    int e;
    int fillers;
  };
  const Case cases[] = {
      {codes::Rate::kR13, 96, 5000, 120},          // BG1, fillers
      {codes::Rate::kR13, 36, 66 * 36 + 500, 0},   // BG1, E > sendable
      {codes::Rate::kR15, 36, 1500, 40},           // BG2, fillers
  };
  const channel::AwgnChannel chan(0.9);
  for (const Case& c : cases) {
    const auto code = codes::make_nr_code(c.rate, c.z, c.e, c.fillers);
    const auto cw = random_codeword(code, 0x7A5u ^ c.z);
    for (const auto mod :
         {channel::Modulation::kBpsk, channel::Modulation::kQpsk}) {
      for (int rv = 0; rv < 4; ++rv) {
        std::vector<std::uint8_t> tx(
            static_cast<std::size_t>(code.transmitted_bits()));
        code.extract_transmitted(cw, tx, rv);
        util::Xoshiro256 a(rv + 1), b(rv + 1);
        const auto want = chan.transmit_demap(channel::modulate(tx, mod), a);
        EXPECT_EQ(sim::transmit_llrs(code, cw, mod, chan, b, rv), want)
            << code.name() << " rv" << rv;
      }
    }
  }
  const auto classic = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  const auto cw = random_codeword(classic, 5);
  util::Xoshiro256 a(3), b(3);
  const auto want = chan.transmit_demap(
      channel::modulate(cw, channel::Modulation::kBpsk), a);
  EXPECT_EQ(sim::transmit_llrs(classic, cw, channel::Modulation::kBpsk, 0.9,
                               b),
            want);
}

// ---------------------------------------------------------------------------
// Contract 3: channel models.

TEST(Channels, AwgnTransmitDemapIsTheHistoricalStream) {
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  const auto cw = random_codeword(code, 21);
  const double sigma = 0.8;
  util::Xoshiro256 a(42), b(42);
  const auto legacy = sim::transmit_llrs(code, cw,
                                         channel::Modulation::kBpsk, sigma,
                                         a);
  const channel::AwgnChannel chan(sigma);
  const auto via_channel = sim::transmit_llrs(
      code, cw, channel::Modulation::kBpsk, chan, b, 0);
  EXPECT_EQ(legacy, via_channel);  // bit-identical doubles, same rng walk
}

TEST(Channels, BlockFadingIsPerBlockConstantAndDeterministic) {
  const double sigma = 0.4;
  const int coherence = 32;
  channel::BlockFadingChannel chan(sigma, coherence);
  channel::ModulatedFrame frame;
  frame.amplitude = 1.0;
  frame.samples.assign(128, 1.0);  // all-one symbols expose h directly
  util::Xoshiro256 rng1(9), rng2(9);
  const auto llr1 = chan.transmit_demap(frame, rng1);
  const auto llr2 = chan.transmit_demap(frame, rng2);
  EXPECT_EQ(llr1, llr2);  // deterministic per seed

  // Against a noise-free channel the LLR of block b is scale * h_b^2 *
  // sample: constant within a coherence block, varying across blocks.
  channel::BlockFadingChannel clean(1e-9, coherence);
  util::Xoshiro256 rng3(9);
  const auto pure = clean.transmit_demap(frame, rng3);
  std::set<long long> distinct;
  for (std::size_t b = 0; b < pure.size(); b += coherence) {
    for (std::size_t i = 1; i < static_cast<std::size_t>(coherence); ++i)
      EXPECT_NEAR(pure[b + i] / pure[b], 1.0, 1e-6);  // residual 1e-9 noise
    distinct.insert(std::llround(pure[b] / pure[0] * 1e6));
  }
  EXPECT_GT(distinct.size(), 1u);  // fades actually vary across blocks
}

TEST(Channels, BlockFadingIsUnitPower) {
  // E[h^2] = 1 by construction; a long average over fades confirms the
  // normalisation (no hidden SNR shift vs AWGN).
  channel::BlockFadingChannel clean(1e-12, 1);
  channel::ModulatedFrame frame;
  frame.amplitude = 1.0;
  frame.samples.assign(20000, 1.0);
  util::Xoshiro256 rng(123);
  const auto llr = clean.transmit_demap(frame, rng);
  // llr_i = scale * h_i^2 with scale = 2 a / sigma^2; normalise it out.
  const double scale = 2.0 / (1e-12 * 1e-12);
  double mean_h2 = 0.0;
  for (double l : llr) mean_h2 += l / scale;
  mean_h2 /= static_cast<double>(llr.size());
  EXPECT_NEAR(mean_h2, 1.0, 0.05);
}

TEST(Channels, FactoryBuildsEveryKind) {
  const double sigma = 0.7;
  const auto awgn = channel::make_channel(channel::ChannelKind::kAwgn,
                                          sigma, 0);
  const auto block = channel::make_channel(
      channel::ChannelKind::kRayleighBlock, sigma, 64);
  const auto iid = channel::make_channel(channel::ChannelKind::kRayleighIid,
                                         sigma, 0);
  EXPECT_DOUBLE_EQ(awgn->sigma(), sigma);
  EXPECT_DOUBLE_EQ(block->sigma(), sigma);
  EXPECT_DOUBLE_EQ(iid->sigma(), sigma);
}

TEST(Channels, Esn0IsRateFree) {
  // Es/N0 per transmitted coded bit: sigma must not depend on any code
  // rate, and equals ebn0_to_sigma at rate 1.
  const double db = 2.5;
  EXPECT_DOUBLE_EQ(
      channel::esn0_to_sigma(db, channel::Modulation::kBpsk),
      channel::ebn0_to_sigma(db, 1.0, channel::Modulation::kBpsk));
}

// ---------------------------------------------------------------------------
// Contract 4: the closed loop.

TEST(McsPolicy, StepsDownOnFailureUpAfterStreak) {
  sim::McsPolicy policy(3, {.up_after_acks = 2, .initial_mode = 1});
  EXPECT_EQ(policy.mode(), 1);
  policy.report(false, 4);  // delivery failure: step down
  EXPECT_EQ(policy.mode(), 0);
  policy.report(true, 2);  // delivered on retransmission: hold
  EXPECT_EQ(policy.mode(), 0);
  policy.report(true, 1);
  policy.report(true, 1);  // two clean first-round ACKs: step up
  EXPECT_EQ(policy.mode(), 1);
  policy.report(true, 1);
  policy.report(true, 1);
  EXPECT_EQ(policy.mode(), 2);
  policy.report(true, 1);
  policy.report(true, 1);
  EXPECT_EQ(policy.mode(), 2);  // already at the top
}

sim::HarqConfig base_link_config() {
  sim::HarqConfig cfg;
  cfg.seed = 7;
  cfg.users = 4;
  cfg.blocks_per_user = 32;
  cfg.max_rounds = 3;
  cfg.threads = 1;
  return cfg;
}

TEST(LinkSimulator, CumulativeEnergyEqualsNominalEbn0WhenOneShot) {
  // High Es/N0, AWGN, max_rounds = 1: every block delivers first try, so
  // tx_bits / payload_bits = 1 / effective_rate exactly and the
  // cumulative Eb/N0 must recover the classic one-shot value.
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
  sim::HarqConfig cfg = base_link_config();
  cfg.max_rounds = 1;
  cfg.blocks_per_user = 8;
  sim::LinkSimulator link({&code}, harq_config(), cfg);
  const double esn0 = 6.0;
  const auto point = link.run_point(esn0);
  ASSERT_EQ(point.delivered, point.blocks);
  EXPECT_EQ(point.rounds[0].failures, 0);
  const double nominal =
      esn0 - 10.0 * std::log10(code.effective_rate());
  EXPECT_NEAR(point.cumulative_ebn0_db(), nominal, 1e-9);
  EXPECT_NEAR(point.goodput(), code.effective_rate(), 1e-12);
}

TEST(LinkSimulator, RetransmissionsRaiseCumulativeEnergy) {
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
  sim::HarqConfig cfg = base_link_config();
  cfg.channel = channel::ChannelKind::kRayleighBlock;
  sim::LinkSimulator link({&code}, harq_config(), cfg);
  const double esn0 = 3.0;
  const auto point = link.run_point(esn0);
  ASSERT_GT(point.rounds[1].attempts, 0);  // some NACKs happened
  const double nominal =
      esn0 - 10.0 * std::log10(code.effective_rate());
  // Every retransmitted block spends extra energy per delivered bit.
  EXPECT_GT(point.cumulative_ebn0_db(), nominal);
  EXPECT_LT(point.goodput(), code.effective_rate());
}

TEST(LinkSimulator, IrCombiningBeatsRound1OnFading) {
  // The acceptance lock: at a fixed Es/N0 on the block-fading channel the
  // round-2 (combined) residual FER is strictly below the round-1 FER.
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
  sim::HarqConfig cfg = base_link_config();
  cfg.channel = channel::ChannelKind::kRayleighBlock;
  cfg.blocks_per_user = 64;
  sim::LinkSimulator link({&code}, harq_config(), cfg);
  const auto point = link.run_point(1.0);
  const auto& r = point.rounds;
  ASSERT_GT(r[0].failures, 10);  // enough NACKs to measure round 2
  EXPECT_EQ(r[1].attempts, r[0].failures);
  EXPECT_LT(r[1].residual_fer(), r[0].residual_fer());
}

TEST(LinkSimulator, CombiningBeatsSelfDecodingRetransmissions) {
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
  sim::HarqConfig cfg = base_link_config();
  cfg.channel = channel::ChannelKind::kRayleighBlock;
  cfg.blocks_per_user = 64;
  sim::LinkSimulator with(std::vector<const codes::QCCode*>{&code},
                          harq_config(), cfg);
  cfg.combine = false;
  sim::LinkSimulator without(std::vector<const codes::QCCode*>{&code},
                             harq_config(), cfg);
  const auto combined = with.run_point(1.0);
  const auto solo = without.run_point(1.0);
  // Same channel realisations (identical seeding), so the comparison is
  // paired: combining can only help.
  EXPECT_GT(combined.delivered, solo.delivered);
  EXPECT_GT(combined.goodput(), solo.goodput());
}

TEST(LinkSimulator, BitIdenticalAcrossThreadCounts) {
  const auto code = codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40);
  sim::HarqConfig cfg = base_link_config();
  cfg.channel = channel::ChannelKind::kRayleighBlock;
  cfg.users = 6;
  cfg.blocks_per_user = 16;
  sim::LinkSimulator one({&code}, harq_config(), cfg);
  cfg.threads = 4;
  sim::LinkSimulator four({&code}, harq_config(), cfg);
  const auto a = one.run_point(2.0);
  const auto b = four.run_point(2.0);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.undetected, b.undetected);
  EXPECT_EQ(a.tx_bits_sent, b.tx_bits_sent);
  EXPECT_EQ(a.payload_bits_delivered, b.payload_bits_delivered);
  EXPECT_EQ(a.info_errors.bit_errors(), b.info_errors.bit_errors());
  EXPECT_EQ(a.info_errors.frame_errors(), b.info_errors.frame_errors());
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].attempts, b.rounds[r].attempts);
    EXPECT_EQ(a.rounds[r].failures, b.rounds[r].failures);
  }
  EXPECT_DOUBLE_EQ(a.rounds_to_ack.mean(), b.rounds_to_ack.mean());
  EXPECT_DOUBLE_EQ(a.iterations.mean(), b.iterations.mean());
}

TEST(LinkSimulator, McsAdaptationTracksTheLadder) {
  // Two-mode ladder: robust low-rate BG2 first, aggressive BG1 second.
  const auto robust = codes::make_nr_code(codes::Rate::kR15, 36, 2000, 0);
  const auto aggressive =
      codes::make_nr_code(codes::Rate::kR13, 36, 2600, 0);
  sim::HarqConfig cfg = base_link_config();
  cfg.adapt_mcs = true;
  cfg.mcs.up_after_acks = 2;
  cfg.users = 2;
  cfg.blocks_per_user = 24;
  sim::LinkSimulator link({&robust, &aggressive}, harq_config(), cfg);
  // Clean channel: the policy should climb to (and deliver on) the
  // aggressive mode; goodput must beat the robust mode's ceiling.
  const auto point = link.run_point(5.0);
  EXPECT_EQ(point.delivered, point.blocks);
  EXPECT_GT(point.goodput(), robust.effective_rate());
}

}  // namespace
