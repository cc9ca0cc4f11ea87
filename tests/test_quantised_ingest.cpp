// Quantised-domain ingest suite: locks the fused quantise-into-stage
// deposit and the pre-quantised frame path, bit for bit.
//
// Three contracts:
//   1. core::deposit_transmitted_quant<T> emits, for every golden mode and
//      every NR rate-matched case (E != sendable, fillers, circular-buffer
//      wraparound repetition), exactly the int32 deposit's raw codes — at
//      int16 and int8, at every dispatch tier this host can run. The
//      narrow codes ARE the wide codes (eligible configs rail inside the
//      lane range), so equality is elementwise, not modulo saturation.
//   2. StreamBatchEngine::decode_quantised over sim::quantise_llrs frames
//      produces decisions / iteration counts / flags identical to
//      submitting the double LLRs, for every eligible lane type (both the
//      zero-copy alias at the stored type and the widening copy into a
//      wider engine) at every tier.
//   3. The QuantisedFrame container, the engine entry and the chip's
//      batched entry reject mismatched payloads loudly (wrong type view,
//      unknown lane tag, wrong length, wrong code).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/decoder.hpp"
#include "ldpc/core/golden.hpp"
#include "ldpc/core/layer_engine.hpp"
#include "ldpc/core/quantised_frame.hpp"
#include "ldpc/core/soa_scan.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/util/rng.hpp"

namespace {

using namespace ldpc;
namespace kernels = core::kernels;

core::DecoderConfig stream_config() {
  core::DecoderConfig cfg;
  cfg.max_iterations = 10;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.stop_on_codeword = true;
  cfg.early_termination.enabled = true;
  return cfg;
}

core::DecoderConfig strict_app_config() {
  core::DecoderConfig cfg = stream_config();
  cfg.app_extra_bits = 0;
  return cfg;
}

std::vector<kernels::Tier> available_tiers() {
  std::set<kernels::Tier> seen;
  for (const kernels::Tier t :
       {kernels::Tier::kScalar, kernels::Tier::kSse42, kernels::Tier::kAvx2,
        kernels::Tier::kAvx512})
    seen.insert(kernels::force_tier(t));
  kernels::clear_forced_tier();
  return {seen.begin(), seen.end()};
}

/// Mixed-severity transmitted-length LLR queue (as in the refill suite):
/// hard and easy frames interleaved so quantised-path decodes exercise
/// genuine mid-flight refill.
std::vector<double> make_queue(const codes::QCCode& code, int frames,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto encoder = enc::make_encoder(code);
  std::vector<std::uint8_t> info(
      static_cast<std::size_t>(code.payload_bits()));
  std::vector<double> llrs;
  llrs.reserve(static_cast<std::size_t>(code.transmitted_bits()) *
               static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const double ebn0_db = (rng() & 1) ? 4.5 : 1.0;
    const double sigma = channel::ebn0_to_sigma(
        ebn0_db, code.effective_rate(), channel::Modulation::kBpsk);
    enc::random_bits(rng, info);
    const auto cw = encoder->encode(info);
    const auto llr = sim::transmit_llrs(code, cw,
                                        channel::Modulation::kBpsk, sigma,
                                        rng);
    llrs.insert(llrs.end(), llr.begin(), llr.end());
  }
  return llrs;
}

/// Contract 1: the fused narrow deposit equals the int32 deposit
/// elementwise, per tier (the quantiser is tier-dispatched).
template <class T>
void check_fused_deposit(const codes::QCCode& code,
                         const core::DecoderConfig& cfg) {
  const core::DatapathTraits<std::int32_t> traits{cfg};
  const auto n = static_cast<std::size_t>(code.n());
  const auto llrs = make_queue(code, 3, 0xDEAD ^ code.n());
  const auto tx = static_cast<std::size_t>(code.transmitted_bits());

  std::vector<std::int32_t> wide(n);
  std::vector<T> narrow(n);
  std::vector<double> acc;
  for (const kernels::Tier tier : available_tiers()) {
    ASSERT_EQ(kernels::force_tier(tier), tier);
    for (std::size_t f = 0; f < 3; ++f) {
      const auto frame =
          std::span<const double>(llrs).subspan(f * tx, tx);
      core::deposit_transmitted_quant<std::int32_t>(
          code, traits, frame, std::span<std::int32_t>(wide), acc);
      core::deposit_transmitted_quant<T>(code, traits, frame,
                                         std::span<T>(narrow), acc);
      for (std::size_t v = 0; v < n; ++v)
        ASSERT_EQ(static_cast<std::int32_t>(narrow[v]), wide[v])
            << code.name() << " tier=" << to_string(tier) << " type="
            << to_string(kernels::lane_type_of<T>) << " frame " << f
            << " v=" << v;
    }
  }
  kernels::clear_forced_tier();
}

void expect_result_eq(const core::FixedDecodeResult& ref,
                      const core::FixedDecodeResult& got,
                      const std::string& context) {
  EXPECT_EQ(ref.bits, got.bits) << context << " (hard decisions)";
  EXPECT_EQ(ref.iterations, got.iterations) << context << " (iterations)";
  EXPECT_EQ(ref.converged, got.converged) << context;
  EXPECT_EQ(ref.early_terminated, got.early_terminated) << context;
  EXPECT_EQ(ref.datapath_cycles, got.datapath_cycles) << context;
}

/// Contract 2: decode_quantised(sim::quantise_llrs frames) ==
/// decode(double llrs), per tier and per eligible lane type — the
/// narrowest type takes the zero-copy alias, wider engines the widening
/// copy.
void check_quantised_ingest(
    const codes::QCCode& code, const core::DecoderConfig& cfg,
    std::initializer_list<kernels::LaneType> types) {
  const int frames = code.n() > 8000 ? 8 : 12;
  const auto tx = static_cast<std::size_t>(code.transmitted_bits());
  const auto llrs = make_queue(code, frames, 0xBEEF ^ code.n());

  std::vector<core::QuantisedFrame> quantised;
  std::vector<const core::QuantisedFrame*> ptrs;
  quantised.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    quantised.push_back(sim::quantise_llrs(
        code, cfg,
        std::span<const double>(llrs).subspan(
            static_cast<std::size_t>(f) * tx, tx)));
    EXPECT_EQ(quantised.back().type, core::narrowest_lane_type(cfg));
  }
  for (const auto& q : quantised) ptrs.push_back(&q);

  for (const kernels::Tier tier : available_tiers()) {
    for (const kernels::LaneType type : types) {
      ASSERT_EQ(kernels::force_tier(tier), tier);
      core::StreamBatchEngine engine(cfg, 0, type);
      engine.reconfigure(code);
      std::vector<core::FixedDecodeResult> ref(
          static_cast<std::size_t>(frames));
      engine.decode(llrs, {}, ref);
      std::vector<core::FixedDecodeResult> got(
          static_cast<std::size_t>(frames));
      engine.decode_quantised(ptrs, {}, got);
      for (int f = 0; f < frames; ++f)
        expect_result_eq(ref[static_cast<std::size_t>(f)],
                         got[static_cast<std::size_t>(f)],
                         code.name() + " tier=" + to_string(tier) +
                             " type=" + to_string(type) + " frame " +
                             std::to_string(f));
    }
  }
  kernels::clear_forced_tier();
}

class QuantisedIngest : public ::testing::TestWithParam<codes::CodeId> {};

TEST_P(QuantisedIngest, FusedDepositMatchesInt32Elementwise) {
  const auto code = codes::make_code(GetParam());
  check_fused_deposit<std::int16_t>(code, stream_config());
  check_fused_deposit<std::int8_t>(code, strict_app_config());
}

TEST_P(QuantisedIngest, EngineMatchesDoubleIngest) {
  const auto code = codes::make_code(GetParam());
  // Standard config: frames quantise at int16; the int16 engine aliases
  // them, the int32 engine widens them.
  check_quantised_ingest(
      code, stream_config(),
      {kernels::LaneType::kInt32, kernels::LaneType::kInt16});
}

TEST_P(QuantisedIngest, StrictAppInt8EngineMatchesDoubleIngest) {
  const auto code = codes::make_code(GetParam());
  // Strict 8-bit-APP config: frames quantise at int8 (the 4x-packed
  // alias) and also feed a widening int16 engine.
  check_quantised_ingest(
      code, strict_app_config(),
      {kernels::LaneType::kInt16, kernels::LaneType::kInt8});
}

INSTANTIATE_TEST_SUITE_P(AllModes, QuantisedIngest,
                         ::testing::ValuesIn(codes::all_modes()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

// The NR rate-matched cases: puncturing, fillers (which land exactly on
// the lane saturation point) and E > sendable wraparound repetition,
// whose repeat accumulation runs in the widened double accumulator before
// a single quantisation — the regression the fused deposit must not
// introduce.
class QuantisedIngestNrRateMatched
    : public ::testing::TestWithParam<core::golden::NrRateMatchedCase> {};

TEST_P(QuantisedIngestNrRateMatched, FusedDepositMatchesInt32Elementwise) {
  const auto& c = GetParam();
  const auto code =
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits);
  check_fused_deposit<std::int16_t>(code, stream_config());
  check_fused_deposit<std::int8_t>(code, strict_app_config());
}

TEST_P(QuantisedIngestNrRateMatched, EngineMatchesDoubleIngest) {
  const auto& c = GetParam();
  const auto code =
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits);
  check_quantised_ingest(
      code, stream_config(),
      {kernels::LaneType::kInt32, kernels::LaneType::kInt16});
  check_quantised_ingest(
      code, strict_app_config(),
      {kernels::LaneType::kInt16, kernels::LaneType::kInt8});
}

INSTANTIATE_TEST_SUITE_P(
    RateMatched, QuantisedIngestNrRateMatched,
    ::testing::ValuesIn(core::golden::nr_rate_matched_cases()),
    [](const auto& info) {
      return std::string(info.param.rate == codes::Rate::kR13 ? "BG1"
                                                              : "BG2") +
             "_z" + std::to_string(info.param.z) + "_E" +
             std::to_string(info.param.transmitted_bits) + "_F" +
             std::to_string(info.param.filler_bits);
    });

// Contract 3: loud rejection of mismatched payloads.
TEST(QuantisedFrame, TypedViewsValidate) {
  core::QuantisedFrame frame;
  EXPECT_TRUE(frame.empty());
  auto span = frame.emplace<std::int16_t>(kernels::LaneType::kInt16, 4);
  ASSERT_EQ(span.size(), 4u);
  EXPECT_EQ(frame.expected_bytes(), 8u);
  EXPECT_EQ(frame.bytes.size(), 8u);
  span[0] = -300;
  EXPECT_EQ(frame.as<std::int16_t>()[0], -300);
  EXPECT_THROW(frame.as<std::int8_t>(), std::invalid_argument);
  EXPECT_THROW(frame.as<std::int32_t>(), std::invalid_argument);
  EXPECT_THROW(
      frame.emplace<std::int8_t>(kernels::LaneType::kInt16, 4),
      std::invalid_argument);
  frame.bytes.resize(6);  // corrupted payload
  EXPECT_THROW(frame.as<std::int16_t>(), std::invalid_argument);
}

TEST(QuantisedFrame, EngineRejectsMismatchedFrames) {
  const auto code = codes::make_code(codes::all_modes().front());
  const auto cfg = stream_config();
  core::StreamBatchEngine engine(cfg);
  engine.reconfigure(code);

  const auto llrs = make_queue(code, 1, 0x5EED);
  core::QuantisedFrame good = sim::quantise_llrs(code, cfg, llrs);
  std::vector<core::FixedDecodeResult> results(1);
  std::vector<const core::QuantisedFrame*> ptrs(1);

  // Wrong codeword length.
  core::QuantisedFrame short_frame = good;
  short_frame.n -= 1;
  short_frame.bytes.resize(short_frame.expected_bytes());
  ptrs[0] = &short_frame;
  EXPECT_THROW(engine.decode_quantised(ptrs, {}, results),
               std::invalid_argument);

  // Truncated payload.
  core::QuantisedFrame truncated = good;
  truncated.bytes.pop_back();
  ptrs[0] = &truncated;
  EXPECT_THROW(engine.decode_quantised(ptrs, {}, results),
               std::invalid_argument);

  // Null frame pointer.
  ptrs[0] = nullptr;
  EXPECT_THROW(engine.decode_quantised(ptrs, {}, results),
               std::invalid_argument);

  // Unknown lane tag with a payload whose size matches it.
  core::QuantisedFrame bad_tag = good;
  bad_tag.type = static_cast<kernels::LaneType>(3);
  bad_tag.bytes.resize(bad_tag.expected_bytes());
  ptrs[0] = &bad_tag;
  EXPECT_THROW(engine.decode_quantised(ptrs, {}, results),
               std::invalid_argument);
  arch::DecoderChip chip(arch::ChipDimensions::universal(), cfg);
  chip.configure(code);
  EXPECT_THROW(chip.decode_batch_quantised(ptrs), std::invalid_argument);

  // The good frame decodes.
  ptrs[0] = &good;
  engine.decode_quantised(ptrs, {}, results);
  EXPECT_GE(results[0].iterations, 1);
}

TEST(QuantiseLlrs, RejectsBadInputs) {
  const auto code = codes::make_code(codes::all_modes().front());
  const auto llrs = make_queue(code, 1, 0x5EED);
  core::DecoderConfig float_cfg = stream_config();
  float_cfg.datapath = core::Datapath::kFloat;
  EXPECT_THROW(sim::quantise_llrs(code, float_cfg, llrs),
               std::invalid_argument);
  EXPECT_THROW(
      sim::quantise_llrs(code, stream_config(),
                         std::span<const double>(llrs).first(
                             llrs.size() - 1)),
      std::invalid_argument);
}

}  // namespace
