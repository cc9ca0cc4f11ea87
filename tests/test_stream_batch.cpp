// Refill-equivalence suite: locks the continuous lane-refill engine
// (core::StreamBatchEngine) against the scalar engine, bit for bit.
//
// The contract under test: streaming a shuffled, mixed-iteration queue of
// frames through the refill loop — lanes retiring at different iterations,
// freshly deposited frames sharing vectors with half-decoded neighbours,
// dead lanes evolving past the queue's end — produces per-frame hard
// decisions, iteration counts, convergence/ET flags and datapath cycles
// IDENTICAL to decoding each frame alone on the scalar LayerEngine. And it
// must hold across the whole kernel matrix: every SIMD dispatch tier this
// host can run (scalar, SSE4.2, AVX2, AVX-512 — forced in turn via the
// kernels test hooks), every lane ELEMENT TYPE the config's rails admit
// (int32 and int16 for the standard configs; int8 for the strict
// 8-bit-APP config, checked against its own re-derived scalar golden), at
// each tier's lane width — because a tier or type that drifts by one
// saturation point or min-scan tie would silently corrupt
// every batched consumer (sim workers, chip bursts, the stream scheduler
// farm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string>

#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/base_matrix.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/crc.hpp"
#include "ldpc/core/decoder.hpp"
#include "ldpc/core/golden.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/core/soa_scan.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/util/rng.hpp"

namespace {

using namespace ldpc;
namespace kernels = core::kernels;

// Mixed-iteration decode config: early termination AND codeword stopping
// on, so frame iteration counts spread across 1..max and lanes retire at
// genuinely different times (the whole point of the refill engine).
core::DecoderConfig stream_config() {
  core::DecoderConfig cfg;
  cfg.max_iterations = 10;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.stop_on_codeword = true;
  cfg.early_termination.enabled = true;
  return cfg;
}

// The strict 8-bit-APP configuration (the paper's literal datapath): APP
// words saturate at the message rails, so every value fits an int8 lane.
core::DecoderConfig strict_app_config() {
  core::DecoderConfig cfg = stream_config();
  cfg.app_extra_bits = 0;
  return cfg;
}

/// The dispatch tiers this host can actually execute, deduplicated
/// (force_tier clamps to the CPUID ceiling, so on an SSE-only host all
/// four requests collapse to {scalar, sse42}).
std::vector<kernels::Tier> available_tiers() {
  std::set<kernels::Tier> seen;
  for (const kernels::Tier t :
       {kernels::Tier::kScalar, kernels::Tier::kSse42, kernels::Tier::kAvx2,
        kernels::Tier::kAvx512})
    seen.insert(kernels::force_tier(t));
  kernels::clear_forced_tier();
  return {seen.begin(), seen.end()};
}

/// A shuffled mixed-severity frame queue: hard (low SNR, decodes run to
/// the iteration cap) and easy (high SNR, ET/codeword-stop after a few
/// iterations) frames interleaved in a seed-dependent order, transmitted
/// through the code's scheme (so NR puncturing / fillers / rate matching
/// are exercised too). With a `crc`, the even frames' payloads carry it
/// in their tail (crc_append) and the odd frames' tails stay random, so a
/// CRC-gated decoder both accepts and vetoes stops.
std::vector<double> make_queue(const codes::QCCode& code, int frames,
                               std::uint64_t seed,
                               core::FrameCrc crc = core::FrameCrc::kNone) {
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
    if (f % 2 == 0) core::crc_append(crc, info);
    const auto cw = encoder->encode(info);
    const auto llr = sim::transmit_llrs(code, cw,
                                        channel::Modulation::kBpsk, sigma,
                                        rng);
    llrs.insert(llrs.end(), llr.begin(), llr.end());
  }
  return llrs;
}

void expect_result_eq(const core::FixedDecodeResult& ref,
                      const core::FixedDecodeResult& got,
                      const std::string& context) {
  EXPECT_EQ(ref.bits, got.bits) << context << " (hard decisions)";
  EXPECT_EQ(ref.iterations, got.iterations) << context << " (iterations)";
  EXPECT_EQ(ref.converged, got.converged) << context;
  EXPECT_EQ(ref.early_terminated, got.early_terminated) << context;
  EXPECT_EQ(ref.datapath_cycles, got.datapath_cycles) << context;
  EXPECT_EQ(ref.crc_ok, got.crc_ok) << context;
  EXPECT_EQ(ref.crc_repaired, got.crc_repaired) << context;
}

/// The core check: scalar per-frame reference under `cfg` vs the refill
/// engine over the same queue, at every available tier (at that tier's lane
/// width) and every lane type in `types` (each must be eligible for `cfg`).
/// The queue is make_queue's unless `queue` holds one (frame-major,
/// transmitted length, 20 frames).
void check_refill_equivalence(
    const codes::QCCode& code, const core::DecoderConfig& cfg,
    std::initializer_list<kernels::LaneType> types,
    const std::vector<double>& queue = {}) {
  // Large codes decode slower; a 10-frame queue still refills the widest
  // engine while keeping the full-registry sweep affordable.
  const int frames = !queue.empty() ? 20 : code.n() > 8000 ? 10 : 20;
  const auto tx = static_cast<std::size_t>(code.transmitted_bits());
  const auto llrs =
      !queue.empty() ? queue
                     : make_queue(code, frames, 0xC0FFEE ^ code.n(),
                                  cfg.frame_crc);
  ASSERT_EQ(llrs.size(), tx * static_cast<std::size_t>(frames));

  core::ReconfigurableDecoder scalar(code, cfg);
  std::vector<core::FixedDecodeResult> ref;
  ref.reserve(static_cast<std::size_t>(frames));
  std::set<int> iters_seen;
  for (int f = 0; f < frames; ++f) {
    ref.push_back(scalar.decode(
        std::span<const double>(llrs).subspan(
            static_cast<std::size_t>(f) * tx, tx)));
    iters_seen.insert(ref.back().iterations);
  }
  // The queue must be genuinely mixed-iteration, otherwise this test
  // would not exercise mid-flight refill at all.
  EXPECT_GE(iters_seen.size(), 2u) << code.name();
  if (cfg.frame_crc != core::FrameCrc::kNone) {
    // The CRC gate must both let stops through and veto some (a frame
    // whose random tail fails the CRC stops later than it would without
    // the gate), or the gate would go untested.
    core::DecoderConfig ungated_cfg = cfg;
    ungated_cfg.frame_crc = core::FrameCrc::kNone;
    core::ReconfigurableDecoder ungated(code, ungated_cfg);
    int passed = 0, vetoed = 0;
    for (int f = 0; f < frames; ++f) {
      const auto r = ungated.decode(std::span<const double>(llrs).subspan(
          static_cast<std::size_t>(f) * tx, tx));
      const auto& g = ref[static_cast<std::size_t>(f)];
      if (r.early_terminated)
        ++(r.iterations == g.iterations ? passed : vetoed);
    }
    EXPECT_GE(passed, 1) << code.name();
    EXPECT_GE(vetoed, 1) << code.name();
  }

  for (const kernels::Tier tier : available_tiers()) {
    for (const kernels::LaneType type : types) {
      ASSERT_EQ(kernels::force_tier(tier), tier);
      core::StreamBatchEngine engine(cfg, type);
      ASSERT_EQ(engine.tier(), tier);
      ASSERT_EQ(engine.lane_type(), type);
      ASSERT_EQ(engine.lanes(), kernels::tier_lanes(tier, type));
      engine.reconfigure(code);
      std::vector<core::FixedDecodeResult> got(
          static_cast<std::size_t>(frames));
      engine.decode(llrs, {}, got);
      for (int f = 0; f < frames; ++f)
        expect_result_eq(ref[static_cast<std::size_t>(f)],
                         got[static_cast<std::size_t>(f)],
                         code.name() + " tier=" + to_string(tier) +
                             " type=" + to_string(type) + " lanes=" +
                             std::to_string(engine.lanes()) + " frame " +
                             std::to_string(f));
    }
  }
  kernels::clear_forced_tier();
}

// ET-only stopping (the DecoderConfig default's rule, and the serving
// and simulator configs'): no codeword stop, so a lane retires on an ET
// fire or at the iteration cap, and the engine runs its codeword scan only
// on those passes. The scan's masks and verdict must still equal the
// scalar engine's per-frame decisions and is_codeword.
core::DecoderConfig et_only_config() {
  core::DecoderConfig cfg = stream_config();
  cfg.stop_on_codeword = false;
  return cfg;
}

// ET-only plus the CRC-aided stop gate and the bounded flip fallback: an
// ET stop on a frame whose payload CRC fails is vetoed, and a frame at
// the cap gets up to 4 single-bit repairs.
core::DecoderConfig et_only_crc_config() {
  core::DecoderConfig cfg = et_only_config();
  cfg.frame_crc = core::FrameCrc::kCrc16;
  cfg.crc_flip_budget = 4;
  return cfg;
}

/// Runs `cfg` and its strict 8-bit-APP twin through the whole matrix:
/// int32 and int16 lanes under the standard rails, int8 under the strict
/// ones.
void check_refill_equivalence_all_types(const codes::QCCode& code,
                                        core::DecoderConfig cfg) {
  check_refill_equivalence(
      code, cfg, {kernels::LaneType::kInt32, kernels::LaneType::kInt16});
  cfg.app_extra_bits = 0;
  check_refill_equivalence(code, cfg, {kernels::LaneType::kInt8});
}

class RefillEquivalence : public ::testing::TestWithParam<codes::CodeId> {};

TEST_P(RefillEquivalence, MatchesScalarAtEveryTierTypeAndLaneWidth) {
  check_refill_equivalence(
      codes::make_code(GetParam()), stream_config(),
      {kernels::LaneType::kInt32, kernels::LaneType::kInt16});
}

TEST_P(RefillEquivalence, StrictAppInt8MatchesRederivedScalar) {
  // int8 lanes need the strict 8-bit-APP config (rails +/-127); the scalar
  // golden is re-derived under the same config, so this locks the int8
  // datapath — saturating byte arithmetic, byte min-scan, byte argmin —
  // against the int32 scalar arithmetic bit for bit.
  check_refill_equivalence(codes::make_code(GetParam()),
                           strict_app_config(),
                           {kernels::LaneType::kInt8});
}

/// gtest parameter name of a mode: its name with non-alphanumerics as '_'.
std::string mode_param_name(
    const ::testing::TestParamInfo<codes::CodeId>& info) {
  std::string n = to_string(info.param);
  for (char& c : n)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllModes, RefillEquivalence,
                         ::testing::ValuesIn(codes::all_modes()),
                         mode_param_name);

// The stopping-pass configs on one mode per standard (the all-mode sweep
// above already dominates the sanitizer job's time).
class RefillEquivalenceEtOnly : public ::testing::TestWithParam<codes::CodeId> {
};

TEST_P(RefillEquivalenceEtOnly, MatchesScalarWithoutCodewordStop) {
  check_refill_equivalence_all_types(codes::make_code(GetParam()),
                                     et_only_config());
}

TEST_P(RefillEquivalenceEtOnly, MatchesScalarUnderTheCrcGate) {
  check_refill_equivalence_all_types(codes::make_code(GetParam()),
                                     et_only_crc_config());
}

INSTANTIATE_TEST_SUITE_P(
    OnePerStandard, RefillEquivalenceEtOnly,
    ::testing::Values(
        codes::CodeId{codes::Standard::kWlan80211n, codes::Rate::kR12, 81},
        codes::CodeId{codes::Standard::kWimax80216e, codes::Rate::kR12, 96},
        codes::CodeId{codes::Standard::kDmbT, codes::Rate::kR35, 127},
        codes::CodeId{codes::Standard::kNr5g, codes::Rate::kR13, 52}),
    mode_param_name);

// The NR rate-matched golden cases (E != sendable, fillers): the per-lane
// deposit on refill must reproduce the scalar deposit for non-degenerate
// schemes too — including the narrowing deposit of the int16/int8 lanes
// (filler rails land at the APP maximum, the exact lane saturation point).
class RefillEquivalenceNrRateMatched
    : public ::testing::TestWithParam<core::golden::NrRateMatchedCase> {};

TEST_P(RefillEquivalenceNrRateMatched,
       MatchesScalarAtEveryTierTypeAndLaneWidth) {
  const auto& c = GetParam();
  check_refill_equivalence(
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits),
      stream_config(),
      {kernels::LaneType::kInt32, kernels::LaneType::kInt16});
}

TEST_P(RefillEquivalenceNrRateMatched, StrictAppInt8MatchesRederivedScalar) {
  const auto& c = GetParam();
  check_refill_equivalence(
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits),
      strict_app_config(), {kernels::LaneType::kInt8});
}

TEST_P(RefillEquivalenceNrRateMatched, MatchesScalarWithoutCodewordStop) {
  const auto& c = GetParam();
  check_refill_equivalence_all_types(
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits),
      et_only_config());
}

TEST_P(RefillEquivalenceNrRateMatched, MatchesScalarUnderTheCrcGate) {
  const auto& c = GetParam();
  check_refill_equivalence_all_types(
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits),
      et_only_crc_config());
}

INSTANTIATE_TEST_SUITE_P(
    RateMatched, RefillEquivalenceNrRateMatched,
    ::testing::ValuesIn(core::golden::nr_rate_matched_cases()),
    [](const auto& info) {
      return std::string(info.param.rate == codes::Rate::kR13 ? "BG1"
                                                              : "BG2") +
             "_z" + std::to_string(info.param.z) + "_E" +
             std::to_string(info.param.transmitted_bits) + "_F" +
             std::to_string(info.param.filler_bits);
    });

/// A synthetic code whose layers take the layer kernels' runtime-degree
/// body: 3 x 26 blocks at z = 24 with layer degrees 12, 25 and 5 (12 and 25
/// lie outside the registered modes' degree set, 5 inside it), shifts from
/// a fixed LCG.
codes::QCCode off_registry_degree_code() {
  constexpr int kCols = 26, kZ = 24;
  std::vector<int> entries(3 * kCols, codes::kZeroBlock);
  std::uint32_t lcg = 12345;
  const auto shift = [&lcg] {
    lcg = lcg * 1664525u + 1013904223u;
    return static_cast<int>((lcg >> 8) % kZ);
  };
  for (int c = 0; c < 12; ++c) entries[c] = shift();
  for (int c = 0; c < kCols; ++c)
    if (c != 10) entries[kCols + c] = shift();
  for (const int c : {10, 12, 15, 20, 25}) entries[2 * kCols + c] = shift();
  return codes::QCCode(codes::BaseMatrix(3, kCols, std::move(entries)), kZ,
                       "synthetic deg 12/25/5");
}

/// 20 frames of the all-zero codeword (a codeword of every code, so no
/// encoder is needed) over BPSK + AWGN, each at 4.5 or 1.0 dB Eb/N0 by a
/// seeded coin, so stops spread over the iterations.
std::vector<double> zero_codeword_queue(const codes::QCCode& code,
                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::vector<std::uint8_t> zeros(static_cast<std::size_t>(code.n()));
  std::vector<double> llrs;
  for (int f = 0; f < 20; ++f) {
    const double sigma = channel::ebn0_to_sigma((rng() & 1) ? 4.5 : 1.0,
                                                code.rate(),
                                                channel::Modulation::kBpsk);
    auto mod = channel::modulate(zeros, channel::Modulation::kBpsk);
    channel::AwgnChannel(sigma).transmit(mod.samples, rng);
    const auto llr = channel::demap_llr(mod, sigma);
    llrs.insert(llrs.end(), llr.begin(), llr.end());
  }
  return llrs;
}

TEST(StreamBatchEngine, LayerDegreesOutsideTheRegisteredSetMatchScalar) {
  const codes::QCCode code = off_registry_degree_code();
  ASSERT_EQ(code.layers()[0].size(), 12u);
  ASSERT_EQ(code.layers()[1].size(), 25u);
  ASSERT_EQ(code.layers()[2].size(), 5u);
  const auto queue = zero_codeword_queue(code, 77);
  check_refill_equivalence(
      code, stream_config(),
      {kernels::LaneType::kInt32, kernels::LaneType::kInt16}, queue);
  check_refill_equivalence(code, strict_app_config(),
                           {kernels::LaneType::kInt8}, queue);
}

TEST(StreamBatchEngine, RejectsALayerWiderThanTheLayerKernels) {
  // The layer kernels keep per-edge cursors and the runtime-degree body's
  // row scratch in fixed arrays of kMaxLayerDegree edges: a wider layer
  // must be refused at reconfigure, never walked.
  constexpr int kWide = kernels::kMaxLayerDegree + 1;
  const codes::QCCode wide(
      codes::BaseMatrix(1, kWide, std::vector<int>(kWide, 0)), 1, "wide");
  ASSERT_EQ(wide.max_check_degree(), kWide);
  core::StreamBatchEngine engine(stream_config());
  EXPECT_THROW(engine.reconfigure(wide), std::invalid_argument);
  EXPECT_FALSE(engine.configured());
  // At the ceiling it is accepted.
  constexpr int kMax = kernels::kMaxLayerDegree;
  const codes::QCCode widest(
      codes::BaseMatrix(1, kMax, std::vector<int>(kMax, 0)), 1, "widest");
  EXPECT_NO_THROW(engine.reconfigure(widest));
}

TEST(StreamBatchEngine, SelectsNarrowestEligibleLaneType) {
  // The default config's APP words span 10 bits -> int16; the strict
  // 8-bit-APP config fits int8. QFormat caps words at 16 bits, so every
  // supported config fits int16 — int32 is only reachable by request
  // (it remains the reference instantiation the matrix tests pin).
  EXPECT_EQ(core::narrowest_lane_type(stream_config()),
            kernels::LaneType::kInt16);
  EXPECT_EQ(core::narrowest_lane_type(strict_app_config()),
            kernels::LaneType::kInt8);
  core::DecoderConfig wide = stream_config();
  wide.format = fixed::QFormat(14, 2);  // 16-bit APP words: still int16
  EXPECT_EQ(core::narrowest_lane_type(wide), kernels::LaneType::kInt16);

  core::StreamBatchEngine standard(stream_config());
  EXPECT_EQ(standard.lane_type(), kernels::LaneType::kInt16);
  EXPECT_EQ(standard.lanes(),
            kernels::preferred_lanes(kernels::LaneType::kInt16));
  core::StreamBatchEngine strict(strict_app_config());
  EXPECT_EQ(strict.lane_type(), kernels::LaneType::kInt8);

  // An EXPLICITLY requested type is strict: int8 cannot hold the standard
  // config's 10-bit APP words.
  EXPECT_THROW(core::StreamBatchEngine(stream_config(),
                                       kernels::LaneType::kInt8),
               std::invalid_argument);
  // ...but any wider type than the narrowest eligible one is fine.
  core::StreamBatchEngine wide32(stream_config(), kernels::LaneType::kInt32);
  EXPECT_EQ(wide32.lane_type(), kernels::LaneType::kInt32);
}

TEST(StreamBatchEngine, ForceScalarEnvKnobLowersDispatch) {
  // LDPC_SIMD=scalar is the CI / bug-triage knob: it must pin the active
  // tier (and any engine built afterwards) to the portable kernel.
  // Preserve any ambient value — the CI forced-scalar lane exports the
  // knob for the whole binary and later tests must still see it.
  const char* ambient = std::getenv("LDPC_SIMD");
  const std::string saved = ambient ? ambient : "";
  ASSERT_EQ(setenv("LDPC_SIMD", "scalar", 1), 0);
  kernels::reload_env();
  EXPECT_EQ(kernels::active_tier(), kernels::Tier::kScalar);

  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  const core::DecoderConfig cfg = stream_config();
  core::StreamBatchEngine engine(cfg);
  EXPECT_EQ(engine.tier(), kernels::Tier::kScalar);
  // The scalar tier runs one 256-bit register's worth of lanes.
  EXPECT_EQ(engine.lanes(), 8 * kernels::lane_scale(engine.lane_type()));
  engine.reconfigure(code);

  const int frames = 12;
  const auto llrs = make_queue(code, frames, 7);
  core::ReconfigurableDecoder scalar(code, cfg);
  std::vector<core::FixedDecodeResult> got(frames);
  engine.decode(llrs, {}, got);
  const auto tx = static_cast<std::size_t>(code.transmitted_bits());
  for (int f = 0; f < frames; ++f)
    expect_result_eq(scalar.decode(std::span<const double>(llrs).subspan(
                         static_cast<std::size_t>(f) * tx, tx)),
                     got[static_cast<std::size_t>(f)],
                     "env=scalar frame " + std::to_string(f));

  if (ambient) {
    ASSERT_EQ(setenv("LDPC_SIMD", saved.c_str(), 1), 0);
    kernels::reload_env();
    const kernels::Tier want =
        std::min(kernels::parse_tier(saved), kernels::detected_tier());
    EXPECT_EQ(kernels::active_tier(), want);
  } else {
    ASSERT_EQ(unsetenv("LDPC_SIMD"), 0);
    kernels::reload_env();
    EXPECT_EQ(kernels::active_tier(), kernels::detected_tier());
  }
}

TEST(StreamBatchEngine, ValidatesConfigAndLaneWidth) {
  core::DecoderConfig cfg = stream_config();
  core::DecoderConfig bp = cfg;
  bp.kernel = core::CnuKernel::kFullBp;
  EXPECT_THROW(core::StreamBatchEngine{bp}, std::invalid_argument);
  core::DecoderConfig flt = cfg;
  flt.datapath = core::Datapath::kFloat;
  EXPECT_THROW(core::StreamBatchEngine{flt}, std::invalid_argument);
  core::DecoderConfig iters = cfg;
  iters.max_iterations = 0;
  EXPECT_THROW(core::StreamBatchEngine{iters}, std::invalid_argument);
  core::DecoderConfig offs = cfg;
  offs.kernel = core::CnuKernel::kOffsetMinSum;
  offs.minsum_offset_raw = -1;
  EXPECT_THROW(core::StreamBatchEngine{offs}, std::invalid_argument);
  // An out-of-range offset is rejected by the scalar engine too, and at
  // either end of the message range.
  EXPECT_THROW(core::LayerEngine{offs}, std::invalid_argument);
  offs.minsum_offset_raw = 10000;
  EXPECT_THROW(core::StreamBatchEngine{offs}, std::invalid_argument);

  core::StreamBatchEngine unconfigured(cfg);
  std::vector<core::FixedDecodeResult> one(1);
  EXPECT_THROW(unconfigured.decode({}, {}, one), std::logic_error);

  // The width is the dispatched tier's — one full 512-bit register only on
  // AVX-512, one 256-bit register otherwise — scaled by the element width,
  // for the auto-selected and for an explicit lane type alike.
  const bool avx512 = kernels::active_tier() == kernels::Tier::kAvx512;
  EXPECT_EQ(kernels::preferred_lanes(kernels::LaneType::kInt32),
            avx512 ? 16 : 8);
  EXPECT_EQ(kernels::preferred_lanes(kernels::LaneType::kInt16),
            avx512 ? 32 : 16);
  EXPECT_EQ(kernels::preferred_lanes(kernels::LaneType::kInt8),
            avx512 ? 64 : 32);
  core::StreamBatchEngine auto_engine(cfg);
  EXPECT_EQ(auto_engine.tier(), kernels::active_tier());
  EXPECT_EQ(auto_engine.lanes(),
            kernels::preferred_lanes(auto_engine.lane_type()));
  core::StreamBatchEngine int32_engine(cfg, kernels::LaneType::kInt32);
  EXPECT_EQ(int32_engine.lanes(), avx512 ? 16 : 8);
}

TEST(StreamBatchEngine, RepeatedQueuesLeaveNoStateBehind) {
  // Dead-lane content from a drained queue, a previous decode call or a
  // previous MODE must never leak into the next queue's results.
  // reconfigure() resizes the SoA memories without re-zeroing them, so a
  // switch small code -> larger NR code with fillers -> back leaves the
  // other code's words in every buffer; each queue after a switch must
  // still equal a fresh engine's output bit for bit, at every lane type.
  const auto small = codes::make_code(
      {codes::Standard::kWlan80211n, codes::Rate::kR12, 27});
  const auto nr = codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40);
  ASSERT_GT(nr.n(), small.n());
  ASSERT_GT(nr.scheme().filler_bits, 0);
  const auto queue_a = make_queue(small, 9, 21);   // ragged: 9 < lanes+refill
  const auto queue_b = make_queue(small, 19, 22);  // refills past one round
  const auto queue_nr = make_queue(nr, 13, 23);
  const auto queue_back = make_queue(small, 17, 24);

  struct Case {
    kernels::LaneType type;
    core::DecoderConfig cfg;
  };
  for (const Case& c : {Case{kernels::LaneType::kInt32, stream_config()},
                        Case{kernels::LaneType::kInt16, stream_config()},
                        Case{kernels::LaneType::kInt8, strict_app_config()}}) {
    const std::string type = to_string(c.type);
    // One queue on a freshly built engine: the reference.
    auto fresh = [&](const codes::QCCode& code,
                     const std::vector<double>& llrs, int frames) {
      core::StreamBatchEngine engine(c.cfg, c.type);
      engine.reconfigure(code);
      std::vector<core::FixedDecodeResult> out(
          static_cast<std::size_t>(frames));
      engine.decode(llrs, {}, out);
      return out;
    };
    core::StreamBatchEngine reused(c.cfg, c.type);
    auto run = [&](const codes::QCCode& code, const std::vector<double>& llrs,
                   int frames, const std::string& step) {
      std::vector<core::FixedDecodeResult> got(
          static_cast<std::size_t>(frames));
      reused.decode(llrs, {}, got);
      const auto want = fresh(code, llrs, frames);
      for (int f = 0; f < frames; ++f)
        expect_result_eq(want[static_cast<std::size_t>(f)],
                         got[static_cast<std::size_t>(f)],
                         type + " " + step + " frame " + std::to_string(f));
    };
    reused.reconfigure(small);
    std::vector<core::FixedDecodeResult> first(9);
    reused.decode(queue_a, {}, first);
    run(small, queue_b, 19, "second queue");
    reused.reconfigure(nr);
    run(nr, queue_nr, 13, "after switch to NR");
    reused.reconfigure(small);
    run(small, queue_back, 17, "after switch back");
  }
}

TEST(StreamBatchEngine, FullWidthBinAfterModeSwitchMatchesFreshEngine) {
  // The live service's call shape: DecodeService decodes a bin as one call
  // of at most one lane width of frames, so every lane is loaded at the
  // call's start and none is refilled — the first pass runs with EVERY
  // lane fresh. Right after a switch down from the larger NR code, every
  // lane's Lambda entries hold the NR decode's words; the first pass must
  // read them as 0 and the bin must equal a fresh engine's, bit for bit,
  // at the tier's full width of every lane type.
  const auto wimax = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  const auto nr = codes::make_nr_code(codes::Rate::kR13, 96, 5000, 64);
  ASSERT_GT(nr.edges(), wimax.edges());

  core::DecoderConfig strict = et_only_config();
  strict.app_extra_bits = 0;  // int8 lanes need the strict 8-bit APP
  struct Case {
    kernels::LaneType type;
    core::DecoderConfig cfg;
  };
  for (const Case& c : {Case{kernels::LaneType::kInt32, et_only_config()},
                        Case{kernels::LaneType::kInt16, et_only_config()},
                        Case{kernels::LaneType::kInt8, strict}}) {
    const int lanes = kernels::preferred_lanes(c.type);
    const std::string type = to_string(c.type);
    const auto bin = make_queue(wimax, lanes, 51);
    std::vector<core::FixedDecodeResult> want(
        static_cast<std::size_t>(lanes));
    {
      core::StreamBatchEngine fresh(c.cfg, c.type);
      fresh.reconfigure(wimax);
      fresh.decode(bin, {}, want);
    }
    core::StreamBatchEngine reused(c.cfg, c.type);
    ASSERT_EQ(reused.lanes(), lanes);
    reused.reconfigure(nr);
    std::vector<core::FixedDecodeResult> nr_out(
        static_cast<std::size_t>(lanes));
    reused.decode(make_queue(nr, lanes, 52), {}, nr_out);
    reused.reconfigure(wimax);
    std::vector<core::FixedDecodeResult> got(
        static_cast<std::size_t>(lanes));
    reused.decode(bin, {}, got);
    for (int f = 0; f < lanes; ++f)
      expect_result_eq(want[static_cast<std::size_t>(f)],
                       got[static_cast<std::size_t>(f)],
                       type + " bin after NR frame " + std::to_string(f));
  }
}

TEST(StreamBatchEngine, RejectsALayerOrderThatIsNotAPermutation) {
  // An all-zero order used to be accepted (it decoded with only layer 0
  // ever updated), and an out-of-range entry indexed past the layer
  // table. Both front doors now throw before any lane is loaded, and the
  // engine decodes normally afterwards.
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  const core::DecoderConfig cfg = et_only_config();
  const auto llrs = make_queue(code, 3, 61);
  const int j = code.block_rows();
  std::vector<int> natural(static_cast<std::size_t>(j));
  for (int l = 0; l < j; ++l) natural[static_cast<std::size_t>(l)] = l;
  const auto with = [&](int slot, int layer) {
    std::vector<int> order = natural;
    order[static_cast<std::size_t>(slot)] = layer;
    return order;
  };
  core::StreamBatchEngine engine(cfg);
  engine.reconfigure(code);
  std::vector<core::FixedDecodeResult> out(3);
  for (const auto& bad :
       {std::vector<int>(natural.size(), 0), with(1, 0), with(j - 1, -1),
        with(0, j)})
    EXPECT_THROW(engine.decode(llrs, bad, out), std::invalid_argument);
  const auto frame = sim::quantise_llrs(
      code, cfg,
      std::span<const double>(llrs).first(
          static_cast<std::size_t>(code.transmitted_bits())));
  const std::vector<const core::QuantisedFrame*> frames{&frame};
  std::vector<core::FixedDecodeResult> one(1);
  EXPECT_THROW(engine.decode_quantised(frames, with(2, 2 - j), one),
               std::invalid_argument);

  core::StreamBatchEngine reference(cfg);
  reference.reconfigure(code);
  std::vector<core::FixedDecodeResult> want(3);
  reference.decode(llrs, {}, want);
  engine.decode(llrs, natural, out);
  for (std::size_t f = 0; f < out.size(); ++f)
    expect_result_eq(want[f], out[f],
                     "natural order after rejected orders frame " +
                         std::to_string(f));
}

TEST(StreamBatchEngine, QueueOrderDoesNotPerturbPerFrameResults) {
  // Scheduling independence: a frame's decode depends only on its own
  // LLRs, never on which lane it lands in or which frames share the
  // vectors — permuting the queue permutes the results exactly.
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR34A, 48});
  const core::DecoderConfig cfg = stream_config();
  const int frames = 17;
  const auto tx = static_cast<std::size_t>(code.transmitted_bits());
  const auto llrs = make_queue(code, frames, 33);

  // Reversed queue: frame f of `reversed` is frame frames-1-f of `llrs`.
  std::vector<double> reversed(llrs.size());
  for (int f = 0; f < frames; ++f)
    std::copy(llrs.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(f) * tx),
              llrs.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(f + 1) * tx),
              reversed.begin() +
                  static_cast<std::ptrdiff_t>(
                      static_cast<std::size_t>(frames - 1 - f) * tx));

  core::StreamBatchEngine engine(cfg);
  engine.reconfigure(code);
  std::vector<core::FixedDecodeResult> fwd(frames), rev(frames);
  engine.decode(llrs, {}, fwd);
  engine.decode(reversed, {}, rev);
  for (int f = 0; f < frames; ++f)
    expect_result_eq(fwd[static_cast<std::size_t>(f)],
                     rev[static_cast<std::size_t>(frames - 1 - f)],
                     "permuted queue frame " + std::to_string(f));
}

TEST(StreamBatchEngine, DecodeBatchEntryPointsUseRefillEngine) {
  // ReconfigurableDecoder::decode_batch over a wide mixed-iteration batch
  // (well past any lane width) must equal per-frame decode — the
  // integration contract every consumer (sim workers, chip bursts,
  // stream scheduler) leans on.
  // A one-frame queue (a single lane live, the rest idle from the start)
  // is the other edge.
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  const core::DecoderConfig cfg = stream_config();
  const auto tx = static_cast<std::size_t>(code.transmitted_bits());
  for (const int frames : {40, 1}) {
    const auto llrs = make_queue(code, frames, 55);
    core::ReconfigurableDecoder batched(code, cfg), scalar(code, cfg);
    const auto results = batched.decode_batch(llrs);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(frames));
    for (int f = 0; f < frames; ++f)
      expect_result_eq(scalar.decode(std::span<const double>(llrs).subspan(
                           static_cast<std::size_t>(f) * tx, tx)),
                       results[static_cast<std::size_t>(f)],
                       "decode_batch of " + std::to_string(frames) +
                           " frame " + std::to_string(f));
  }
}

TEST(StreamBatchEngine, MinSumVariantsStreamBitExactly) {
  // Offset and normalized min-sum run through the same kernel matrix (the
  // correction rides in RowBounds): lock each variant's refill decode
  // against its scalar engine at the narrow lane type it selects.
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR23B, 36});
  for (const core::CnuKernel kernel :
       {core::CnuKernel::kOffsetMinSum, core::CnuKernel::kNormalizedMinSum}) {
    core::DecoderConfig cfg = stream_config();
    cfg.kernel = kernel;
    check_refill_equivalence(code, cfg, {kernels::LaneType::kInt32,
                                         kernels::LaneType::kInt16});
    core::DecoderConfig strict = strict_app_config();
    strict.kernel = kernel;
    check_refill_equivalence(code, strict, {kernels::LaneType::kInt8});
  }

  // The correction must actually bite: a variant that silently decoded
  // as plain min-sum in BOTH engines would pass every check above. On the
  // queue's hard frames the three kernels disagree somewhere.
  const int frames = 8;
  const auto llrs = make_queue(code, frames, 0x0FF5E7);
  std::vector<std::vector<std::uint8_t>> per_kernel_bits;
  for (const core::CnuKernel kernel :
       {core::CnuKernel::kMinSum, core::CnuKernel::kOffsetMinSum,
        core::CnuKernel::kNormalizedMinSum}) {
    core::DecoderConfig cfg = stream_config();
    cfg.kernel = kernel;
    core::StreamBatchEngine engine(cfg);
    engine.reconfigure(code);
    std::vector<core::FixedDecodeResult> got(frames);
    engine.decode(llrs, {}, got);
    std::vector<std::uint8_t> all_bits;
    for (const auto& g : got)
      all_bits.insert(all_bits.end(), g.bits.begin(), g.bits.end());
    per_kernel_bits.push_back(std::move(all_bits));
  }
  EXPECT_NE(per_kernel_bits[0], per_kernel_bits[1]);
  EXPECT_NE(per_kernel_bits[0], per_kernel_bits[2]);
}

}  // namespace
