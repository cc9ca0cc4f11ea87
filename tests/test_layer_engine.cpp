// Locks the tentpole invariant of the layer-schedule refactor: the
// functional decoder and the chip model execute the SAME core::LayerEngine,
// so their hard decisions are bit-identical on every registered code mode,
// and the batch APIs are bit-identical to per-frame decoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/layer_engine.hpp"
#include "ldpc/fixed/qformat.hpp"
#include "ldpc/util/rng.hpp"

namespace {

using namespace ldpc;

// Random (non-codeword) channel LLRs at the code's *transmitted* length
// (n for classic standards, E for NR): exercises the full schedule — no
// early convergence — without needing an encoder per mode.
std::vector<double> random_llrs(const codes::QCCode& code,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> llr(static_cast<std::size_t>(code.transmitted_bits()));
  for (auto& x : llr) x = 8.0 * (rng.uniform() - 0.5);
  return llr;
}

// ---- engine basics ----------------------------------------------------------

TEST(LayerEngine, RequiresConfiguration) {
  core::LayerEngine engine({});
  EXPECT_FALSE(engine.configured());
  EXPECT_THROW(engine.code(), std::logic_error);
  std::vector<std::int32_t> raw(10);
  EXPECT_THROW(engine.run(raw), std::logic_error);
}

TEST(LayerEngine, ValidatesConfigAndSizes) {
  EXPECT_THROW(core::LayerEngine({.max_iterations = 0}),
               std::invalid_argument);
  EXPECT_THROW(core::LayerEngine({.app_extra_bits = -1}),
               std::invalid_argument);
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  core::LayerEngine engine({});
  engine.reconfigure(code);
  std::vector<std::int32_t> raw(7);
  EXPECT_THROW(engine.run(raw), std::invalid_argument);
  std::vector<std::int32_t> ok(static_cast<std::size_t>(code.n()), 1);
  std::vector<int> bad_order{0, 1};
  EXPECT_THROW(engine.run(ok, bad_order), std::invalid_argument);
}

TEST(LayerEngine, RejectsALayerOrderThatIsNotAPermutation) {
  // A repeated layer would decode with another layer never updated, and an
  // out-of-range one would index past the code's layer table: both throw
  // before any state is touched.
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  core::LayerEngine engine({.max_iterations = 3});
  engine.reconfigure(code);
  std::vector<std::int32_t> raw(static_cast<std::size_t>(code.n()), 1);
  const int j = code.block_rows();
  std::vector<int> natural(static_cast<std::size_t>(j));
  std::iota(natural.begin(), natural.end(), 0);
  const auto with = [&](int slot, int layer) {
    std::vector<int> order = natural;
    order[static_cast<std::size_t>(slot)] = layer;
    return order;
  };
  EXPECT_THROW(engine.run(raw, std::vector<int>(natural.size(), 0)),
               std::invalid_argument);
  EXPECT_THROW(engine.run(raw, with(1, 0)), std::invalid_argument);
  EXPECT_THROW(engine.run(raw, with(j - 1, -1)), std::invalid_argument);
  EXPECT_THROW(engine.run(raw, with(0, j)), std::invalid_argument);
  const std::vector<int> reversed(natural.rbegin(), natural.rend());
  EXPECT_EQ(engine.run(raw, reversed).iterations, engine.run(raw).iterations);
}

TEST(LayerEngine, NaturalOrderExplicitAndImplicitAgree) {
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  core::LayerEngine a({.max_iterations = 3});
  core::LayerEngine b({.max_iterations = 3});
  a.reconfigure(code);
  b.reconfigure(code);
  const auto llr = random_llrs(code, 11);
  std::vector<std::int32_t> raw(llr.size());
  a.quantize(llr, raw);
  std::vector<int> natural(static_cast<std::size_t>(code.block_rows()));
  std::iota(natural.begin(), natural.end(), 0);
  const auto ra = a.run(raw);
  const auto rb = b.run(raw, natural);
  EXPECT_EQ(ra.bits, rb.bits);
  EXPECT_EQ(ra.datapath_cycles, rb.datapath_cycles);
}

// ---- the tentpole: functional == chip on EVERY registered mode --------------

class EngineAllModes : public ::testing::TestWithParam<codes::CodeId> {};

TEST_P(EngineAllModes, ChipMatchesFunctionalBitExactly) {
  const auto code = codes::make_code(GetParam());
  const core::DecoderConfig cfg{.max_iterations = 3};
  core::ReconfigurableDecoder functional(code, cfg);
  arch::DecoderChip chip(arch::ChipDimensions::universal(), cfg);
  chip.configure(code);
  std::vector<int> natural(static_cast<std::size_t>(code.block_rows()));
  std::iota(natural.begin(), natural.end(), 0);
  chip.set_layer_order(natural);

  const auto llr = random_llrs(code, 0xBEEF + GetParam().z);
  const auto rf = functional.decode(llr);
  const auto rc = chip.decode(llr);
  EXPECT_EQ(rc.functional.bits, rf.bits) << code.name();
  EXPECT_EQ(rc.functional.iterations, rf.iterations) << code.name();
  EXPECT_EQ(rc.functional.converged, rf.converged) << code.name();
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineAllModes,
                         ::testing::ValuesIn(codes::all_modes()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

// ---- batch APIs -------------------------------------------------------------

TEST(BatchDecode, FunctionalBatchMatchesPerFrame) {
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 48});
  const core::DecoderConfig cfg{.max_iterations = 4,
                                .stop_on_codeword = true};
  core::ReconfigurableDecoder batch_dec(code, cfg);
  core::ReconfigurableDecoder frame_dec(code, cfg);

  const auto n = static_cast<std::size_t>(code.n());
  const int frames = 5;
  std::vector<double> llrs(n * frames);
  for (int f = 0; f < frames; ++f) {
    const auto one = random_llrs(code, 100 + static_cast<std::uint64_t>(f));
    std::copy(one.begin(), one.end(),
              llrs.begin() + static_cast<std::ptrdiff_t>(f * n));
  }

  const auto results = batch_dec.decode_batch(llrs);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const auto single = frame_dec.decode(
        std::span<const double>(llrs).subspan(f * n, n));
    EXPECT_EQ(results[static_cast<std::size_t>(f)].bits, single.bits) << f;
    EXPECT_EQ(results[static_cast<std::size_t>(f)].iterations,
              single.iterations)
        << f;
  }
}

// ---- templated datapaths ----------------------------------------------------

// siso_row_generic (the float datapath's row schedule) run over the int32
// LUT f/g operators must be bit-exact against the SISO cores the runtime-
// format engine uses — the lock that keeps the two row implementations
// from drifting apart.
TEST(TemplatedDatapath, GenericRowMatchesSisoCores) {
  const fixed::QFormat fmt = fixed::kMessageFormat;
  const core::CorrectionLut flut(core::CorrectionLut::Kind::kFPlus, fmt);
  const core::CorrectionLut glut(core::CorrectionLut::Kind::kGMinus, fmt);
  const auto f = [&](std::int32_t a, std::int32_t b) {
    return core::f_op(a, b, flut, fmt);
  };
  const auto g = [&](std::int32_t s, std::int32_t b) {
    return core::g_op(s, b, glut, fmt);
  };
  util::Xoshiro256 rng(0x5A7);
  std::vector<std::int32_t> prefix, suffix;
  for (const core::CnuArch arch :
       {core::CnuArch::kForwardBackward, core::CnuArch::kSumSubtract}) {
    const core::SisoR2 r2(fmt, arch);
    const core::SisoR4 r4(fmt, arch);
    for (int d = 1; d <= 24; ++d) {
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::int32_t> row(static_cast<std::size_t>(d));
        for (auto& v : row)
          v = static_cast<std::int32_t>(rng.uniform() * 255.0) - 127;
        std::vector<std::int32_t> generic(row.size()), core2(row.size()),
            core4(row.size());
        core::siso_row_generic<std::int32_t>(row, generic, arch, f, g,
                                             prefix, suffix);
        r2.process(row, core2);
        r4.process(row, core4);
        ASSERT_EQ(generic, core2) << "d=" << d << " trial " << trial;
        ASSERT_EQ(generic, core4) << "d=" << d << " trial " << trial;
      }
    }
  }
}

TEST(TemplatedDatapath, FloatEngineDecodesAndOutperformsNarrowQuantization) {
  // The float reference must at least decode a clean high-SNR frame; a
  // fine-grained BER comparison lives in bench/quantization_sweep.
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  core::FloatLayerEngine engine({.max_iterations = 10});
  engine.reconfigure(code);
  // All-zeros codeword, strong LLRs with a few weak spots.
  std::vector<double> llr(static_cast<std::size_t>(code.n()), 6.0);
  for (std::size_t i = 0; i < llr.size(); i += 17) llr[i] = -0.4;
  std::vector<double> v(llr.size());
  engine.quantize(llr, v);
  const auto r = engine.run(v);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(std::all_of(r.bits.begin(), r.bits.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(TemplatedDatapath, FloatDatapathConfigSelectsFloatEngine) {
  const auto code = codes::make_code(
      {codes::Standard::kWlan80211n, codes::Rate::kR12, 27});
  core::ReconfigurableDecoder dec(
      code, {.max_iterations = 10,
             .datapath = core::Datapath::kFloat});
  core::FloatLayerEngine engine({.max_iterations = 10});
  engine.reconfigure(code);
  const auto llr = random_llrs(code, 99);
  std::vector<double> v(llr.size());
  engine.quantize(llr, v);
  EXPECT_EQ(dec.decode(llr).bits, engine.run(v).bits);
  // decode_raw dequantises so canned fixed-point frames drive this path.
  std::vector<std::int32_t> raw(llr.size(), 4);  // +1.0 in Q5.2
  const auto rr = dec.decode_raw(raw);
  EXPECT_EQ(rr.bits, std::vector<std::uint8_t>(llr.size(), 0));
}

TEST(TemplatedDatapath, ChipRejectsFloatConfig) {
  EXPECT_THROW(
      arch::DecoderChip({}, {.datapath = core::Datapath::kFloat}),
      std::invalid_argument);
}

// decode_batch() on a min-sum decoder routes through the SoA kernel; a
// batch larger than one 512-bit register of int32 lanes with a ragged tail
// (N not divisible by the SIMD width) must still be bit-identical to
// per-frame decoding.
TEST(BatchDecode, RaggedTailBatchMatchesPerFrameMinSum) {
  const auto code = codes::make_code(
      {codes::Standard::kWlan80211n, codes::Rate::kR23, 54});
  const core::DecoderConfig cfg{.max_iterations = 5,
                                .kernel = core::CnuKernel::kMinSum,
                                .stop_on_codeword = true};
  core::ReconfigurableDecoder batch_dec(code, cfg);
  core::ReconfigurableDecoder frame_dec(code, cfg);

  const auto n = static_cast<std::size_t>(code.n());
  const int frames = 16 + 5;  // full chunk + tail
  std::vector<double> llrs(n * static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const auto one = random_llrs(code, 300 + static_cast<std::uint64_t>(f));
    std::copy(one.begin(), one.end(),
              llrs.begin() + static_cast<std::ptrdiff_t>(f) *
                                 static_cast<std::ptrdiff_t>(n));
  }
  const auto results = batch_dec.decode_batch(llrs);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const auto single = frame_dec.decode(
        std::span<const double>(llrs).subspan(
            static_cast<std::size_t>(f) * n, n));
    EXPECT_EQ(results[static_cast<std::size_t>(f)].bits, single.bits) << f;
    EXPECT_EQ(results[static_cast<std::size_t>(f)].iterations,
              single.iterations)
        << f;
  }
}

TEST(BatchDecode, RejectsBadSizes) {
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  core::ReconfigurableDecoder dec(code, {});
  EXPECT_THROW(dec.decode_batch({}), std::invalid_argument);
  std::vector<double> off(static_cast<std::size_t>(code.n()) + 1);
  EXPECT_THROW(dec.decode_batch(off), std::invalid_argument);
  arch::DecoderChip chip({}, {});
  chip.configure(code);
  EXPECT_THROW(chip.decode_batch_quantised({}), std::invalid_argument);
}

// ---- NR: transmitted-LLR frames through every datapath ----------------------
// The tentpole invariant extended to punctured/filler/rate-matched codes:
// scalar fixed, SoA batched and chip decode the SAME transmitted frame to
// bit-identical hard decisions (the float engine is locked separately by
// the golden suite, its arithmetic being legitimately different).

struct NrCase {
  const char* label;
  codes::QCCode code;
};

std::vector<NrCase> nr_cases() {
  std::vector<NrCase> cases;
  cases.push_back({"registered_bg1",
                   codes::make_code({codes::Standard::kNr5g,
                                     codes::Rate::kR13, 36})});
  cases.push_back({"rate_matched",  // E < sendable
                   codes::make_nr_code(codes::Rate::kR13, 36, 1800)});
  cases.push_back({"repetition",    // E > sendable: wraparound combining
                   codes::make_nr_code(codes::Rate::kR15, 16, 1000)});
  cases.push_back({"fillers",
                   codes::make_nr_code(codes::Rate::kR15, 16, 700, 24)});
  return cases;
}

TEST(NrDatapaths, ScalarBatchedAndChipBitIdentical) {
  const core::DecoderConfig cfg{.max_iterations = 5,
                                .kernel = core::CnuKernel::kMinSum,
                                .stop_on_codeword = true};
  for (auto& c : nr_cases()) {
    core::ReconfigurableDecoder scalar_dec(c.code, cfg);
    core::ReconfigurableDecoder batch_dec(c.code, cfg);
    arch::DecoderChip chip(arch::ChipDimensions::universal(), cfg);
    chip.configure(c.code);
    std::vector<int> natural(
        static_cast<std::size_t>(c.code.block_rows()));
    std::iota(natural.begin(), natural.end(), 0);
    chip.set_layer_order(natural);

    const auto tx = static_cast<std::size_t>(c.code.transmitted_bits());
    const int frames = 5;
    std::vector<double> llrs(tx * static_cast<std::size_t>(frames));
    for (int f = 0; f < frames; ++f) {
      const auto one =
          random_llrs(c.code, 4000 + static_cast<std::uint64_t>(f));
      std::copy(one.begin(), one.end(),
                llrs.begin() + static_cast<std::ptrdiff_t>(f) *
                                   static_cast<std::ptrdiff_t>(tx));
    }

    const auto batched = batch_dec.decode_batch(llrs);
    ASSERT_EQ(batched.size(), static_cast<std::size_t>(frames));
    for (int f = 0; f < frames; ++f) {
      const std::span<const double> one{
          llrs.data() + static_cast<std::size_t>(f) * tx, tx};
      const auto rs = scalar_dec.decode(one);
      const auto rc = chip.decode(one);
      const auto& rb = batched[static_cast<std::size_t>(f)];
      EXPECT_EQ(rb.bits, rs.bits) << c.label << " frame " << f;
      EXPECT_EQ(rb.iterations, rs.iterations) << c.label << " frame " << f;
      EXPECT_EQ(rc.functional.bits, rs.bits) << c.label << " frame " << f;
      EXPECT_EQ(rc.functional.iterations, rs.iterations)
          << c.label << " frame " << f;
    }
  }
}

// The deposit itself, unit-checked on a tiny BG2 code: punctured and
// unsent bits are exact zeros (no zero-exclusion nudge), fillers sit at
// the positive APP rail, repeated bits accumulate before quantisation.
TEST(NrDatapaths, DepositSemantics) {
  const auto code = codes::make_nr_code(codes::Rate::kR15, 2, 150, 4);
  const core::DecoderConfig cfg{.kernel = core::CnuKernel::kMinSum};
  core::LayerEngine engine(cfg);
  engine.reconfigure(code);
  const int sendable = code.sendable_bits();  // 104 - 4 punctured - 4 fillers = 96
  std::vector<double> tx(150, 1.0);
  std::vector<std::int32_t> raw(static_cast<std::size_t>(code.n()));
  engine.deposit(tx, raw);

  // Punctured prefix: first 2z = 4 bits are exact zeros.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(raw[static_cast<std::size_t>(i)], 0);
  // Fillers pinned to the APP-format rail (Q5.2 message + 2 extra bits).
  const fixed::QFormat app_fmt(cfg.format.total_bits() + cfg.app_extra_bits,
                               cfg.format.frac_bits());
  for (int i = code.payload_bits(); i < code.k_info(); ++i)
    EXPECT_EQ(raw[static_cast<std::size_t>(i)], app_fmt.raw_max()) << i;
  // First 150 - sendable sendable positions were transmitted twice: their
  // LLR doubled before quantisation (1.0 -> 4 raw, 2.0 -> 8 raw in Q5.2).
  const int repeats = 150 - sendable;
  for (int s2 = 0; s2 < sendable; ++s2) {
    const auto v = static_cast<std::size_t>(code.tx_bit_index(s2));
    EXPECT_EQ(raw[v], s2 < repeats ? 8 : 4) << s2;
  }
}

}  // namespace
