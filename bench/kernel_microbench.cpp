// google-benchmark microbenchmarks of the datapath kernels and the full
// decoders: simulation-throughput numbers for this library itself (how
// fast the *model* runs on a host CPU, not the modelled chip throughput).
#include <benchmark/benchmark.h>

#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/baseline/layered_bp.hpp"
#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/decoder.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/core/siso.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"

namespace {

using namespace ldpc;

const fixed::QFormat kFmt{8, 2};

void BM_FOp(benchmark::State& state) {
  const core::CorrectionLut flut(core::CorrectionLut::Kind::kFPlus, kFmt);
  std::int32_t a = 37, b = -55;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::f_op(a, b, flut, kFmt));
    a = (a * 13 + 7) % 127;
    b = (b * 11 - 3) % 127;
  }
}
BENCHMARK(BM_FOp);

void BM_GOp(benchmark::State& state) {
  const core::CorrectionLut glut(core::CorrectionLut::Kind::kGMinus, kFmt);
  std::int32_t a = 37, b = -55;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::g_op(a, b, glut, kFmt));
    a = (a * 13 + 7) % 127;
    b = (b * 11 - 3) % 127;
  }
}
BENCHMARK(BM_GOp);

void BM_SisoRow(benchmark::State& state) {
  const auto radix = static_cast<core::Radix>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  core::SisoR2 r2(kFmt);
  core::SisoR4 r4(kFmt);
  std::vector<std::int32_t> lam(static_cast<std::size_t>(d)), out(lam.size());
  for (int i = 0; i < d; ++i) lam[static_cast<std::size_t>(i)] = 3 * i - 40;
  for (auto _ : state) {
    if (radix == core::Radix::kR2)
      benchmark::DoNotOptimize(r2.process(lam, out));
    else
      benchmark::DoNotOptimize(r4.process(lam, out));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_SisoRow)
    ->Args({0, 7})
    ->Args({1, 7})
    ->Args({0, 20})
    ->Args({1, 20});

struct DecodeFixture {
  codes::QCCode code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  std::vector<double> llr;

  DecodeFixture() {
    auto encoder = enc::make_encoder(code);
    util::Xoshiro256 rng(7);
    std::vector<std::uint8_t> info(static_cast<std::size_t>(code.k_info()));
    enc::random_bits(rng, info);
    const auto cw = encoder->encode(info);
    auto mod = channel::modulate(cw, channel::Modulation::kBpsk);
    const double sigma = channel::ebn0_to_sigma(2.5, code.rate(),
                                                channel::Modulation::kBpsk);
    channel::AwgnChannel(sigma).transmit(mod.samples, rng);
    llr = channel::demap_llr(mod, sigma);
  }
};

void BM_FixedDecode2304(benchmark::State& state) {
  DecodeFixture fx;
  core::ReconfigurableDecoder dec(fx.code, {.stop_on_codeword = true});
  for (auto _ : state) benchmark::DoNotOptimize(dec.decode(fx.llr));
  state.SetItemsProcessed(state.iterations() * fx.code.k_info());
}
BENCHMARK(BM_FixedDecode2304);

void BM_FloatLayeredDecode2304(benchmark::State& state) {
  DecodeFixture fx;
  baseline::LayeredBP dec(fx.code);
  for (auto _ : state) benchmark::DoNotOptimize(dec.decode(fx.llr, 10));
  state.SetItemsProcessed(state.iterations() * fx.code.k_info());
}
BENCHMARK(BM_FloatLayeredDecode2304);

void BM_ChipDecode2304(benchmark::State& state) {
  DecodeFixture fx;
  arch::DecoderChip chip({}, {.stop_on_codeword = true});
  chip.configure(fx.code);
  for (auto _ : state) benchmark::DoNotOptimize(chip.decode(fx.llr));
  state.SetItemsProcessed(state.iterations() * fx.code.k_info());
}
BENCHMARK(BM_ChipDecode2304);

// Frames per batch in the fixed-size batch fixtures (one 512-bit
// register of int32 lanes).
constexpr int kBatchFrames = 16;

// ---- scalar min-sum baseline -------------------------------------------------
// kBatchFrames frames through the scalar engine on one thread; items
// processed = decoded information bits.

struct MinSumBatchFixture {
  codes::QCCode code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  core::DecoderConfig cfg{.max_iterations = 10,
                          .kernel = core::CnuKernel::kMinSum};
  std::vector<double> llrs;  // kBatchFrames frames back to back, ~2.5 dB

  MinSumBatchFixture() {
    auto encoder = enc::make_encoder(code);
    util::Xoshiro256 rng(11);
    const double sigma = channel::ebn0_to_sigma(2.5, code.rate(),
                                                channel::Modulation::kBpsk);
    std::vector<std::uint8_t> info(static_cast<std::size_t>(code.k_info()));
    for (int f = 0; f < kBatchFrames; ++f) {
      enc::random_bits(rng, info);
      const auto cw = encoder->encode(info);
      auto mod = channel::modulate(cw, channel::Modulation::kBpsk);
      channel::AwgnChannel(sigma).transmit(mod.samples, rng);
      const auto llr = channel::demap_llr(mod, sigma);
      llrs.insert(llrs.end(), llr.begin(), llr.end());
    }
  }
};

void BM_MinSumScalarDecode(benchmark::State& state) {
  MinSumBatchFixture fx;
  core::LayerEngine engine(fx.cfg);
  engine.reconfigure(fx.code);
  const auto n = static_cast<std::size_t>(fx.code.n());
  std::vector<std::int32_t> raw(n);
  for (auto _ : state) {
    for (int f = 0; f < kBatchFrames; ++f) {
      engine.quantize(
          std::span<const double>(fx.llrs).subspan(
              static_cast<std::size_t>(f) * n, n),
          raw);
      benchmark::DoNotOptimize(engine.run(raw));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatchFrames *
                          fx.code.k_info());
}
BENCHMARK(BM_MinSumScalarDecode);

// ---- continuous lane-refill on a mixed-iteration queue ----------------------
// A mixed-iteration workload with high early-termination variance: a
// 512-frame queue of 802.16e 2304 r1/2 where every 8th frame is a
// deep-fade straggler (1.0 dB — decodes run to the 10-iteration cap) and
// the rest sit at operating SNR (4.5 dB — ET / codeword-stop after ~2
// iterations), the Fig. 9(a) shape. The StreamBatchEngine refills a
// retired lane from the pending queue mid-flight, so no lane waits on a
// straggler. One thread; items/sec IS frames/sec. bench/compare_bench.py
// gates the narrow-lane ratios against this int32 cell, so renaming it
// breaks the CI gate.

struct MixedIterationFixture {
  codes::QCCode code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  core::DecoderConfig cfg{.max_iterations = 10,
                          .kernel = core::CnuKernel::kMinSum,
                          .early_termination = {.enabled = true},
                          .stop_on_codeword = true};
  static constexpr int kFrames = 512;
  std::vector<double> llrs;  // kFrames frames, 1-in-8 at 1.0 dB

  MixedIterationFixture() {
    auto encoder = enc::make_encoder(code);
    util::Xoshiro256 rng(23);
    std::vector<std::uint8_t> info(static_cast<std::size_t>(code.k_info()));
    for (int f = 0; f < kFrames; ++f) {
      const double ebn0_db = f % 8 ? 4.5 : 1.0;
      const double sigma = channel::ebn0_to_sigma(
          ebn0_db, code.rate(), channel::Modulation::kBpsk);
      enc::random_bits(rng, info);
      const auto cw = encoder->encode(info);
      auto mod = channel::modulate(cw, channel::Modulation::kBpsk);
      channel::AwgnChannel(sigma).transmit(mod.samples, rng);
      const auto llr = channel::demap_llr(mod, sigma);
      llrs.insert(llrs.end(), llr.begin(), llr.end());
    }
  }
};

// Pinned to int32 lanes: this is the denominator of the narrow-lane gates
// below — auto lane-type selection would silently turn it into an int16
// engine and wreck the comparison.
void BM_MinSumStreamRefillMixed(benchmark::State& state) {
  MixedIterationFixture fx;
  core::StreamBatchEngine engine(fx.cfg, 0, core::kernels::LaneType::kInt32);
  engine.reconfigure(fx.code);
  std::vector<core::FixedDecodeResult> results(
      static_cast<std::size_t>(MixedIterationFixture::kFrames));
  for (auto _ : state) {
    engine.decode(fx.llrs, {}, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetLabel("tier=" + to_string(engine.tier()) +
                 " lanes=" + std::to_string(engine.lanes()));
  state.SetItemsProcessed(state.iterations() *
                          MixedIterationFixture::kFrames *
                          fx.code.k_info());
}
BENCHMARK(BM_MinSumStreamRefillMixed)->MinWarmUpTime(0.5)->MinTime(2.0);

// ---- narrow-lane engine, quantised-domain ingest (the PR 8 tentpole) --------
// Identical workload and arithmetic, int16 lanes fed PRE-QUANTISED frames
// (sim::quantise_llrs once at the front end, core::QuantisedFrame into
// StreamBatchEngine::decode_quantised — the serving path): 2x the frames
// per vector op AND no per-frame double-domain quantisation in the hot
// loop, only the zero-copy lane alias. Bit-identical results by rail
// containment and by the shared deposit arithmetic; items/sec here vs the
// double-ingest int32 case above is the narrow-lane ENGINE ratio
// bench/compare_bench.py gates (>= 1.55x) — renaming either benchmark
// breaks the CI gate.
void BM_MinSumStreamRefillMixedInt16(benchmark::State& state) {
  MixedIterationFixture fx;
  core::StreamBatchEngine engine(fx.cfg, 0, core::kernels::LaneType::kInt16);
  engine.reconfigure(fx.code);
  const auto tx = static_cast<std::size_t>(fx.code.transmitted_bits());
  std::vector<core::QuantisedFrame> quantised;
  std::vector<const core::QuantisedFrame*> ptrs;
  for (int f = 0; f < MixedIterationFixture::kFrames; ++f)
    quantised.push_back(sim::quantise_llrs(
        fx.code, fx.cfg,
        std::span<const double>(fx.llrs).subspan(
            static_cast<std::size_t>(f) * tx, tx)));
  for (const auto& q : quantised) ptrs.push_back(&q);
  std::vector<core::FixedDecodeResult> results(
      static_cast<std::size_t>(MixedIterationFixture::kFrames));
  for (auto _ : state) {
    engine.decode_quantised(ptrs, {}, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetLabel("tier=" + to_string(engine.tier()) +
                 " lanes=" + std::to_string(engine.lanes()));
  state.SetItemsProcessed(state.iterations() *
                          MixedIterationFixture::kFrames *
                          fx.code.k_info());
}
BENCHMARK(BM_MinSumStreamRefillMixedInt16)->MinWarmUpTime(0.5)->MinTime(2.0);

// int8 lanes under the strict 8-bit-APP config (the only config whose
// rails fit a byte), also pre-quantised: 4x-packed frames alias straight
// into the engine's staging slots. The decode differs from the 10-bit-APP
// cases (different config, different iteration counts), so the gated
// ratio vs the int32 case (>= 1.9x) is an engine-density bar, not a
// same-arithmetic comparison.
void BM_MinSumStreamRefillMixedInt8(benchmark::State& state) {
  MixedIterationFixture fx;
  core::DecoderConfig cfg = fx.cfg;
  cfg.app_extra_bits = 0;
  core::StreamBatchEngine engine(cfg, 0, core::kernels::LaneType::kInt8);
  engine.reconfigure(fx.code);
  const auto tx = static_cast<std::size_t>(fx.code.transmitted_bits());
  std::vector<core::QuantisedFrame> quantised;
  std::vector<const core::QuantisedFrame*> ptrs;
  for (int f = 0; f < MixedIterationFixture::kFrames; ++f)
    quantised.push_back(sim::quantise_llrs(
        fx.code, cfg,
        std::span<const double>(fx.llrs).subspan(
            static_cast<std::size_t>(f) * tx, tx)));
  for (const auto& q : quantised) ptrs.push_back(&q);
  std::vector<core::FixedDecodeResult> results(
      static_cast<std::size_t>(MixedIterationFixture::kFrames));
  for (auto _ : state) {
    engine.decode_quantised(ptrs, {}, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetLabel("tier=" + to_string(engine.tier()) +
                 " lanes=" + std::to_string(engine.lanes()));
  state.SetItemsProcessed(state.iterations() *
                          MixedIterationFixture::kFrames *
                          fx.code.k_info());
}
BENCHMARK(BM_MinSumStreamRefillMixedInt8)->MinWarmUpTime(0.5)->MinTime(2.0);

// ---- ingest-stage microbenches ----------------------------------------------
// The two stages the quantised-domain refactor fused or folded away,
// measured in isolation on the NR rate-matched shape (puncturing +
// fillers, the worst-case deposit): the legacy two-pass ingest (int32
// deposit, then a narrowing clamp copy into the lane type) vs the fused
// single-pass deposit_transmitted_quant<T>; and the legacy strided retire
// gather vs the retire-fold (hard decisions read from the codeword scan's
// packed masks).

struct DepositFixture {
  codes::QCCode code = codes::make_nr_code(codes::Rate::kR13, 96, 5000, 120);
  core::DecoderConfig cfg{.max_iterations = 10,
                          .kernel = core::CnuKernel::kMinSum};
  core::DatapathTraits<std::int32_t> traits{cfg};
  core::DatapathTraits<std::int32_t> strict_traits{
      core::DecoderConfig{.app_extra_bits = 0,
                          .max_iterations = 10,
                          .kernel = core::CnuKernel::kMinSum}};
  std::vector<double> llr;  // one transmitted frame

  DepositFixture() {
    auto encoder = enc::make_encoder(code);
    util::Xoshiro256 rng(31);
    const double sigma = channel::ebn0_to_sigma(
        2.5, code.effective_rate(), channel::Modulation::kBpsk);
    std::vector<std::uint8_t> info(
        static_cast<std::size_t>(code.payload_bits()));
    enc::random_bits(rng, info);
    const auto cw = encoder->encode(info);
    llr = sim::transmit_llrs(code, cw, channel::Modulation::kBpsk, sigma,
                             rng);
  }
};

// The legacy ingest: int32 deposit + second narrowing pass into int16.
void BM_DepositDouble(benchmark::State& state) {
  DepositFixture fx;
  const auto n = static_cast<std::size_t>(fx.code.n());
  std::vector<std::int32_t> wide(n);
  std::vector<std::int16_t> narrow(n);
  std::vector<double> acc;
  for (auto _ : state) {
    core::deposit_transmitted_quant<std::int32_t>(
        fx.code, fx.traits, fx.llr, std::span<std::int32_t>(wide), acc);
    for (std::size_t v = 0; v < n; ++v)
      narrow[v] = core::clamp_to_lane<std::int16_t>(wide[v]);
    benchmark::DoNotOptimize(narrow.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.code.n());
}
BENCHMARK(BM_DepositDouble)->MinWarmUpTime(0.2)->MinTime(1.0);

void BM_DepositFusedInt16(benchmark::State& state) {
  DepositFixture fx;
  std::vector<std::int16_t> raw(static_cast<std::size_t>(fx.code.n()));
  std::vector<double> acc;
  for (auto _ : state) {
    core::deposit_transmitted_quant<std::int16_t>(
        fx.code, fx.traits, fx.llr, std::span<std::int16_t>(raw), acc);
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.code.n());
}
BENCHMARK(BM_DepositFusedInt16)->MinWarmUpTime(0.2)->MinTime(1.0);

void BM_DepositFusedInt8(benchmark::State& state) {
  DepositFixture fx;
  std::vector<std::int8_t> raw(static_cast<std::size_t>(fx.code.n()));
  std::vector<double> acc;
  for (auto _ : state) {
    core::deposit_transmitted_quant<std::int8_t>(
        fx.code, fx.strict_traits, fx.llr, std::span<std::int8_t>(raw),
        acc);
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.code.n());
}
BENCHMARK(BM_DepositFusedInt8)->MinWarmUpTime(0.2)->MinTime(1.0);

// Retire-stage shapes over one engine-width SoA APP memory (wimax 2304,
// int16 lanes): the legacy strided gather walks one word per cache line
// per retiree; the folded path runs the dispatched codeword scan (sign
// pack + uint64 syndrome — work the stopping rule already pays) and reads
// each retiree as a dense bit column of the packed masks.
// Both retire benches measure the MARGINAL cost of capturing a retire
// burst's hard decisions — the codeword scan itself runs every iteration
// in either design (it is the stop rule), so it is priced in neither.
// The gather side re-walks the strided L memory (one 64-byte line per
// variable per burst); the folded side reads the bit columns the scan
// already packed into hard_mask (8 sequential bytes per variable).
struct RetireFixture {
  codes::QCCode code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  int lanes = core::kernels::preferred_lanes(core::kernels::LaneType::kInt16);
  core::SoaVector<std::int16_t> l_soa;
  std::vector<std::uint64_t> hard_mask;
  static constexpr int kRetirees = 4;

  RetireFixture() {
    util::Xoshiro256 rng(37);
    l_soa.resize(static_cast<std::size_t>(code.n()) *
                 static_cast<std::size_t>(lanes));
    for (auto& v : l_soa)
      v = static_cast<std::int16_t>(static_cast<std::int32_t>(rng()) % 511 -
                                    255);
    // The mask state the stop scan leaves behind (its production cost is
    // part of the per-iteration scan, not of retirement).
    hard_mask.resize(static_cast<std::size_t>(code.n()));
    std::vector<std::uint8_t> ok(static_cast<std::size_t>(lanes));
    core::soa_codeword_scan(code, l_soa.data(), lanes, hard_mask.data(),
                            ok.data());
  }
};

void BM_RetireGather(benchmark::State& state) {
  RetireFixture fx;
  const auto n = static_cast<std::size_t>(fx.code.n());
  const auto lanes = static_cast<std::size_t>(fx.lanes);
  std::vector<std::vector<std::uint8_t>> bits(
      RetireFixture::kRetirees, std::vector<std::uint8_t>(n));
  for (auto _ : state) {
    for (std::size_t v = 0; v < n; ++v) {
      const std::int16_t* row = &fx.l_soa[v * lanes];
      for (int i = 0; i < RetireFixture::kRetirees; ++i)
        bits[static_cast<std::size_t>(i)][v] = row[7 * i] < 0 ? 1 : 0;
    }
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(state.iterations() * RetireFixture::kRetirees *
                          fx.code.n());
}
BENCHMARK(BM_RetireGather)->MinWarmUpTime(0.2)->MinTime(1.0);

void BM_RetireFoldedScan(benchmark::State& state) {
  RetireFixture fx;
  const auto n = static_cast<std::size_t>(fx.code.n());
  std::vector<std::vector<std::uint8_t>> bits(
      RetireFixture::kRetirees, std::vector<std::uint8_t>(n));
  for (auto _ : state) {
    // Mirrors the engines' retire-fold loop: one vectorizable column
    // extraction per retiree (fixed shift count) over the packed masks.
    for (int i = 0; i < RetireFixture::kRetirees; ++i) {
      std::uint8_t* b = bits[static_cast<std::size_t>(i)].data();
      const std::uint64_t* mask = fx.hard_mask.data();
      const int w = 7 * i;
      for (std::size_t v = 0; v < n; ++v)
        b[v] = static_cast<std::uint8_t>((mask[v] >> w) & 1);
    }
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(state.iterations() * RetireFixture::kRetirees *
                          fx.code.n());
}
BENCHMARK(BM_RetireFoldedScan)->MinWarmUpTime(0.2)->MinTime(1.0);

// Same refill engine pinned to the portable scalar kernels AT THE SAME
// LANE WIDTH and element type as the dispatched int32 engine above
// (forcing scalar would otherwise default to 8 lanes and conflate the
// lane-width effect with the tier effect): the gap to
// BM_MinSumStreamRefillMixed is the pure SIMD-dispatch win.
void BM_MinSumStreamRefillMixedScalarTier(benchmark::State& state) {
  MixedIterationFixture fx;
  const int dispatched_lanes = core::StreamBatchEngine::preferred_lanes();
  core::kernels::force_tier(core::kernels::Tier::kScalar);
  core::StreamBatchEngine engine(fx.cfg, dispatched_lanes,
                                 core::kernels::LaneType::kInt32);
  core::kernels::clear_forced_tier();
  engine.reconfigure(fx.code);
  std::vector<core::FixedDecodeResult> results(
      static_cast<std::size_t>(MixedIterationFixture::kFrames));
  for (auto _ : state) {
    engine.decode(fx.llrs, {}, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          MixedIterationFixture::kFrames *
                          fx.code.k_info());
}
BENCHMARK(BM_MinSumStreamRefillMixedScalarTier);

// Raw row-kernel throughput per lane type at the dispatched tier and
// preferred width: one degree-20 check row, items = edge-lanes per call.
// The int16/int8 cases should land near 2x/4x the int32 edge-lane rate
// (same vector count per call, more lanes per vector).
template <class T>
void run_row_kernel_bench(benchmark::State& state) {
  const int lanes =
      core::kernels::preferred_lanes(core::kernels::lane_type_of<T>);
  const int deg = 20;
  const auto fn = core::kernels::row_kernel<T>(lanes);
  const std::int32_t app_hi = std::min<std::int32_t>(
      511, core::kernels::lane_raw_max(core::kernels::lane_type_of<T>));
  const core::kernels::RowBounds bounds{-app_hi, app_hi, -127, 127, 0, 0};
  const auto d = static_cast<std::size_t>(deg);
  const auto w = static_cast<std::size_t>(lanes);
  std::vector<std::vector<T>> l(d, std::vector<T>(w));
  std::vector<T> lambda(d * w, T{0}), full(d * w), clip(d * w);
  std::vector<T*> rows(d);
  for (std::size_t e = 0; e < d; ++e) {
    for (std::size_t k = 0; k < w; ++k)
      l[e][k] = static_cast<T>((static_cast<std::int32_t>(7 * e + 3 * k) %
                                (2 * app_hi + 1)) -
                               app_hi);
    rows[e] = l[e].data();
  }
  for (auto _ : state) {
    fn(rows.data(), lambda.data(), full.data(), clip.data(), deg, bounds);
    benchmark::DoNotOptimize(lambda.data());
  }
  state.SetLabel("lanes=" + std::to_string(lanes));
  state.SetItemsProcessed(state.iterations() * deg * lanes);
}
void BM_MinSumRowKernelInt32(benchmark::State& state) {
  run_row_kernel_bench<std::int32_t>(state);
}
BENCHMARK(BM_MinSumRowKernelInt32)->MinWarmUpTime(0.2)->MinTime(1.0);
void BM_MinSumRowKernelInt16(benchmark::State& state) {
  run_row_kernel_bench<std::int16_t>(state);
}
BENCHMARK(BM_MinSumRowKernelInt16)->MinWarmUpTime(0.2)->MinTime(1.0);
void BM_MinSumRowKernelInt8(benchmark::State& state) {
  run_row_kernel_bench<std::int8_t>(state);
}
BENCHMARK(BM_MinSumRowKernelInt8)->MinWarmUpTime(0.2)->MinTime(1.0);

// ---- 5G NR workload (punctured + rate-matched transmission) -----------------
// BG1 at z = 96: transmitted frames are E = n - 2z LLRs; the decode path
// includes the LLR deposit (puncturing erasures) on every frame.

struct NrDecodeFixture {
  codes::QCCode code = codes::make_code(
      {codes::Standard::kNr5g, codes::Rate::kR13, 96});
  std::vector<double> llr;   // one transmitted frame (E LLRs), ~2.5 dB
  std::vector<double> llrs;  // kBatchFrames frames back to back

  NrDecodeFixture() {
    auto encoder = enc::make_encoder(code);
    util::Xoshiro256 rng(13);
    const double sigma = channel::ebn0_to_sigma(
        2.5, code.effective_rate(), channel::Modulation::kBpsk);
    std::vector<std::uint8_t> info(
        static_cast<std::size_t>(code.payload_bits()));
    for (int f = 0; f < kBatchFrames; ++f) {
      enc::random_bits(rng, info);
      const auto cw = encoder->encode(info);
      const auto one = sim::transmit_llrs(code, cw,
                                          channel::Modulation::kBpsk,
                                          sigma, rng);
      if (f == 0) llr = one;
      llrs.insert(llrs.end(), one.begin(), one.end());
    }
  }
};

void BM_NrFixedDecode(benchmark::State& state) {
  NrDecodeFixture fx;
  core::ReconfigurableDecoder dec(fx.code,
                                  {.kernel = core::CnuKernel::kMinSum,
                                   .stop_on_codeword = true});
  for (auto _ : state) benchmark::DoNotOptimize(dec.decode(fx.llr));
  state.SetItemsProcessed(state.iterations() * fx.code.payload_bits());
}
BENCHMARK(BM_NrFixedDecode);

void BM_NrBatchedDecode(benchmark::State& state) {
  NrDecodeFixture fx;
  core::ReconfigurableDecoder dec(fx.code,
                                  {.kernel = core::CnuKernel::kMinSum,
                                   .stop_on_codeword = true});
  for (auto _ : state) benchmark::DoNotOptimize(dec.decode_batch(fx.llrs));
  state.SetItemsProcessed(state.iterations() * kBatchFrames *
                          fx.code.payload_bits());
}
BENCHMARK(BM_NrBatchedDecode);

// ---- NR z = 384 narrow-lane headline ---------------------------------------
// The tentpole workload: largest NR lift (BG1, z = 384, n = 25600) through
// the stream refill engine at int32 vs int16 lanes. Same frames, same
// arithmetic (int16 is bit-identical by rail containment) — the items/sec
// ratio is the measured frames/sec win recorded in BENCH_PR6.json.

struct NrZ384StreamFixture {
  codes::QCCode code = codes::make_code(
      {codes::Standard::kNr5g, codes::Rate::kR13, 384});
  core::DecoderConfig cfg{.max_iterations = 10,
                          .kernel = core::CnuKernel::kMinSum,
                          .early_termination = {.enabled = true},
                          .stop_on_codeword = true};
  static constexpr int kFrames = 256;
  std::vector<double> llrs;  // kFrames transmitted frames, ~2.5 dB

  NrZ384StreamFixture() {
    auto encoder = enc::make_encoder(code);
    util::Xoshiro256 rng(29);
    const double sigma = channel::ebn0_to_sigma(
        2.5, code.effective_rate(), channel::Modulation::kBpsk);
    std::vector<std::uint8_t> info(
        static_cast<std::size_t>(code.payload_bits()));
    for (int f = 0; f < kFrames; ++f) {
      enc::random_bits(rng, info);
      const auto cw = encoder->encode(info);
      const auto one = sim::transmit_llrs(code, cw,
                                          channel::Modulation::kBpsk,
                                          sigma, rng);
      llrs.insert(llrs.end(), one.begin(), one.end());
    }
  }
};

template <core::kernels::LaneType Type>
void run_nr_z384_stream_bench(benchmark::State& state) {
  NrZ384StreamFixture fx;
  core::StreamBatchEngine engine(fx.cfg, 0, Type);
  engine.reconfigure(fx.code);
  std::vector<core::FixedDecodeResult> results(
      static_cast<std::size_t>(NrZ384StreamFixture::kFrames));
  for (auto _ : state) {
    engine.decode(fx.llrs, {}, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetLabel("tier=" + to_string(engine.tier()) +
                 " lanes=" + std::to_string(engine.lanes()));
  state.SetItemsProcessed(state.iterations() * NrZ384StreamFixture::kFrames *
                          fx.code.payload_bits());
}
void BM_NrZ384StreamInt32(benchmark::State& state) {
  run_nr_z384_stream_bench<core::kernels::LaneType::kInt32>(state);
}
BENCHMARK(BM_NrZ384StreamInt32)->MinWarmUpTime(0.5)->MinTime(4.0);
void BM_NrZ384StreamInt16(benchmark::State& state) {
  run_nr_z384_stream_bench<core::kernels::LaneType::kInt16>(state);
}
BENCHMARK(BM_NrZ384StreamInt16)->MinWarmUpTime(0.5)->MinTime(4.0);

void BM_FloatEngineDecode2304(benchmark::State& state) {
  DecodeFixture fx;
  core::ReconfigurableDecoder dec(fx.code,
                                  {.stop_on_codeword = true,
                                   .datapath = core::Datapath::kFloat});
  for (auto _ : state) benchmark::DoNotOptimize(dec.decode(fx.llr));
  state.SetItemsProcessed(state.iterations() * fx.code.k_info());
}
BENCHMARK(BM_FloatEngineDecode2304);

void BM_Encode2304(benchmark::State& state) {
  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  const auto encoder = enc::make_encoder(code);
  util::Xoshiro256 rng(7);
  std::vector<std::uint8_t> info(static_cast<std::size_t>(code.k_info()));
  std::vector<std::uint8_t> cw(static_cast<std::size_t>(code.n()));
  enc::random_bits(rng, info);
  for (auto _ : state) {
    encoder->encode(info, cw);
    benchmark::DoNotOptimize(cw.data());
  }
  state.SetItemsProcessed(state.iterations() * code.k_info());
}
BENCHMARK(BM_Encode2304);

void BM_CodeExpansion(benchmark::State& state) {
  for (auto _ : state) {
    const auto code = codes::make_code(
        {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
    benchmark::DoNotOptimize(code.edges());
  }
}
BENCHMARK(BM_CodeExpansion);

}  // namespace

BENCHMARK_MAIN();
