#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "ldpc/arch/circular_shifter.hpp"
#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/arch/frame_pipeline.hpp"
#include "ldpc/arch/memory.hpp"
#include "ldpc/arch/pipeline.hpp"
#include "ldpc/arch/schedule_lock.hpp"
#include "ldpc/arch/throughput.hpp"
#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"

namespace {

using namespace ldpc;
using arch::ChipDimensions;
using arch::CircularShifter;
using arch::PipelineConfig;
using arch::PipelineModel;
using codes::Rate;
using codes::Standard;

// ---- circular shifter -------------------------------------------------------

TEST(CircularShifter, StageCountIsLog2) {
  EXPECT_EQ(CircularShifter(96).stages(), 7);
  EXPECT_EQ(CircularShifter(64).stages(), 6);
  EXPECT_EQ(CircularShifter(1).stages(), 0);
  EXPECT_EQ(CircularShifter(127).stages(), 7);
}

TEST(CircularShifter, RotatesWithinActiveLanes) {
  CircularShifter sh(8);
  std::vector<std::int32_t> in{10, 20, 30, 40, 50, -1, -1, -1};
  std::vector<std::int32_t> out(8, 99);
  sh.rotate(in, 2, 5, out);
  EXPECT_EQ(out[0], 30);
  EXPECT_EQ(out[4], 20);  // (4+2) mod 5 = 1
  EXPECT_EQ(out[5], 99);  // untouched beyond z
}

TEST(CircularShifter, ZeroShiftIsIdentity) {
  CircularShifter sh(16);
  std::vector<std::int32_t> in{1, 2, 3, 4};
  EXPECT_EQ(sh.rotate(in, 0), in);
}

TEST(CircularShifter, RotateBackInverts) {
  CircularShifter sh(96);
  std::vector<std::int32_t> in(96), fwd(96), back(96);
  std::iota(in.begin(), in.end(), 100);
  for (int shift : {0, 1, 17, 95}) {
    sh.rotate(in, shift, 96, fwd);
    sh.rotate_back(fwd, shift, 96, back);
    EXPECT_EQ(back, in) << shift;
  }
}

TEST(CircularShifter, InvalidArgsThrow) {
  CircularShifter sh(8);
  std::vector<std::int32_t> buf(8);
  EXPECT_THROW(CircularShifter(0), std::invalid_argument);
  EXPECT_THROW(sh.rotate(buf, 0, 9, buf), std::invalid_argument);
  EXPECT_THROW(sh.rotate(buf, 9, 8, buf), std::invalid_argument);
  EXPECT_THROW(sh.rotate(buf, -1, 8, buf), std::invalid_argument);
  EXPECT_THROW(sh.rotate_back(buf, 9, 8, buf), std::invalid_argument);
}

// ---- boundary shifts: 0, z-1, the full-cycle control word z, and z values
// that are not powers of two (the mux tree has spare span there) ------------

TEST(CircularShifter, BoundaryShiftsZeroAndFullCycle) {
  CircularShifter sh(96);
  std::vector<std::int32_t> in(96), out(96);
  std::iota(in.begin(), in.end(), -48);
  for (int z : {1, 24, 96}) {
    sh.rotate(in, 0, z, out);
    EXPECT_TRUE(std::equal(in.begin(), in.begin() + z, out.begin())) << z;
    // shift == z wraps the whole ring: identity, not an error.
    sh.rotate(in, z, z, out);
    EXPECT_TRUE(std::equal(in.begin(), in.begin() + z, out.begin())) << z;
    sh.rotate_back(in, z, z, out);
    EXPECT_TRUE(std::equal(in.begin(), in.begin() + z, out.begin())) << z;
  }
}

TEST(CircularShifter, MaximalShiftIsOneStepFromIdentity) {
  CircularShifter sh(96);
  std::vector<std::int32_t> in(96), out(96);
  std::iota(in.begin(), in.end(), 1000);
  const int z = 96;
  sh.rotate(in, z - 1, z, out);
  // out[i] = in[(i + z-1) mod z]: lane 0 sees in[z-1], lane 1 sees in[0].
  EXPECT_EQ(out[0], in[static_cast<std::size_t>(z - 1)]);
  EXPECT_EQ(out[1], in[0]);
  EXPECT_EQ(out[static_cast<std::size_t>(z - 1)],
            in[static_cast<std::size_t>(z - 2)]);
}

TEST(CircularShifter, NonPowerOfTwoLaneCountsInvert) {
  // z not a multiple of the power-of-two mux span (127, 96, 24, 5): the
  // forward/inverse pair must still be exact for every shift, including
  // the active-subset case z < z_max.
  CircularShifter sh(127);
  std::vector<std::int32_t> in(127), fwd(127), back(127);
  std::iota(in.begin(), in.end(), -63);
  for (int z : {5, 24, 96, 127}) {
    for (int shift = 0; shift <= z; ++shift) {
      sh.rotate(in, shift, z, fwd);
      sh.rotate_back(fwd, shift, z, back);
      EXPECT_TRUE(std::equal(in.begin(), in.begin() + z, back.begin()))
          << "z=" << z << " shift=" << shift;
    }
  }
}

TEST(CircularShifter, SingleLaneRingIsAlwaysIdentity) {
  CircularShifter sh(8);
  std::vector<std::int32_t> in{42}, out{0};
  sh.rotate(in, 0, 1, out);
  EXPECT_EQ(out[0], 42);
  sh.rotate(in, 1, 1, out);  // shift == z == 1
  EXPECT_EQ(out[0], 42);
}

TEST(CircularShifter, MuxCountForAreaModel) {
  EXPECT_EQ(CircularShifter(96).mux_count(), 7 * 96);
}

// ---- memories ---------------------------------------------------------------

TEST(LMemory, ReadWriteRoundTripAndStats) {
  arch::LMemory mem(4, 8);
  std::vector<std::int32_t> word{1, 2, 3, 4, 5, 6};
  mem.write(2, 6, word);
  std::vector<std::int32_t> out(6);
  mem.read(2, 6, out);
  EXPECT_EQ(out, word);
  EXPECT_EQ(mem.stats().reads, 1);
  EXPECT_EQ(mem.stats().writes, 1);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().reads, 0);
}

TEST(LMemory, LaneAccessorsBypassStats) {
  arch::LMemory mem(2, 4);
  mem.set_lane(1, 3, -7);
  EXPECT_EQ(mem.lane(1, 3), -7);
  EXPECT_EQ(mem.stats().reads + mem.stats().writes, 0);
}

TEST(LMemory, BoundsChecked) {
  arch::LMemory mem(2, 4);
  std::vector<std::int32_t> buf(4);
  EXPECT_THROW(mem.read(2, 4, buf), std::out_of_range);
  EXPECT_THROW(mem.read(0, 5, buf), std::invalid_argument);
  EXPECT_THROW(mem.lane(0, 4), std::out_of_range);
}

TEST(LambdaBanks, ActivationGatesAccess) {
  arch::LambdaMemoryBanks banks(8, 4, 6);
  banks.activate(4);
  EXPECT_EQ(banks.active_banks(), 4);
  banks.write(3, 0, 0, 42);
  EXPECT_EQ(banks.read(3, 0, 0), 42);
  // Banks 4..7 are deactivated: the control logic must never touch them.
  EXPECT_THROW(banks.read(4, 0, 0), std::out_of_range);
  EXPECT_THROW(banks.write(7, 0, 0, 1), std::out_of_range);
}

TEST(LambdaBanks, ActivationClearsContents) {
  arch::LambdaMemoryBanks banks(4, 2, 3);
  banks.activate(4);
  banks.write(0, 1, 2, 99);
  banks.activate(4);
  EXPECT_EQ(banks.read(0, 1, 2), 0);
}

TEST(LambdaBanks, PerBankStats) {
  arch::LambdaMemoryBanks banks(4, 2, 3);
  banks.activate(2);
  banks.write(0, 0, 0, 1);
  banks.read(0, 0, 0);
  banks.read(1, 1, 1);
  EXPECT_EQ(banks.stats(0).reads, 1);
  EXPECT_EQ(banks.stats(0).writes, 1);
  EXPECT_EQ(banks.stats(1).reads, 1);
  EXPECT_EQ(banks.total_reads(), 2);
  EXPECT_EQ(banks.total_writes(), 1);
}

// ---- pipeline ---------------------------------------------------------------

TEST(Pipeline, StageCyclesMatchRadix) {
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      96});
  PipelineModel r2(code, {.radix = core::Radix::kR2});
  PipelineModel r4(code, {.radix = core::Radix::kR4});
  for (int l = 0; l < code.block_rows(); ++l) {
    const int d = static_cast<int>(code.layers()[l].size());
    EXPECT_EQ(r2.stage_cycles(l), d);
    EXPECT_EQ(r4.stage_cycles(l), (d + 1) / 2);
  }
}

TEST(Pipeline, NoOverlapHasNoStalls) {
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      96});
  PipelineModel model(code, {.overlap = false});
  const auto t = model.analyze_natural();
  EXPECT_EQ(t.total_stalls, 0);
  // Without overlap each layer pays both stages.
  long long expect = 0;
  for (int l = 0; l < code.block_rows(); ++l)
    expect += 2LL * model.stage_cycles(l);
  EXPECT_EQ(t.cycles_per_iteration, expect);
}

TEST(Pipeline, OverlapHalvesCyclesUpToStalls) {
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      96});
  PipelineModel overlap(code, {.overlap = true});
  PipelineModel serial(code, {.overlap = false});
  const auto to = overlap.analyze_natural();
  const auto ts = serial.analyze_natural();
  EXPECT_LT(to.cycles_per_iteration, ts.cycles_per_iteration);
  EXPECT_EQ(to.cycles_per_iteration,
            ts.cycles_per_iteration / 2 + to.total_stalls);
}

TEST(Pipeline, ReorderingReducesStalls) {
  // The paper cites [10]: shuffling the layer order avoids stalls.
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      96});
  PipelineModel model(code, {});
  const auto natural = model.analyze_natural();
  const auto optimized = model.analyze(model.optimize_order());
  EXPECT_LE(optimized.total_stalls, natural.total_stalls);
  EXPECT_GT(natural.total_stalls, 0);  // rate-1/2 layers share columns
}

TEST(Pipeline, AnalyzeValidatesPermutation) {
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      24});
  PipelineModel model(code, {});
  std::vector<int> bad{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_THROW(model.analyze(bad), std::invalid_argument);
  std::vector<int> small{0, 1};
  EXPECT_THROW(model.analyze(small), std::invalid_argument);
}

TEST(Pipeline, ShifterLatencyWidensStallWindow) {
  // The pipelined shifter adds its depth to the read-after-write window,
  // showing up as extra stalls between overlapped layers (not as a flat
  // per-layer cost).
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      96});
  PipelineModel with(code,
                     {.include_shifter_latency = true, .shifter_stages = 7});
  PipelineModel without(code, {});
  const auto tw = with.analyze_natural();
  const auto to = without.analyze_natural();
  EXPECT_GT(tw.total_stalls, to.total_stalls);
  EXPECT_EQ(tw.cycles_per_iteration - to.cycles_per_iteration,
            tw.total_stalls - to.total_stalls);
}

TEST(Pipeline, OptimizeOrderIsPermutation) {
  for (const auto& id :
       {codes::CodeId{Standard::kWimax80216e, Rate::kR56, 96},
        codes::CodeId{Standard::kDmbT, Rate::kR35, 127}}) {
    const auto code = codes::make_code(id);
    PipelineModel model(code, {});
    auto order = model.optimize_order();
    std::sort(order.begin(), order.end());
    for (int l = 0; l < code.block_rows(); ++l) EXPECT_EQ(order[l], l);
  }
}

TEST(Pipeline, StallBetweenMatchesNestedLoopReference) {
  // Reference: the direct definition over processing orders. For every
  // block column both layers touch, `next` reads it in slot rpos and
  // `prev` writes it in slot wpos; the stall is the largest
  // write-cycle - read-cycle + margin over those pairs, floored at 0.
  auto reference = [](const codes::QCCode& code, const PipelineConfig& pc,
                      int prev, int next, const std::vector<int>& prev_order,
                      const std::vector<int>& next_order) {
    auto cycle = [&](std::size_t slot) {
      return static_cast<int>(pc.radix == core::Radix::kR2 ? slot
                                                           : slot / 2);
    };
    const int margin = pc.read_after_write_margin +
                       (pc.include_shifter_latency ? pc.shifter_stages : 0);
    const auto& lp = code.layers()[static_cast<std::size_t>(prev)];
    const auto& ln = code.layers()[static_cast<std::size_t>(next)];
    int stall = 0;
    for (std::size_t rpos = 0; rpos < next_order.size(); ++rpos)
      for (std::size_t wpos = 0; wpos < prev_order.size(); ++wpos)
        if (lp[static_cast<std::size_t>(prev_order[wpos])].block_col ==
            ln[static_cast<std::size_t>(next_order[rpos])].block_col)
          stall = std::max(stall, cycle(wpos) - cycle(rpos) + margin);
    return stall;
  };
  auto slots_of = [](const std::vector<int>& order) {
    std::vector<int> slots(order.size());
    for (std::size_t s = 0; s < order.size(); ++s)
      slots[static_cast<std::size_t>(order[s])] = static_cast<int>(s);
    return slots;
  };

  std::mt19937 rng(2024);
  for (const auto& id : {codes::CodeId{Standard::kWimax80216e, Rate::kR56, 96},
                         codes::CodeId{Standard::kWlan80211n, Rate::kR34, 81},
                         codes::CodeId{Standard::kDmbT, Rate::kR35, 127},
                         codes::CodeId{Standard::kNr5g, Rate::kR13, 384}}) {
    const auto code = codes::make_code(id);
    for (const auto radix : {core::Radix::kR2, core::Radix::kR4})
      for (const bool shifter : {false, true}) {
        const PipelineConfig pc{.radix = radix,
                                .include_shifter_latency = shifter};
        const PipelineModel model(code, pc);
        for (int prev = 0; prev < code.block_rows(); ++prev)
          for (int next = 0; next < code.block_rows(); ++next) {
            std::vector<int> po(
                code.layers()[static_cast<std::size_t>(prev)].size());
            std::vector<int> no(
                code.layers()[static_cast<std::size_t>(next)].size());
            std::iota(po.begin(), po.end(), 0);
            std::iota(no.begin(), no.end(), 0);
            for (int trial = 0; trial < 3; ++trial) {
              if (trial > 0) {  // trial 0 is the canonical order
                std::shuffle(po.begin(), po.end(), rng);
                std::shuffle(no.begin(), no.end(), rng);
              }
              ASSERT_EQ(model.stall_between(prev, next, slots_of(po),
                                            slots_of(no)),
                        reference(code, pc, prev, next, po, no))
                  << code.name() << " " << prev << "->" << next;
            }
          }
      }
  }
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12, 24});
  const PipelineModel model(code, {});
  const std::vector<int> short_slots{0, 1};
  EXPECT_THROW(model.stall_between(0, 1, short_slots, short_slots),
               std::invalid_argument);
}

TEST(Pipeline, CompiledSchedulesMatchLockedDigests) {
  // tests/data/chip_schedules.txt (alist_tool schedules) locks the layer
  // order, entry orders, per-layer stalls, cycles per iteration and drain
  // of every registered mode under 8 pipeline configs. The schedule feeds
  // layered arithmetic, so it must not move when the compiler changes.
  const std::string path =
      std::string(LDPC_GOLDEN_DIR) + "/chip_schedules.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::vector<std::string> locked;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') locked.push_back(line);

  std::vector<std::string> compiled;
  for (const auto& id : arch::schedule_lock::modes()) {
    const auto code = codes::make_code(id);
    for (const auto& pc : arch::schedule_lock::configs())
      compiled.push_back(arch::schedule_lock::digest_line(code, pc));
  }
  ASSERT_EQ(compiled.size(), locked.size());
  for (std::size_t i = 0; i < compiled.size(); ++i)
    ASSERT_EQ(compiled[i], locked[i]) << "line " << i;
  for (const auto rate : {Rate::kR13, Rate::kR15})
    for (const int z : {96, 384}) {
      const auto name = codes::make_code({Standard::kNr5g, rate, z}).name();
      EXPECT_EQ(std::count_if(locked.begin(), locked.end(),
                              [&](const std::string& l) {
                                return l.ends_with(" mode=" + name);
                              }),
                8)
          << name;
    }
}

// ---- throughput -------------------------------------------------------------

TEST(Throughput, FormulaMatchesPaperOneGbps) {
  // Paper headline: 1 Gbps pipelined R4 at 450 MHz. For 802.16e rate-1/2
  // z=96 (E=76, k=24): T = 2*24*96*0.5*450e6/(76*I). With I~10 that is
  // ~1.36 Gbps-per-iteration/13.6; the 1 Gbps figure corresponds to the
  // effective iteration count the chip sustains. Verify the formula value
  // itself and its scaling.
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      96});
  const double t10 =
      arch::formula_throughput(code, core::Radix::kR4, 450e6, 10);
  const double expected = 2.0 * 24 * 96 * 0.5 * 450e6 /
                          (code.nonzero_blocks() * 10.0);
  EXPECT_DOUBLE_EQ(t10, expected);
  // Rate-5/6 hits >1 Gbps at 10 iterations (the multi-mode chip's peak).
  const auto high = codes::make_code({Standard::kWimax80216e, Rate::kR56,
                                      96});
  EXPECT_GT(arch::formula_throughput(high, core::Radix::kR4, 450e6, 10),
            1e9);
}

TEST(Throughput, R4DoublesR2) {
  const auto code = codes::make_code({Standard::kWlan80211n, Rate::kR12,
                                      81});
  EXPECT_DOUBLE_EQ(
      arch::formula_throughput(code, core::Radix::kR4, 450e6, 10),
      2.0 * arch::formula_throughput(code, core::Radix::kR2, 450e6, 10));
}

TEST(Throughput, ModeledWithinPaperDegradationBand) {
  // Section III-E: shifter latency (plus stalls) degrades throughput by
  // about 5-15%.
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      96});
  PipelineConfig pc;
  pc.include_shifter_latency = true;
  pc.shifter_stages = 7;
  const auto report = arch::modeled_throughput(code, pc, 450e6, 10);
  EXPECT_GT(report.degradation, 0.03);
  EXPECT_LT(report.degradation, 0.25);
  EXPECT_LT(report.modeled_bps, report.formula_bps);
}

TEST(Throughput, InvalidParamsThrow) {
  const auto code = codes::make_code({Standard::kWimax80216e, Rate::kR12,
                                      24});
  EXPECT_THROW(arch::formula_throughput(code, core::Radix::kR4, 0, 10),
               std::invalid_argument);
  EXPECT_THROW(arch::formula_throughput(code, core::Radix::kR4, 1e6, 0),
               std::invalid_argument);
}

// ---- decoder chip -----------------------------------------------------------

struct ChipChain {
  codes::QCCode code;
  std::unique_ptr<enc::Encoder> encoder;
  util::Xoshiro256 rng;

  explicit ChipChain(const codes::CodeId& id, std::uint64_t seed = 1)
      : code(codes::make_code(id)), encoder(enc::make_encoder(code)),
        rng(seed) {}

  std::pair<std::vector<std::uint8_t>, std::vector<double>> frame(
      double ebn0_db) {
    std::vector<std::uint8_t> info(static_cast<std::size_t>(code.k_info()));
    enc::random_bits(rng, info);
    auto cw = encoder->encode(info);
    auto mod = channel::modulate(cw, channel::Modulation::kBpsk);
    const double sigma = channel::ebn0_to_sigma(ebn0_db, code.rate(),
                                                channel::Modulation::kBpsk);
    channel::AwgnChannel(sigma).transmit(mod.samples, rng);
    return {std::move(cw), channel::demap_llr(mod, sigma)};
  }
};

TEST(ChipDimensions, FitsChecksAllLimits) {
  const ChipDimensions paper{};  // z<=96, k<=24, j<=12
  EXPECT_TRUE(paper.fits(
      codes::make_code({Standard::kWimax80216e, Rate::kR12, 96})));
  EXPECT_TRUE(paper.fits(
      codes::make_code({Standard::kWlan80211n, Rate::kR56, 81})));
  EXPECT_FALSE(paper.fits(
      codes::make_code({Standard::kDmbT, Rate::kR35, 127})));
  EXPECT_TRUE(ChipDimensions::universal().fits(
      codes::make_code({Standard::kDmbT, Rate::kR25, 127})));
  // The paper chip cannot host NR (68 block columns, z up to 384); the
  // universal dimensions host every registered mode of every standard.
  EXPECT_FALSE(paper.fits(
      codes::make_code({Standard::kNr5g, codes::Rate::kR13, 96})));
  for (const auto& id : codes::all_modes())
    EXPECT_TRUE(ChipDimensions::universal().fits(codes::make_code(id)))
        << to_string(id);
}

TEST(DecoderChip, MatchesFunctionalDecoderBitExactly) {
  // The structural model (memories + shifter + banks) must reproduce the
  // functional decoder exactly when running the same layer order. This
  // validates the shifter routing and bank addressing.
  ChipChain chain({Standard::kWimax80216e, Rate::kR34A, 48}, 77);
  core::DecoderConfig cfg{.max_iterations = 5};
  arch::DecoderChip chip({}, cfg);
  chip.configure(chain.code);
  std::vector<int> natural(chain.code.block_rows());
  std::iota(natural.begin(), natural.end(), 0);
  chip.set_layer_order(natural);
  core::ReconfigurableDecoder functional(chain.code, cfg);

  for (int f = 0; f < 5; ++f) {
    auto [cw, llr] = chain.frame(3.0);
    const auto rc = chip.decode(llr);
    const auto rf = functional.decode(llr);
    EXPECT_EQ(rc.functional.bits, rf.bits) << "frame " << f;
    EXPECT_EQ(rc.functional.iterations, rf.iterations);
  }
}

TEST(DecoderChip, DecodesWithOptimizedOrder) {
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 96}, 31);
  arch::DecoderChip chip({}, {.stop_on_codeword = true});
  chip.configure(chain.code);
  for (int f = 0; f < 3; ++f) {
    auto [cw, llr] = chain.frame(3.0);
    const auto r = chip.decode(llr);
    EXPECT_TRUE(r.functional.converged);
    EXPECT_EQ(r.functional.bits, cw);
  }
}

TEST(DecoderChip, CountsMemoryAccesses) {
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 24}, 5);
  arch::DecoderChip chip({}, {.max_iterations = 1});
  chip.configure(chain.code);
  auto [cw, llr] = chain.frame(8.0);
  const auto r = chip.decode(llr);
  const long long e = chain.code.nonzero_blocks();
  // Per iteration: one L read + one L write per non-zero block.
  EXPECT_EQ(r.stats.l_mem_reads, e);
  EXPECT_EQ(r.stats.l_mem_writes, e);
  // Each of z SISO lanes reads and writes one Lambda message per block.
  EXPECT_EQ(r.stats.lambda_reads, e * 24);
  EXPECT_EQ(r.stats.lambda_writes, e * 24);
  // Every block's L word crosses the shifter twice (forward + inverse).
  EXPECT_EQ(r.stats.shifter_words, 2 * e);
  EXPECT_EQ(r.stats.active_sisos, 24);
  EXPECT_EQ(r.stats.idle_sisos, 96 - 24);
  EXPECT_GT(r.stats.cycles, 0);
}

TEST(DecoderChip, ReconfiguresAcrossStandards) {
  ChipChain wimax({Standard::kWimax80216e, Rate::kR12, 96}, 11);
  ChipChain wlan({Standard::kWlan80211n, Rate::kR34, 81}, 12);
  arch::DecoderChip chip({}, {.stop_on_codeword = true});
  for (int round = 0; round < 2; ++round) {
    chip.configure(wimax.code);
    auto [cw1, llr1] = wimax.frame(3.0);
    EXPECT_EQ(chip.decode(llr1).functional.bits, cw1);
    chip.configure(wlan.code);
    auto [cw2, llr2] = wlan.frame(4.0);
    EXPECT_EQ(chip.decode(llr2).functional.bits, cw2);
  }
}

TEST(DecoderChip, RejectsOversizedCode) {
  arch::DecoderChip chip({}, {});
  const auto big = codes::make_code({Standard::kDmbT, Rate::kR35, 127});
  EXPECT_THROW(chip.configure(big), std::invalid_argument);
}

TEST(DecoderChip, UniversalDimensionsHostDmbt) {
  ChipChain chain({Standard::kDmbT, Rate::kR35, 127}, 21);
  arch::DecoderChip chip(ChipDimensions::universal(),
                         {.stop_on_codeword = true});
  chip.configure(chain.code);
  auto [cw, llr] = chain.frame(4.0);
  const auto r = chip.decode(llr);
  EXPECT_TRUE(r.functional.converged);
  EXPECT_EQ(r.functional.bits, cw);
}

// Structural-vs-functional equivalence across a spread of modes: the
// memory/shifter plumbing must be invisible to the arithmetic everywhere.
class ChipEquivalence : public ::testing::TestWithParam<codes::CodeId> {};

TEST_P(ChipEquivalence, MatchesFunctionalDecoder) {
  ChipChain chain(GetParam(), 0xC41B + GetParam().z);
  core::DecoderConfig cfg{.max_iterations = 4};
  arch::DecoderChip chip(arch::ChipDimensions::universal(), cfg);
  chip.configure(chain.code);
  std::vector<int> natural(chain.code.block_rows());
  std::iota(natural.begin(), natural.end(), 0);
  chip.set_layer_order(natural);
  core::ReconfigurableDecoder functional(chain.code, cfg);
  for (int f = 0; f < 2; ++f) {
    auto [cw, llr] = chain.frame(2.5);
    EXPECT_EQ(chip.decode(llr).functional.bits, functional.decode(llr).bits)
        << chain.code.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spread, ChipEquivalence,
    ::testing::Values(
        codes::CodeId{Standard::kWimax80216e, Rate::kR12, 96},
        codes::CodeId{Standard::kWimax80216e, Rate::kR23A, 40},
        codes::CodeId{Standard::kWimax80216e, Rate::kR23B, 68},
        codes::CodeId{Standard::kWimax80216e, Rate::kR34A, 52},
        codes::CodeId{Standard::kWimax80216e, Rate::kR34B, 84},
        codes::CodeId{Standard::kWimax80216e, Rate::kR56, 28},
        codes::CodeId{Standard::kWlan80211n, Rate::kR12, 27},
        codes::CodeId{Standard::kWlan80211n, Rate::kR23, 54},
        codes::CodeId{Standard::kWlan80211n, Rate::kR34, 81},
        codes::CodeId{Standard::kWlan80211n, Rate::kR56, 54},
        codes::CodeId{Standard::kDmbT, Rate::kR25, 127},
        codes::CodeId{Standard::kDmbT, Rate::kR45, 127}),
    [](const auto& info) {
      std::string n = to_string(info.param);
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(DecoderChip, UnconfiguredUseThrows) {
  arch::DecoderChip chip({}, {});
  std::vector<double> llr(10);
  EXPECT_THROW(chip.decode(llr), std::logic_error);
  EXPECT_THROW(chip.code(), std::logic_error);
}

// ---- frame pipeline (In/Out buffer, Fig. 8) ---------------------------------

TEST(FramePipeline, AccountsDecodeAndIo) {
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 96}, 61);
  arch::DecoderChip chip({}, {.max_iterations = 5});
  arch::FramePipeline pipe(chip, {.io_bits_per_cycle = 64,
                                  .reconfigure_cycles = 32});
  auto [cw, llr] = chain.frame(3.0);
  pipe.decode_frame(chain.code, llr);
  const auto& s = pipe.stats();
  EXPECT_EQ(s.frames, 1);
  EXPECT_EQ(s.reconfigurations, 1);
  EXPECT_GT(s.decode_cycles, 0);
  // Input: 2304 transmitted LLRs x 8 bits; output: the 1152 payload hard
  // decisions (parity stays on chip); 64 bits per cycle.
  EXPECT_EQ(s.io_cycles, (2304LL * 8 + 1152 + 63) / 64);
  // Degenerate scheme: payload == k_info, so classic accounting is
  // unchanged by the scheme-aware ledger.
  EXPECT_EQ(pipe.payload_bits(), chain.code.k_info());
  EXPECT_EQ(s.payload_bits, chain.code.payload_bits());
}

TEST(FramePipeline, NoReconfigurationForSameCode) {
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 96}, 62);
  arch::DecoderChip chip({}, {.max_iterations = 3});
  arch::FramePipeline pipe(chip);
  for (int f = 0; f < 3; ++f) {
    auto [cw, llr] = chain.frame(3.0);
    pipe.decode_frame(chain.code, llr);
  }
  EXPECT_EQ(pipe.stats().reconfigurations, 1);  // only the first frame
  EXPECT_EQ(pipe.stats().frames, 3);
}

TEST(FramePipeline, ReconfiguresOnCodeSwitch) {
  ChipChain a({Standard::kWimax80216e, Rate::kR12, 96}, 63);
  ChipChain b({Standard::kWlan80211n, Rate::kR34, 81}, 64);
  arch::DecoderChip chip({}, {.max_iterations = 3});
  arch::FramePipeline pipe(chip);
  for (int round = 0; round < 2; ++round) {
    auto [cw1, llr1] = a.frame(3.0);
    pipe.decode_frame(a.code, llr1);
    auto [cw2, llr2] = b.frame(4.0);
    pipe.decode_frame(b.code, llr2);
  }
  EXPECT_EQ(pipe.stats().reconfigurations, 4);  // every frame switches
}

TEST(FramePipeline, UtilizationHighWhenDecodeBound) {
  // Long decode (10 iterations) vs wide bus: the core should dominate.
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 96}, 65);
  arch::DecoderChip chip({}, {.max_iterations = 10});
  arch::FramePipeline pipe(chip, {.io_bits_per_cycle = 128,
                                  .reconfigure_cycles = 0});
  for (int f = 0; f < 3; ++f) {
    auto [cw, llr] = chain.frame(3.0);
    pipe.decode_frame(chain.code, llr);
  }
  EXPECT_GT(pipe.stats().core_utilization(), 0.9);
  EXPECT_GT(pipe.stats().sustained_bps(450e6), 0.0);
}

TEST(FramePipeline, StallsWhenIoBound) {
  // A 1-bit-per-cycle interface starves the core.
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 24}, 66);
  arch::DecoderChip chip({}, {.max_iterations = 1});
  arch::FramePipeline pipe(chip, {.io_bits_per_cycle = 1,
                                  .reconfigure_cycles = 0});
  auto [cw, llr] = chain.frame(6.0);
  pipe.decode_frame(chain.code, llr);
  EXPECT_GT(pipe.stats().stall_cycles, 0);
  EXPECT_LT(pipe.stats().core_utilization(), 0.5);
}

TEST(FramePipeline, InvalidConfigThrows) {
  arch::DecoderChip chip({}, {});
  EXPECT_THROW(arch::FramePipeline(chip, {.io_bits_per_cycle = 0}),
               std::invalid_argument);
  EXPECT_THROW(arch::FramePipeline(chip, {.reconfigure_cycles = -1}),
               std::invalid_argument);
}

// ---- shifter capacity bounds: z_max = 2 up to the NR maximum 384 ------------
// The logarithmic tree was only ever exercised at the paper's z_max = 96;
// these lock its structural figures and routing at both extremes.

TEST(CircularShifter, StageCountAtCapacityBounds) {
  EXPECT_EQ(CircularShifter(2).stages(), 1);
  EXPECT_EQ(CircularShifter(2).mux_count(), 2);
  EXPECT_EQ(CircularShifter(256).stages(), 8);
  EXPECT_EQ(CircularShifter(384).stages(), 9);  // ceil(log2 384)
  EXPECT_EQ(CircularShifter(384).mux_count(), 9LL * 384);
}

TEST(CircularShifter, ZMax2BoundaryShifts) {
  CircularShifter sh(2);
  std::vector<std::int32_t> in{7, -9}, out(2, 0);
  sh.rotate(in, 1, 2, out);
  EXPECT_EQ(out, (std::vector<std::int32_t>{-9, 7}));
  sh.rotate(in, 2, 2, out);  // full-cycle control word: identity
  EXPECT_EQ(out, in);
  sh.rotate_back(in, 1, 2, out);
  EXPECT_EQ(out, (std::vector<std::int32_t>{-9, 7}));
  // Single active lane under the 2-lane tree.
  sh.rotate(in, 1, 1, out);
  EXPECT_EQ(out[0], 7);
  EXPECT_THROW(sh.rotate(in, 3, 2, out), std::invalid_argument);
}

TEST(CircularShifter, ZMax384NonPowerOfTwoActiveWidths) {
  CircularShifter sh(384);
  std::vector<std::int32_t> in(384), fwd(384, 0), back(384, 0);
  std::iota(in.begin(), in.end(), -100);
  // Non-power-of-two active widths under the 384-lane tree (NR lifting
  // sizes), including the full word.
  for (const int z : {3, 36, 52, 208, 384}) {
    for (const int shift : {0, 1, z / 2, z - 1, z}) {
      sh.rotate(in, shift, z, fwd);
      for (int i = 0; i < z; ++i)
        ASSERT_EQ(fwd[static_cast<std::size_t>(i)],
                  in[static_cast<std::size_t>((i + shift) % z)])
            << "z=" << z << " shift=" << shift << " lane " << i;
      sh.rotate_back(fwd, shift, z, back);
      EXPECT_TRUE(std::equal(in.begin(), in.begin() + z, back.begin()))
          << "z=" << z << " shift=" << shift;
    }
  }
}

// A z = 384 NR mode through the full structural chip at universal
// dimensions: the chip must agree with the functional decoder bit for bit
// (the 384-lane shifter, 68-word L-memory and 46-layer banks all at their
// limits).
TEST(DecoderChip, HostsNrAtMaximumLifting) {
  const auto code = codes::make_code(
      {Standard::kNr5g, codes::Rate::kR13, 384});
  const core::DecoderConfig cfg{.max_iterations = 2};
  arch::DecoderChip chip(ChipDimensions::universal(), cfg);
  chip.configure(code);
  std::vector<int> natural(static_cast<std::size_t>(code.block_rows()));
  std::iota(natural.begin(), natural.end(), 0);
  chip.set_layer_order(natural);
  core::ReconfigurableDecoder functional(code, cfg);

  util::Xoshiro256 rng(384);
  std::vector<double> tx(static_cast<std::size_t>(code.transmitted_bits()));
  for (auto& x : tx) x = 8.0 * (rng.uniform() - 0.5);
  const auto rc = chip.decode(tx);
  const auto rf = functional.decode(tx);
  EXPECT_EQ(rc.functional.bits, rf.bits);
  EXPECT_EQ(rc.stats.active_sisos, 384);
  EXPECT_EQ(rc.stats.idle_sisos, ChipDimensions::universal().z_max - 384);
}

// ---- scheme-aware frame-pipeline I/O accounting (NR modes) ------------------
// The In/Out buffer must move transmitted_bits() soft words in and
// payload_bits() hard decisions out. Before the fix the model assumed
// codeword-length frames (n soft words in, n bits out), so NR rate-matched
// modes over/under-counted I/O stalls and filler modes inflated the
// delivered payload.

std::vector<double> random_llrs(int count, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> llr(static_cast<std::size_t>(count));
  for (auto& x : llr) x = 8.0 * (rng.uniform() - 0.5);
  return llr;
}

TEST(FramePipeline, NrRateMatchedIoAccounting) {
  // BG1 z=96: n = 6528, sendable = n - 2z = 6336. Exercise both a
  // shortened (E < sendable) and a wraparound-repeated (E > sendable)
  // transmission: the interface moves exactly E soft words either way.
  for (const int e_bits : {4000, 7000}) {
    const auto code =
        codes::make_nr_code(codes::Rate::kR13, 96, e_bits, 0);
    ASSERT_EQ(code.transmitted_bits(), e_bits);
    arch::DecoderChip chip(ChipDimensions::universal(),
                           {.max_iterations = 2});
    arch::FramePipeline pipe(chip, {.io_bits_per_cycle = 64,
                                    .reconfigure_cycles = 32});
    pipe.decode_frame(code, random_llrs(e_bits, 0xE0 + e_bits));
    const int msg_bits = chip.decoder_config().format.total_bits();
    const long long payload = code.payload_bits();  // 22 * 96, no fillers
    EXPECT_EQ(payload, 2112);
    EXPECT_EQ(pipe.stats().io_cycles,
              (static_cast<long long>(e_bits) * msg_bits + payload + 63) /
                  64)
        << "E=" << e_bits;
    EXPECT_EQ(pipe.stats().payload_bits, payload);
  }
}

TEST(FramePipeline, NrFillerModeAccounting) {
  // 128 filler bits shrink both the sendable circular buffer and the
  // delivered payload; neither crosses the chip interface.
  const auto code = codes::make_nr_code(codes::Rate::kR13, 96, 0, 128);
  const long long tx = code.transmitted_bits();  // 6528 - 192 - 128
  ASSERT_EQ(tx, 6208);
  ASSERT_EQ(code.payload_bits(), 2112 - 128);
  arch::DecoderChip chip(ChipDimensions::universal(), {.max_iterations = 2});
  arch::FramePipeline pipe(chip, {.io_bits_per_cycle = 64,
                                  .reconfigure_cycles = 32});
  pipe.decode_frame(code, random_llrs(static_cast<int>(tx), 0xF1));
  const int msg_bits = chip.decoder_config().format.total_bits();
  EXPECT_EQ(pipe.stats().io_cycles,
            (tx * msg_bits + code.payload_bits() + 63) / 64);
  EXPECT_EQ(pipe.stats().payload_bits, code.payload_bits());
  EXPECT_EQ(pipe.payload_bits(), 2112 - 128);
}

TEST(FramePipelineStats, MergeAccumulatesEveryField) {
  arch::FramePipelineStats a{.frames = 2, .decode_cycles = 100,
                             .io_cycles = 40, .stall_cycles = 8,
                             .reconfigurations = 1, .payload_bits = 2304};
  const arch::FramePipelineStats b{.frames = 3, .decode_cycles = 50,
                                   .io_cycles = 70, .stall_cycles = 25,
                                   .reconfigurations = 2,
                                   .payload_bits = 1000};
  a.merge(b);
  EXPECT_EQ(a.frames, 5);
  EXPECT_EQ(a.decode_cycles, 150);
  EXPECT_EQ(a.io_cycles, 110);
  EXPECT_EQ(a.stall_cycles, 33);
  EXPECT_EQ(a.reconfigurations, 3);
  EXPECT_EQ(a.payload_bits, 3304);
  EXPECT_EQ(a.elapsed_cycles(), 183);
}

// The burst ingest domain: each transmitted frame quantised once
// (sim::quantise_llrs), as the stream scheduler builds its bursts.
struct QuantisedBurst {
  std::vector<core::QuantisedFrame> frames;
  std::vector<const core::QuantisedFrame*> ptrs;

  QuantisedBurst(const codes::QCCode& code, const core::DecoderConfig& cfg,
                 std::span<const double> llrs) {
    const auto tx = static_cast<std::size_t>(code.transmitted_bits());
    for (std::size_t off = 0; off < llrs.size(); off += tx)
      frames.push_back(sim::quantise_llrs(code, cfg, llrs.subspan(off, tx)));
    for (const auto& f : frames) ptrs.push_back(&f);
  }
};

TEST(FramePipeline, BurstMatchesPerFrameAccounting) {
  // decode_burst_quantised = one reconfiguration + the batch datapath;
  // results and the stats ledger must equal a decode_frame loop over the
  // frames' source LLRs.
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 24}, 91);
  const core::DecoderConfig cfg{.max_iterations = 3};
  arch::DecoderChip chip_a({}, cfg), chip_b({}, cfg);
  arch::FramePipeline one_by_one(chip_a), burst_pipe(chip_b);

  const int frames = 5;
  const auto tx = static_cast<std::size_t>(chain.code.transmitted_bits());
  std::vector<double> llrs(tx * frames);
  for (int f = 0; f < frames; ++f) {
    auto [cw, llr] = chain.frame(3.0);
    std::copy(llr.begin(), llr.end(),
              llrs.begin() + static_cast<std::ptrdiff_t>(f * tx));
  }

  std::vector<arch::ChipDecodeResult> single;
  for (int f = 0; f < frames; ++f)
    single.push_back(one_by_one.decode_frame(
        chain.code, std::span<const double>(llrs).subspan(f * tx, tx)));
  const auto burst = burst_pipe.decode_burst_quantised(
      chain.code, QuantisedBurst(chain.code, cfg, llrs).ptrs);

  // Full-BP bursts run the structural datapath per frame: per-frame stats
  // are reset between burst elements.
  ASSERT_EQ(burst.frames.size(), static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const auto& b = burst.frames[static_cast<std::size_t>(f)];
    const auto& s = single[static_cast<std::size_t>(f)];
    EXPECT_EQ(b.functional.bits, s.functional.bits) << "frame " << f;
    EXPECT_EQ(b.stats.l_mem_reads, s.stats.l_mem_reads) << "frame " << f;
    EXPECT_EQ(b.stats.cycles, s.stats.cycles) << "frame " << f;
  }
  // Same code throughout: both paths reconfigure once, so every ledger
  // field matches and the per-frame elapsed shares sum to the total.
  EXPECT_EQ(burst_pipe.stats().frames, one_by_one.stats().frames);
  EXPECT_EQ(burst_pipe.stats().decode_cycles,
            one_by_one.stats().decode_cycles);
  EXPECT_EQ(burst_pipe.stats().io_cycles, one_by_one.stats().io_cycles);
  EXPECT_EQ(burst_pipe.stats().stall_cycles,
            one_by_one.stats().stall_cycles);
  EXPECT_EQ(burst_pipe.stats().reconfigurations,
            one_by_one.stats().reconfigurations);
  EXPECT_EQ(burst_pipe.stats().payload_bits,
            one_by_one.stats().payload_bits);
  long long elapsed = 0;
  for (const long long c : burst.frame_elapsed_cycles) elapsed += c;
  EXPECT_EQ(elapsed, burst_pipe.stats().elapsed_cycles());
}

TEST(FramePipeline, WideMixedIterationBurstAccountingMatchesPerFrame) {
  // A burst far wider than any SIMD lane width, with early termination
  // and codeword stopping on so frames retire at different iterations and
  // the continuous engine refills lanes mid-flight. The modeled chip is a
  // serial device: host-side lane parallelism must never leak into the
  // cycle ledger, so every stat and every per-frame elapsed share must
  // still equal a decode_frame loop.
  ChipChain chain({Standard::kWimax80216e, Rate::kR12, 96}, 17);
  core::DecoderConfig cfg;
  cfg.max_iterations = 10;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.stop_on_codeword = true;
  cfg.early_termination.enabled = true;
  arch::DecoderChip chip_a({}, cfg), chip_b({}, cfg);
  arch::FramePipeline one_by_one(chip_a), burst_pipe(chip_b);

  const int frames = 40;
  const auto tx = static_cast<std::size_t>(chain.code.transmitted_bits());
  std::vector<double> llrs(tx * frames);
  for (int f = 0; f < frames; ++f) {
    // Alternate hard and easy frames: high iteration variance.
    auto [cw, llr] = chain.frame(f % 2 ? 4.5 : 1.0);
    std::copy(llr.begin(), llr.end(),
              llrs.begin() + static_cast<std::ptrdiff_t>(f * tx));
  }

  std::vector<arch::ChipDecodeResult> single;
  for (int f = 0; f < frames; ++f)
    single.push_back(one_by_one.decode_frame(
        chain.code, std::span<const double>(llrs).subspan(f * tx, tx)));
  const auto burst = burst_pipe.decode_burst_quantised(
      chain.code, QuantisedBurst(chain.code, cfg, llrs).ptrs);

  ASSERT_EQ(burst.frames.size(), static_cast<std::size_t>(frames));
  std::set<int> iteration_mix;
  for (int f = 0; f < frames; ++f) {
    const auto& b = burst.frames[static_cast<std::size_t>(f)];
    const auto& s = single[static_cast<std::size_t>(f)];
    EXPECT_EQ(b.functional.bits, s.functional.bits) << "frame " << f;
    EXPECT_EQ(b.functional.iterations, s.functional.iterations)
        << "frame " << f;
    EXPECT_EQ(b.stats.cycles, s.stats.cycles) << "frame " << f;
    EXPECT_EQ(b.stats.l_mem_reads, s.stats.l_mem_reads) << "frame " << f;
    EXPECT_EQ(b.stats.l_mem_writes, s.stats.l_mem_writes) << "frame " << f;
    EXPECT_EQ(b.stats.lambda_reads, s.stats.lambda_reads) << "frame " << f;
    EXPECT_EQ(b.stats.lambda_writes, s.stats.lambda_writes)
        << "frame " << f;
    EXPECT_EQ(b.stats.shifter_words, s.stats.shifter_words)
        << "frame " << f;
    EXPECT_EQ(b.stats.active_sisos, s.stats.active_sisos) << "frame " << f;
    EXPECT_EQ(b.stats.idle_sisos, s.stats.idle_sisos) << "frame " << f;
    EXPECT_EQ(b.stats.stalls_per_iteration, s.stats.stalls_per_iteration)
        << "frame " << f;
    EXPECT_EQ(b.functional.datapath_cycles, s.functional.datapath_cycles)
        << "frame " << f;
    iteration_mix.insert(b.functional.iterations);
  }
  // The workload must actually be mixed-iteration, or this test would
  // never exercise a mid-flight refill.
  EXPECT_GE(iteration_mix.size(), 2u);
  EXPECT_EQ(burst_pipe.stats().frames, one_by_one.stats().frames);
  EXPECT_EQ(burst_pipe.stats().decode_cycles,
            one_by_one.stats().decode_cycles);
  EXPECT_EQ(burst_pipe.stats().io_cycles, one_by_one.stats().io_cycles);
  EXPECT_EQ(burst_pipe.stats().stall_cycles,
            one_by_one.stats().stall_cycles);
  EXPECT_EQ(burst_pipe.stats().payload_bits,
            one_by_one.stats().payload_bits);
  long long elapsed = 0;
  for (const long long c : burst.frame_elapsed_cycles) elapsed += c;
  EXPECT_EQ(elapsed, burst_pipe.stats().elapsed_cycles());
}

TEST(Throughput, FillerModePayloadRegression) {
  // Same base graph and lifting: identical cycle model, but the filler
  // mode delivers fewer payload bits per frame. Counting k_info would
  // report the two modes at the same throughput.
  const auto full = codes::make_nr_code(codes::Rate::kR13, 96);
  const auto filler = codes::make_nr_code(codes::Rate::kR13, 96, 0, 128);
  PipelineConfig pc;
  pc.include_shifter_latency = true;
  pc.shifter_stages = 9;
  const auto rep_full = arch::modeled_throughput(full, pc, 450e6, 10);
  const auto rep_filler = arch::modeled_throughput(filler, pc, 450e6, 10);
  EXPECT_EQ(rep_full.cycles_per_frame, rep_filler.cycles_per_frame);
  EXPECT_LT(rep_filler.modeled_bps, rep_full.modeled_bps);
  EXPECT_DOUBLE_EQ(rep_filler.modeled_bps * full.payload_bits(),
                   rep_full.modeled_bps * filler.payload_bits());
}

TEST(Throughput, DegenerateSchemeNumericallyUnchanged) {
  // Classic standards: payload_bits() == k_info(), so the payload-aware
  // formula reproduces the pre-fix value exactly.
  for (const auto& id :
       {codes::CodeId{Standard::kWimax80216e, Rate::kR12, 96},
        codes::CodeId{Standard::kWlan80211n, Rate::kR34, 81},
        codes::CodeId{Standard::kDmbT, Rate::kR35, 127}}) {
    const auto code = codes::make_code(id);
    ASSERT_EQ(code.payload_bits(), code.k_info()) << to_string(id);
    const auto rep = arch::modeled_throughput(code, {}, 450e6, 10);
    EXPECT_DOUBLE_EQ(
        rep.modeled_bps,
        static_cast<double>(code.k_info()) * 450e6 /
            static_cast<double>(rep.cycles_per_frame))
        << to_string(id);
  }
}

}  // namespace
