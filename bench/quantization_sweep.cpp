// Quantization-loss sweep: the word-length claim behind the paper's 8-bit
// datapath (Fig. 3 labels every message bus "8").
//
// Sweeps BER/FER over Eb/N0 for the templated datapath at several Qm.f
// message formats against the unquantised float reference — all running the
// SAME LayerEngineT schedule, so the only difference between rows is the
// value type. Expected shape: Q5.2 (the paper's 8-bit word) sits within
// ~0.1 dB of the float curve; 6-bit formats lose a few tenths; 4-bit
// collapses. The min-sum rows additionally exercise the SIMD-batched SoA
// kernel through the batched worker path (bit-identical arithmetic).
//
// `--variants` swaps the word-length ladder for a CNU-kernel ladder at the
// paper's Q5.2 word: full-BP vs plain / offset / normalized min-sum, all
// quantized, plus the float reference. Expected shape: plain min-sum gives
// up ~0.2-0.5 dB to full-BP; the offset and normalized corrections claw
// most of it back for one subtraction (or shift) per check row — the
// classic justification for shipping corrected min-sum in the narrow-lane
// datapath.
//
//   ./quantization_sweep [--frames N] [--threads T] [--csv]
//                        [--from 1.0 --to 3.0 --step 0.5] [--minsum]
//                        [--variants]
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/sim/simulator.hpp"

using namespace ldpc;

int main(int argc, char** argv) {
  const util::Args args(argc, argv,
                        {"csv", "frames", "seed", "threads", "from", "to",
                         "step", "minsum", "variants"});
  bench::Options opt;
  opt.csv = args.get_or("csv", false);
  opt.frames = args.get_or("frames", 0LL);
  opt.seed = static_cast<std::uint64_t>(args.get_or("seed", 1LL));
  opt.threads = static_cast<int>(args.get_or("threads", 0LL));
  const bool variants = args.get_or("variants", false);
  const bool minsum = args.get_or("minsum", false);
  const core::CnuKernel kernel =
      minsum ? core::CnuKernel::kMinSum : core::CnuKernel::kFullBp;

  const auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  const int max_iter = 10;

  sim::SimConfig sc;
  sc.seed = opt.seed;
  sc.min_frames = opt.frames > 0 ? static_cast<int>(opt.frames) : 60;
  sc.max_frames = sc.min_frames * 8;
  sc.target_frame_errors = 30;
  sc.threads = opt.threads;

  auto quantized = [&](int bits, int frac) {
    return core::DecoderConfig{.format = fixed::QFormat(bits, frac),
                               .max_iterations = max_iter,
                               .kernel = kernel,
                               .stop_on_codeword = true};
  };

  struct Entry {
    std::string name;
    core::DecoderConfig config;
  };
  std::vector<Entry> entries;
  {
    core::DecoderConfig fl = quantized(8, 2);
    fl.datapath = core::Datapath::kFloat;
    entries.push_back({"float (reference)", fl});
  }
  if (variants) {
    auto with_kernel = [&](core::CnuKernel k) {
      core::DecoderConfig c = quantized(8, 2);
      c.kernel = k;
      return c;
    };
    entries.push_back({"Q5.2 full-BP", with_kernel(core::CnuKernel::kFullBp)});
    entries.push_back({"Q5.2 min-sum", with_kernel(core::CnuKernel::kMinSum)});
    entries.push_back(
        {"Q5.2 offset MS", with_kernel(core::CnuKernel::kOffsetMinSum)});
    entries.push_back(
        {"Q5.2 normal. MS",
         with_kernel(core::CnuKernel::kNormalizedMinSum)});
  } else {
    entries.push_back({"Q5.2  8b (paper)", quantized(8, 2)});
    entries.push_back({"Q4.2  7b", quantized(7, 2)});
    entries.push_back({"Q4.1  6b", quantized(6, 1)});
    entries.push_back({"Q3.1  5b", quantized(5, 1)});
    entries.push_back({"Q3.0  4b", quantized(4, 0)});
  }

  util::Table t(
      variants
          ? std::string("CNU-kernel ladder at Q5.2: full-BP vs min-sum "
                        "variants (802.16e 2304 r1/2, 10 iter)")
          : std::string("quantization loss: ") +
                (minsum ? "min-sum" : "full-BP") +
                " datapath vs float reference (802.16e 2304 r1/2, 10 iter)");
  t.header({"Eb/N0 dB", "datapath", "BER", "FER", "avg iter", "frames"});
  const double from = args.get_or("from", 1.0);
  const double to = args.get_or("to", 3.0);
  const double step = args.get_or("step", 0.5);
  for (double db = from; db <= to + 1e-9; db += step) {
    for (const Entry& e : entries) {
      // Quantized min-sum-family rows use the batched factory: each
      // worker's claim is one refill queue of the SoA lane-refill engine
      // (same statistics), so the ladder also exercises the SIMD datapath
      // the narrow lanes ship through.
      const bool batched = core::is_min_sum(e.config.kernel) &&
                           e.config.datapath == core::Datapath::kQuantized;
      sim::Simulator s =
          batched
              ? sim::Simulator(
                    code, sim::batched_fixed_decoder_factory(code, e.config),
                    sc)
              : sim::Simulator(
                    code, sim::fixed_decoder_factory(code, e.config), sc);
      const auto p = s.run_point(db);
      t.row({util::fmt_fixed(db, 1), e.name, util::fmt_sci(p.ber()),
             util::fmt_sci(p.fer()), util::fmt_fixed(p.avg_iterations(), 2),
             std::to_string(p.frames)});
    }
  }
  bench::emit(t, opt);
  if (variants) {
    std::cout << "expected shape: plain min-sum gives up a few tenths of a "
                 "dB to full-BP; offset/normalized recover most of it\n";
  } else {
    std::cout << "expected shape: Q5.2 within ~0.1 dB of float; narrower "
                 "formats degrade, 4b collapses\n";
  }
  return 0;
}
