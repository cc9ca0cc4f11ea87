// Golden-vector regression suite: locks the bit-accurate datapaths.
//
// tests/data/golden_<standard>.txt (regenerate: `alist_tool golden
// --outdir tests/data`) holds, for EVERY registered 802.11n / 802.16e /
// DMB-T / NR mode plus the shared NR rate-matched cases
// (core::golden::nr_rate_matched_cases), one canned quantised LLR frame —
// post-deposit, i.e. with NR puncturing, fillers and rate-matched
// repetition already mapped onto the codeword memory — and the expected
// hard decisions of the fixed-point and float min-sum datapaths under the
// golden config (min-sum kernel, 5 full iterations, no early termination,
// Q5.2 messages). This suite decodes each frame through
//
//   - the scalar fixed-point engine        (LayerEngineT<std::int32_t>)
//   - the SoA batched fixed-point engine   (StreamBatchEngine, quantised
//                                           ingest, a 3-frame queue, at
//                                           each eligible lane type)
//   - the chip model                       (arch::DecoderChip, natural order)
//   - the float reference engine           (LayerEngineT<double>)
//
// and asserts bit-exact agreement with the stored decisions, so ANY change
// to the quantised arithmetic — saturation, clip points, min-sum ties,
// write-back order, the LLR deposit — or to the float reference trips a
// test naming the exact mode.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/golden.hpp"
#include "ldpc/core/layer_engine.hpp"
#include "ldpc/core/soa_scan.hpp"
#include "ldpc/core/stream_batch_engine.hpp"

namespace {

using namespace ldpc;
using core::golden::bits_to_hex;

struct GoldenEntry {
  std::vector<std::int32_t> raw;
  std::string fixed_hex;
  std::string float_hex;
};

const std::map<std::string, GoldenEntry>& golden_table() {
  static const std::map<std::string, GoldenEntry> table = [] {
    std::map<std::string, GoldenEntry> t;
    for (const codes::Standard standard :
         {codes::Standard::kWlan80211n, codes::Standard::kWimax80216e,
          codes::Standard::kDmbT, codes::Standard::kNr5g}) {
      const std::string path = std::string(LDPC_GOLDEN_DIR) + "/golden_" +
                               core::golden::standard_slug(standard) +
                               ".txt";
      std::ifstream in(path);
      if (!in)
        throw std::runtime_error("cannot open golden vectors: " + path);
      std::string line;
      std::string current;
      int n = 0;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "mode") {
          // "mode <name with spaces> n <n>"
          const auto n_pos = line.rfind(" n ");
          current = line.substr(5, n_pos - 5);
          n = std::stoi(line.substr(n_pos + 3));
          t[current] = GoldenEntry{};
          t[current].raw.reserve(static_cast<std::size_t>(n));
        } else if (tag == "raw") {
          std::int32_t v;
          while (ls >> v) t[current].raw.push_back(v);
        } else if (tag == "fixed") {
          ls >> t[current].fixed_hex;
        } else if (tag == "float") {
          ls >> t[current].float_hex;
        }
      }
    }
    return t;
  }();
  return table;
}

// Decodes `entry.raw` through all four datapaths and asserts bit-exact
// agreement with the stored decisions. Shared by the registered-mode sweep
// and the NR rate-matched cases.
void check_all_datapaths(const codes::QCCode& code,
                         const GoldenEntry& entry) {
  ASSERT_EQ(entry.raw.size(), static_cast<std::size_t>(code.n()));
  const core::DecoderConfig cfg = core::golden::config();

  // Scalar fixed-point path.
  core::LayerEngine fixed_engine(cfg);
  fixed_engine.reconfigure(code);
  const auto fixed_result = fixed_engine.run(entry.raw);
  EXPECT_EQ(bits_to_hex(fixed_result.bits), entry.fixed_hex)
      << code.name() << " (scalar fixed)";
  EXPECT_EQ(fixed_result.iterations, cfg.max_iterations);

  // Batched fixed-point path: the serving entry over a 3-frame queue of
  // int32 QuantisedFrames holding the stored codes (a ragged, partially
  // filled lane set) must reproduce the golden bits in every lane, at
  // every lane type the config's rails admit (int32 and int16 for the
  // golden config: the narrower engine narrows the same frames).
  constexpr int kFrames = 3;
  core::QuantisedFrame frame;
  const auto codes = frame.emplace<std::int32_t>(
      core::kernels::LaneType::kInt32, code.n());
  std::copy(entry.raw.begin(), entry.raw.end(), codes.begin());
  const std::vector<const core::QuantisedFrame*> queue(kFrames, &frame);
  for (const auto type :
       {core::kernels::LaneType::kInt32, core::kernels::LaneType::kInt16,
        core::kernels::LaneType::kInt8}) {
    if (!core::lane_type_eligible(cfg, type)) continue;
    core::StreamBatchEngine batch(cfg, type);
    batch.reconfigure(code);
    std::vector<core::FixedDecodeResult> results(kFrames);
    batch.decode_quantised(queue, {}, results);
    for (int f = 0; f < kFrames; ++f)
      EXPECT_EQ(bits_to_hex(results[static_cast<std::size_t>(f)].bits),
                entry.fixed_hex)
          << code.name() << " (batched fixed, "
          << core::kernels::to_string(type) << " lane " << f << ")";
  }

  // Chip model pinned to the natural layer order: layered decoding is
  // order-dependent and the generator ran the natural schedule, so the
  // chip's optimised order is overridden for the comparison.
  arch::DecoderChip chip(arch::ChipDimensions::universal(), cfg);
  chip.configure(code);
  std::vector<int> natural(static_cast<std::size_t>(code.block_rows()));
  for (int l = 0; l < code.block_rows(); ++l)
    natural[static_cast<std::size_t>(l)] = l;
  chip.set_layer_order(natural);
  std::vector<double> llr(entry.raw.size());
  for (std::size_t i = 0; i < llr.size(); ++i)
    llr[i] = entry.raw[i] * cfg.format.lsb();
  // The chip takes transmitted-length LLRs and runs the shared deposit.
  // Reconstruct a transmitted vector whose deposit reproduces the stored
  // frame exactly: the first occurrence of each sendable position carries
  // the dequantised raw value (quantisation is idempotent on grid points,
  // and the deposit's zero-exclusion never stored a raw 0 for a sent
  // bit), wraparound repeats carry 0.0 (they accumulate onto the first),
  // and punctured / unsent / filler positions are reproduced by the
  // deposit itself.
  const int sendable = code.sendable_bits();
  std::vector<double> tx(static_cast<std::size_t>(code.transmitted_bits()),
                         0.0);
  for (int i = 0; i < std::min<int>(code.transmitted_bits(), sendable); ++i)
    tx[static_cast<std::size_t>(i)] =
        llr[static_cast<std::size_t>(code.tx_bit_index(i))];
  const auto chip_result = chip.decode(tx);
  EXPECT_EQ(bits_to_hex(chip_result.functional.bits), entry.fixed_hex)
      << code.name() << " (chip)";

  // Float reference path (min-sum arithmetic: compare/add only, so the
  // stored decisions are portable across libm implementations).
  core::FloatLayerEngine float_engine(cfg);
  float_engine.reconfigure(code);
  const auto float_result = float_engine.run(llr);
  EXPECT_EQ(bits_to_hex(float_result.bits), entry.float_hex)
      << code.name() << " (float)";
}

class GoldenVectors : public ::testing::TestWithParam<codes::CodeId> {};

TEST_P(GoldenVectors, AllDatapathsMatchStoredDecisions) {
  const codes::CodeId id = GetParam();
  const auto it = golden_table().find(to_string(id));
  ASSERT_NE(it, golden_table().end())
      << "mode " << to_string(id) << " missing from golden_"
      << core::golden::standard_slug(id.standard)
      << ".txt — regenerate with: alist_tool golden --outdir tests/data";
  const auto code = codes::make_code(id);
  check_all_datapaths(code, it->second);
}

INSTANTIATE_TEST_SUITE_P(AllModes, GoldenVectors,
                         ::testing::ValuesIn(codes::all_modes()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

// The NR rate-matched cases (E != sendable, fillers): same four-datapath
// lock over codes built with an explicit transmission length.
class GoldenNrRateMatched
    : public ::testing::TestWithParam<core::golden::NrRateMatchedCase> {};

TEST_P(GoldenNrRateMatched, AllDatapathsMatchStoredDecisions) {
  const auto& c = GetParam();
  const auto code =
      codes::make_nr_code(c.rate, c.z, c.transmitted_bits, c.filler_bits);
  const auto it = golden_table().find(code.name());
  ASSERT_NE(it, golden_table().end())
      << "case " << code.name() << " missing from golden_nr.txt — "
         "regenerate with: alist_tool golden --outdir tests/data";
  check_all_datapaths(code, it->second);
}

INSTANTIATE_TEST_SUITE_P(
    RateMatched, GoldenNrRateMatched,
    ::testing::ValuesIn(core::golden::nr_rate_matched_cases()),
    [](const auto& info) {
      return std::string(info.param.rate == codes::Rate::kR13 ? "BG1"
                                                              : "BG2") +
             "_z" + std::to_string(info.param.z) + "_E" +
             std::to_string(info.param.transmitted_bits) + "_F" +
             std::to_string(info.param.filler_bits);
    });

// Every entry in the data files must correspond to a registered mode or a
// shared rate-matched case — a stale file (mode renamed/removed) fails
// loudly instead of silently shrinking coverage.
TEST(GoldenVectors, FilesCoverExactlyTheRegistry) {
  const std::size_t expected = codes::all_modes().size() +
                               core::golden::nr_rate_matched_cases().size();
  EXPECT_EQ(golden_table().size(), expected);
  for (const auto& [name, entry] : golden_table()) {
    EXPECT_FALSE(entry.raw.empty()) << name;
    EXPECT_EQ(entry.fixed_hex.size(), (entry.raw.size() + 3) / 4) << name;
    EXPECT_EQ(entry.float_hex.size(), (entry.raw.size() + 3) / 4) << name;
  }
}

}  // namespace
