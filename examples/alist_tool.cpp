// alist_tool: export any registered code to MacKay alist format, import an
// external alist matrix and analyse it, list the registered mode set, or
// regenerate the regression data locked by tests/test_golden.cpp (golden
// vectors) and tests/test_arch.cpp (chip schedules).
//
//   ./alist_tool export --standard wimax --rate 1/2 --z 96 > h2304.alist
//   ./alist_tool import h2304.alist [--z 96]
//   ./alist_tool modes [--standard nr]
//   ./alist_tool golden --outdir tests/data
//   ./alist_tool schedules --outdir tests/data
//
// Import prints the matrix profile (dimensions, degree distributions) and
// attempts QC reconstruction when --z is given, so externally generated
// matrices can be brought into the registry-independent decoding path.
// Modes lists every registered CodeId (standard, rate, z, n, payload,
// transmission scheme) so the expanded multi-standard mode set is
// discoverable. Golden writes, per standard, one file
// golden_<slug>.txt holding, for EVERY registered mode of that standard
// (plus the shared NR rate-matched cases), one canned quantised LLR frame
// (a real encode -> transmit chain -> AWGN -> demap -> deposit, including
// puncturing/fillers/rate matching, deterministically seeded) plus the
// expected hard decisions of the fixed-point and float min-sum datapaths;
// the regression suite decodes the frames through the scalar fixed,
// batched-fixed (SoA), chip and float engines and asserts bit-exactness.
// Schedules writes chip_schedules.txt: one digest line per (mode, pipeline
// config) of the compiled chip schedule (ldpc/arch/schedule_lock.hpp).
#include <fstream>
#include <iostream>
#include <map>

#include "ldpc/arch/schedule_lock.hpp"
#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/alist.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/golden.hpp"
#include "ldpc/core/layer_engine.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/util/args.hpp"
#include "ldpc/util/rng.hpp"
#include "ldpc/util/table.hpp"

using namespace ldpc;

namespace {

// ---- golden-vector regeneration --------------------------------------------
// The decode configuration, file split, rate-matched case list and bit
// packing are shared with tests/test_golden.cpp through
// ldpc/core/golden.hpp — one definition of the generator/checker contract.

void write_golden_entry(std::ostream& out, const codes::QCCode& code,
                        std::uint64_t seed, double ebn0_db) {
  const core::DecoderConfig cfg = core::golden::config();
  util::Xoshiro256 rng(seed);

  std::vector<std::uint8_t> info(
      static_cast<std::size_t>(code.payload_bits()));
  enc::random_bits(rng, info);
  const auto cw = enc::make_encoder(code)->encode(info);
  const double sigma = channel::ebn0_to_sigma(
      ebn0_db, code.effective_rate(), channel::Modulation::kBpsk);
  const auto llr =
      sim::transmit_llrs(code, cw, channel::Modulation::kBpsk, sigma, rng);

  // The stored frame is the POST-deposit raw codes (size n): puncturing,
  // fillers and repetition combining already applied, so every datapath
  // consumes the identical memory image.
  core::LayerEngine fixed_engine(cfg);
  fixed_engine.reconfigure(code);
  std::vector<std::int32_t> raw(static_cast<std::size_t>(code.n()));
  fixed_engine.deposit(llr, raw);
  const auto fixed_result = fixed_engine.run(raw);

  core::FloatLayerEngine float_engine(cfg);
  float_engine.reconfigure(code);
  std::vector<double> deq(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    deq[i] = raw[i] * cfg.format.lsb();
  const auto float_result = float_engine.run(deq);

  out << "mode " << code.name() << " n " << code.n() << "\nraw";
  for (std::int32_t r : raw) out << ' ' << r;
  out << "\nfixed " << core::golden::bits_to_hex(fixed_result.bits)
      << "\nfloat " << core::golden::bits_to_hex(float_result.bits) << "\n";
}

/// Deterministic per-mode seed from the mode identity (stable under
/// registry reordering).
std::uint64_t golden_seed(const codes::CodeId& id) {
  const std::uint64_t key = (static_cast<std::uint64_t>(id.standard) << 40) ^
                            (static_cast<std::uint64_t>(id.rate) << 32) ^
                            static_cast<std::uint64_t>(id.z);
  return util::substream_seed(0xD1CE'60'1DULL, key);
}

int do_golden(const util::Args& args) {
  const std::string outdir = args.get_or("outdir", std::string{});
  const double ebn0_db = args.get_or("ebn0", 2.0);
  std::size_t entries = 0;

  for (const codes::Standard standard :
       {codes::Standard::kWlan80211n, codes::Standard::kWimax80216e,
        codes::Standard::kDmbT, codes::Standard::kNr5g}) {
    const std::string slug = core::golden::standard_slug(standard);
    std::ofstream file;
    std::ostream* out = &std::cout;
    if (!outdir.empty()) {
      file.open(outdir + "/golden_" + slug + ".txt");
      if (!file) {
        std::cerr << "cannot open " << outdir << "/golden_" << slug
                  << ".txt\n";
        return 2;
      }
      out = &file;
    }
    *out << "# golden vectors v1 — " << to_string(standard)
         << ": per registered mode, one quantised LLR frame (Q5.2 raw "
            "codes,\n"
            "# post-deposit: puncturing/fillers/rate-matching applied) and "
            "the expected hard\n"
            "# decisions of the fixed and float min-sum datapaths (5 "
            "iterations, no early\n"
            "# termination). Regenerate with:\n"
            "#   alist_tool golden --outdir tests/data\n";
    for (const codes::CodeId& id : codes::all_modes(standard)) {
      write_golden_entry(*out, codes::make_code(id), golden_seed(id),
                         ebn0_db);
      ++entries;
    }
    if (standard == codes::Standard::kNr5g) {
      // Rate-matched coverage shared with the checker: E != sendable and
      // filler cases on top of the registered full-transmission modes.
      for (const auto& c : core::golden::nr_rate_matched_cases()) {
        const auto code = codes::make_nr_code(c.rate, c.z,
                                              c.transmitted_bits,
                                              c.filler_bits);
        const std::uint64_t seed = util::substream_seed(
            golden_seed({standard, c.rate, c.z}),
            0xE000'0000ULL ^
                (static_cast<std::uint64_t>(c.transmitted_bits) << 8) ^
                static_cast<std::uint64_t>(c.filler_bits));
        write_golden_entry(*out, code, seed, ebn0_db);
        ++entries;
      }
    }
    if (!outdir.empty())
      std::cerr << "wrote golden_" << slug << ".txt\n";
  }
  std::cerr << "wrote golden vectors for " << entries << " modes\n";
  return 0;
}

// ---- chip-schedule lock -----------------------------------------------------

int do_schedules(const util::Args& args) {
  const std::string outdir = args.get_or("outdir", std::string{});
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!outdir.empty()) {
    file.open(outdir + "/chip_schedules.txt");
    if (!file) {
      std::cerr << "cannot open " << outdir << "/chip_schedules.txt\n";
      return 2;
    }
    out = &file;
  }
  *out << "# chip schedules v1: per (mode, pipeline config), the compiled "
          "schedule's\n"
          "# cycles per iteration, drain, total stalls and an FNV-1a digest "
          "of the layer\n"
          "# order, entry orders and per-layer stalls. Regenerate with:\n"
          "#   alist_tool schedules --outdir tests/data\n";
  std::size_t lines = 0;
  for (const codes::CodeId& id : arch::schedule_lock::modes()) {
    const auto code = codes::make_code(id);
    for (const auto& config : arch::schedule_lock::configs()) {
      *out << arch::schedule_lock::digest_line(code, config) << "\n";
      ++lines;
    }
  }
  std::cerr << "wrote " << lines << " schedule digests\n";
  return 0;
}

// ---- mode listing -----------------------------------------------------------

int do_modes(const util::Args& args) {
  const std::string filter = args.get_or("standard", std::string{});
  util::Table t("registered modes");
  t.header({"standard", "rate", "z", "n", "payload", "scheme"});
  std::size_t count = 0;
  for (const codes::CodeId& id : codes::all_modes()) {
    if (!filter.empty() &&
        id.standard != codes::parse_standard(filter))
      continue;
    const auto code = codes::make_code(id);
    const auto& s = code.scheme();
    // No commas: the scheme cell must survive --csv unquoted.
    std::string scheme = "full codeword";
    if (!s.is_degenerate())
      scheme = "punct " + std::to_string(s.punctured_block_cols) +
               " cols E=" + std::to_string(code.transmitted_bits()) +
               (s.filler_bits ? " F=" + std::to_string(s.filler_bits)
                              : std::string{});
    t.row({to_string(id.standard), to_string(id.rate),
           std::to_string(id.z), std::to_string(code.n()),
           std::to_string(code.payload_bits()), scheme});
    ++count;
  }
  if (args.get_or("csv", false))
    t.print_csv(std::cout);
  else
    t.print(std::cout);
  std::cerr << count << " modes\n";
  return 0;
}

int do_export(const util::Args& args) {
  const codes::Standard standard = codes::parse_standard(
      args.get_or("standard", std::string{"wimax"}));
  codes::Rate rate = codes::supported_rates(standard).front();
  const std::string rate_name = args.get_or("rate", to_string(rate));
  for (codes::Rate r : codes::supported_rates(standard))
    if (to_string(r) == rate_name) rate = r;
  const int z = static_cast<int>(args.get_or(
      "z", (long long)codes::supported_z(standard).back()));

  const auto code = codes::make_code({standard, rate, z});
  std::cerr << "exporting " << code.name() << " (n=" << code.n()
            << ", m=" << code.m() << ", E=" << code.nonzero_blocks()
            << " blocks)\n";
  codes::write_alist(code, std::cout);
  return 0;
}

int do_import(const util::Args& args) {
  if (args.positional().size() < 2) {
    std::cerr << "usage: alist_tool import <file> [--z Z]\n";
    return 2;
  }
  std::ifstream in(args.positional()[1]);
  if (!in) {
    std::cerr << "cannot open " << args.positional()[1] << "\n";
    return 2;
  }
  const codes::FlatCode flat = codes::read_alist(in);

  std::map<std::size_t, int> row_hist, col_hist;
  std::vector<int> col_deg(static_cast<std::size_t>(flat.n), 0);
  long long edges = 0;
  for (const auto& row : flat.vars_of_check) {
    ++row_hist[row.size()];
    edges += static_cast<long long>(row.size());
    for (std::int32_t v : row) ++col_deg[static_cast<std::size_t>(v)];
  }
  for (int d : col_deg) ++col_hist[static_cast<std::size_t>(d)];

  std::cout << "n=" << flat.n << " m=" << flat.m << " edges=" << edges
            << " rate>=" << static_cast<double>(flat.n - flat.m) / flat.n
            << "\nrow degree histogram:";
  for (auto [d, c] : row_hist) std::cout << ' ' << d << "x" << c;
  std::cout << "\ncolumn degree histogram:";
  for (auto [d, c] : col_hist) std::cout << ' ' << d << "x" << c;
  std::cout << "\n";

  if (args.has("z")) {
    const int z = static_cast<int>(args.get_or("z", 0LL));
    try {
      const auto code = codes::to_qc_code(flat, z, "imported");
      std::cout << "QC structure confirmed: j=" << code.block_rows()
                << " k=" << code.block_cols() << " z=" << code.z()
                << " E=" << code.nonzero_blocks() << "\n";
    } catch (const std::exception& e) {
      std::cout << "not quasi-cyclic with z=" << z << ": " << e.what()
                << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv,
                          {"standard", "rate", "z", "out", "outdir",
                           "ebn0", "csv"});
    if (!args.positional().empty() && args.positional()[0] == "export")
      return do_export(args);
    if (!args.positional().empty() && args.positional()[0] == "import")
      return do_import(args);
    if (!args.positional().empty() && args.positional()[0] == "golden")
      return do_golden(args);
    if (!args.positional().empty() && args.positional()[0] == "modes")
      return do_modes(args);
    if (!args.positional().empty() && args.positional()[0] == "schedules")
      return do_schedules(args);
    std::cerr
        << "usage: alist_tool export|import|modes|golden|schedules [...]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
