#include "ldpc/storage/nand_channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ldpc/util/rng.hpp"

namespace ldpc::storage {

namespace {

// Substream tags deriving the cell/read noise from a frame's content key.
// The programmed voltages are keyed on the content alone — every rung
// re-derives the same cells — while each rung's comparator noise gets its
// own stream, so re-reads are genuinely independent observations.
constexpr std::uint64_t kProgramStream = 0x4e50524f47ULL;    // "NPROG"
constexpr std::uint64_t kReadStreamBase = 0x4e52454144ULL;   // "NREAD"

double gaussian_cdf(double x, double sigma) noexcept {
  return 0.5 * std::erfc(-x / (sigma * std::sqrt(2.0)));
}

}  // namespace

NandLadderConfig default_ladder() {
  NandLadderConfig cfg;
  cfg.rungs = {
      {.levels = 2, .read_sigma = 0.30, .sense_span = 1.2,
       .latency_cycles = 800},
      {.levels = 3, .read_sigma = 0.28, .sense_span = 1.0,
       .latency_cycles = 1400},
      {.levels = 5, .read_sigma = 0.26, .sense_span = 1.2,
       .latency_cycles = 2200},
      {.levels = 7, .read_sigma = 0.24, .sense_span = 1.4,
       .latency_cycles = 3200},
  };
  return cfg;
}

NandReadLadder::NandReadLadder(NandLadderConfig config)
    : config_(std::move(config)) {
  if (config_.rungs.empty())
    throw std::invalid_argument("NandReadLadder: no rungs");
  if (!(config_.program_sigma > 0.0) || !std::isfinite(config_.program_sigma))
    throw std::invalid_argument("NandReadLadder: program_sigma");
  if (!(config_.llr_clamp > 0.0) || !std::isfinite(config_.llr_clamp))
    throw std::invalid_argument("NandReadLadder: llr_clamp");
  for (const ReadRung& rung : config_.rungs) {
    if (rung.levels != 2 && (rung.levels < 3 || rung.levels % 2 == 0))
      throw std::invalid_argument(
          "NandReadLadder: levels must be 2 or odd >= 3");
    if (!(rung.read_sigma > 0.0) || !std::isfinite(rung.read_sigma))
      throw std::invalid_argument("NandReadLadder: read_sigma");
    if (rung.levels > 2 &&
        (!(rung.sense_span > 0.0) || !std::isfinite(rung.sense_span)))
      throw std::invalid_argument("NandReadLadder: sense_span");
    if (rung.latency_cycles < 0)
      throw std::invalid_argument("NandReadLadder: latency_cycles");
  }
}

long long NandReadLadder::rung_latency_cycles(int rung) const {
  if (rung < 0 || rung >= rungs())
    throw std::invalid_argument("NandReadLadder: rung out of range");
  return config_.rungs[static_cast<std::size_t>(rung)].latency_cycles;
}

std::vector<double> NandReadLadder::read(const codes::QCCode& code,
                                         std::span<const std::uint8_t> codeword,
                                         std::uint64_t content_key,
                                         int rung) const {
  if (rung < 0 || rung >= rungs())
    throw std::invalid_argument("NandReadLadder: rung out of range");
  if (!code.scheme().is_degenerate())
    throw std::invalid_argument(
        "NandReadLadder: degenerate transmission scheme required (rungs "
        "Chase-combine over the full codeword)");
  if (codeword.size() != static_cast<std::size_t>(code.n()))
    throw std::invalid_argument("NandReadLadder: codeword size");
  const ReadRung& r = config_.rungs[static_cast<std::size_t>(rung)];

  // Sensing thresholds: the hard read is a zero-crossing; an L-level soft
  // read places L-1 thresholds evenly inside (-span, +span).
  std::vector<double> thresholds;
  if (r.levels == 2) {
    thresholds = {0.0};
  } else {
    thresholds.reserve(static_cast<std::size_t>(r.levels - 1));
    for (int j = 0; j < r.levels - 1; ++j)
      thresholds.push_back(-r.sense_span +
                           2.0 * r.sense_span * (j + 1) /
                               static_cast<double>(r.levels));
  }

  // Exact per-bin LLRs under the total spread (programming + this rung's
  // comparator noise): log P(bin | +1) / P(bin | -1) via Gaussian CDF
  // differences, clamped so saturated tail bins stay finite.
  const double sigma_tot = std::sqrt(config_.program_sigma *
                                         config_.program_sigma +
                                     r.read_sigma * r.read_sigma);
  constexpr double kTiny = 1e-300;
  const auto bin_prob = [&](int k, double mu) {
    const double hi = k < static_cast<int>(thresholds.size())
                          ? gaussian_cdf(
                                thresholds[static_cast<std::size_t>(k)] - mu,
                                sigma_tot)
                          : 1.0;
    const double lo =
        k > 0 ? gaussian_cdf(
                    thresholds[static_cast<std::size_t>(k - 1)] - mu,
                    sigma_tot)
              : 0.0;
    return std::max(hi - lo, kTiny);
  };
  std::vector<double> bin_llr(thresholds.size() + 1);
  for (std::size_t k = 0; k < bin_llr.size(); ++k) {
    const double llr = std::log(bin_prob(static_cast<int>(k), 1.0)) -
                       std::log(bin_prob(static_cast<int>(k), -1.0));
    bin_llr[k] = std::clamp(llr, -config_.llr_clamp, config_.llr_clamp);
  }

  // Programmed voltages are keyed on the content alone; the rung's read
  // noise comes from its own substream. Each stream is drawn in cell order
  // (block fills: the programming noise straight into the output, which
  // each cell then overwrites with its LLR), so read() is pure in its
  // arguments.
  util::Xoshiro256 program_rng(
      util::substream_seed(content_key, kProgramStream));
  util::Xoshiro256 read_rng(util::substream_seed(
      content_key, kReadStreamBase + static_cast<std::uint64_t>(rung)));

  // Branch-free per cell (codeword bits and bins are data): the level is
  // indexed, and the bin is the count of thresholds below y (they ascend).
  const double level[2] = {1.0, -1.0};
  std::vector<double> llrs(codeword.size());
  program_rng.fill_gaussian(llrs);
  util::for_each_gaussian(read_rng, llrs.size(), [&](std::size_t i,
                                                     double g) {
    const double v = level[codeword[i] != 0] + config_.program_sigma * llrs[i];
    const double y = v + r.read_sigma * g;
    std::size_t bin = 0;
    for (const double t : thresholds) bin += y > t ? 1 : 0;
    llrs[i] = bin_llr[bin];
  });
  return llrs;
}

stream::RungSynth NandReadLadder::synth() const {
  return [ladder = *this](const codes::QCCode& code,
                          std::span<const std::uint8_t> codeword,
                          std::uint64_t content_key, int round) {
    return ladder.read(code, codeword, content_key,
                       std::min(round, ladder.rungs() - 1));
  };
}

}  // namespace ldpc::storage
