#include "ldpc/channel/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ldpc::channel {

namespace {

int bits_per_symbol(Modulation mod) {
  return mod == Modulation::kBpsk ? 1 : 2;
}

}  // namespace

double modulation_amplitude(Modulation mod) noexcept {
  // Unit symbol energy: BPSK amplitude 1, QPSK 1/sqrt(2) per dimension.
  return mod == Modulation::kBpsk ? 1.0 : 1.0 / std::sqrt(2.0);
}

ModulatedFrame modulate(std::span<const std::uint8_t> bits, Modulation mod) {
  ModulatedFrame frame;
  frame.amplitude = modulation_amplitude(mod);
  frame.samples.reserve(bits.size());
  for (std::uint8_t b : bits)
    frame.samples.push_back(b ? -frame.amplitude : frame.amplitude);
  return frame;
}

double ebn0_to_sigma(double ebn0_db, double code_rate, Modulation mod) {
  if (code_rate <= 0.0 || code_rate > 1.0)
    throw std::invalid_argument("ebn0_to_sigma: rate");
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  // Per real dimension carrying one code bit with amplitude
  // a = 1/sqrt(bits_per_symbol): Eb = a^2 / rate, so
  // sigma^2 = N0/2 = a^2 / (2 * rate * Eb/N0).
  const double a2 = 1.0 / bits_per_symbol(mod);
  return std::sqrt(a2 / (2.0 * code_rate * ebn0));
}

double esn0_to_sigma(double esn0_db, Modulation mod) {
  // Es per transmitted coded bit = a^2; sigma^2 = a^2 / (2 * Es/N0).
  return ebn0_to_sigma(esn0_db, 1.0, mod);
}

std::vector<double> Channel::transmit_demap(const ModulatedFrame& frame,
                                            util::Xoshiro256& rng) const {
  std::vector<double> llr = frame.samples;
  transmit_demap(llr, frame.amplitude, rng);
  return llr;
}

AwgnChannel::AwgnChannel(double sigma) : sigma_(sigma) {
  if (!(sigma > 0.0)) throw std::invalid_argument("AwgnChannel: sigma <= 0");
}

void AwgnChannel::transmit(std::span<double> samples,
                           util::Xoshiro256& rng) const {
  const double sigma = sigma_;
  util::for_each_gaussian(rng, samples.size(),
                          [&](std::size_t i, double g) {
                            samples[i] += sigma * g;
                          });
}

void AwgnChannel::transmit_demap(std::span<double> samples, double amplitude,
                                 util::Xoshiro256& rng) const {
  const double sigma = sigma_;
  const double scale = 2.0 * amplitude / (sigma * sigma);
  util::for_each_gaussian(rng, samples.size(),
                          [&](std::size_t i, double g) {
                            samples[i] = scale * (samples[i] + sigma * g);
                          });
}

BlockFadingChannel::BlockFadingChannel(double sigma, int coherence_bits)
    : sigma_(sigma), coherence_bits_(coherence_bits) {
  if (!(sigma > 0.0))
    throw std::invalid_argument("BlockFadingChannel: sigma <= 0");
  if (coherence_bits < 0)
    throw std::invalid_argument("BlockFadingChannel: coherence < 0");
}

void BlockFadingChannel::transmit_demap(std::span<double> samples,
                                        double amplitude,
                                        util::Xoshiro256& rng) const {
  const std::size_t block = coherence_bits_ == 0
                                ? samples.size()
                                : static_cast<std::size_t>(coherence_bits_);
  const double sigma = sigma_;
  const double scale = 2.0 * amplitude / (sigma * sigma);
  for (std::size_t start = 0; start < samples.size(); start += block) {
    // Rayleigh amplitude with E[h^2] = 1: h = |g1 + i g2| / sqrt(2).
    const double g1 = rng.gaussian();
    const double g2 = rng.gaussian();
    const double h = std::sqrt((g1 * g1 + g2 * g2) / 2.0);
    const auto blk =
        samples.subspan(start, std::min(block, samples.size() - start));
    util::for_each_gaussian(rng, blk.size(), [&](std::size_t i, double g) {
      const double y = h * blk[i] + sigma * g;
      blk[i] = scale * h * y;
    });
  }
}

std::unique_ptr<Channel> make_channel(ChannelKind kind, double sigma,
                                      int coherence_bits) {
  switch (kind) {
    case ChannelKind::kAwgn:
      return std::make_unique<AwgnChannel>(sigma);
    case ChannelKind::kRayleighBlock:
      return std::make_unique<BlockFadingChannel>(sigma, coherence_bits);
    case ChannelKind::kRayleighIid:
      return std::make_unique<BlockFadingChannel>(sigma, 1);
  }
  throw std::invalid_argument("make_channel: kind");
}

std::vector<double> demap_llr(const ModulatedFrame& frame, double sigma) {
  if (!(sigma > 0.0)) throw std::invalid_argument("demap_llr: sigma <= 0");
  const double scale = 2.0 * frame.amplitude / (sigma * sigma);
  std::vector<double> llr;
  llr.reserve(frame.samples.size());
  for (double y : frame.samples) llr.push_back(scale * y);
  return llr;
}

std::vector<std::uint8_t> hard_decision(std::span<const double> llr) {
  std::vector<std::uint8_t> bits;
  bits.reserve(llr.size());
  for (double l : llr) bits.push_back(l < 0.0 ? 1 : 0);
  return bits;
}

int count_bit_errors(std::span<const std::uint8_t> a,
                     std::span<const std::uint8_t> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("count_bit_errors: size mismatch");
  int errors = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    errors += (a[i] & 1) != (b[i] & 1) ? 1 : 0;
  return errors;
}

}  // namespace ldpc::channel
