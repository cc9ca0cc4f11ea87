// Modulation, channel models (AWGN, Rayleigh block fading) and LLR
// demapping.
//
// The paper's Fig. 9(a) sweeps Eb/N0 for a rate-1/2 block-2304 WiMax code;
// this module provides the transmit/receive chain those experiments need.
// QPSK with Gray mapping factors into two independent binary channels, so
// both modulations share the same per-dimension LLR rule L = 2 a y / sigma^2
// (the paper's initialisation L_n = 2 y_n / sigma^2 for unit-amplitude
// BPSK).
//
// The HARQ link layer additionally needs channels whose quality varies
// between retransmission rounds — otherwise every round sees the same
// reliability and incremental redundancy has nothing to average over. The
// `Channel` interface abstracts the noisy transmit + demap step; the
// Rayleigh block-fading model draws one fade per coherence block
// (coherence 0 = one fade for the whole frame, 1 = fully interleaved
// i.i.d. fading) from the same caller-owned generator that supplies the
// noise, so frame f of a sweep is reproducible from its substream seed at
// any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ldpc/util/rng.hpp"

namespace ldpc::channel {

enum class Modulation { kBpsk, kQpsk };

/// Real-valued samples carrying one code bit each (QPSK produces two
/// samples per symbol: I then Q).
struct ModulatedFrame {
  std::vector<double> samples;
  double amplitude = 1.0;  // per-dimension signal amplitude
};

/// Per-dimension signal amplitude at unit symbol energy: 1 for BPSK,
/// 1/sqrt(2) for QPSK.
double modulation_amplitude(Modulation mod) noexcept;

/// Maps code bits to channel samples. Bit 0 -> +amplitude, bit 1 ->
/// -amplitude (the usual LDPC sign convention: positive LLR means bit 0).
ModulatedFrame modulate(std::span<const std::uint8_t> bits, Modulation mod);

/// Noise standard deviation per real dimension for a given Eb/N0 (dB), code
/// rate and modulation, assuming unit symbol energy.
double ebn0_to_sigma(double ebn0_db, double code_rate, Modulation mod);

/// Noise standard deviation for a given Es/N0 (dB) *per transmitted coded
/// bit* — the rate-free quantity a HARQ sweep holds fixed while the number
/// of transmitted bits (and hence the energy spent per payload bit) grows
/// with each retransmission round. Equivalent to ebn0_to_sigma at rate 1.
double esn0_to_sigma(double esn0_db, Modulation mod);

/// A memoryless (per-frame) noisy channel plus coherent demapper. One call
/// consumes frame samples and produces per-bit channel LLRs; all
/// randomness comes from the caller-owned generator, so determinism
/// contracts reduce to seeding discipline. Noise is drawn through
/// util::Xoshiro256's block fill, one gaussian per sample in sample order
/// (fading channels add their fade draws ahead of each block).
class Channel {
 public:
  virtual ~Channel() = default;

  virtual double sigma() const noexcept = 0;

  /// Transmits in place: `samples` holds modulated samples of
  /// per-dimension amplitude `amplitude` on entry and their per-bit LLRs
  /// (positive = bit 0) on return. Fading channels assume coherent
  /// detection with perfect CSI: L = 2 a h y / sigma^2 for fade amplitude
  /// h. Allocates nothing.
  virtual void transmit_demap(std::span<double> samples, double amplitude,
                              util::Xoshiro256& rng) const = 0;

  /// Copying form: transmits `frame` and returns its per-bit LLRs.
  std::vector<double> transmit_demap(const ModulatedFrame& frame,
                                     util::Xoshiro256& rng) const;
};

/// Additive white Gaussian noise with per-dimension standard deviation
/// sigma, driven by a caller-owned deterministic generator.
class AwgnChannel : public Channel {
 public:
  explicit AwgnChannel(double sigma);

  double sigma() const noexcept override { return sigma_; }

  /// Adds noise in place.
  void transmit(std::span<double> samples, util::Xoshiro256& rng) const;

  /// transmit() + demap_llr(), drawing exactly one gaussian per sample in
  /// sample order — bit-identical to the two-step path.
  using Channel::transmit_demap;
  void transmit_demap(std::span<double> samples, double amplitude,
                      util::Xoshiro256& rng) const override;

 private:
  double sigma_;
};

/// Rayleigh block fading with AWGN: the frame is cut into blocks of
/// `coherence_bits` samples (0 = a single block spanning the frame); each
/// block draws an independent Rayleigh fade amplitude h with E[h^2] = 1
/// (h = sqrt((g1^2 + g2^2) / 2), g ~ N(0,1)), then y = h x + n per sample.
/// Coherent demapping with known h gives L = 2 a h y / sigma^2. Per block
/// the generator is consumed as: 2 gaussians for the fade, then one per
/// sample for the noise.
class BlockFadingChannel : public Channel {
 public:
  BlockFadingChannel(double sigma, int coherence_bits);

  double sigma() const noexcept override { return sigma_; }
  int coherence_bits() const noexcept { return coherence_bits_; }

  using Channel::transmit_demap;
  void transmit_demap(std::span<double> samples, double amplitude,
                      util::Xoshiro256& rng) const override;

 private:
  double sigma_;
  int coherence_bits_;
};

/// Channel families the link layer can be configured with.
enum class ChannelKind {
  kAwgn,           // no fading
  kRayleighBlock,  // one fade per coherence block (default: per frame)
  kRayleighIid,    // independent fade per sample (coherence 1)
};

/// Factory used by sim/stream configs. `coherence_bits` only matters for
/// kRayleighBlock (0 = one fade per frame); kRayleighIid pins it to 1.
std::unique_ptr<Channel> make_channel(ChannelKind kind, double sigma,
                                      int coherence_bits = 0);

/// Computes per-bit channel LLRs L = 2 a y / sigma^2 (positive = bit 0).
std::vector<double> demap_llr(const ModulatedFrame& frame, double sigma);

/// Hard decision helper: LLR >= 0 -> bit 0.
std::vector<std::uint8_t> hard_decision(std::span<const double> llr);

/// Counts positions where decisions differ from a reference word.
int count_bit_errors(std::span<const std::uint8_t> a,
                     std::span<const std::uint8_t> b);

}  // namespace ldpc::channel
