// Deterministic pseudo-random number generation for reproducible simulation.
//
// All Monte-Carlo results in this repository are seeded explicitly; the same
// seed always reproduces the same channel noise, bit streams and decoder
// trajectories (no std::normal_distribution, whose output is
// implementation-defined).
//
// Gaussian sampler: Doornik's 128-layer ZIGNOR ziggurat ("An Improved
// Ziggurat Method to Generate Normal Random Samples", 2005), which draws
// exact N(0,1). A sample costs one 64-bit draw on the fast path (~98.8% of
// samples): the low 7 bits pick a layer i, the top 53 bits give
// u in [-1, 1), and |u| < r[i] accepts u * x[i]. The rest fall to the
// wedge test of layer i or, from the bottom layer, to Marsaglia's tail
// sampler beyond R = 3.4426, and retry with fresh draws on rejection.
//
// Platform determinism: the fast path is integer and table arithmetic, so
// it is bit-identical wherever the tables are. The tables (built once per
// process) and the rare wedge and tail tests use libm exp / log / sqrt, as
// every sample of the Box-Muller sampler this replaced did, so across libm
// implementations a last-ulp difference can reach those samples only.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ldpc::util {

/// SplitMix64 finaliser: a strong stateless 64-bit mix (Stafford variant
/// 13). Use it to decorrelate structured integers (seeds, indices, keys)
/// before they seed a generator.
std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// The `stream`-th output of a SplitMix64 sequence seeded with `seed`:
/// a counter-based substream derivation. Nearby (seed, stream) pairs give
/// uncorrelated values, unlike xor-with-a-multiple mixes, so per-point and
/// per-frame streams derived this way are independent. Used by the
/// simulation engine for both its per-Eb/N0-point and per-frame seeds —
/// frame f's noise depends only on (seed, f), never on which worker thread
/// decodes it, which is what makes parallel BER/FER statistics bit-identical
/// at any thread count.
std::uint64_t substream_seed(std::uint64_t seed,
                             std::uint64_t stream) noexcept;

/// xoshiro256++ 1.0 (Blackman & Vigna, public domain algorithm), a fast
/// all-purpose generator with 256-bit state. Satisfies
/// std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a single 64-bit seed via SplitMix64 so that
  /// similar seeds yield uncorrelated streams.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept;

  /// Advances the generator 2^128 steps; used to derive independent
  /// per-thread / per-run substreams from one master seed.
  void jump() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept;

  /// Standard normal variate (ZIGNOR ziggurat, see the file comment).
  double gaussian() noexcept;

  /// Block form of gaussian(): fills `out` with exactly the values that
  /// out.size() successive gaussian() calls return, and leaves the
  /// generator in the same state. Both run one sample routine; the block
  /// form keeps the state in registers across the loop.
  void fill_gaussian(std::span<double> out) noexcept;

  /// Uniform integer in [0, bound) without modulo bias (Lemire reduction).
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Fair coin flip.
  bool bit() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Calls f(i, g) for i = 0 .. n-1, where g is the i-th of n N(0,1) draws
/// from `rng`: the same values, in the same order, as n gaussian() calls.
/// The draws go through fill_gaussian in fixed stack blocks, so noise loops
/// get the block-fill speed without allocating.
template <class F>
void for_each_gaussian(Xoshiro256& rng, std::size_t n, F&& f) {
  std::array<double, 256> block;
  for (std::size_t base = 0; base < n; base += block.size()) {
    const std::size_t len = std::min(block.size(), n - base);
    rng.fill_gaussian(std::span<double>(block.data(), len));
    for (std::size_t j = 0; j < len; ++j) f(base + j, block[j]);
  }
}

}  // namespace ldpc::util
