#include "ldpc/util/rng.hpp"

#include <cmath>

namespace ldpc::util {

namespace {

using State = std::array<std::uint64_t, 4>;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step.
inline std::uint64_t next(State& s) noexcept {
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// Uniform in [0, 1) from the top 53 bits.
inline double uniform53(State& s) noexcept {
  return static_cast<double>(next(s) >> 11) * 0x1.0p-53;
}

// ---- ZIGNOR ziggurat (Doornik 2005) ----------------------------------------
// 128 layers of equal area V under f(x) = exp(-x^2 / 2): layer i spans
// heights f(x[i]) .. f(x[i+1]) and widths 0 .. x[i], with x[1] = R the
// start of the tail and x[0] = V / f(R) the width of the bottom layer's
// rectangle (which carries the tail's area). r[i] = x[i+1] / x[i] is the
// share of layer i lying wholly under the curve.

constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

struct ZigTables {
  std::array<double, kZigLayers + 1> x{};
  std::array<double, kZigLayers> r{};
};

ZigTables build_zig_tables() {
  ZigTables t;
  double f = std::exp(-0.5 * kZigR * kZigR);
  t.x[0] = kZigV / f;
  t.x[1] = kZigR;
  t.x[kZigLayers] = 0.0;
  for (int i = 2; i < kZigLayers; ++i) {
    t.x[i] = std::sqrt(-2.0 * std::log(kZigV / t.x[i - 1] + f));
    f = std::exp(-0.5 * t.x[i] * t.x[i]);
  }
  for (int i = 0; i < kZigLayers; ++i) t.r[i] = t.x[i + 1] / t.x[i];
  return t;
}

/// Built once per process; the function-local static is thread-safe.
const ZigTables& zig_tables() {
  static const ZigTables tables = build_zig_tables();
  return tables;
}

/// Layer index (low 7 bits) and u in [-1, 1) (top 53 bits) of one draw.
struct ZigDraw {
  std::size_t layer;
  double u;
};

inline ZigDraw zig_draw(State& s) noexcept {
  const std::uint64_t bits = next(s);
  return {static_cast<std::size_t>(bits & (kZigLayers - 1)),
          static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0};
}

/// Marsaglia's tail sampler beyond R, with uniforms in (0, 1) so the logs
/// stay finite.
double zig_tail(State& s, bool negative) noexcept {
  double x = 0.0;
  double y = 0.0;
  do {
    x = std::log((static_cast<double>(next(s) >> 11) + 0.5) * 0x1.0p-53) /
        kZigR;
    y = std::log((static_cast<double>(next(s) >> 11) + 0.5) * 0x1.0p-53);
  } while (-2.0 * y < x * x);
  return negative ? x - kZigR : kZigR - x;
}

/// Everything off the fast path: the tail, the wedge test and the retries
/// after a rejection. Out of line, so the fast path stays a short loop.
[[gnu::noinline]] double zig_slow(State& s, const ZigTables& t,
                                  ZigDraw d) noexcept {
  for (;;) {
    if (d.layer == 0) return zig_tail(s, d.u < 0.0);
    const double x = d.u * t.x[d.layer];
    const double f0 =
        std::exp(-0.5 * (t.x[d.layer] * t.x[d.layer] - x * x));
    const double f1 =
        std::exp(-0.5 * (t.x[d.layer + 1] * t.x[d.layer + 1] - x * x));
    if (f1 + uniform53(s) * (f0 - f1) < 1.0) return x;
    d = zig_draw(s);
    if (std::fabs(d.u) < t.r[d.layer]) return d.u * t.x[d.layer];
  }
}

/// The one sample routine behind gaussian() and fill_gaussian().
inline double zig_sample(State& s, const ZigTables& t) noexcept {
  const ZigDraw d = zig_draw(s);
  if (std::fabs(d.u) < t.r[d.layer]) [[likely]]
    return d.u * t.x[d.layer];
  return zig_slow(s, t, d);
}

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// SplitMix64 step: advances the state and returns the mixed output
/// (recommended seeder for the xoshiro family).
std::uint64_t splitmix64_next(std::uint64_t& x) noexcept {
  x += kGolden;
  return ldpc::util::splitmix64(x);
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t substream_seed(std::uint64_t seed,
                             std::uint64_t stream) noexcept {
  return splitmix64(seed + (stream + 1) * kGolden);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  for (auto& word : s_) word = splitmix64_next(seed);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  return next(s_);
}

void Xoshiro256::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= s_[i];
      }
      (*this)();
    }
  }
  s_ = acc;
}

double Xoshiro256::uniform() noexcept { return uniform53(s_); }

double Xoshiro256::gaussian() noexcept {
  return zig_sample(s_, zig_tables());
}

void Xoshiro256::fill_gaussian(std::span<double> out) noexcept {
  const ZigTables& t = zig_tables();
  State s = s_;
  for (double& v : out) v = zig_sample(s, t);
  s_ = s;
}

std::uint64_t Xoshiro256::bounded(std::uint64_t bound) noexcept {
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Xoshiro256::bit() noexcept { return ((*this)() >> 63) != 0; }

}  // namespace ldpc::util
