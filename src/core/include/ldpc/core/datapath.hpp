// Value-type policies for the templated layered datapath.
//
// core::LayerEngineT<V> runs the paper's read -> shift -> SISO -> write-back
// loop over a message value type V; everything numeric about a value
// type — quantisation, the wider APP-word arithmetic, the message-bus
// clip, the check-node f/g kernels — lives in its DatapathTraits
// specialisation. Two datapaths are provided:
//
//   std::int32_t        raw codes under a *runtime* fixed::QFormat — the
//                       bit-accurate model of the chip, with the word
//                       length selectable per DecoderConfig (this is what
//                       the quantization_sweep bench varies);
//   double              the unquantised floating-point reference the
//                       quantization-loss comparison measures against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ldpc/core/crc.hpp"
#include "ldpc/core/early_termination.hpp"
#include "ldpc/core/siso.hpp"
#include "ldpc/fixed/qformat.hpp"

namespace ldpc::core {

/// SISO radix choice (Fig. 3 vs Fig. 6). Functionally identical; R4 halves
/// the per-row cycle count.
enum class Radix { kR2, kR4 };

/// Check-node kernel of the datapath. The paper's chip implements full BP;
/// the min-sum family is provided for the section III-B comparison and is
/// what the SIMD-batched SoA engines implement. kOffsetMinSum subtracts
/// DecoderConfig::minsum_offset_raw LSBs from every emitted magnitude
/// (floored at zero) and kNormalizedMinSum scales it by 3/4 (exact in
/// every lane width: mag -= mag >> 2) — the two standard corrections for
/// min-sum's overestimated extrinsics, worth a few tenths of a dB at the
/// cost of one subtract (see the quantization_sweep ladders).
enum class CnuKernel { kFullBp, kMinSum, kOffsetMinSum, kNormalizedMinSum };

/// True for every member of the min-sum family (the kernels the batched
/// SoA engines implement).
constexpr bool is_min_sum(CnuKernel kernel) noexcept {
  return kernel != CnuKernel::kFullBp;
}

/// Message value type the decoder wrappers run on. kQuantized is the
/// paper's chip datapath (LayerEngineT<std::int32_t> under
/// DecoderConfig::format); kFloat is the unquantised reference
/// (LayerEngineT<double>) used to measure quantization loss.
enum class Datapath { kQuantized, kFloat };

struct DecoderConfig {
  fixed::QFormat format = fixed::kMessageFormat;
  /// Extra integer bits carried by the APP (L) memory beyond the message
  /// format. The SISO message buses stay `format`-wide (the paper's 8-bit
  /// datapath); a wider APP word prevents the classic layered-decoding
  /// saturation oscillation (L saturates, lambda = L - Lambda flips sign),
  /// the same choice made by the Mansour'06 and Gunnam'07 designs. Set to
  /// 0 to model a strictly 8-bit APP path.
  int app_extra_bits = 2;
  /// Exclude the zero level when quantising channel LLRs (nudge 0 to
  /// +/-1 LSB). In the f-then-g SISO architecture a zero input annihilates
  /// the whole row sum S and g(0,0) cannot reconstruct the
  /// all-but-one combination, so an exact-zero channel LLR would lock as an
  /// undecodable erasure. A zero-free input quantiser (one OR gate in
  /// hardware) removes the pathology.
  bool exclude_zero_input = true;
  int max_iterations = 10;  // paper Table 3
  Radix radix = Radix::kR4;
  CnuKernel kernel = CnuKernel::kFullBp;
  /// Offset beta of kOffsetMinSum, in raw message LSBs (2 LSBs = 0.5 at
  /// the default Q5.2 split — the conventional beta for 4-ish-bit
  /// magnitudes). Must be >= 0 and fit the message format.
  std::int32_t minsum_offset_raw = 2;
  /// Check-node architecture for the kFullBp kernel (see CnuArch docs:
  /// kSumSubtract is the paper's literal Eq. (1), kForwardBackward the
  /// numerically robust default).
  CnuArch cnu_arch = CnuArch::kForwardBackward;
  EarlyTermination::Config early_termination{};
  /// Stop as soon as the hard decisions form a codeword (genie check used
  /// by simulations; the chip itself only stops via early termination).
  bool stop_on_codeword = false;
  /// Outer payload CRC the stop rules consult (CRC-aided early
  /// termination): when not kNone, a stop — ET fire or codeword stop —
  /// only takes effect if the payload tail CRC checks out; a
  /// codeword-valid frame with a failing CRC keeps iterating. kNone keeps
  /// every engine bit-exactly on the historical stop rules.
  FrameCrc frame_crc = FrameCrc::kNone;
  /// Near-miss fallback budget: when a frame exhausts max_iterations
  /// unconverged with a failing CRC, try flipping up to this many of the
  /// least-reliable payload bits (one at a time, crc_flip_repair) and
  /// keep the first flip that repairs the CRC. 0 disables the fallback.
  int crc_flip_budget = 0;
  /// Which value type the decoder wrappers instantiate the engine with.
  Datapath datapath = Datapath::kQuantized;
};

/// Exact floating-point boxplus f(a, b): the unquantised Eq. (2),
/// min + log1p corrections with no LUT rounding.
inline double f_op_exact(double a, double b) noexcept {
  const double mn = std::min(std::fabs(a), std::fabs(b));
  const double mag = mn + std::log1p(std::exp(-(std::fabs(a) + std::fabs(b)))) -
                     std::log1p(std::exp(-std::fabs(std::fabs(a) - std::fabs(b))));
  const bool neg = (a < 0.0) != (b < 0.0);
  const double m = mag < 0.0 ? 0.0 : mag;
  return neg ? -m : m;
}

/// Exact floating-point boxminus g(s, b) with the divergence at |s| == |b|
/// clamped to `clamp` — the unquantised analogue of the hardware 3-bit LUT
/// cap (an unbounded result would erase the row on the next L - Lambda
/// subtraction exactly as a full-scale saturation would).
inline double g_op_exact(double s, double b, double clamp = 1e3) noexcept {
  const double as = std::fabs(s), ab = std::fabs(b);
  const double mn = std::min(as, ab);
  const double diff = std::fabs(as - ab);
  // phi-(x) = -log(1 - e^-x) = -log(-expm1(-x)); diverges at x -> 0.
  const double phi_sum = -std::log(-std::expm1(-(as + ab)));
  const double phi_diff = diff > 0.0 ? -std::log(-std::expm1(-diff)) : clamp;
  double mag = mn - phi_sum + phi_diff;
  if (mag < 0.0) mag = 0.0;
  if (mag > clamp) mag = clamp;
  return (s < 0.0) != (b < 0.0) ? -mag : mag;
}

/// Check-row schedule of the float datapath: the same degree-1 /
/// sum-subtract / forward-backward structure as the int32 implementation
/// behind SisoR2/R4 (siso.cpp), expressed over a pluggable f/g pair. A
/// regression test runs it over the int32 LUT f/g operators against the
/// SISO cores so the two row implementations cannot drift.
template <class V, class FOp, class GOp>
void siso_row_generic(std::span<const V> lambda, std::span<V> lambda_new,
                      CnuArch arch, FOp&& f, GOp&& g, std::vector<V>& prefix,
                      std::vector<V>& suffix) {
  const int d = static_cast<int>(lambda.size());
  if (d == 0) return;
  if (d == 1) {
    lambda_new[0] = V{};  // degenerate degree-1 check: no extrinsic info
    return;
  }
  if (arch == CnuArch::kSumSubtract) {
    V s = lambda[0];
    for (int e = 1; e < d; ++e) s = f(s, lambda[e]);
    for (int e = 0; e < d; ++e) lambda_new[e] = g(s, lambda[e]);
    return;
  }
  prefix.resize(static_cast<std::size_t>(d));
  suffix.resize(static_cast<std::size_t>(d));
  prefix[0] = lambda[0];
  for (int e = 1; e < d; ++e) prefix[e] = f(prefix[e - 1], lambda[e]);
  suffix[static_cast<std::size_t>(d - 1)] = lambda[static_cast<std::size_t>(d - 1)];
  for (int e = d - 2; e >= 0; --e) suffix[e] = f(suffix[e + 1], lambda[e]);
  lambda_new[0] = suffix[1];
  lambda_new[static_cast<std::size_t>(d - 1)] = prefix[static_cast<std::size_t>(d - 2)];
  for (int e = 1; e < d - 1; ++e) lambda_new[e] = f(prefix[e - 1], suffix[e + 1]);
}

template <class V>
struct DatapathTraits;  // specialised per supported value type

/// Runtime-format quantised datapath: raw codes in int32, all arithmetic
/// through the config's QFormat (message bus) and the widened APP format.
template <>
struct DatapathTraits<std::int32_t> {
  using value_type = std::int32_t;

  explicit DatapathTraits(const DecoderConfig& config)
      : fmt(config.format),
        app_fmt(config.format.total_bits() + config.app_extra_bits,
                config.format.frac_bits()),
        exclude_zero(config.exclude_zero_input),
        minsum_offset(config.minsum_offset_raw),
        siso_r2(config.format, config.cnu_arch),
        siso_r4(config.format, config.cnu_arch) {}

  value_type quantize_llr(double llr) const noexcept {
    value_type raw = fmt.quantize(llr);
    if (raw == 0 && exclude_zero) raw = llr < 0.0 ? -1 : 1;
    return raw;
  }
  /// Strongest positive prior (APP-width rail): the deposit value for a
  /// known-zero filler bit.
  value_type filler_value() const noexcept { return app_fmt.raw_max(); }
  static bool is_negative(value_type v) noexcept { return v < 0; }
  static value_type magnitude(value_type v) noexcept { return v < 0 ? -v : v; }
  static value_type negate(value_type v) noexcept { return -v; }
  value_type mag_max() const noexcept { return fmt.raw_max(); }
  /// kOffsetMinSum correction of a non-negative magnitude: subtract the
  /// configured offset, floored at zero.
  value_type offset_correct(value_type mag) const noexcept {
    mag -= minsum_offset;
    return mag < 0 ? 0 : mag;
  }
  /// kNormalizedMinSum correction: scale by 3/4 (exact in raw LSBs).
  value_type normalize_correct(value_type mag) const noexcept {
    return mag - (mag >> 2);
  }
  value_type app_sub(value_type a, value_type b) const noexcept {
    return app_fmt.sub(a, b);
  }
  value_type app_add(value_type a, value_type b) const noexcept {
    return app_fmt.add(a, b);
  }
  value_type clip_msg(value_type v) const noexcept { return fmt.saturate(v); }
  value_type et_threshold(const EarlyTermination::Config& c) const noexcept {
    return c.threshold_raw;
  }
  void siso_row(std::span<const value_type> lambda,
                std::span<value_type> lambda_new, Radix radix) const {
    if (radix == Radix::kR2)
      siso_r2.process(lambda, lambda_new);
    else
      siso_r4.process(lambda, lambda_new);
  }

  fixed::QFormat fmt;
  fixed::QFormat app_fmt;
  bool exclude_zero;
  std::int32_t minsum_offset;
  SisoR2 siso_r2;
  SisoR4 siso_r4;
};

/// Unquantised floating-point reference datapath: IEEE double end to end,
/// exact f/g kernels, no message clip. DecoderConfig::format only scales
/// the early-termination threshold (kept in message LSBs so the same
/// config means the same stopping rule on every path).
template <>
struct DatapathTraits<double> {
  using value_type = double;

  explicit DatapathTraits(const DecoderConfig& config)
      : lsb(config.format.lsb()),
        exclude_zero(config.exclude_zero_input),
        minsum_offset(config.minsum_offset_raw * config.format.lsb()),
        arch(config.cnu_arch) {}

  value_type quantize_llr(double llr) const noexcept {
    // Same nudge rule as the quantised path (`llr < 0.0`): -0.0 goes to
    // +lsb, so the two datapaths start from identical priors.
    if (llr == 0.0 && exclude_zero) return llr < 0.0 ? -lsb : lsb;
    return llr;
  }
  /// Known-zero filler prior: overwhelmingly strong but finite, so the
  /// exact f/g kernels never see an infinity.
  value_type filler_value() const noexcept { return 1e6; }
  static bool is_negative(value_type v) noexcept { return v < 0.0; }
  static value_type magnitude(value_type v) noexcept { return std::fabs(v); }
  static value_type negate(value_type v) noexcept { return -v; }
  value_type mag_max() const noexcept {
    return std::numeric_limits<double>::infinity();
  }
  /// Offset correction in real units: the configured raw offset times one
  /// message LSB, so the same config means the same beta on every path.
  value_type offset_correct(value_type mag) const noexcept {
    mag -= minsum_offset;
    return mag < 0.0 ? 0.0 : mag;
  }
  /// 3/4 scaling (the float analogue of mag -= mag >> 2).
  static value_type normalize_correct(value_type mag) noexcept {
    return mag * 0.75;
  }
  static value_type app_sub(value_type a, value_type b) noexcept {
    return a - b;
  }
  static value_type app_add(value_type a, value_type b) noexcept {
    return a + b;
  }
  static value_type clip_msg(value_type v) noexcept { return v; }
  value_type et_threshold(const EarlyTermination::Config& c) const noexcept {
    return static_cast<double>(c.threshold_raw) * lsb;
  }
  void siso_row(std::span<const value_type> lambda,
                std::span<value_type> lambda_new, Radix /*radix*/) const {
    siso_row_generic(
        lambda, lambda_new, arch,
        [](double a, double b) { return f_op_exact(a, b); },
        [](double s, double b) { return g_op_exact(s, b); }, prefix_, suffix_);
  }

  double lsb;
  bool exclude_zero;
  double minsum_offset;
  CnuArch arch;
  mutable std::vector<double> prefix_, suffix_;
};

}  // namespace ldpc::core
