// The shared layer-schedule engine: ONE implementation of the paper's
// block-serial layered datapath (Fig. 2), reused by every decoder wrapping.
//
// Each layer runs the read -> shift/gather -> SISO -> write-back loop over
// the central L-memory (APP per variable) and the distributed Lambda memory
// (extrinsic per edge). The loop is templated over its message value type
// (LayerEngineT<V>, see datapath.hpp for the DatapathTraits policies):
//
//   LayerEngine       = LayerEngineT<std::int32_t>    runtime Qm.f codes —
//                       the bit-accurate chip datapath (arch::DecoderChip
//                       is wired to exactly this instantiation);
//   FloatLayerEngine  = LayerEngineT<double>          the unquantised
//                       reference for quantization-loss comparisons.
//
// The functional core::ReconfigurableDecoder runs the engine under the
// natural layer order; arch::DecoderChip runs the same (fixed-point)
// engine under an optimised layer order and prices memory ports, shifter
// traffic and pipeline cycles in closed form from the iteration count.
// Because both decoders execute this single implementation, their hard
// decisions are bit-identical by construction (and locked by tests across
// every registered code mode).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/datapath.hpp"
#include "ldpc/core/early_termination.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/core/siso.hpp"
#include "ldpc/fixed/qformat.hpp"

namespace ldpc::core {

struct FixedDecodeResult {
  std::vector<std::uint8_t> bits;  // hard decisions, size n
  int iterations = 0;              // full iterations executed
  bool converged = false;          // hard decisions form a codeword
  bool early_terminated = false;   // ET fired before max_iterations
  /// Payload tail CRC passed (vacuously true when DecoderConfig::frame_crc
  /// is kNone). With a CRC configured this is the delivery verdict:
  /// converged && crc_ok.
  bool crc_ok = true;
  /// crc_ok was only achieved by the bounded bit-flip fallback
  /// (crc_flip_budget); `bits` carries the repaired payload and
  /// `converged` stays false.
  bool crc_repaired = false;
  /// Idealised SISO datapath cycles (one layer's rows run in parallel
  /// across z SISO cores, so each layer costs one row's cycles).
  long long datapath_cycles = 0;
};

/// Idealised SISO datapath cycles of one check row: both stages (absorb +
/// emit) at one element per cycle for R2, two for R4. Shared by the scalar
/// engine, the chip pipeline accounting and the batched SoA engine.
constexpr int row_datapath_cycles(Radix radix, int degree) noexcept {
  return radix == Radix::kR2 ? 2 * degree : 2 * ((degree + 1) / 2);
}

/// The runtime-format (int32) deposit fused with the lane-type narrowing:
/// maps one frame of *transmitted* channel LLRs (size
/// code.transmitted_bits()) onto the full codeword memory (size n) per the
/// code's TransmissionScheme, emitting lane element type T raw codes
/// directly — the batched engines stage channel frames straight into
/// their narrow SoA columns with no int32 intermediate buffer and no
/// second narrowing pass. It runs the dispatched batch quantiser: the
/// element arithmetic is QFormat::quantize + the zero-excluding rule
/// exactly, and the sendable range maps onto AT MOST TWO contiguous
/// codeword segments (the punctured prefix is skipped once, the filler gap
/// once — see tx_bit_index), so even the scheme-aware path quantises dense
/// spans. The per-element scalar loop this replaced was the single largest
/// cost of the batched engines (47% of stream-decode runtime).
///
/// Punctured and never-sent bits get an exact zero (an erasure —
/// deliberately bypassing the zero-excluding input quantiser, which is for
/// *channel* zeros); known-zero fillers get the strongest positive prior
/// (the APP rail, which fits T — see the eligibility check); repeated bits
/// (E > sendable, circular-buffer wraparound) accumulate in the WIDENED
/// double-domain accumulator `acc` before the single quantisation, exactly
/// like a soft combiner in front of the chip — quantising each repeat
/// separately would round twice and rail early, diverging from the scalar
/// combiner. Because the quantiser clamps to the int32 rails before the
/// narrowing store, every emitted code equals the int32 deposit's code
/// narrowed: the fused path is bit-identical by construction. `acc` is
/// caller-provided scratch.
template <class T>
void deposit_transmitted_quant(const codes::QCCode& code,
                               const DatapathTraits<std::int32_t>& traits,
                               std::span<const double> tx, std::span<T> raw,
                               std::vector<double>& acc) {
  const int n = code.n();
  if (tx.size() != static_cast<std::size_t>(code.transmitted_bits()))
    throw std::invalid_argument("deposit_transmitted_quant: tx size");
  if (raw.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("deposit_transmitted_quant: raw size");
  if (traits.app_fmt.raw_max() >
      kernels::lane_raw_max(kernels::lane_type_of<T>))
    throw std::invalid_argument(
        "deposit_transmitted_quant: config rails exceed lane type " +
        kernels::to_string(kernels::lane_type_of<T>));
  const codes::TransmissionScheme& scheme = code.scheme();

  const kernels::QuantSpec spec{
      static_cast<double>(std::int64_t{1} << traits.fmt.frac_bits()),
      traits.fmt.raw_max(), traits.exclude_zero};
  const kernels::QuantFnT<T> quant = kernels::quant_kernel<T>();
  if (scheme.is_degenerate()) {
    quant(tx.data(), raw.data(), tx.size(), spec);
    return;
  }
  std::fill(raw.begin(), raw.end(), T{});
  const int sendable = code.sendable_bits();
  const int e_bits = code.transmitted_bits();
  const int punct = code.tx_bit_index(0);
  const int rv = scheme.redundancy_version;
  if (e_bits <= sendable) {
    // No circular-buffer repetition: quantise straight from tx, run by
    // run (at most four). Bits the rv window never reaches keep the
    // exact-zero erasure with the punctured prefix.
    code.for_each_tx_run(rv, [&](int i, int v, int len) {
      quant(tx.data() + i, raw.data() + v, static_cast<std::size_t>(len),
            spec);
    });
  } else {
    // Repetition (E > sendable): every buffer position is covered at
    // least once whatever k0 is. Accumulate in the double domain first —
    // a soft combiner in front of the chip — then quantise once, from
    // the two contiguous sendable segments of the accumulator (sendable
    // positions below the filler gap land at punct + s, the rest shift
    // up by filler_bits).
    acc.assign(static_cast<std::size_t>(n), 0.0);
    code.for_each_tx_run(rv, [&](int i, int v, int len) {
      for (int j = 0; j < len; ++j)
        acc[static_cast<std::size_t>(v + j)] +=
            tx[static_cast<std::size_t>(i + j)];
    });
    const int s_break = code.k_info() - scheme.filler_bits - punct;
    const int a = std::min(sendable, s_break);
    if (a > 0) quant(acc.data() + punct, raw.data() + punct, a, spec);
    if (sendable > a) {
      const int base = punct + a + scheme.filler_bits;
      quant(acc.data() + base, raw.data() + base,
            static_cast<std::size_t>(sendable - a), spec);
    }
  }
  const int filler_start = code.k_info() - scheme.filler_bits;
  for (int f = 0; f < scheme.filler_bits; ++f)
    raw[static_cast<std::size_t>(filler_start + f)] =
        static_cast<T>(traits.filler_value());
}

/// The LLR deposit shared by every datapath: maps one frame of
/// *transmitted* channel LLRs (size code.transmitted_bits()) onto the full
/// codeword memory (size n) per the code's TransmissionScheme. Punctured
/// and never-sent bits get an exact zero (an erasure — deliberately
/// bypassing the zero-excluding input quantiser, which is for *channel*
/// zeros); known-zero fillers get the strongest positive prior; repeated
/// bits (E > sendable, circular-buffer wraparound) accumulate in the
/// double domain before the single quantisation, exactly like a soft
/// combiner in front of the chip. Degenerate schemes reduce to the plain
/// quantiser, bit for bit. `acc` is caller-provided scratch. The runtime
/// (int32) instantiation is deposit_transmitted_quant<int32> — the fused
/// template above generalises it to the narrow lane element types.
template <class Traits>
void deposit_transmitted(const codes::QCCode& code, const Traits& traits,
                         std::span<const double> tx,
                         std::span<typename Traits::value_type> raw,
                         std::vector<double>& acc) {
  using V = typename Traits::value_type;
  if constexpr (std::is_same_v<V, std::int32_t>) {
    deposit_transmitted_quant<std::int32_t>(code, traits, tx, raw, acc);
  } else {
    const int n = code.n();
    if (tx.size() != static_cast<std::size_t>(code.transmitted_bits()))
      throw std::invalid_argument("deposit_transmitted: tx size");
    if (raw.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument("deposit_transmitted: raw size");
    const codes::TransmissionScheme& scheme = code.scheme();
    if (scheme.is_degenerate()) {
      for (std::size_t i = 0; i < tx.size(); ++i)
        raw[i] = traits.quantize_llr(tx[i]);
      return;
    }
    std::fill(raw.begin(), raw.end(), V{});
    acc.assign(static_cast<std::size_t>(n), 0.0);
    const int sendable = code.sendable_bits();
    const int e_bits = code.transmitted_bits();
    const int k0 = code.rv_start();
    for (int i = 0; i < e_bits; ++i)
      acc[static_cast<std::size_t>(
          code.tx_bit_index((k0 + i) % sendable))] += tx[i];
    // Positions the rv window never reaches (E < sendable) keep the
    // exact-zero erasure along with the punctured prefix.
    const int sent = std::min(e_bits, sendable);
    for (int j = 0; j < sent; ++j) {
      const int v = code.tx_bit_index((k0 + j) % sendable);
      raw[static_cast<std::size_t>(v)] =
          traits.quantize_llr(acc[static_cast<std::size_t>(v)]);
    }
    const int filler_start = code.k_info() - scheme.filler_bits;
    for (int f = 0; f < scheme.filler_bits; ++f)
      raw[static_cast<std::size_t>(filler_start + f)] = traits.filler_value();
  }
}

/// Throws std::invalid_argument unless `order` is empty (the natural
/// order) or a permutation of the block rows [0, j): a repeated or
/// out-of-range layer would skip layers or index past the code's layer
/// table. `who` names the thrower in the message.
inline void check_layer_order(std::span<const int> order, int j,
                              const char* who) {
  if (order.empty()) return;
  if (order.size() != static_cast<std::size_t>(j))
    throw std::invalid_argument(std::string(who) + ": order size");
  std::vector<bool> seen(static_cast<std::size_t>(j), false);
  for (const int l : order) {
    if (l < 0 || l >= j || seen[static_cast<std::size_t>(l)])
      throw std::invalid_argument(std::string(who) +
                                  ": order is not a permutation of the "
                                  "block rows");
    seen[static_cast<std::size_t>(l)] = true;
  }
}

/// The single layer-schedule implementation, templated over the message
/// value type V (see DatapathTraits<V>). Owns the architectural state
/// (L-memory, Lambda memory, per-row scratch) and executes the block-serial
/// schedule for any registered QC code under any layer permutation.
/// Not thread-safe: each worker thread owns an engine (via its decoder).
template <class V>
class LayerEngineT {
 public:
  using value_type = V;
  using Traits = DatapathTraits<V>;

  /// Throws std::invalid_argument for out-of-range config values.
  explicit LayerEngineT(DecoderConfig config)
      : config_(config), traits_(validated(config)), et_(config.early_termination) {}

  /// Re-targets the engine to a different code (the paper's dynamic
  /// reconfiguration): resizes memories and scratch like the chip's
  /// bank-activation logic. The engine references (not copies) `code`.
  void reconfigure(const codes::QCCode& code) {
    code_ = &code;
    l_mem_.assign(static_cast<std::size_t>(code.n()), V{});
    lambda_mem_.assign(static_cast<std::size_t>(code.edges()), V{});
    lam_.resize(static_cast<std::size_t>(code.max_check_degree()));
    lam_full_.resize(static_cast<std::size_t>(code.max_check_degree()));
    lam_new_.resize(static_cast<std::size_t>(code.max_check_degree()));
  }

  bool configured() const noexcept { return code_ != nullptr; }
  /// Throws std::logic_error when not configured.
  const codes::QCCode& code() const {
    if (!code_) throw std::logic_error("LayerEngine: not configured");
    return *code_;
  }
  const DecoderConfig& config() const noexcept { return config_; }

  /// Quantises channel LLRs into message values (zero-excluding when
  /// configured; the identity plus zero-nudge for the double path).
  /// `raw.size()` must equal `llr.size()`.
  void quantize(std::span<const double> llr, std::span<V> raw) const {
    if (llr.size() != raw.size())
      throw std::invalid_argument("LayerEngine::quantize: size mismatch");
    for (std::size_t i = 0; i < llr.size(); ++i)
      raw[i] = traits_.quantize_llr(llr[i]);
  }

  /// Maps one frame of transmitted LLRs (size transmitted_bits()) onto the
  /// full codeword memory per the configured code's TransmissionScheme
  /// (see deposit_transmitted). For degenerate schemes this is quantize().
  void deposit(std::span<const double> tx, std::span<V> raw) {
    if (!code_) throw std::logic_error("LayerEngine: not configured");
    deposit_transmitted(*code_, traits_, tx, raw, acc_);
  }

  /// Runs the full schedule on one frame of already-quantised LLRs:
  /// initialises L/Lambda, then iterates the layers in `order` (empty =
  /// natural order 0..j-1) up to max_iterations with early-termination /
  /// codeword stopping. `order`, when given, must be a permutation of the
  /// code's block rows (check_layer_order; throws std::invalid_argument
  /// otherwise).
  FixedDecodeResult run(std::span<const V> llr_raw,
                        std::span<const int> order = {}) {
    if (!code_) throw std::logic_error("LayerEngine: not configured");
    const int n = code_->n();
    if (llr_raw.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument("LayerEngine::run: llr size");
    const int j = code_->block_rows();
    check_layer_order(order, j, "LayerEngine::run");

    // Initialisation (Algorithm 1): Lambda = 0, L = channel LLR.
    std::copy(llr_raw.begin(), llr_raw.end(), l_mem_.begin());
    std::fill(lambda_mem_.begin(), lambda_mem_.end(), V{});
    et_.reset();
    long long cycles = 0;

    FixedDecodeResult result;
    result.bits.assign(static_cast<std::size_t>(n), 0);

    const int k_info = code_->k_info();
    const auto payload = static_cast<std::size_t>(code_->payload_bits());
    const V threshold = traits_.et_threshold(config_.early_termination);
    for (int iter = 1; iter <= config_.max_iterations; ++iter) {
      if (order.empty()) {
        for (int l = 0; l < j; ++l) cycles += process_layer(l);
      } else {
        for (int l : order) cycles += process_layer(l);
      }
      result.iterations = iter;

      // Decision making: x_n = sign(L_n).
      for (int v = 0; v < n; ++v)
        result.bits[static_cast<std::size_t>(v)] =
            Traits::is_negative(l_mem_[static_cast<std::size_t>(v)]) ? 1 : 0;

      // Stop rules — ET first, then codeword stopping — gated by the
      // outer CRC when one is configured: a stop with a failing payload
      // CRC is vetoed (likely miscorrection) and the frame keeps
      // iterating. frame_crc == kNone short-circuits to the historical
      // behaviour bit for bit.
      const bool et_fire =
          et_.update(std::span<const V>{l_mem_.data(),
                                        static_cast<std::size_t>(k_info)},
                     threshold);
      const bool cw_stop = !et_fire && config_.stop_on_codeword &&
                           code_->is_codeword(result.bits);
      if (et_fire || cw_stop) {
        if (config_.frame_crc == FrameCrc::kNone ||
            crc_check(config_.frame_crc,
                      std::span<const std::uint8_t>{result.bits.data(),
                                                    payload})) {
          result.early_terminated = et_fire;
          break;
        }
      }
    }

    result.converged = code_->is_codeword(result.bits);
    if (config_.frame_crc != FrameCrc::kNone) {
      const std::span<std::uint8_t> pay{result.bits.data(), payload};
      result.crc_ok = crc_check(config_.frame_crc, pay);
      if (!result.crc_ok && !result.converged &&
          config_.crc_flip_budget > 0) {
        // Near-miss fallback: reliability keys are |APP| of the payload
        // positions. The double keys represent raw integer codes exactly,
        // so the candidate order matches across every lane type.
        mag_keys_.resize(payload);
        for (std::size_t v = 0; v < payload; ++v)
          mag_keys_[v] = mag_key(l_mem_[v]);
        if (crc_flip_repair(config_.frame_crc, pay, mag_keys_,
                            config_.crc_flip_budget) >= 0) {
          result.crc_ok = true;
          result.crc_repaired = true;
        }
      }
    }
    result.datapath_cycles = cycles;
    return result;
  }

  /// APP (L-memory) contents after the last run (size n); used by wrappers
  /// that expose soft output.
  std::span<const V> app() const noexcept { return l_mem_; }

 private:
  static const DecoderConfig& validated(const DecoderConfig& config) {
    if (config.max_iterations <= 0)
      throw std::invalid_argument("LayerEngine: max_iterations");
    if (config.app_extra_bits < 0 || config.app_extra_bits > 8)
      throw std::invalid_argument("LayerEngine: app_extra_bits");
    if (config.minsum_offset_raw < 0 ||
        config.minsum_offset_raw > config.format.raw_max())
      throw std::invalid_argument("LayerEngine: minsum_offset_raw");
    if (config.crc_flip_budget < 0)
      throw std::invalid_argument("LayerEngine: crc_flip_budget");
    return config;
  }

  /// |APP| of one L word as a double reliability key for the CRC flip
  /// fallback (exact for the integer datapath; |LLR| for the float one).
  static double mag_key(V v) noexcept {
    const double d = static_cast<double>(v);
    return d < 0.0 ? -d : d;
  }

  /// One layer of the schedule; returns the layer's idealised datapath
  /// cycles (one row's cycles: the z rows run on parallel SISO cores).
  int process_layer(int layer) {
    const int z = code_->z();
    const int deg =
        static_cast<int>(code_->layers()[static_cast<std::size_t>(layer)]
                             .size());

    for (int t = 0; t < z; ++t) {
      const int r = layer * z + t;
      const auto vars = code_->check_vars(r);
      const int e0 = code_->edge_index(r, 0);

      // Read + subtract (the adders in front of the SISO array in Fig. 7):
      // lambda_mn = L_n - Lambda_mn, computed at APP width and clipped to
      // the message format on the SISO input bus.
      for (int e = 0; e < deg; ++e) {
        lam_full_[static_cast<std::size_t>(e)] = traits_.app_sub(
            l_mem_[static_cast<std::size_t>(vars[e])],
            lambda_mem_[static_cast<std::size_t>(e0 + e)]);
        lam_[static_cast<std::size_t>(e)] =
            traits_.clip_msg(lam_full_[static_cast<std::size_t>(e)]);
      }

      const std::span<const V> lam{lam_.data(),
                                   static_cast<std::size_t>(deg)};
      const std::span<V> out{lam_new_.data(), static_cast<std::size_t>(deg)};
      if (config_.kernel == CnuKernel::kFullBp) {
        traits_.siso_row(lam, out, config_.radix);
      } else {
        // Min-sum CNU: two running minima and a sign product (the
        // [3]-class datapath); cycle structure matches the SISO
        // (scan + emit).
        V min1 = traits_.mag_max(), min2 = traits_.mag_max();
        int argmin = -1;
        bool neg = false;
        for (int e = 0; e < deg; ++e) {
          const V mag = Traits::magnitude(lam_[static_cast<std::size_t>(e)]);
          neg ^= Traits::is_negative(lam_[static_cast<std::size_t>(e)]);
          if (mag < min1) {
            min2 = min1;
            min1 = mag;
            argmin = e;
          } else if (mag < min2) {
            min2 = mag;
          }
        }
        // Variant correction, applied once to the two minima (every
        // emitted magnitude is one of them, so this equals per-edge
        // correction — and matches the batched kernels bit for bit).
        if (config_.kernel == CnuKernel::kOffsetMinSum) {
          min1 = traits_.offset_correct(min1);
          min2 = traits_.offset_correct(min2);
        } else if (config_.kernel == CnuKernel::kNormalizedMinSum) {
          min1 = traits_.normalize_correct(min1);
          min2 = traits_.normalize_correct(min2);
        }
        for (int e = 0; e < deg; ++e) {
          const V mag = e == argmin ? min2 : min1;
          const bool out_neg =
              neg != Traits::is_negative(lam_[static_cast<std::size_t>(e)]);
          lam_new_[static_cast<std::size_t>(e)] =
              out_neg ? Traits::negate(mag) : mag;
        }
      }

      // Write back: Lambda and the updated APP L_n = lambda + Lambda_new
      // (APP-width adder so extrinsic bookkeeping stays consistent across
      // layers even when L is near saturation).
      for (int e = 0; e < deg; ++e) {
        lambda_mem_[static_cast<std::size_t>(e0 + e)] =
            lam_new_[static_cast<std::size_t>(e)];
        l_mem_[static_cast<std::size_t>(vars[e])] =
            traits_.app_add(lam_full_[static_cast<std::size_t>(e)],
                            lam_new_[static_cast<std::size_t>(e)]);
      }
    }
    // All z rows of a layer run on parallel SISO cores: the layer costs
    // one row's cycles (rows share a degree within a layer).
    return row_datapath_cycles(config_.radix, deg);
  }

  DecoderConfig config_;
  Traits traits_;
  EarlyTermination et_;
  const codes::QCCode* code_ = nullptr;

  // Architectural state: central L-memory and distributed Lambda memory.
  std::vector<V> l_mem_;       // APP per variable, size n
  std::vector<V> lambda_mem_;  // extrinsic per edge
  // Scratch per check row (lam_full_ is the APP-width subtraction before
  // the message-bus clip).
  std::vector<V> lam_, lam_full_, lam_new_;
  // LLR-deposit accumulation scratch (rate-matched repetition combining).
  std::vector<double> acc_;
  // CRC flip-fallback reliability keys (payload positions).
  std::vector<double> mag_keys_;
};

/// The bit-accurate fixed-point instantiation (runtime Qm.f codes) — the
/// chip's datapath and the library-wide default.
using LayerEngine = LayerEngineT<std::int32_t>;
/// The unquantised floating-point reference instantiation.
using FloatLayerEngine = LayerEngineT<double>;

extern template class LayerEngineT<std::int32_t>;
extern template class LayerEngineT<double>;

}  // namespace ldpc::core
