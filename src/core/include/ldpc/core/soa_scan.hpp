// Helpers of the batched SoA engine (core::StreamBatchEngine): lane-
// parallel stop-rule scans, config validation, the lane type a config's
// rails admit, and the stop/convergence verdicts.
//
// The batched datapath made the min-sum arithmetic cheap; what remained
// expensive was the per-lane bookkeeping between iterations — gathering a
// lane's APP column to feed the scalar EarlyTermination monitor, and
// gathering its hard decisions to run QCCode::is_codeword, per LIVE LANE
// per iteration. Those scalar gathers cost as much as the lane's share of
// the vectorised datapath and, being proportional to live lanes, they
// diluted the batched datapath's advantage into the noise.
// These scans evaluate the SAME rules for ALL lanes in one dense pass over
// the lane-major memory, dispatched into the per-tier kernel TUs so the
// lane loops run at the active tier's full vector width (see
// kernels::cw_scan_kernel / et_scan_kernel); the stop logic costs a
// fraction of one layer pass instead of rivalling the whole iteration.
// They are templated over the lane element type (int32/int16/int8) like
// the kernels; the verdicts are type-independent.
//
// The codeword scan runs once on every engine pass that can retire a lane
// (every pass under codeword stopping; otherwise a pass where some lane
// has a pending ET stop or reaches the iteration cap), and that one scan
// serves every per-frame consumer: its ok[w] is the stop and convergence
// verdict, and its packed hard_mask feeds the CRC gate and the retire
// fold. No retiring frame is re-checked with QCCode::is_codeword or
// re-gathered from the strided L column; only the CRC flip fallback
// (soa_finish_crc) still reads L, for its |APP| keys.
//
// Semantics are bit-identical to the scalar path by construction:
//   - soa_codeword_scan(w) == QCCode::is_codeword(hard decisions of lane w)
//   - the ET scan's fire[w] (kernels::et_scan_kernel)
//     == EarlyTermination::update(lane w's info APPs)
//     with the same has-previous / all-stable / min-|L|-above-threshold
//     rule (has_prev[w] is the per-lane reset flag: clear it when a lane
//     is (re)filled, exactly like EarlyTermination::reset()).
// The refill-equivalence suite locks both against the scalar engine for
// every golden mode.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/datapath.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/core/layer_engine.hpp"

namespace ldpc::core {

/// Cache-line-aligned allocator for the engine's lane-major state. The SoA
/// row stride at the AVX-512 tier's lane width is exactly one cache line
/// (64 bytes: 16 int32 / 32 int16 / 64 int8; half a line below AVX-512),
/// so with a 64-byte-aligned base every row access is one line; from a
/// plain std::vector base every 512-bit row load/store straddles TWO
/// lines, and on the L2-resident
/// working sets of realistic codes the doubled line traffic was eating
/// most of the narrow lanes' per-item advantage over int32.
template <class T>
struct SoaAllocator {
  using value_type = T;
  SoaAllocator() = default;
  template <class U>
  SoaAllocator(const SoaAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{64});
  }
  template <class U>
  bool operator==(const SoaAllocator<U>&) const noexcept {
    return true;
  }
};

/// Lane-major engine buffer: std::vector with 64-byte-aligned storage.
template <class T>
using SoaVector = std::vector<T, SoaAllocator<T>>;

/// Config rules of the batched engine: the SoA kernels implement
/// the min-sum family on the quantized datapath only, under the same
/// numeric bounds as LayerEngineT. `engine` names the thrower in the
/// message.
inline DecoderConfig validated_batch_config(DecoderConfig config,
                                            const char* engine) {
  const std::string who = engine;
  if (config.max_iterations <= 0)
    throw std::invalid_argument(who + ": max_iterations");
  if (config.app_extra_bits < 0 || config.app_extra_bits > 8)
    throw std::invalid_argument(who + ": app_extra_bits");
  if (!is_min_sum(config.kernel))
    throw std::invalid_argument(
        who + ": the batched kernels are min-sum family only (use the "
              "scalar LayerEngine for full BP)");
  if (config.minsum_offset_raw < 0 ||
      config.minsum_offset_raw > config.format.raw_max())
    throw std::invalid_argument(who + ": minsum_offset_raw");
  if (config.datapath != Datapath::kQuantized)
    throw std::invalid_argument(
        who + ": quantized datapath only (use FloatLayerEngine)");
  if (config.crc_flip_budget < 0)
    throw std::invalid_argument(who + ": crc_flip_budget");
  return config;
}

/// The narrowest lane element type whose symmetric saturation range holds
/// every rail of `config`: both the APP word (format + app_extra_bits)
/// and the message bus. This containment is exactly what makes the narrow
/// kernels bit-identical to int32 — saturating narrow arithmetic followed
/// by the rail clamps equals wide arithmetic followed by the same clamps
/// whenever the clamp interval sits inside the saturation interval. The
/// default Q5.2 + 2 extra APP bits (+/-511) selects int16; the strict
/// 8-bit-APP configuration (app_extra_bits == 0, the paper's literal
/// datapath, +/-127) selects int8. Results are bit-identical across
/// eligible types, so narrower is strictly better: this is the type every
/// auto-typed engine runs.
inline kernels::LaneType narrowest_lane_type(const DecoderConfig& config) {
  const fixed::QFormat app_fmt(
      config.format.total_bits() + config.app_extra_bits,
      config.format.frac_bits());
  const std::int32_t hi =
      app_fmt.raw_max() > config.format.raw_max() ? app_fmt.raw_max()
                                                  : config.format.raw_max();
  if (hi <= kernels::lane_raw_max(kernels::LaneType::kInt8))
    return kernels::LaneType::kInt8;
  if (hi <= kernels::lane_raw_max(kernels::LaneType::kInt16))
    return kernels::LaneType::kInt16;
  return kernels::LaneType::kInt32;
}

/// True when a lane of `type` can hold every rail of `config`.
inline bool lane_type_eligible(const DecoderConfig& config,
                               kernels::LaneType type) {
  return kernels::lane_scale(type) <=
         kernels::lane_scale(narrowest_lane_type(config));
}

/// The kernel-layer bounds of one engine config: the APP / message rails
/// plus the min-sum variant correction (RowBounds.offset / .norm).
inline kernels::RowBounds make_row_bounds(
    const DecoderConfig& config, const DatapathTraits<std::int32_t>& traits) {
  kernels::RowBounds b;
  b.app_lo = traits.app_fmt.raw_min();
  b.app_hi = traits.app_fmt.raw_max();
  b.msg_lo = traits.fmt.raw_min();
  b.msg_hi = traits.fmt.raw_max();
  b.offset = config.kernel == CnuKernel::kOffsetMinSum
                 ? config.minsum_offset_raw
                 : 0;
  b.norm = config.kernel == CnuKernel::kNormalizedMinSum ? 1 : 0;
  return b;
}

/// Clamps an int32 raw code to lane type T on load (symmetric, matching
/// the kernels' saturation). The deposit/quantiser never produces
/// out-of-range codes for an eligible config; this only guards frames
/// stored at a wider lane type by a foreign producer.
template <class T>
constexpr T clamp_to_lane(std::int32_t v) noexcept {
  constexpr std::int32_t hi =
      kernels::lane_raw_max(kernels::lane_type_of<T>);
  return static_cast<T>(v > hi ? hi : v < -hi ? -hi : v);
}

struct SoaStopVerdict {
  bool stopped = false;
  bool early_terminated = false;
};

/// The scalar engine's post-iteration stop sequence, evaluated from the
/// lane scans: early termination first (when enabled), then codeword
/// stopping. The engine consumes the scans through this one function.
inline SoaStopVerdict soa_stop_verdict(const DecoderConfig& config,
                                       std::uint8_t et_fire,
                                       std::uint8_t cw_ok) {
  if (config.early_termination.enabled && et_fire)
    return {.stopped = true, .early_terminated = true};
  if (config.stop_on_codeword && cw_ok) return {.stopped = true};
  return {};
}

/// CRC gate of lane w's pending stop — the batched mirror of the scalar
/// engine's CRC-aided stop rule. Reads the lane's payload hard decisions
/// from the packed masks of this pass's codeword scan (the engine runs
/// the scan on every pass with a pending stop) into `scratch` and checks
/// the payload tail CRC. True = the stop stands; false = miscorrection
/// veto, the lane keeps iterating. Always true for frame_crc == kNone.
inline bool soa_crc_gate(const DecoderConfig& config,
                         const codes::QCCode& code,
                         const std::uint64_t* hard_mask, int w,
                         std::vector<std::uint8_t>& scratch) {
  if (config.frame_crc == FrameCrc::kNone) return true;
  const auto p = static_cast<std::size_t>(code.payload_bits());
  scratch.resize(p);
  for (std::size_t v = 0; v < p; ++v)
    scratch[v] = static_cast<std::uint8_t>((hard_mask[v] >> w) & 1);
  return crc_check(config.frame_crc, scratch);
}

/// CRC finish of one retiring lane: sets crc_ok/crc_repaired on the
/// captured result exactly like the scalar engine's post-loop sequence —
/// check the payload tail, and for an unconverged cap retirement run the
/// bounded flip fallback with |APP| reliability keys gathered from the
/// lane's column (double keys represent the raw codes exactly, so the
/// candidate order matches across lane types). No-op for kNone.
template <class T>
inline void soa_finish_crc(const DecoderConfig& config,
                           const codes::QCCode& code, const T* l_soa,
                           int lanes, int w, FixedDecodeResult& res,
                           std::vector<double>& keys) {
  if (config.frame_crc == FrameCrc::kNone) return;
  const auto p = static_cast<std::size_t>(code.payload_bits());
  const std::span<std::uint8_t> pay{res.bits.data(), p};
  res.crc_ok = crc_check(config.frame_crc, pay);
  if (res.crc_ok || res.converged || config.crc_flip_budget <= 0) return;
  keys.resize(p);
  for (std::size_t v = 0; v < p; ++v) {
    const auto raw = static_cast<double>(
        l_soa[v * static_cast<std::size_t>(lanes) +
              static_cast<std::size_t>(w)]);
    keys[v] = raw < 0.0 ? -raw : raw;
  }
  if (crc_flip_repair(config.frame_crc, pay, keys,
                      config.crc_flip_budget) >= 0) {
    res.crc_ok = true;
    res.crc_repaired = true;
  }
}

/// Per-lane parity check over lane-major APP state: ok[w] = 1 iff the
/// hard decisions (sign bits) of lane w satisfy every check of `code`.
/// `scan` is the per-tier kernel (kernels::cw_scan_kernel), resolved once
/// by the caller, with the tier's lane width baked in: the scan loop
/// bodies there are the reference loops compiled at the tier's full
/// vector width — instantiated in an engine TU built for the default
/// architecture, they ran at SSE2 width and dominated the per-iteration
/// cost.
///
/// `hard_mask` (size code.n()) receives the packed hard decisions the scan
/// walks: bit w of hard_mask[v] is lane w's sign for variable v. Retiring
/// lanes read their decisions from these masks — the retire-fold — so the
/// engine never re-gathers strided L columns at retirement. The masks are
/// valid for the L state the scan saw; engines that keep iterating must
/// use the masks of the stopping iteration.
template <class T>
inline void soa_codeword_scan(kernels::CwScanFnT<T> scan,
                              const codes::QCCode& code, const T* l_soa,
                              std::uint64_t* hard_mask, std::uint8_t* ok) {
  scan(code.check_row_ptr().data(), code.check_col_idx().data(), code.m(),
       code.n(), l_soa, hard_mask, ok);
}

}  // namespace ldpc::core
