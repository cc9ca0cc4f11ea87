// Helpers of the batched SoA engine (core::StreamBatchEngine): lane-
// parallel stop-rule scans, config validation, lane-type selection, and
// the stop/convergence verdicts.
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
// Semantics are bit-identical to the scalar path by construction:
//   - soa_codeword_scan(w) == QCCode::is_codeword(hard decisions of lane w)
//   - soa_et_scan fire[w]  == EarlyTermination::update(lane w's info APPs)
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
#include <stdexcept>
#include <string>
#include <vector>

#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/datapath.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/core/layer_engine.hpp"

namespace ldpc::core {

/// Hard ceiling on the SoA lane count of any engine instantiation (one
/// AVX-512 register of int8).
inline constexpr int kMaxSoaLanes = kernels::kMaxScanLanes;

/// Cache-line-aligned allocator for the engine's lane-major state. The SoA
/// row stride at the preferred lane width is exactly one cache line (64
/// bytes: 16 int32 / 32 int16 / 64 int8), so with a 64-byte-aligned base
/// every row access is one line; from a plain std::vector base every
/// 512-bit row load/store straddles TWO lines, and on the L2-resident
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
/// datapath, +/-127) selects int8.
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

/// Lane element type an auto-configured engine runs `config` on: the
/// narrowest eligible type (results are bit-identical across eligible
/// types, so narrower is strictly better), unless the LDPC_LANE_TYPE env
/// var / kernels::force_lane_type() requests a WIDER one. A requested type
/// too narrow for the rails widens back to the narrowest eligible type —
/// the env knob is a preference, so a forced-int8 CI lane can still run
/// the standard configs.
inline kernels::LaneType select_lane_type(const DecoderConfig& config) {
  const kernels::LaneType narrowest = narrowest_lane_type(config);
  const auto requested = kernels::requested_lane_type();
  if (!requested) return narrowest;
  return static_cast<int>(*requested) < static_cast<int>(narrowest)
             ? *requested
             : narrowest;
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

/// Narrow-lane kernels carry the argmin edge index in a T lane: the check
/// degree must fit (127 for int8; every registered code is far below).
template <class T>
inline void check_lane_degree(const codes::QCCode& code, const char* engine) {
  if (code.max_check_degree() >
      kernels::lane_raw_max(kernels::lane_type_of<T>))
    throw std::invalid_argument(
        std::string(engine) + ": check degree exceeds the " +
        kernels::to_string(kernels::lane_type_of<T>) + " lane range");
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

/// Convergence verdict at a lane's retirement: with codeword stopping on,
/// this iteration's parity scan IS the verdict; otherwise check the
/// gathered decisions once.
inline bool soa_converged(const DecoderConfig& config, std::uint8_t cw_ok,
                          const codes::QCCode& code,
                          const std::vector<std::uint8_t>& bits) {
  return config.stop_on_codeword ? cw_ok != 0 : code.is_codeword(bits);
}

/// CRC gate of lane w's pending stop — the batched mirror of the scalar
/// engine's CRC-aided stop rule. Gathers the lane's payload hard decisions
/// (from the packed codeword-scan masks when that scan ran this iteration,
/// else a strided sign read of the APP column) into `scratch` and checks
/// the payload tail CRC. True = the stop stands; false = miscorrection
/// veto, the lane keeps iterating. Always true for frame_crc == kNone.
template <class T>
inline bool soa_crc_gate(const DecoderConfig& config,
                         const codes::QCCode& code, const T* l_soa, int lanes,
                         const std::uint64_t* hard_mask, int w,
                         std::vector<std::uint8_t>& scratch) {
  if (config.frame_crc == FrameCrc::kNone) return true;
  const auto p = static_cast<std::size_t>(code.payload_bits());
  scratch.resize(p);
  if (config.stop_on_codeword) {
    for (std::size_t v = 0; v < p; ++v)
      scratch[v] = static_cast<std::uint8_t>((hard_mask[v] >> w) & 1);
  } else {
    for (std::size_t v = 0; v < p; ++v)
      scratch[v] =
          l_soa[v * static_cast<std::size_t>(lanes) +
                static_cast<std::size_t>(w)] < 0
              ? 1
              : 0;
  }
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
/// `lanes` <= kMaxSoaLanes. Dispatches into the per-tier kernel TUs
/// (kernels::cw_scan_kernel): the scan loop bodies there are the reference
/// loops compiled at the tier's full vector width with the lane count
/// baked in — instantiated here, in an engine TU built for the default
/// architecture, they ran at SSE2 width and dominated the per-iteration
/// cost.
///
/// `hard_mask` (size code.n()) receives the packed hard decisions the scan
/// walks: bit w of hard_mask[v] is lane w's sign for variable v. Retiring
/// lanes read their decisions from these masks — the retire-fold — so the
/// engines never re-gather strided L columns after a codeword-stopped
/// iteration. The masks are valid for the L state the scan saw; engines
/// that keep iterating must use the masks of the stopping iteration.
template <class T>
inline void soa_codeword_scan(const codes::QCCode& code, const T* l_soa,
                              int lanes, std::uint64_t* hard_mask,
                              std::uint8_t* ok) {
  kernels::cw_scan_kernel<T>(lanes)(code.check_row_ptr().data(),
                                    code.check_col_idx().data(), code.m(),
                                    code.n(), l_soa, hard_mask, ok);
}

/// Per-lane early-termination rule over lane-major APP state: for every
/// lane, fire[w] = had a previous iteration AND the info-bit hard
/// decisions are unchanged since it AND min |L| over the info bits exceeds
/// `threshold` — EarlyTermination::update, vectorised across lanes.
/// `prev_hard` (k_info * lanes, lane-major) and `has_prev` (lanes) are the
/// monitor state; clear has_prev[w] when lane w is (re)filled. Dispatched
/// like soa_codeword_scan.
template <class T>
inline void soa_et_scan(int k_info, int lanes, std::int32_t threshold,
                        const T* l_soa, T* prev_hard, std::uint8_t* has_prev,
                        std::uint8_t* fire) {
  kernels::et_scan_kernel<T>(lanes)(k_info, threshold, l_soa, prev_hard,
                                    has_prev, fire);
}

}  // namespace ldpc::core
