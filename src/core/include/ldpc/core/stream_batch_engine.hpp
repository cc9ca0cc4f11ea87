// Continuous (lane-refill) batched min-sum engine: the one SoA datapath
// behind every batched consumer (sim workers, chip bursts, the modeled
// farm and the live DecodeService).
//
// The engine treats a batch as a pending-frame QUEUE: every lane carries
// its own frame with its OWN iteration counter, and the moment a lane's
// frame stops — early termination, codeword-stop or the iteration cap —
// its results are captured, the lane is retired and immediately REFILLED
// mid-flight from the queue (per-lane L column deposit, per-lane Lambda
// clear, per-lane ET reset). No lane spins waiting for the slowest frame
// of a fixed chunk (the software analogue of the idle SISO lanes the
// paper's Fig. 9 power-gates); only the final drain, when the queue is
// empty, leaves lanes idle.
//
// This is sound because every operation of the SoA min-sum datapath is
// lane-elementwise: the two-minima scan runs within one check row of one
// lane, so neighbouring lanes never exchange values and a freshly
// deposited frame at iteration 1 can share a vector with a frame at
// iteration 9. Retired-but-unrefilled lanes keep evolving harmlessly
// (bounded by saturation, never read again) — write-masking them would
// break the dense branch-free row kernels. Per-frame hard decisions,
// iteration counts and datapath cycles are bit-identical to decoding each
// frame alone on the scalar engine, for any queue length, lane width,
// lane element type and SIMD dispatch tier (locked by the
// refill-equivalence suite).
//
// Frames enter through one queue with two front doors: decode_quantised
// (pre-quantised core::QuantisedFrame codes, the serving path) and
// decode (transmitted-length double LLRs, deposited per lane on refill —
// the adapter the simulator's decode_batch runs).
//
// The row arithmetic itself runs on the runtime-dispatched kernel layer
// (ldpc/core/kernels/minsum_kernels.hpp), over a runtime-selected SoA
// lane ELEMENT TYPE as well as lane width:
//
//   StreamBatchEngineT<T>   the engine over lane type T (int32_t /
//                           int16_t / int8_t); rails must fit T
//   StreamBatchEngine       the runtime wrapper the decode_batch() entry
//                           points construct: picks the narrowest lane
//                           type whose saturation range holds the
//                           config's APP and message rails (bit-identical
//                           by containment — int16 for the default Q5.2 +
//                           2 APP extra bits, int8 for the strict
//                           8-bit-APP config), honouring the
//                           LDPC_LANE_TYPE / kernels::force_lane_type
//                           preference when it requests a wider type.
//
// The lane width is the second runtime choice — one 256-bit register per
// operation (8/16/32 lanes by type) or one 512-bit register (16/32/64) —
// selected at construction from the dispatched tier (or pinned by the
// caller / the LDPC_SIMD env knob).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/core/quantised_frame.hpp"
#include "ldpc/core/soa_scan.hpp"
#include "ldpc/core/layer_engine.hpp"

namespace ldpc::core {

template <class T>
class StreamBatchEngineT {
 public:
  /// Hard ceiling on the lane width (one AVX-512 register of T).
  static constexpr int kMaxLanes =
      16 * kernels::lane_scale(kernels::lane_type_of<T>);

  /// `lanes` must be a valid width for T (8/16 int32-equivalents, see
  /// kernels::valid_lane_width) or 0 (= kernels::preferred_lanes). The
  /// config must be min-sum family on the quantized datapath with rails
  /// that fit T (validated_batch_config); throws std::invalid_argument
  /// otherwise.
  explicit StreamBatchEngineT(DecoderConfig config, int lanes = 0);

  /// Resizes the SoA memories for `code` (references, not copies).
  void reconfigure(const codes::QCCode& code);

  bool configured() const noexcept { return code_ != nullptr; }
  const DecoderConfig& config() const noexcept { return config_; }
  int lanes() const noexcept { return lanes_; }
  /// The SIMD tier the row kernel was dispatched to at construction.
  kernels::Tier tier() const noexcept { return tier_; }
  /// The SoA lane element type tag of this instantiation.
  static constexpr kernels::LaneType lane_type() noexcept {
    return kernels::lane_type_of<T>;
  }

  /// The serving path: decodes `results.size()` pre-quantised frames
  /// (core::QuantisedFrame, produced under this engine's config — e.g.
  /// sim::quantise_llrs; each must pass valid_for(code.n())), streaming
  /// them through the lane-refill loop; results land in input order. A
  /// frame stored at this engine's own lane type stages by POINTER (zero
  /// copy); a narrower stored type widens on staging (value-preserving);
  /// a wider stored type clamps to the lane rails. `order` (empty =
  /// natural) is the layer permutation, as in LayerEngineT::run.
  void decode_quantised(std::span<const QuantisedFrame* const> frames,
                        std::span<const int> order,
                        std::span<FixedDecodeResult> results);

  /// Double-LLR adapter over the same queue: `results.size()` frames of
  /// channel LLRs stored frame-major at the code's transmitted length.
  /// Each frame runs the shared LLR deposit (puncturing / fillers /
  /// rate-matched repetition) straight into its lane's staging slot when
  /// the lane is (re)filled — no up-front pass over the batch.
  /// Bit-identical to decode_quantised over sim::quantise_llrs frames.
  void decode(std::span<const double> llrs, std::span<const int> order,
              std::span<FixedDecodeResult> results);

 private:
  void run_queue(std::span<const int> order,
                 std::span<FixedDecodeResult> results);
  /// Stages frame `f` into lane `w`: resolves the frame's raw codes (a
  /// pointer into the stored frame, a widening/clamping copy, or the
  /// scheme-aware deposit for decode()), resets the lane's ET
  /// monitor and iteration counter, and marks the lane FRESH. Nothing
  /// touches the SoA memories here: per-lane column writes are one word
  /// per cache line, so a refill burst of k lanes would stream the big
  /// arrays through the cache k times. Instead apply_fresh() merges every
  /// staged lane's L column in ONE sequential pass at the next
  /// iteration's start, and the lane's Lambda entries are zeroed in-row
  /// as the layer passes reach them (each edge belongs to exactly one
  /// check row, so each entry is zeroed exactly once, on a cache line the
  /// kernel is pulling anyway): the same L = channel, Lambda = 0
  /// initialisation, amortised.
  void load_lane(int w, std::size_t f,
                 std::span<FixedDecodeResult> results);
  /// Merges every staged lane's L column into the SoA memory (sequential
  /// traversal, all fresh lanes per pass).
  void apply_fresh();
  void process_layer(int layer);

  DecoderConfig config_;
  DatapathTraits<std::int32_t> traits_;
  const codes::QCCode* code_ = nullptr;
  int lanes_ = 0;
  kernels::Tier tier_ = kernels::Tier::kScalar;
  kernels::MinSumRowFnT<T> row_fn_ = nullptr;
  kernels::MergeFreshFnT<T> merge_fn_ = nullptr;

  kernels::RowBounds bounds_{};         // rails + variant correction
  long long cycles_per_iteration_ = 0;  // sum of row cycles over layers

  // SoA state: [slot * lanes_ + lane].
  SoaVector<T> l_soa_;       // APP per variable
  SoaVector<T> lambda_soa_;  // extrinsic per edge
  SoaVector<T> lam_full_;    // APP-width row scratch
  SoaVector<T> lam_;         // clipped row scratch
  std::vector<T*> lrow_ptrs_;  // per-edge L row pointers

  // Per-lane decode state.
  struct LaneState {
    std::ptrdiff_t frame = -1;  // index into results (-1 = lane idle)
    int iterations = 0;         // full iterations run on this frame
  };
  std::vector<LaneState> lane_;
  // Lanes staged since the last layer pass: their L columns are merged by
  // apply_fresh() and their Lambda columns zeroed in-row during the next
  // iteration (see load_lane).
  int fresh_[kMaxLanes] = {};
  int nfresh_ = 0;
  const T* staged_src_[kMaxLanes] = {};  // n raw codes per lane
  // Lane-parallel early-termination monitor state (see soa_scan.hpp):
  // previous info-bit hard decisions, lane-major, plus the per-lane
  // had-a-previous-iteration flag cleared on refill.
  SoaVector<T> prev_hard_soa_;
  std::uint8_t has_prev_[kMaxLanes] = {};
  std::uint8_t et_fire_[kMaxLanes] = {};  // per-iteration scan results
  std::uint8_t cw_ok_[kMaxLanes] = {};
  // Packed hard decisions of the last codeword scan (bit w of hard_mask_[v]
  // = lane w's sign for variable v): the retire-fold source. Valid for the
  // iteration the scan ran on — exactly the iteration a codeword-stopped
  // lane retires from.
  std::vector<std::uint64_t> hard_mask_;

  // Frame source of the current decode call: the stored frames of
  // decode_quantised(), or the frame-major transmitted LLRs of decode().
  std::variant<std::span<const QuantisedFrame* const>,
               std::span<const double>>
      source_;

  std::vector<T> raw_scratch_;  // per-lane staging, lane slots
  std::vector<double> acc_;     // LLR-deposit combining scratch
  // CRC-aided stopping scratch: gathered payload decisions for the stop
  // gate, |APP| reliability keys for the flip fallback.
  std::vector<std::uint8_t> crc_scratch_;
  std::vector<double> crc_keys_;
};

extern template class StreamBatchEngineT<std::int32_t>;
extern template class StreamBatchEngineT<std::int16_t>;
extern template class StreamBatchEngineT<std::int8_t>;

/// Runtime lane-type front end: owns one StreamBatchEngineT instantiation
/// chosen at construction (see core::select_lane_type) and forwards the
/// engine API. This is what ReconfigurableDecoder::decode_batch and the
/// chip's batched entry point construct.
class StreamBatchEngine {
 public:
  /// Hard ceiling on the lane width across instantiations (one AVX-512
  /// register of int8).
  static constexpr int kMaxLanes = 16 * 4;

  /// Lane width the dispatched SIMD tier fills exactly with `type` lanes:
  /// one 512-bit register on AVX-512 hosts (AVX-512BW for the narrow
  /// types), one 256-bit register otherwise.
  static int preferred_lanes(
      kernels::LaneType type = kernels::LaneType::kInt32);

  /// Constructs the engine over `lane_type` lanes — or, when nullopt,
  /// over select_lane_type(config): the narrowest type whose saturation
  /// range holds the config's rails (bit-identical to int32 by
  /// containment), widened on request by the LDPC_LANE_TYPE env knob /
  /// kernels::force_lane_type. An explicit `lane_type` is strict: throws
  /// std::invalid_argument when the rails do not fit. `lanes` is the lane
  /// width for the chosen type (0 = preferred_lanes(type)).
  explicit StreamBatchEngine(
      DecoderConfig config, int lanes = 0,
      std::optional<kernels::LaneType> lane_type = std::nullopt);

  void reconfigure(const codes::QCCode& code);
  bool configured() const noexcept;
  const DecoderConfig& config() const noexcept;
  int lanes() const noexcept;
  kernels::Tier tier() const noexcept;
  /// The lane element type the engine was constructed over.
  kernels::LaneType lane_type() const noexcept;

  void decode_quantised(std::span<const QuantisedFrame* const> frames,
                        std::span<const int> order,
                        std::span<FixedDecodeResult> results);
  void decode(std::span<const double> llrs, std::span<const int> order,
              std::span<FixedDecodeResult> results);

 private:
  using Impl = std::variant<StreamBatchEngineT<std::int32_t>,
                            StreamBatchEngineT<std::int16_t>,
                            StreamBatchEngineT<std::int8_t>>;
  static Impl make_impl(DecoderConfig config, int lanes,
                        std::optional<kernels::LaneType> lane_type);

  Impl impl_;
};

}  // namespace ldpc::core
