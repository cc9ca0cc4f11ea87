#include "ldpc/core/stream_batch_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "ldpc/core/soa_scan.hpp"

namespace ldpc::core {

template <class T>
StreamBatchEngineT<T>::StreamBatchEngineT(DecoderConfig config, int lanes)
    : config_(validated_batch_config(config, "StreamBatchEngine")),
      traits_(config_) {
  if (!lane_type_eligible(config_, lane_type()))
    throw std::invalid_argument(
        "StreamBatchEngine: config rails do not fit lane type " +
        kernels::to_string(lane_type()));
  if (lanes == 0) lanes = kernels::preferred_lanes(lane_type());
  lanes_ = lanes;
  tier_ = kernels::active_tier();
  layer_fn_ = kernels::layer_kernel<T>(tier_, lanes_);  // validates the width
  merge_fn_ = kernels::merge_kernel<T>(tier_, lanes_);
  cw_scan_fn_ = kernels::cw_scan_kernel<T>(tier_, lanes_);
  et_scan_fn_ = kernels::et_scan_kernel<T>(tier_, lanes_);
  bounds_ = make_row_bounds(config_, traits_);
  lane_.resize(static_cast<std::size_t>(lanes_));
  keep_.resize(static_cast<std::size_t>(lanes_));
}

template <class T>
void StreamBatchEngineT<T>::reconfigure(const codes::QCCode& code) {
  if (code.max_check_degree() > kernels::kMaxLayerDegree)
    throw std::invalid_argument(
        "StreamBatchEngine: code " + code.name() + " has a layer of degree " +
        std::to_string(code.max_check_degree()) +
        " (the layer kernels walk at most " +
        std::to_string(kernels::kMaxLayerDegree) + ")");
  code_ = &code;
  const auto w = static_cast<std::size_t>(lanes_);
  // resize, not assign: no SoA word needs a value at reconfiguration.
  // Under the refill discipline a lane's L column is merged and its Lambda
  // entries are masked out of the layer kernel's first read, has_prev_ gates
  // the ET scan's prev_hard read, every codeword scan rewrites hard_mask_,
  // and dead lanes are never read — so a mode switch leaves the previous
  // code's words in place (rail-bounded, like any dead lane's) instead of
  // re-zeroing megabytes of state.
  l_soa_.resize(static_cast<std::size_t>(code.n()) * w);
  lambda_soa_.resize(static_cast<std::size_t>(code.edges()) * w);
  prev_hard_soa_.resize(static_cast<std::size_t>(code.k_info()) * w);
  raw_scratch_.resize(static_cast<std::size_t>(code.n()) * w);
  hard_mask_.resize(static_cast<std::size_t>(code.n()));
  cycles_per_iteration_ = 0;
  for (const auto& layer : code.layers())
    cycles_per_iteration_ +=
        row_datapath_cycles(config_.radix, static_cast<int>(layer.size()));
}

template <class T>
void StreamBatchEngineT<T>::decode_quantised(
    std::span<const QuantisedFrame* const> frames, std::span<const int> order,
    std::span<FixedDecodeResult> results) {
  if (!code_) throw std::logic_error("StreamBatchEngine: not configured");
  if (results.empty() || frames.size() != results.size())
    throw std::invalid_argument(
        "StreamBatchEngine::decode_quantised: sizes");
  for (const QuantisedFrame* frame : frames)
    if (frame == nullptr || !frame->valid_for(code_->n()))
      throw std::invalid_argument(
          "StreamBatchEngine::decode_quantised: frame does not match the "
          "configured code (expected " +
          std::to_string(code_->n()) + " raw codes of a known lane type)");
  source_ = frames;
  run_queue(order, results);
}

template <class T>
void StreamBatchEngineT<T>::decode(std::span<const double> llrs,
                                   std::span<const int> order,
                                   std::span<FixedDecodeResult> results) {
  if (!code_) throw std::logic_error("StreamBatchEngine: not configured");
  const auto tx = static_cast<std::size_t>(code_->transmitted_bits());
  if (results.empty() || llrs.size() != tx * results.size())
    throw std::invalid_argument("StreamBatchEngine::decode: sizes");
  source_ = llrs;
  run_queue(order, results);
}

template <class T>
void StreamBatchEngineT<T>::load_lane(int w, std::size_t f,
                                      std::span<FixedDecodeResult> results) {
  const auto n = static_cast<std::size_t>(code_->n());
  const auto lw = static_cast<std::size_t>(w);
  T* slot = raw_scratch_.data() + lw * n;
  if (const auto* frames =
          std::get_if<std::span<const QuantisedFrame* const>>(&source_)) {
    // Pre-quantised ingest: a frame stored at this engine's own lane type
    // stages by pointer; any other stored type stages via a widening or
    // clamping copy (a producer under an eligible config never stores
    // wider than T, so the clamp only guards foreign producers).
    const QuantisedFrame& qf = *(*frames)[f];
    if (qf.type == lane_type()) {
      staged_src_[lw] = qf.as<T>().data();
    } else {
      switch (qf.type) {
        case kernels::LaneType::kInt8: {
          const std::int8_t* src = qf.as<std::int8_t>().data();
#pragma omp simd
          for (std::size_t v = 0; v < n; ++v)
            slot[v] = static_cast<T>(src[v]);
          break;
        }
        case kernels::LaneType::kInt16: {
          const std::int16_t* src = qf.as<std::int16_t>().data();
#pragma omp simd
          for (std::size_t v = 0; v < n; ++v)
            slot[v] = clamp_to_lane<T>(src[v]);
          break;
        }
        case kernels::LaneType::kInt32: {
          const std::int32_t* src = qf.as<std::int32_t>().data();
#pragma omp simd
          for (std::size_t v = 0; v < n; ++v)
            slot[v] = clamp_to_lane<T>(src[v]);
          break;
        }
      }
      staged_src_[lw] = slot;
    }
  } else {
    // Per-lane deposit on refill: the shared scheme-aware LLR expansion
    // (puncturing erasures, filler rails, rate-matched accumulation) runs
    // the moment the lane is claimed, not in a batch-wide prepass — and
    // the dispatched quantiser emits T directly into the lane's staging
    // slot (deposit_transmitted_quant), so no int32 intermediate buffer
    // or second narrowing pass exists on this path.
    const auto tx = static_cast<std::size_t>(code_->transmitted_bits());
    deposit_transmitted_quant<T>(
        *code_, traits_,
        std::get<std::span<const double>>(source_).subspan(f * tx, tx),
        std::span<T>(slot, n), acc_);
    staged_src_[lw] = slot;
  }
  fresh_[nfresh_++] = w;
  has_prev_[lw] = 0;  // EarlyTermination::reset(), per lane
  lane_[lw] = LaneState{static_cast<std::ptrdiff_t>(f), 0};
  // Field-wise reset keeps the bits vector's capacity when the caller
  // reuses a results buffer (the sim workers and benches do). resize, not
  // assign: retirement writes every one of the n bits exactly once, so
  // zero-filling here would be a dead n-byte store per frame.
  FixedDecodeResult& res = results[f];
  res.bits.resize(n);
  res.iterations = 0;
  res.converged = false;
  res.early_terminated = false;
  res.crc_ok = true;
  res.crc_repaired = false;
  res.datapath_cycles = 0;
}

template <class T>
void StreamBatchEngineT<T>::apply_fresh() {
  // Lambda = 0 for the fresh lanes rides the layer kernel's Lambda load:
  // keep_ zeroes their lanes for this pass only. Every lane is reset to
  // all-ones first, so no earlier pass can leave a lane masked.
  std::fill(keep_.begin(), keep_.end(), static_cast<T>(-1));
  if (nfresh_ == 0) return;
  for (int i = 0; i < nfresh_; ++i)
    keep_[static_cast<std::size_t>(fresh_[i])] = 0;
  // Dispatched column merge (kernels::merge_kernel): the reference body is
  // a blocked lane-outer traversal whose row-block cap keeps the strided
  // column stores L1-resident; the full-width AVX-512BW int16 body
  // replaces the scatter with a 32x32 register block transpose and one
  // k-masked store per variable row. At high-churn mixes a refill burst
  // covers a third of the lanes, and this merge was the largest
  // lane-count-independent cost left on the quantised path.
  merge_fn_(staged_src_, fresh_, nfresh_, l_soa_.data(),
            static_cast<std::size_t>(code_->n()));
}

template <class T>
void StreamBatchEngineT<T>::run_queue(std::span<const int> order,
                                      std::span<FixedDecodeResult> results) {
  const std::size_t frames = results.size();
  const int j = code_->block_rows();
  check_layer_order(order, j, "StreamBatchEngine");
  const int k_info = code_->k_info();

  // Prime the lanes from the head of the queue; lanes beyond the queue
  // stay idle (their stale SoA content keeps evolving harmlessly, bounded
  // by saturation, and is never read).
  std::size_t next = 0;
  int live = 0;
  nfresh_ = 0;
  for (auto& l : lane_) l.frame = -1;
  for (int w = 0; w < lanes_ && next < frames; ++w) {
    load_lane(w, next++, results);
    ++live;
  }

  while (live > 0) {
    // One full iteration for every lane — freshly refilled lanes at
    // iteration 1 share the vectors with frames deep in their decode.
    // Staged L columns are merged first; the fresh lanes' Lambda columns
    // are masked to 0 by the layer kernel's load as the pass reaches them.
    apply_fresh();
    if (order.empty()) {
      for (int l = 0; l < j; ++l) process_layer(l);
    } else {
      for (int l : order) process_layer(l);
    }
    nfresh_ = 0;  // every fresh lane's L and Lambda columns are now live

    // Lane-parallel stop scans: one dense pass each over the SoA state
    // evaluates the ET rule and the parity checks for EVERY lane — the
    // same rules the scalar engine applies per frame, at a fraction of
    // the cost of the per-lane gathers they replace. The codeword scan
    // runs on every pass that can retire a lane: always under codeword
    // stopping, otherwise when some live lane has a pending ET stop or
    // reaches the iteration cap. Its packed masks then serve the CRC
    // gate and the retire fold, and its ok[] is the convergence verdict,
    // so no retiring frame is re-checked or re-gathered from L.
    if (config_.early_termination.enabled)
      et_scan_fn_(k_info, config_.early_termination.threshold_raw,
                  l_soa_.data(), prev_hard_soa_.data(), has_prev_, et_fire_);
    bool scan = config_.stop_on_codeword;
    for (int w = 0; w < lanes_ && !scan; ++w) {
      const LaneState& lane = lane_[static_cast<std::size_t>(w)];
      // et_fire_ stays all-zero when ET is disabled (never written).
      scan = lane.frame >= 0 &&
             (et_fire_[w] != 0 ||
              lane.iterations + 1 == config_.max_iterations);
    }
    if (scan)
      soa_codeword_scan(cw_scan_fn_, *code_, l_soa_.data(),
                        hard_mask_.data(), cw_ok_);

    // Per-lane bookkeeping: exactly the scalar engine's post-iteration
    // sequence (decision, ET, codeword stop) against the lane's OWN
    // iteration counter; stopped lanes retire and refill immediately.
    int nretire = 0;
    int retire_w[kMaxLanes];
    for (int w = 0; w < lanes_; ++w) {
      LaneState& lane = lane_[static_cast<std::size_t>(w)];
      if (lane.frame < 0) continue;
      auto& res = results[static_cast<std::size_t>(lane.frame)];
      res.iterations = ++lane.iterations;
      res.datapath_cycles += cycles_per_iteration_;

      const bool last_iter = lane.iterations == config_.max_iterations;
      SoaStopVerdict stop =
          soa_stop_verdict(config_, et_fire_[w], cw_ok_[w]);
      // CRC-aided stopping: a pending stop whose payload CRC fails is
      // vetoed and the lane keeps iterating (soa_crc_gate — the scalar
      // engine's rule, lane for lane).
      if (stop.stopped &&
          !soa_crc_gate(config_, *code_, hard_mask_.data(), w, crc_scratch_))
        stop = {};
      if (stop.early_terminated) res.early_terminated = true;
      if (stop.stopped || last_iter) retire_w[nretire++] = w;
    }
    if (nretire > 0) {
      // Retire-fold: this pass's parity scan packed every lane's hard
      // decisions into hard_mask_, so retirement is a dense read of one
      // bit column per retiree — no strided re-walk of the L memory.
      // Retirees stay on the OUTER loop: a fixed shift count lets the
      // column extraction vectorize (qword shift + narrowing pack), which
      // beats sharing the mask load across retirees.
      const auto n = static_cast<std::size_t>(code_->n());
      const std::uint64_t* mask = hard_mask_.data();
      for (int i = 0; i < nretire; ++i) {
        const int w = retire_w[i];
        LaneState& lane = lane_[static_cast<std::size_t>(w)];
        auto& res = results[static_cast<std::size_t>(lane.frame)];
        std::uint8_t* bits = res.bits.data();
        for (std::size_t v = 0; v < n; ++v)
          bits[v] = static_cast<std::uint8_t>((mask[v] >> w) & 1);
        res.converged = cw_ok_[w] != 0;
        soa_finish_crc(config_, *code_, l_soa_.data(), lanes_, w, res,
                       crc_keys_);
        if (next < frames) {
          load_lane(w, next++, results);  // refill mid-flight
        } else {
          lane.frame = -1;  // queue drained: lane idles until the end
          --live;
        }
      }
    }
  }
}

template <class T>
void StreamBatchEngineT<T>::process_layer(int layer) {
  // One call walks the layer's z rows (see kernels::MinSumLayerFnT); its
  // Lambda slice starts at the layer's first edge.
  const int z = code_->z();
  const auto& blocks = code_->layers()[static_cast<std::size_t>(layer)];
  const auto e0 = static_cast<std::size_t>(
      code_->check_row_ptr()[static_cast<std::size_t>(layer) * z]);
  T* const lambda = &lambda_soa_[e0 * static_cast<std::size_t>(lanes_)];
  layer_fn_(l_soa_.data(), lambda, blocks.data(),
            static_cast<int>(blocks.size()), z, keep_.data(), bounds_);
}

template class StreamBatchEngineT<std::int32_t>;
template class StreamBatchEngineT<std::int16_t>;
template class StreamBatchEngineT<std::int8_t>;

// ---------------------------------------------------------------------------
// Runtime lane-type wrapper.

int StreamBatchEngine::preferred_lanes(kernels::LaneType type) {
  return kernels::preferred_lanes(type);
}

StreamBatchEngine::Impl StreamBatchEngine::make_impl(
    DecoderConfig config, int lanes,
    std::optional<kernels::LaneType> lane_type) {
  kernels::LaneType type;
  if (lane_type) {
    // An explicitly requested type is strict: the caller asked for THIS
    // datapath, so a config whose rails overflow it is an error, not a
    // silent widening (contrast the LDPC_LANE_TYPE preference, which
    // select_lane_type clamps back to the narrowest eligible type).
    if (!lane_type_eligible(config, *lane_type))
      throw std::invalid_argument(
          "StreamBatchEngine: config rails do not fit lane type " +
          kernels::to_string(*lane_type));
    type = *lane_type;
  } else {
    type = select_lane_type(config);
  }
  switch (type) {
    case kernels::LaneType::kInt16:
      return StreamBatchEngineT<std::int16_t>(std::move(config), lanes);
    case kernels::LaneType::kInt8:
      return StreamBatchEngineT<std::int8_t>(std::move(config), lanes);
    case kernels::LaneType::kInt32:
    default:
      return StreamBatchEngineT<std::int32_t>(std::move(config), lanes);
  }
}

StreamBatchEngine::StreamBatchEngine(
    DecoderConfig config, int lanes,
    std::optional<kernels::LaneType> lane_type)
    : impl_(make_impl(std::move(config), lanes, lane_type)) {}

void StreamBatchEngine::reconfigure(const codes::QCCode& code) {
  std::visit([&](auto& e) { e.reconfigure(code); }, impl_);
}

bool StreamBatchEngine::configured() const noexcept {
  return std::visit([](const auto& e) { return e.configured(); }, impl_);
}

const DecoderConfig& StreamBatchEngine::config() const noexcept {
  return std::visit(
      [](const auto& e) -> const DecoderConfig& { return e.config(); },
      impl_);
}

int StreamBatchEngine::lanes() const noexcept {
  return std::visit([](const auto& e) { return e.lanes(); }, impl_);
}

kernels::Tier StreamBatchEngine::tier() const noexcept {
  return std::visit([](const auto& e) { return e.tier(); }, impl_);
}

kernels::LaneType StreamBatchEngine::lane_type() const noexcept {
  return std::visit([](const auto& e) { return e.lane_type(); }, impl_);
}

void StreamBatchEngine::decode_quantised(
    std::span<const QuantisedFrame* const> frames, std::span<const int> order,
    std::span<FixedDecodeResult> results) {
  std::visit([&](auto& e) { e.decode_quantised(frames, order, results); },
             impl_);
}

void StreamBatchEngine::decode(std::span<const double> llrs,
                               std::span<const int> order,
                               std::span<FixedDecodeResult> results) {
  std::visit([&](auto& e) { e.decode(llrs, order, results); }, impl_);
}

}  // namespace ldpc::core
