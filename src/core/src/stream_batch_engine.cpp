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
  row_fn_ = kernels::row_kernel<T>(tier_, lanes_);  // validates the width
  merge_fn_ = kernels::merge_kernel<T>(tier_, lanes_);
  bounds_ = make_row_bounds(config_, traits_);
  lane_.resize(static_cast<std::size_t>(lanes_));
}

template <class T>
void StreamBatchEngineT<T>::reconfigure(const codes::QCCode& code) {
  check_lane_degree<T>(code, "StreamBatchEngine");
  code_ = &code;
  const auto w = static_cast<std::size_t>(lanes_);
  l_soa_.assign(static_cast<std::size_t>(code.n()) * w, 0);
  lambda_soa_.assign(static_cast<std::size_t>(code.edges()) * w, 0);
  lam_full_.resize(static_cast<std::size_t>(code.max_check_degree()) * w);
  lam_.resize(static_cast<std::size_t>(code.max_check_degree()) * w);
  lrow_ptrs_.resize(static_cast<std::size_t>(code.max_check_degree()));
  prev_hard_soa_.assign(static_cast<std::size_t>(code.k_info()) * w, 0);
  raw_scratch_.resize(static_cast<std::size_t>(code.n()) * w);
  hard_mask_.assign(static_cast<std::size_t>(code.n()), 0);
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
  if (nfresh_ == 0) return;
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
  if (!order.empty() && order.size() != static_cast<std::size_t>(j))
    throw std::invalid_argument("StreamBatchEngine: order size");
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
    // Staged L columns are merged first; Lambda columns are zeroed in-row
    // as the pass reaches them.
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
    // the cost of the per-lane gathers they replace.
    if (config_.early_termination.enabled)
      soa_et_scan(k_info, lanes_, config_.early_termination.threshold_raw,
                  l_soa_.data(), prev_hard_soa_.data(), has_prev_,
                  et_fire_);
    if (config_.stop_on_codeword)
      soa_codeword_scan(*code_, l_soa_.data(), lanes_, hard_mask_.data(),
                        cw_ok_);

    // Per-lane bookkeeping: exactly the scalar engine's post-iteration
    // sequence (decision, ET, codeword stop) against the lane's OWN
    // iteration counter; stopped lanes retire and refill immediately.
    // Retiring lanes are collected first so ONE traversal of the L memory
    // serves every retirement of this pass (the mirror of apply_fresh —
    // the per-lane column is strided, one word per cache line, so a
    // per-frame gather pass was per-frame constant cost that did not
    // shrink with lane count).
    int nretire = 0;
    int retire_w[kMaxLanes];
    std::uint8_t* retire_bits[kMaxLanes];
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
          !soa_crc_gate(config_, *code_, l_soa_.data(), lanes_,
                        hard_mask_.data(), w, crc_scratch_))
        stop = {};
      if (stop.early_terminated) res.early_terminated = true;
      if (stop.stopped || last_iter) {
        retire_w[nretire] = w;
        retire_bits[nretire] = res.bits.data();
        ++nretire;
      }
    }
    if (nretire > 0) {
      const auto n = static_cast<std::size_t>(code_->n());
      if (config_.stop_on_codeword) {
        // Retire-fold: this iteration's parity scan already packed every
        // lane's hard decisions into hard_mask_, so retirement is a dense
        // read of one bit column per retiree — no strided re-walk of the
        // L memory. Retirees stay on the OUTER loop: a fixed shift count
        // lets the column extraction vectorize (qword shift + narrowing
        // pack), which beats sharing the mask load across retirees.
        for (int i = 0; i < nretire; ++i) {
          const int w = retire_w[i];
          std::uint8_t* bits = retire_bits[i];
          const std::uint64_t* mask = hard_mask_.data();
          for (std::size_t v = 0; v < n; ++v)
            bits[v] = static_cast<std::uint8_t>((mask[v] >> w) & 1);
        }
      } else {
        // Without codeword stopping no scan ran this iteration; gather the
        // decisions in one strided traversal serving every retiree.
        const auto lanes = static_cast<std::size_t>(lanes_);
        for (std::size_t v = 0; v < n; ++v) {
          const T* row = &l_soa_[v * lanes];
          for (int i = 0; i < nretire; ++i)
            retire_bits[i][v] = row[retire_w[i]] < 0 ? 1 : 0;
        }
      }
      for (int i = 0; i < nretire; ++i) {
        const int w = retire_w[i];
        LaneState& lane = lane_[static_cast<std::size_t>(w)];
        auto& res = results[static_cast<std::size_t>(lane.frame)];
        res.converged = soa_converged(config_, cw_ok_[w], *code_, res.bits);
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
  const int z = code_->z();
  const auto& blocks = code_->layers()[static_cast<std::size_t>(layer)];
  const int deg = static_cast<int>(blocks.size());
  const auto lanes = static_cast<std::size_t>(lanes_);

  for (int t = 0; t < z; ++t) {
    const int r = layer * z + t;
    const auto vars = code_->check_vars(r);
    const int e0 = code_->edge_index(r, 0);
    T* const lambda_row = &lambda_soa_[static_cast<std::size_t>(e0) * lanes];
    // Deferred Lambda = 0 for freshly refilled lanes: these cache lines
    // are about to be read by the kernel, so the clear is free here where
    // a strided per-refill pass over the edge memory was not.
    for (int i = 0; i < nfresh_; ++i) {
      const int w = fresh_[i];
      for (int e = 0; e < deg; ++e)
        lambda_row[static_cast<std::size_t>(e) * lanes +
                   static_cast<std::size_t>(w)] = 0;
    }
    for (int e = 0; e < deg; ++e)
      lrow_ptrs_[static_cast<std::size_t>(e)] =
          &l_soa_[static_cast<std::size_t>(vars[e]) * lanes];
    // Prefetch the NEXT row's L lines while this row computes: the L rows
    // are scattered by the base-graph columns (no hardware-prefetchable
    // pattern, unlike the sequential Lambda stream), and on large codes
    // they live in L2/L3.
    if (t + 1 < z) {
      const auto nvars = code_->check_vars(r + 1);
      for (int e = 0; e < deg; ++e)
        __builtin_prefetch(
            &l_soa_[static_cast<std::size_t>(nvars[e]) * lanes], 1);
    }
    row_fn_(lrow_ptrs_.data(), lambda_row, lam_full_.data(), lam_.data(),
            deg, bounds_);
  }
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
