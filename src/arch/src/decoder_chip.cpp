#include "ldpc/arch/decoder_chip.hpp"

#include <algorithm>
#include <stdexcept>

namespace ldpc::arch {

bool ChipDimensions::fits(const codes::QCCode& code) const {
  return code.z() <= z_max && code.block_cols() <= block_cols_max &&
         code.block_rows() <= layers_max &&
         code.max_check_degree() <= row_degree_max;
}

ChipDimensions ChipDimensions::universal() {
  // Hosts every registered mode of every standard: DMB-T's k = 60 / j up
  // to 36 / z = 127, and NR BG1's k = 68 / j = 46 / z up to 384.
  return {.z_max = 384, .block_cols_max = 68, .layers_max = 48,
          .row_degree_max = 32};
}

namespace {

PipelineConfig chip_pipeline_config(const core::DecoderConfig& config,
                                    const ChipDimensions& dims) {
  PipelineConfig pc;
  pc.radix = config.radix;
  pc.include_shifter_latency = true;
  pc.shifter_stages = CircularShifter(dims.z_max).latency_cycles();
  pc.reorder_reads = true;
  return pc;
}

}  // namespace

std::vector<int> chip_layer_order(const codes::QCCode& code,
                                  const core::DecoderConfig& config,
                                  const ChipDimensions& dims) {
  return PipelineModel(code, chip_pipeline_config(config, dims))
      .optimize_order();
}

DecoderChip::DecoderChip(ChipDimensions dims, core::DecoderConfig config)
    : dims_(dims), engine_(config) {
  if (config.datapath != core::Datapath::kQuantized)
    throw std::invalid_argument(
        "DecoderChip: the chip is the fixed-point datapath instantiation "
        "(use core::ReconfigurableDecoder for the float reference)");
  // The SoA stream engine for min-sum configs is built lazily on the
  // first decode_batch_quantised(); see ReconfigurableDecoder.
}

void DecoderChip::configure(const codes::QCCode& code) {
  if (!dims_.fits(code))
    throw std::invalid_argument("DecoderChip: code " + code.name() +
                                " exceeds chip dimensions");
  code_ = &code;
  engine_.reconfigure(code);
  if (stream_engine_) stream_engine_->reconfigure(code);
  raw_.resize(static_cast<std::size_t>(code.n()));
  pipeline_.emplace(code, chip_pipeline_config(engine_.config(), dims_));
  order_ = pipeline_->optimize_order();
  program_timing(pipeline_->analyze(order_));
}

void DecoderChip::set_layer_order(std::span<const int> order) {
  if (!code_) throw std::logic_error("DecoderChip: not configured");
  program_timing(pipeline_->analyze(order));  // validates the permutation
  order_.assign(order.begin(), order.end());
}

void DecoderChip::program_timing(IterationTiming timing) {
  timing_ = std::move(timing);
  // The activity of one executed iteration: every block is fetched and
  // written back once through the shifter, and each of its z rows reads
  // and writes one Lambda word.
  const long long blocks = code_->nonzero_blocks();
  const long long rows = blocks * code_->z();
  per_iteration_ = {.cycles = timing_.cycles_per_iteration,
                    .l_mem_reads = blocks,
                    .l_mem_writes = blocks,
                    .lambda_reads = rows,
                    .lambda_writes = rows,
                    .shifter_words = 2 * blocks};
}

const codes::QCCode& DecoderChip::code() const {
  if (!code_) throw std::logic_error("DecoderChip: not configured");
  return *code_;
}

ChipDecodeResult DecoderChip::decode(std::span<const double> llr) {
  if (!code_) throw std::logic_error("DecoderChip: not configured");
  if (llr.size() != static_cast<std::size_t>(code_->transmitted_bits()))
    throw std::invalid_argument("DecoderChip::decode: llr size");
  engine_.deposit(llr, raw_);
  return frame_stats(engine_.run(raw_, order_));
}

std::vector<ChipDecodeResult> DecoderChip::decode_batch_quantised(
    std::span<const core::QuantisedFrame* const> frames) {
  if (!code_) throw std::logic_error("DecoderChip: not configured");
  if (frames.empty())
    throw std::invalid_argument(
        "DecoderChip::decode_batch_quantised: empty batch");
  for (const core::QuantisedFrame* f : frames)
    if (!f || !f->valid_for(code_->n()))
      throw std::invalid_argument(
          "DecoderChip::decode_batch_quantised: frame does not match the "
          "configured code");
  std::vector<ChipDecodeResult> results;
  results.reserve(frames.size());
  if (core::is_min_sum(engine_.config().kernel) && !stream_engine_) {
    stream_engine_.emplace(engine_.config());
    stream_engine_->reconfigure(*code_);
  }
  if (stream_engine_) {
    // Continuous SoA lane-refill kernel under the programmed layer order:
    // the whole batch is one refill queue, so no frame waits on a slower
    // neighbour's iterations. Per-frame hardware stats follow in closed
    // form from each frame's iteration count.
    std::vector<core::FixedDecodeResult> functional(frames.size());
    stream_engine_->decode_quantised(frames, order_, functional);
    for (auto& f : functional)
      results.push_back(frame_stats(std::move(f)));
    return results;
  }
  // Non-min-sum fallback: the scalar engine per frame.
  for (const core::QuantisedFrame* f : frames)
    results.push_back(run_widened(*f));
  return results;
}

ChipDecodeResult DecoderChip::run_widened(const core::QuantisedFrame& frame) {
  // Widen the stored codes into the raw int32 buffer the engine runs on
  // (the same staging the stream engine performs).
  const auto widen = [&](auto codes) {
    std::copy(codes.begin(), codes.end(), raw_.begin());
  };
  switch (frame.type) {
    case core::kernels::LaneType::kInt8:
      widen(frame.as<std::int8_t>());
      break;
    case core::kernels::LaneType::kInt16:
      widen(frame.as<std::int16_t>());
      break;
    case core::kernels::LaneType::kInt32:
      widen(frame.as<std::int32_t>());
      break;
  }
  return frame_stats(engine_.run(raw_, order_));
}

ChipDecodeResult DecoderChip::frame_stats(
    core::FixedDecodeResult functional) const {
  const long long it = functional.iterations;
  const ChipDecodeStats& p = per_iteration_;
  const ChipDecodeStats stats{
      .cycles = it * p.cycles + timing_.drain_cycles,
      .l_mem_reads = it * p.l_mem_reads,
      .l_mem_writes = it * p.l_mem_writes,
      .lambda_reads = it * p.lambda_reads,
      .lambda_writes = it * p.lambda_writes,
      .shifter_words = it * p.shifter_words,
      .active_sisos = code_->z(),
      .idle_sisos = dims_.z_max - code_->z(),
      .stalls_per_iteration = timing_.total_stalls};
  functional.datapath_cycles = stats.cycles;
  return {std::move(functional), stats};
}

}  // namespace ldpc::arch
