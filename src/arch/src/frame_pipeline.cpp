#include "ldpc/arch/frame_pipeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace ldpc::arch {

FramePipeline::FramePipeline(DecoderChip& chip, FramePipelineConfig config)
    : chip_(chip), config_(config) {
  if (config_.io_bits_per_cycle <= 0 || config_.reconfigure_cycles < 0)
    throw std::invalid_argument("FramePipeline: config");
}

long long FramePipeline::io_cycles_per_frame(
    const codes::QCCode& code) const {
  // Soft input at the transmitted length (punctured / filler / unsent
  // positions never cross the chip interface; rate-matched repeats do,
  // once each), hard-decision payload out (parity and fillers are not
  // delivered to the SoC).
  const int msg_bits = chip_.decoder_config().format.total_bits();
  const long long in_bits =
      static_cast<long long>(code.transmitted_bits()) * msg_bits;
  const long long out_bits = code.payload_bits();
  return (in_bits + out_bits + config_.io_bits_per_cycle - 1) /
         config_.io_bits_per_cycle;
}

void FramePipeline::account_frame(const codes::QCCode& code,
                                  long long decode_cycles, long long io,
                                  long long overhead) {
  ++stats_.frames;
  stats_.decode_cycles += decode_cycles;
  stats_.io_cycles += io;
  // With double buffering the frame's I/O overlaps the neighbouring
  // frames' decode; the core stalls only when I/O outlasts the decode
  // (plus any non-overlappable reconfiguration).
  stats_.stall_cycles += overhead + std::max(0LL, io - decode_cycles);
  stats_.payload_bits += code.payload_bits();
}

ChipDecodeResult FramePipeline::decode_frame(const codes::QCCode& code,
                                             std::span<const double> llr) {
  long long overhead = 0;
  const bool needs_config = !chip_.configured() || &chip_.code() != &code;
  if (needs_config) {
    chip_.configure(code);
    ++stats_.reconfigurations;
    // Reconfiguration cannot overlap decoding: the schedule and bank
    // activation change under the core.
    overhead += config_.reconfigure_cycles;
  }

  ChipDecodeResult result = chip_.decode(llr);
  account_frame(code, result.stats.cycles, io_cycles_per_frame(code),
                overhead);
  return result;
}

BurstDecodeResult FramePipeline::decode_burst_quantised(
    const codes::QCCode& code,
    std::span<const core::QuantisedFrame* const> frames) {
  const bool needs_config = !chip_.configured() || &chip_.code() != &code;
  if (needs_config) {
    chip_.configure(code);
    ++stats_.reconfigurations;
  }

  BurstDecodeResult burst;
  burst.frames = chip_.decode_batch_quantised(frames);
  burst.frame_elapsed_cycles.reserve(burst.frames.size());
  const long long io = io_cycles_per_frame(code);
  for (std::size_t f = 0; f < burst.frames.size(); ++f) {
    const long long overhead =
        (f == 0 && needs_config) ? config_.reconfigure_cycles : 0;
    const long long cycles = burst.frames[f].stats.cycles;
    account_frame(code, cycles, io, overhead);
    burst.frame_elapsed_cycles.push_back(overhead + cycles +
                                         std::max(0LL, io - cycles));
  }
  return burst;
}

}  // namespace ldpc::arch
