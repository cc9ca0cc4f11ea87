// Frame-level pipeline: the In/Out Buffer of the chip floorplan (Fig. 8).
//
// The decoder core processes frame i while the input buffer receives
// frame i+1 and the output buffer drains frame i-1 (double buffering).
// Sustained throughput is then limited by max(decode time, I/O time); the
// model tracks core-busy vs core-idle cycles so the utilisation loss of
// short frames (where reconfiguration and I/O dominate) is visible.
//
// I/O is accounted per the code's TransmissionScheme: the input buffer
// receives transmitted_bits() soft words (the rate-matched length E — for
// NR modes the punctured and filler positions never cross the interface),
// and the output buffer drains payload_bits() hard decisions (parity and
// known-zero fillers are not delivered). For the classic degenerate-scheme
// standards transmitted_bits() == n.
//
// FramePipelineStats is the per-worker ledger of the streaming decoder
// farm (ldpc_stream): stream::StreamScheduler composes farm totals by
// merge()-ing worker ledgers, and payload-bit conservation across that
// merge is test-locked.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldpc/arch/decoder_chip.hpp"

namespace ldpc::arch {

struct FramePipelineConfig {
  /// Bits transferred per cycle on the input/output interfaces (the
  /// paper's SoC context suggests a wide on-chip bus).
  int io_bits_per_cycle = 64;
  /// Cycles to reprogram the control (layer schedule, bank activation)
  /// when the code changes between frames.
  int reconfigure_cycles = 32;
};

struct FramePipelineStats {
  long long frames = 0;
  long long decode_cycles = 0;     // core busy
  long long io_cycles = 0;         // input load + output drain demand
  long long stall_cycles = 0;      // core idle waiting for I/O or config
  long long reconfigurations = 0;
  /// Payload bits delivered (k_info minus fillers, summed over frames) —
  /// the numerator of sustained_bps and the conserved quantity scheduler
  /// tests check across worker ledgers.
  long long payload_bits = 0;

  /// Total elapsed cycles with double buffering.
  long long elapsed_cycles() const {
    return decode_cycles + stall_cycles;
  }
  /// Fraction of elapsed time the decoder core computes.
  double core_utilization() const {
    const long long total = elapsed_cycles();
    return total ? static_cast<double>(decode_cycles) /
                       static_cast<double>(total)
                 : 0.0;
  }
  /// Sustained payload throughput at `f_clk_hz`.
  double sustained_bps(double f_clk_hz) const {
    const long long total = elapsed_cycles();
    return total ? static_cast<double>(payload_bits) * f_clk_hz /
                       static_cast<double>(total)
                 : 0.0;
  }
  /// Field-wise accumulation: composes per-worker ledgers into farm
  /// totals (payload bits, cycles and reconfiguration counts all add).
  void merge(const FramePipelineStats& other) noexcept {
    frames += other.frames;
    decode_cycles += other.decode_cycles;
    io_cycles += other.io_cycles;
    stall_cycles += other.stall_cycles;
    reconfigurations += other.reconfigurations;
    payload_bits += other.payload_bits;
  }
};

/// A same-mode burst decoded through the batch datapath, with the
/// per-frame elapsed-cycle contributions a scheduler needs to place each
/// frame's completion on its modeled clock.
struct BurstDecodeResult {
  std::vector<ChipDecodeResult> frames;
  /// Frame f's contribution to elapsed_cycles(): its decode cycles plus
  /// its stall share (the burst's reconfiguration overhead lands on the
  /// first frame).
  std::vector<long long> frame_elapsed_cycles;
};

/// Runs frames through a DecoderChip while accounting for the double-
/// buffered I/O overlap.
class FramePipeline {
 public:
  FramePipeline(DecoderChip& chip, FramePipelineConfig config = {});

  /// Decodes a same-mode burst of pre-deposited size-n raw codes (one-
  /// shot sim::quantise_llrs frames or HARQ combined soft state) for
  /// `code` through DecoderChip::decode_batch_quantised, reconfiguring
  /// first if the chip currently holds a different code: one
  /// reconfiguration amortised over the burst, and the continuous SIMD
  /// lane-refill kernel when the decoder config allows it — the burst is
  /// one refill queue. Per-frame results and the modeled cycle accounting
  /// are bit-identical to decoding the frames one at a time (the chip
  /// model is a serial device; host-side lane parallelism never leaks
  /// into the modeled cycles) — test-locked. The modeled chip interface
  /// still receives transmitted_bits() soft words per frame: the host-
  /// side representation is not the modeled wire format. A burst that is
  /// empty or holds a frame failing QuantisedFrame::valid_for(code.n())
  /// throws std::invalid_argument before the chip or the ledger changes.
  BurstDecodeResult decode_burst_quantised(
      const codes::QCCode& code,
      std::span<const core::QuantisedFrame* const> frames);

  const FramePipelineStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Payload bits delivered so far (ledger shorthand).
  long long payload_bits() const noexcept { return stats_.payload_bits; }

 private:
  /// I/O-buffer demand of one frame: transmitted_bits() soft words in,
  /// payload_bits() hard decisions out, over the configured bus width.
  long long io_cycles_per_frame(const codes::QCCode& code) const;
  void account_frame(const codes::QCCode& code, long long decode_cycles,
                     long long io, long long overhead);

  DecoderChip& chip_;
  FramePipelineConfig config_;
  FramePipelineStats stats_;
};

}  // namespace ldpc::arch
