// Structural (chip-level) model of the full decoder of Fig. 7/8.
//
// Runs the shared core::LayerEngine — the *fixed-point* instantiation
// core::LayerEngineT<std::int32_t> of the same block-serial datapath the
// functional decoder executes, so the chip model is bit-accurate to the
// configured word lengths (a float-datapath config is rejected: silicon
// has no IEEE doubles) — under the chip's optimised layer schedule.
// Because the arithmetic is the single engine implementation, the chip's
// hard decisions are bit-identical to core::ReconfigurableDecoder by
// construction; tests lock this across every registered code mode.
//
// Hardware statistics are closed-form in the iteration count. The chip
// runs every layer of every iteration in full and only stops after a
// complete iteration, so each iteration costs the same memory-port uses,
// shifter words and pipeline cycles (the cycle-level pipeline model's
// steady-state timing of the programmed order, stalls and shifter latency
// included); one drain closes the frame. A frame's stats are therefore
// that per-iteration activity times its iterations plus the drain, on
// every decode path.
//
// decode_batch_quantised() on a min-sum configuration streams the whole
// batch through the continuous SIMD lane-refill kernel (core::StreamBatchEngine)
// under the programmed layer order — a lane whose frame stops early is
// reloaded with the next pending frame mid-flight instead of idling until
// the batch drains — so the arithmetic runs several frames per vector
// while each frame's stats stay those of a per-frame decode.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ldpc/arch/circular_shifter.hpp"
#include "ldpc/arch/pipeline.hpp"
#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/decoder.hpp"
#include "ldpc/core/quantised_frame.hpp"
#include "ldpc/core/stream_batch_engine.hpp"

namespace ldpc::arch {

/// Hardware capacity of a chip instance (the paper's chip: z up to 96, 24
/// block columns, 12 layers — enough for every 802.11n and 802.16e mode).
struct ChipDimensions {
  int z_max = 96;
  int block_cols_max = 24;
  int layers_max = 12;
  int row_degree_max = 24;

  /// True if `code` fits this chip.
  bool fits(const codes::QCCode& code) const;

  /// Dimensions able to host every registered mode of all standards
  /// (covers DMB-T's k = 60 / z = 127 and NR BG1's k = 68 / j = 46 /
  /// z = 384).
  static ChipDimensions universal();
};

/// The optimised layer schedule DecoderChip::configure programs for
/// `code` under `config` at chip dimensions `dims` (pipeline-stall
/// minimisation with the chip's shifter latency and read reordering).
/// Layer order changes layered-BP arithmetic, so any path that must stay
/// bit-identical to the chip-modeled reference — the live
/// stream::DecodeService in particular — must decode under this exact
/// order rather than the natural one.
std::vector<int> chip_layer_order(const codes::QCCode& code,
                                  const core::DecoderConfig& config,
                                  const ChipDimensions& dims);

struct ChipDecodeStats {
  long long cycles = 0;           // total, incl. stalls and shifter latency
  long long l_mem_reads = 0;
  long long l_mem_writes = 0;
  long long lambda_reads = 0;
  long long lambda_writes = 0;
  long long shifter_words = 0;    // L words rotated (forward + inverse)
  int active_sisos = 0;           // z of the configured code
  int idle_sisos = 0;             // z_max - z (power-gated, Fig. 9b)
  int stalls_per_iteration = 0;
};

struct ChipDecodeResult {
  core::FixedDecodeResult functional;  // bits / iterations / convergence
  ChipDecodeStats stats;
};

class DecoderChip {
 public:
  /// Throws std::invalid_argument for invalid configs, including
  /// config.datapath == core::Datapath::kFloat — the chip is the
  /// fixed-point instantiation by definition.
  DecoderChip(ChipDimensions dims, core::DecoderConfig config = {});

  /// Loads a code (the dynamic reconfiguration step): activates z SISO
  /// cores and banks, programs the layer schedule (optimised order).
  /// Throws std::invalid_argument if the code exceeds the chip dimensions.
  void configure(const codes::QCCode& code);

  bool configured() const noexcept { return code_ != nullptr; }
  const codes::QCCode& code() const;
  const ChipDimensions& dimensions() const noexcept { return dims_; }
  const core::DecoderConfig& decoder_config() const noexcept {
    return engine_.config();
  }
  /// Layer execution order after optimisation.
  std::span<const int> layer_order() const noexcept { return order_; }

  /// Overrides the layer schedule (e.g. natural order to compare against
  /// the functional decoder bit-for-bit, or an externally computed
  /// schedule). Must be a permutation of 0..j-1 of the configured code.
  void set_layer_order(std::span<const int> order);

  /// Decodes one frame through the structural datapath.
  ChipDecodeResult decode(std::span<const double> llr);

  /// Decodes a batch of pre-deposited size-n raw-code frames
  /// (core::QuantisedFrame — one-shot quantise_llrs output or cross-round
  /// HARQ combined state from quantise_combined). One reconfiguration
  /// serves the whole batch; min-sum configurations stream through the
  /// SoA lane-refill kernel under the programmed layer order, others run
  /// the structural datapath per frame. Results and stats are
  /// bit-identical to per-frame decode() of the doubles the frames were
  /// quantised from. Every frame must pass
  /// QuantisedFrame::valid_for(n) (throws std::invalid_argument
  /// otherwise) and carry a lane type no wider than the config's.
  std::vector<ChipDecodeResult> decode_batch_quantised(
      std::span<const core::QuantisedFrame* const> frames);

 private:
  /// Stores the programmed schedule's timing and derives per_iteration_.
  void program_timing(IterationTiming timing);
  /// Widens one stored frame into raw_ and runs the scalar engine on it.
  ChipDecodeResult run_widened(const core::QuantisedFrame& frame);
  /// Builds a frame's stats in closed form: per_iteration_ times the
  /// iteration count plus the drain, with the configuration-level fields.
  ChipDecodeResult frame_stats(core::FixedDecodeResult functional) const;

  ChipDimensions dims_;
  const codes::QCCode* code_ = nullptr;

  core::LayerEngine engine_;  // the fixed-point (int32) instantiation
  std::optional<core::StreamBatchEngine> stream_engine_;
  std::optional<PipelineModel> pipeline_;
  std::vector<int> order_;
  IterationTiming timing_;
  ChipDecodeStats per_iteration_;  // activity of one schedule pass
  std::vector<std::int32_t> raw_;  // reused quantisation buffer
};

}  // namespace ldpc::arch
