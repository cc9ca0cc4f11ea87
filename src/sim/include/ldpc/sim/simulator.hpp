// Monte-Carlo simulation engine: BER / FER / average-iteration curves.
//
// Drives the full chain (random information bits -> QC encoder -> BPSK or
// QPSK -> AWGN -> LLR demapper -> decoder) across a pool of worker threads
// with reproducible counter-based seeding and adaptive stopping (runs until
// enough frame errors are observed or the frame budget is exhausted).
//
// Threading model: the decoders are NOT thread-safe, so each worker owns a
// private decoder instance built by a DecoderFactory. Every frame index f
// of an Eb/N0 point draws its bits and noise from an independent substream
// seeded by (point seed, f) — util::substream_seed — and per-frame outcomes
// are folded into the point statistics strictly in frame order. The
// adaptive stop is evaluated on that ordered fold, so BER, FER, iteration
// statistics and the processed frame count are bit-identical for any
// thread count, including 1.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ldpc/baseline/decoder.hpp"
#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/decoder.hpp"
#include "ldpc/core/harq.hpp"
#include "ldpc/core/quantised_frame.hpp"
#include "ldpc/util/stats.hpp"

namespace ldpc::sim {

/// What the engine needs back from one decode call.
struct DecodeOutcome {
  std::vector<std::uint8_t> bits;
  int iterations = 0;
  bool converged = false;
};

/// Adapter: channel LLRs (the code's transmitted_bits() of them — n for
/// the classic standards) in, outcome out. Called sequentially by the
/// worker that owns it.
using DecodeFn = std::function<DecodeOutcome(std::span<const double>)>;

/// One frame's transmit chain under the code's TransmissionScheme, written
/// into caller memory: walks the transmit index map from redundancy
/// version `rv`'s window start (see QCCode::rv_start / tx_bit_index; the
/// punctured columns and fillers are skipped, wraparound repeats to E),
/// modulating each transmitted bit straight into `out`, then adds the
/// channel's noise and demaps in place. `out` must hold exactly
/// code.transmitted_bits() values; nothing is allocated, so a worker can
/// transmit frame after frame into one reused buffer. For degenerate
/// schemes the window is the whole codeword in order. Throws
/// std::invalid_argument on a codeword or output size mismatch.
void transmit_llrs_into(const codes::QCCode& code,
                        std::span<const std::uint8_t> codeword,
                        channel::Modulation modulation,
                        const channel::Channel& chan, util::Xoshiro256& rng,
                        int rv, std::span<double> out);

/// transmit_llrs_into over AWGN with noise sigma at the attached scheme's
/// redundancy version, returning the transmitted_bits() LLRs.
std::vector<double> transmit_llrs(const codes::QCCode& code,
                                  std::span<const std::uint8_t> codeword,
                                  channel::Modulation modulation,
                                  double sigma, util::Xoshiro256& rng);

/// transmit_llrs_into returning the LLRs: any Channel model (AWGN,
/// Rayleigh block fading), any redundancy version. With an AwgnChannel and
/// the scheme's rv this draws the identical noise stream as the sigma
/// overload above.
std::vector<double> transmit_llrs(const codes::QCCode& code,
                                  std::span<const std::uint8_t> codeword,
                                  channel::Modulation modulation,
                                  const channel::Channel& chan,
                                  util::Xoshiro256& rng, int rv);

/// Front-end quantisation: runs the full scheme-aware LLR deposit +
/// quantiser (core::deposit_transmitted_quant — puncturing erasures,
/// filler rails, wraparound repeat combining) over one frame of
/// transmitted-length channel LLRs and stores the resulting n raw codes at
/// the narrowest lane type `config` admits. The frame feeds
/// core::StreamBatchEngine::decode_quantised / the DecodeService quantised
/// submit path with results bit-identical to submitting the doubles, at a
/// 4-8x smaller payload. Throws std::invalid_argument when llrs is not
/// transmitted_bits() long or `config` is not a quantized-datapath config.
core::QuantisedFrame quantise_llrs(const codes::QCCode& code,
                                   const core::DecoderConfig& config,
                                   std::span<const double> llrs);

/// Cross-round HARQ counterpart of quantise_llrs: quantises a combined
/// soft buffer (core::HarqSoftBuffer — LLR sums over every received round,
/// still in the double domain) into a QuantisedFrame at the narrowest lane
/// type `config` admits, via core::deposit_combined_quant. A buffer
/// holding exactly one rv0 round produces the same frame as quantise_llrs
/// on that round's LLRs.
core::QuantisedFrame quantise_combined(const codes::QCCode& code,
                                       const core::DecoderConfig& config,
                                       const core::HarqSoftBuffer& soft);

/// Builds one independent DecodeFn per worker thread. The factory is
/// called once per worker per point, from that worker's thread; everything
/// the returned DecodeFn touches must be private to it (or immutable).
using DecoderFactory = std::function<DecodeFn()>;

/// Batched adapter: decodes llrs.size()/transmitted_bits() frames stored
/// back to back and returns one outcome per frame. Built per worker like
/// DecodeFn; each worker's claimed chunk feeds its decoder's refill queue
/// (core::StreamBatchEngine), so SIMD lanes are reloaded with the next
/// pending frame the moment a frame stops early.
using BatchDecodeFn =
    std::function<std::vector<DecodeOutcome>(std::span<const double>)>;
using BatchDecoderFactory = std::function<BatchDecodeFn()>;

/// Wraps a caller-owned core::ReconfigurableDecoder (fixed-point datapath).
/// Single-threaded use only: the decoder is shared with the caller.
DecodeFn adapt(core::ReconfigurableDecoder& decoder);
/// Wraps a caller-owned floating-point baseline decoder. The decoder must
/// outlive the returned function.
DecodeFn adapt(const baseline::SoftDecoder& decoder, int max_iter);
/// Deleted: binding a temporary decoder would leave the returned function
/// holding a dangling reference (the lambda captures by reference). Keep
/// the decoder alive yourself, or pass a shared_ptr.
DecodeFn adapt(const baseline::SoftDecoder&& decoder, int max_iter) = delete;
/// Owning adapter: the returned function keeps the decoder alive.
DecodeFn adapt(std::shared_ptr<const baseline::SoftDecoder> decoder,
               int max_iter);

/// Factory for the engine-based decoder: each worker gets its own
/// core::ReconfigurableDecoder on `code` (the caller keeps `code` alive).
/// config.datapath selects fixed-point or the unquantised float reference,
/// so one factory serves both sides of a quantization-loss comparison.
DecoderFactory fixed_decoder_factory(const codes::QCCode& code,
                                     core::DecoderConfig config = {});
/// Deleted: the factory captures the code by reference; a temporary would
/// dangle by the time workers build their decoders.
DecoderFactory fixed_decoder_factory(codes::QCCode&& code,
                                     core::DecoderConfig config = {}) =
    delete;
/// Batched factory over ReconfigurableDecoder::decode_batch: with a
/// quantized min-sum config the claimed frames stream through the SIMD
/// lane-refill kernel (core::StreamBatchEngine) — the claim is the
/// worker's refill queue. Outcomes are bit-identical to
/// fixed_decoder_factory with the same config, at any thread/batch count.
BatchDecoderFactory batched_fixed_decoder_factory(
    const codes::QCCode& code, core::DecoderConfig config = {});
BatchDecoderFactory batched_fixed_decoder_factory(
    codes::QCCode&& code, core::DecoderConfig config = {}) = delete;
/// Factory over any baseline decoder: `make` builds a fresh instance per
/// worker (called from the worker's thread).
DecoderFactory baseline_decoder_factory(
    std::function<std::unique_ptr<baseline::SoftDecoder>()> make,
    int max_iter);

struct SimConfig {
  std::uint64_t seed = 1;
  channel::Modulation modulation = channel::Modulation::kBpsk;
  /// Stop once this many frame errors were seen (confidence control)...
  int target_frame_errors = 25;
  /// ...but always run at least `min_frames` and at most `max_frames`.
  int min_frames = 50;
  int max_frames = 2000;
  /// Worker threads (0 = hardware concurrency). Results are independent of
  /// this value; it only changes wall-clock time.
  int threads = 1;
  /// Frames a worker claims (and decodes) per grab when the simulator was
  /// built with a BatchDecoderFactory. The claim is the worker's refill
  /// queue: the larger it is, the more the continuous engine amortises
  /// its end-of-queue drain. 0 = four refill rounds of the stream
  /// engine's preferred lane width. Results are independent of this
  /// value: outcomes still fold into the statistics strictly in frame
  /// order.
  int batch = 0;
};

struct SweepPoint {
  double ebn0_db = 0.0;
  util::ErrorCounter info_errors;   // BER/FER over information bits
  util::RunningStats iterations;    // per-frame decoder iterations
  long long frames = 0;
  /// Frames the decoder believed it decoded (converged to a codeword /
  /// early termination fired) that still carry information-bit errors —
  /// undetected errors / miscorrections. A hard-decision-based early
  /// termination rule (the paper's) can accept such frames; tracking them
  /// quantifies that risk.
  long long undetected_errors = 0;
  double ber() const { return info_errors.ber(); }
  double fer() const { return info_errors.fer(); }
  double avg_iterations() const { return iterations.mean(); }
  double undetected_rate() const {
    return frames ? static_cast<double>(undetected_errors) /
                        static_cast<double>(frames)
                  : 0.0;
  }
};

class Simulator {
 public:
  /// Parallel engine: one decoder per worker via `factory`. The simulator
  /// references `code`; the caller keeps it alive.
  Simulator(const codes::QCCode& code, DecoderFactory factory,
            SimConfig config);

  /// Legacy single-threaded adapter: `decode` captures one shared decoder,
  /// so the thread count is forced to 1 regardless of config.threads.
  Simulator(const codes::QCCode& code, DecodeFn decode, SimConfig config);

  /// A null decoder is always invalid (exact-match overload: a bare
  /// `nullptr` would otherwise be ambiguous between DecodeFn and
  /// DecoderFactory). Throws std::invalid_argument.
  Simulator(const codes::QCCode& code, std::nullptr_t, SimConfig config);

  /// Batched engine: workers claim config.batch frames per grab and decode
  /// them in one BatchDecodeFn call (the claim is one refill queue of the
  /// SIMD lane-refill engine, core::StreamBatchEngine). Statistics
  /// remain bit-identical to the single-frame constructors for the same
  /// decoder arithmetic, at any thread count and any batch size.
  Simulator(const codes::QCCode& code, BatchDecoderFactory factory,
            SimConfig config);

  /// Runs one Eb/N0 point across the worker pool.
  SweepPoint run_point(double ebn0_db);

  /// Runs a sweep; each point is independently seeded from config.seed so
  /// adding points does not perturb existing ones.
  std::vector<SweepPoint> sweep(const std::vector<double>& ebn0_dbs);

  /// Resolved worker count.
  int threads() const noexcept { return threads_; }

 private:
  const codes::QCCode& code_;
  DecoderFactory factory_;              // single-frame path
  BatchDecoderFactory batch_factory_;   // batched path (exactly one is set)
  SimConfig config_;
  int threads_;
  int batch_ = 1;  // frames claimed per worker grab
};

}  // namespace ldpc::sim
