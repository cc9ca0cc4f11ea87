// Mixed-standard traffic generation for the streaming decoder farm.
//
// A TrafficSource produces an interleaved job stream over any set of
// registered modes (802.11n + 802.16e + DMB-T + NR in one stream): each
// job names a mode, carries a modeled arrival cycle, and maps to a fully
// deterministic frame (payload bits, codeword, channel LLRs) derived by
// counter-based seeding exactly like the simulation engine — job i's
// content depends only on (seed, i), never on which worker decodes it or
// in what order. That independence is what lets the scheduler tests
// assert bit-identical per-frame results under any policy and worker
// count.
//
// Seed derivation: job i draws its mode and inter-arrival gap from a
// generator seeded util::substream_seed(seed, 2i), and its frame content
// (payload bits + channel noise) from a second generator seeded
// util::substream_seed(seed, 2i + 1), so scheduling metadata and frame
// synthesis can be recomputed independently.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/datapath.hpp"
#include "ldpc/core/quantised_frame.hpp"
#include "ldpc/enc/encoder.hpp"

namespace ldpc::stream {

struct TrafficConfig {
  std::uint64_t seed = 1;
  /// Mean inter-arrival gap between consecutive jobs in modeled cycles
  /// (exponential, counter-seeded draws). 0 = saturated source: every job
  /// is available at cycle 0 and latency measures pure queueing + service.
  double mean_interarrival_cycles = 0.0;
  /// HARQ redundancy version of round r = rv_sequence[r % 4] (TS 38.212's
  /// default). Modes whose scheme is degenerate always retransmit rv0
  /// (Chase combining) regardless of this sequence.
  std::array<int, 4> rv_sequence{0, 2, 3, 1};
};

/// One frame's worth of work: which mode, and when it reaches the farm.
/// HARQ retransmissions are jobs too: a round-r job repeats session
/// `session`'s transport block with the round-r redundancy version, and
/// its frame carries the *combined* soft state of rounds 0..r.
struct Job {
  long long id = 0;           // global sequence number, 0-based
  int mode = 0;               // index into the source's registered modes
  long long arrival_cycle = 0;
  /// HARQ session this job belongs to: the id of the session's round-0
  /// job. Fresh jobs have session == id.
  long long session = 0;
  int round = 0;  // 0-based HARQ round (0 = first transmission)
  int rv = 0;     // redundancy version transmitted this round
};

/// The deterministic frame behind a job.
struct JobFrame {
  std::vector<std::uint8_t> payload;   // payload_bits() information bits
  std::vector<std::uint8_t> codeword;  // expected codeword, size n
  std::vector<double> llrs;            // transmitted_bits() channel LLRs
  /// Pre-quantised raw codes derived from the SAME llrs
  /// (sim::quantise_llrs), filled only when the source was switched to
  /// quantised emission (TrafficSource::emit_quantised) — the front end of
  /// the quantised-domain serving path.
  core::QuantisedFrame quantised;
};

/// Custom per-round LLR synthesiser for modes whose channel is not one of
/// the built-in wireless kinds (e.g. the NAND read-retry ladder): given
/// the mode's code, the transmitted codeword, the session's content key
/// and a 0-based round (read rung), returns that round's transmitted-
/// length LLRs. Must be pure in its arguments — the determinism contracts
/// (modeled == live, worker-count invariance) hang on it — and callable
/// concurrently from several threads: the live closed loop
/// (stream::run_closed_loop_live) synthesises escalations on the decoding
/// workers while its driver thread synthesises fresh frames.
using RungSynth = std::function<std::vector<double>(
    const codes::QCCode&, std::span<const std::uint8_t>, std::uint64_t,
    int)>;

class TrafficSource {
 public:
  explicit TrafficSource(TrafficConfig config = {});
  ~TrafficSource();

  TrafficSource(TrafficSource&&) noexcept;
  TrafficSource& operator=(TrafficSource&&) noexcept;

  /// Registers a mode: the source takes ownership of `code`, builds its
  /// encoder, and returns the mode index. `weight` is the mode's relative
  /// share of the arrival mix; `ebn0_db` sets the modeled channel quality
  /// (sigma derived from the code's effective rate).
  int add_mode(codes::QCCode code, double ebn0_db, double weight = 1.0);
  /// Channel-aware overload: the mode's frames traverse `kind`
  /// (kAwgn reproduces the default overload bit-for-bit;
  /// kRayleighBlock/kRayleighIid add fading with `coherence_bits`-bit
  /// fades — see channel::make_channel).
  int add_mode(codes::QCCode code, double ebn0_db, double weight,
               channel::ChannelKind kind, int coherence_bits = 0);
  /// Registers a mode whose per-round LLRs come from `synth` instead of a
  /// built-in channel (the storage read-path hook: round r is read rung
  /// r). `crc` is embedded in every frame's payload tail (crc_append
  /// before encoding) so the decoder's CRC-aided stopping has something
  /// to check. Requires a degenerate transmission scheme (rungs Chase-
  /// combine over the full codeword); throws std::invalid_argument
  /// otherwise or for a null synth.
  int add_custom_mode(codes::QCCode code, double weight, RungSynth synth,
                      core::FrameCrc crc = core::FrameCrc::kNone);

  /// Number of registered modes (valid mode indices are 0..count-1).
  int mode_count() const noexcept;
  /// The mode's code (throws std::out_of_range for a bad index).
  const codes::QCCode& code(int mode) const;
  /// The mode's modeled channel quality (0 for custom-synth modes).
  double ebn0_db(int mode) const;
  /// Outer payload CRC embedded in this mode's frames (kNone for the
  /// wireless add_mode overloads).
  core::FrameCrc frame_crc(int mode) const;

  /// The next job of the stream (sequential cursor; arrivals are
  /// monotone non-decreasing). Throws std::logic_error with no registered
  /// modes.
  ///
  /// Pending retransmissions take strict priority: whenever
  /// push_retransmission has queued feedback, next() returns the earliest
  /// queued retransmission (ordered by arrival, ties by session) before
  /// drawing fresh traffic. Closed-loop drivers alternate draw phases —
  /// fresh generation, then its NACKed retransmissions — so arrivals stay
  /// monotone within each scheduler run.
  Job next();
  /// Queues the next HARQ round of `failed`'s session: same session id,
  /// round + 1, the next redundancy version of the configured sequence
  /// (rv0 for degenerate-scheme modes — Chase combining), arriving at
  /// `arrival_cycle` (decode finish + modeled ACK/NACK feedback delay).
  /// The job id is assigned from the global cursor when next() emits it.
  void push_retransmission(const Job& failed, long long arrival_cycle);
  /// Rewinds the cursor to job 0 and drops pending retransmissions: the
  /// identical fresh stream replays (used to compare scheduling policies
  /// on the same traffic).
  void reset() noexcept;

  /// Synthesises the frame behind `job`: payload bits, systematic
  /// codeword (fillers inserted by the encoder), and transmitted-length
  /// channel LLRs under the mode's Eb/N0. Pure in (seed, job.session,
  /// job.round), and thread-safe: concurrent make_frame calls may run
  /// alongside each other and alongside one thread's next() /
  /// push_retransmission / reset() (those touch only the cursor and the
  /// retransmission heap, which make_frame never reads). Registering
  /// modes or switching emission (add_mode, add_custom_mode,
  /// emit_quantised) must not overlap any make_frame call.
  ///
  /// HARQ rounds: a round-r job re-derives its session's payload and
  /// every earlier round's channel LLRs (round q's noise comes from
  /// substream_seed(content_key, q) for q >= 1; round 0 continues the
  /// content generator exactly like a fresh job), accumulates rounds
  /// 0..r into a core::HarqSoftBuffer and emits the *combined* soft state
  /// as JobFrame::quantised via sim::quantise_combined. JobFrame::llrs
  /// holds round r's own transmitted LLRs (reference/diagnostics only —
  /// decoding a round > 0 frame from them would discard the combining
  /// gain). Rounds > 0 therefore require emit_quantised; make_frame
  /// throws std::logic_error otherwise.
  JobFrame make_frame(const Job& job) const;

  /// Switches the source to quantised emission: every subsequent
  /// make_frame additionally runs the front-end quantiser
  /// (sim::quantise_llrs under `config`) and fills JobFrame::quantised
  /// with the narrowest-lane raw codes — the payload a submitter hands to
  /// the service's quantised ingest path. The double llrs stay populated
  /// so reference decodes and payload checks are unchanged. Throws
  /// std::invalid_argument for a non-quantized-datapath config.
  void emit_quantised(core::DecoderConfig config);
  bool emits_quantised() const noexcept { return emit_quantised_; }

  const TrafficConfig& config() const noexcept { return config_; }

  /// Redundancy version round `round` of a `mode` session transmits:
  /// rv_sequence[round % 4], forced to 0 (Chase combining) for
  /// degenerate-scheme modes.
  int rv_for_round(int mode, int round) const;

 private:
  struct Mode;
  /// A queued HARQ retransmission: a Job missing only its final id.
  struct PendingRetx {
    long long arrival_cycle = 0;
    long long session = 0;
    int mode = 0;
    int round = 0;
    int rv = 0;
  };

  TrafficConfig config_;
  bool emit_quantised_ = false;
  core::DecoderConfig quant_config_{};
  std::vector<std::unique_ptr<Mode>> modes_;
  double total_weight_ = 0.0;
  long long cursor_ = 0;
  long long clock_ = 0;  // arrival cycle of the stream head
  std::vector<PendingRetx> retx_;  // min-heap by (arrival, session)
};

}  // namespace ldpc::stream
