#include "ldpc/stream/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ldpc/core/harq.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/util/rng.hpp"

namespace ldpc::stream {

namespace {

/// Heap order for pending retransmissions: std::push_heap/pop_heap build a
/// max-heap, so this comparator ranks *later* arrivals (ties: larger
/// sessions) as smaller — popping yields the earliest arrival with a
/// deterministic total order.
constexpr auto retx_later = [](const auto& a, const auto& b) {
  if (a.arrival_cycle != b.arrival_cycle)
    return a.arrival_cycle > b.arrival_cycle;
  return a.session > b.session;
};

}  // namespace

struct TrafficSource::Mode {
  codes::QCCode code;
  std::unique_ptr<enc::Encoder> encoder;
  double ebn0_db = 0.0;
  double weight = 1.0;
  double sigma = 0.0;
  std::unique_ptr<channel::Channel> channel;
  /// Custom per-round LLR synthesiser (storage read rungs); when set, the
  /// built-in channel is bypassed entirely and `channel` stays null.
  RungSynth synth;
  /// Outer CRC embedded in the payload tail before encoding.
  core::FrameCrc crc = core::FrameCrc::kNone;

  Mode(codes::QCCode c, double ebn0, double w, channel::ChannelKind kind,
       int coherence_bits)
      : code(std::move(c)), encoder(enc::make_encoder(code)), ebn0_db(ebn0),
        weight(w),
        sigma(channel::ebn0_to_sigma(ebn0, code.effective_rate(),
                                     channel::Modulation::kBpsk)),
        channel(channel::make_channel(kind, sigma, coherence_bits)) {}

  Mode(codes::QCCode c, double w, RungSynth s, core::FrameCrc frame_crc)
      : code(std::move(c)), encoder(enc::make_encoder(code)), weight(w),
        synth(std::move(s)), crc(frame_crc) {}
};

TrafficSource::TrafficSource(TrafficConfig config) : config_(config) {
  if (config_.mean_interarrival_cycles < 0.0)
    throw std::invalid_argument("TrafficSource: mean_interarrival_cycles");
  for (int rv : config_.rv_sequence)
    if (rv < 0 || rv >= 4)
      throw std::invalid_argument("TrafficSource: rv_sequence");
  // First transmissions must be rv0: the one-shot quantiser
  // (sim::quantise_llrs) deposits at the scheme's redundancy version, and
  // schemes describe the self-decodable rv0 window.
  if (config_.rv_sequence[0] != 0)
    throw std::invalid_argument("TrafficSource: rv_sequence[0] must be 0");
}

TrafficSource::~TrafficSource() = default;
TrafficSource::TrafficSource(TrafficSource&&) noexcept = default;
TrafficSource& TrafficSource::operator=(TrafficSource&&) noexcept = default;

int TrafficSource::add_mode(codes::QCCode code, double ebn0_db,
                            double weight) {
  return add_mode(std::move(code), ebn0_db, weight,
                  channel::ChannelKind::kAwgn, 0);
}

int TrafficSource::add_mode(codes::QCCode code, double ebn0_db,
                            double weight, channel::ChannelKind kind,
                            int coherence_bits) {
  if (weight < 0.0 || !std::isfinite(weight))
    throw std::invalid_argument("TrafficSource: weight");
  if (cursor_ != 0)
    throw std::logic_error(
        "TrafficSource: register every mode before drawing jobs (the mode "
        "mix is part of the stream's deterministic identity)");
  modes_.push_back(std::make_unique<Mode>(std::move(code), ebn0_db, weight,
                                          kind, coherence_bits));
  total_weight_ += weight;
  return static_cast<int>(modes_.size()) - 1;
}

int TrafficSource::add_custom_mode(codes::QCCode code, double weight,
                                   RungSynth synth, core::FrameCrc crc) {
  if (weight < 0.0 || !std::isfinite(weight))
    throw std::invalid_argument("TrafficSource: weight");
  if (!synth)
    throw std::invalid_argument("TrafficSource::add_custom_mode: synth");
  if (!code.scheme().is_degenerate())
    throw std::invalid_argument(
        "TrafficSource::add_custom_mode: custom modes Chase-combine over "
        "the full codeword (degenerate scheme required)");
  if (crc != core::FrameCrc::kNone &&
      code.payload_bits() <= core::crc_bits(crc))
    throw std::invalid_argument(
        "TrafficSource::add_custom_mode: payload not larger than CRC");
  if (cursor_ != 0)
    throw std::logic_error(
        "TrafficSource: register every mode before drawing jobs (the mode "
        "mix is part of the stream's deterministic identity)");
  modes_.push_back(std::make_unique<Mode>(std::move(code), weight,
                                          std::move(synth), crc));
  total_weight_ += weight;
  return static_cast<int>(modes_.size()) - 1;
}

int TrafficSource::rv_for_round(int mode, int round) const {
  const Mode& m = *modes_.at(static_cast<std::size_t>(mode));
  if (m.code.scheme().is_degenerate()) return 0;  // Chase combining
  return config_.rv_sequence[static_cast<std::size_t>(
      round % static_cast<int>(config_.rv_sequence.size()))];
}

void TrafficSource::push_retransmission(const Job& failed,
                                        long long arrival_cycle) {
  if (failed.mode < 0 || failed.mode >= mode_count())
    throw std::invalid_argument("TrafficSource::push_retransmission: mode");
  if (failed.round < 0)
    throw std::invalid_argument("TrafficSource::push_retransmission: round");
  PendingRetx retx;
  retx.arrival_cycle = arrival_cycle;
  retx.session = failed.session;
  retx.mode = failed.mode;
  retx.round = failed.round + 1;
  retx.rv = rv_for_round(failed.mode, retx.round);
  retx_.push_back(retx);
  std::push_heap(retx_.begin(), retx_.end(), retx_later);
}

int TrafficSource::mode_count() const noexcept {
  return static_cast<int>(modes_.size());
}

const codes::QCCode& TrafficSource::code(int mode) const {
  return modes_.at(static_cast<std::size_t>(mode))->code;
}

double TrafficSource::ebn0_db(int mode) const {
  return modes_.at(static_cast<std::size_t>(mode))->ebn0_db;
}

core::FrameCrc TrafficSource::frame_crc(int mode) const {
  return modes_.at(static_cast<std::size_t>(mode))->crc;
}

Job TrafficSource::next() {
  if (modes_.empty())
    throw std::logic_error("TrafficSource: no modes registered");
  if (!retx_.empty()) {
    std::pop_heap(retx_.begin(), retx_.end(), retx_later);
    const PendingRetx retx = retx_.back();
    retx_.pop_back();
    Job job;
    job.id = cursor_++;  // retransmissions consume stream ids too
    job.mode = retx.mode;
    job.arrival_cycle = retx.arrival_cycle;
    job.session = retx.session;
    job.round = retx.round;
    job.rv = retx.rv;
    return job;
  }
  if (total_weight_ <= 0.0)
    throw std::logic_error("TrafficSource: all mode weights are zero");
  const long long id = cursor_++;
  util::Xoshiro256 meta(util::substream_seed(
      config_.seed, 2ULL * static_cast<std::uint64_t>(id)));

  // Weighted mode pick, then the exponential gap to the *next* job, so
  // job 0 arrives at cycle 0 and arrivals are monotone.
  Job job;
  job.id = id;
  job.session = id;  // fresh job: it heads its own HARQ session
  job.arrival_cycle = clock_;
  double u = meta.uniform() * total_weight_;
  int mode = 0;
  for (; mode + 1 < mode_count(); ++mode) {
    u -= modes_[static_cast<std::size_t>(mode)]->weight;
    if (u < 0.0) break;
  }
  job.mode = mode;
  job.rv = rv_for_round(mode, 0);

  if (config_.mean_interarrival_cycles > 0.0) {
    const double gap = -config_.mean_interarrival_cycles *
                       std::log1p(-meta.uniform());
    clock_ += static_cast<long long>(std::llround(gap));
  }
  return job;
}

void TrafficSource::reset() noexcept {
  cursor_ = 0;
  clock_ = 0;
  retx_.clear();
}

namespace {

/// Content is keyed on the session head's id, so every round of a session
/// re-derives the same payload. A fresh (round-0) job has session == id,
/// which keeps this byte-identical to the historical per-id keying.
std::uint64_t content_key(std::uint64_t seed, long long session) {
  return util::substream_seed(
      seed, 2ULL * static_cast<std::uint64_t>(session) + 1);
}

void require_quantised(bool emits) {
  if (!emits)
    throw std::logic_error(
        "TrafficSource::make_frame: HARQ rounds > 0 carry combined soft "
        "state and need quantised emission (call emit_quantised first)");
}

}  // namespace

std::vector<double> TrafficSource::open_session(const Job& job,
                                                SessionState& state,
                                                bool with_soft) const {
  const Mode& m = *modes_.at(static_cast<std::size_t>(job.mode));
  const std::uint64_t key = content_key(config_.seed, job.session);
  util::Xoshiro256 rng(key);
  state.payload.resize(static_cast<std::size_t>(m.code.payload_bits()));
  enc::random_bits(rng, state.payload);
  // Outer CRC: overwrite the payload tail with the CRC of the data prefix
  // before encoding, so the codeword carries a checkable payload.
  if (m.crc != core::FrameCrc::kNone) core::crc_append(m.crc, state.payload);
  state.codeword = m.encoder->encode(state.payload);
  // Round 0's noise continues the content generator (the historical
  // stream). Custom modes route every round through their synthesiser
  // instead (which derives its noise from content-key substreams).
  const int rv = rv_for_round(job.mode, 0);
  std::vector<double> llrs =
      m.synth ? m.synth(m.code, state.codeword, key, 0)
              : sim::transmit_llrs(m.code, state.codeword,
                                   channel::Modulation::kBpsk, *m.channel,
                                   rng, rv);
  state.session = job.session;
  state.mode = job.mode;
  state.round = 0;
  if (with_soft) {
    state.soft.reset(m.code);
    state.soft.add_round(m.code, llrs, rv);
  }
  return llrs;
}

std::vector<double> TrafficSource::add_round(SessionState& state,
                                             int round) const {
  const Mode& m = *modes_.at(static_cast<std::size_t>(state.mode));
  const std::uint64_t key = content_key(config_.seed, state.session);
  const int rv = rv_for_round(state.mode, round);
  // Round q >= 1 draws from its own substream, so a round needs only the
  // codeword, never the rounds before it.
  std::vector<double> llrs;
  if (m.synth) {
    llrs = m.synth(m.code, state.codeword, key, round);
  } else {
    util::Xoshiro256 rng(
        util::substream_seed(key, static_cast<std::uint64_t>(round)));
    llrs = sim::transmit_llrs(m.code, state.codeword,
                              channel::Modulation::kBpsk, *m.channel, rng,
                              rv);
  }
  state.soft.add_round(m.code, llrs, rv);
  state.round = round;
  return llrs;
}

JobFrame TrafficSource::frame_of(SessionState& state,
                                 std::vector<double> llrs,
                                 bool keep_state) const {
  const Mode& m = *modes_.at(static_cast<std::size_t>(state.mode));
  JobFrame frame;
  if (state.round > 0)
    frame.quantised = sim::quantise_combined(m.code, quant_config_,
                                             state.soft);
  else if (emit_quantised_)
    frame.quantised = sim::quantise_llrs(m.code, quant_config_, llrs);
  frame.llrs = std::move(llrs);
  if (keep_state) {
    frame.payload = state.payload;
    frame.codeword = state.codeword;
  } else {
    frame.payload = std::move(state.payload);
    frame.codeword = std::move(state.codeword);
  }
  return frame;
}

JobFrame TrafficSource::make_frame(const Job& job) const {
  if (job.round < 0)
    throw std::invalid_argument("TrafficSource::make_frame: round");
  if (job.round > 0) require_quantised(emit_quantised_);
  // The replay of the carried step: open the session, fold rounds 1..r,
  // quantise once.
  SessionState state;
  std::vector<double> llrs =
      open_session(job, state, /*with_soft=*/job.round > 0);
  for (int q = 1; q <= job.round; ++q) llrs = add_round(state, q);
  return frame_of(state, std::move(llrs), /*keep_state=*/false);
}

JobFrame TrafficSource::make_frame(const Job& job,
                                   SessionState& state) const {
  if (job.round < 0)
    throw std::invalid_argument("TrafficSource::make_frame: round");
  if (job.round == 0)
    return frame_of(state, open_session(job, state, /*with_soft=*/true),
                    /*keep_state=*/true);
  if (state.session != job.session || state.mode != job.mode ||
      state.round != job.round - 1)
    throw std::invalid_argument(
        "TrafficSource::make_frame: the carried state does not hold the "
        "session's previous round");
  require_quantised(emit_quantised_);
  return frame_of(state, add_round(state, job.round), /*keep_state=*/true);
}

void TrafficSource::emit_quantised(core::DecoderConfig config) {
  if (config.datapath != core::Datapath::kQuantized)
    throw std::invalid_argument(
        "TrafficSource::emit_quantised: quantized datapath configs only");
  quant_config_ = config;
  emit_quantised_ = true;
}

}  // namespace ldpc::stream
