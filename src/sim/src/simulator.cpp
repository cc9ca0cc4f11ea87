#include "ldpc/sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "ldpc/core/layer_engine.hpp"
#include "ldpc/core/soa_scan.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/util/rng.hpp"

namespace ldpc::sim {

namespace {

/// One baseline decode with the scheme-aware LLR expansion: the
/// floating-point baselines take n LLRs, so non-degenerate schemes run
/// the SAME deposit as the float engine (core::deposit_transmitted over
/// DatapathTraits<double> — one definition of the punctured / repeat /
/// filler mapping).
DecodeOutcome run_baseline(const baseline::SoftDecoder& decoder,
                           int max_iter, std::span<const double> llr) {
  const codes::QCCode& code = decoder.code();
  baseline::DecodeResult r;
  if (code.scheme().is_degenerate()) {
    r = decoder.decode(llr, max_iter);
  } else {
    const core::DatapathTraits<double> traits{core::DecoderConfig{}};
    std::vector<double> full(static_cast<std::size_t>(code.n()));
    std::vector<double> acc;
    core::deposit_transmitted(code, traits, llr, std::span<double>(full),
                              acc);
    r = decoder.decode(full, max_iter);
  }
  return DecodeOutcome{std::move(r.bits), r.iterations, r.converged};
}

}  // namespace

void transmit_llrs_into(const codes::QCCode& code,
                        std::span<const std::uint8_t> codeword,
                        channel::Modulation modulation,
                        const channel::Channel& chan, util::Xoshiro256& rng,
                        int rv, std::span<double> out) {
  if (codeword.size() != static_cast<std::size_t>(code.n()))
    throw std::invalid_argument("transmit_llrs: codeword size");
  if (out.size() != static_cast<std::size_t>(code.transmitted_bits()))
    throw std::invalid_argument("transmit_llrs: output size");
  const double a = channel::modulation_amplitude(modulation);
  // Indexed, not branched: codeword bits are coin flips.
  const double level[2] = {a, -a};
  code.for_each_tx_run(rv, [&](int i, int v, int len) {
    const std::uint8_t* bits = codeword.data() + v;
    double* x = out.data() + i;
    for (int j = 0; j < len; ++j) x[j] = level[bits[j] != 0];
  });
  chan.transmit_demap(out, a, rng);
}

std::vector<double> transmit_llrs(const codes::QCCode& code,
                                  std::span<const std::uint8_t> codeword,
                                  channel::Modulation modulation,
                                  double sigma, util::Xoshiro256& rng) {
  const channel::AwgnChannel chan(sigma);
  return transmit_llrs(code, codeword, modulation, chan, rng,
                       code.scheme().redundancy_version);
}

std::vector<double> transmit_llrs(const codes::QCCode& code,
                                  std::span<const std::uint8_t> codeword,
                                  channel::Modulation modulation,
                                  const channel::Channel& chan,
                                  util::Xoshiro256& rng, int rv) {
  std::vector<double> llrs(static_cast<std::size_t>(code.transmitted_bits()));
  transmit_llrs_into(code, codeword, modulation, chan, rng, rv, llrs);
  return llrs;
}

core::QuantisedFrame quantise_llrs(const codes::QCCode& code,
                                   const core::DecoderConfig& config,
                                   std::span<const double> llrs) {
  if (config.datapath != core::Datapath::kQuantized)
    throw std::invalid_argument(
        "quantise_llrs: quantized datapath configs only");
  const core::DatapathTraits<std::int32_t> traits{config};
  const auto type = core::narrowest_lane_type(config);
  core::QuantisedFrame frame;
  std::vector<double> acc;
  switch (type) {
    case core::kernels::LaneType::kInt8:
      core::deposit_transmitted_quant<std::int8_t>(
          code, traits, llrs,
          frame.emplace<std::int8_t>(type, code.n()), acc);
      break;
    case core::kernels::LaneType::kInt16:
      core::deposit_transmitted_quant<std::int16_t>(
          code, traits, llrs,
          frame.emplace<std::int16_t>(type, code.n()), acc);
      break;
    case core::kernels::LaneType::kInt32:
    default:
      core::deposit_transmitted_quant<std::int32_t>(
          code, traits, llrs,
          frame.emplace<std::int32_t>(type, code.n()), acc);
      break;
  }
  return frame;
}

core::QuantisedFrame quantise_combined(const codes::QCCode& code,
                                       const core::DecoderConfig& config,
                                       const core::HarqSoftBuffer& soft) {
  if (config.datapath != core::Datapath::kQuantized)
    throw std::invalid_argument(
        "quantise_combined: quantized datapath configs only");
  const core::DatapathTraits<std::int32_t> traits{config};
  const auto type = core::narrowest_lane_type(config);
  core::QuantisedFrame frame;
  switch (type) {
    case core::kernels::LaneType::kInt8:
      core::deposit_combined_quant<std::int8_t>(
          code, traits, soft, frame.emplace<std::int8_t>(type, code.n()));
      break;
    case core::kernels::LaneType::kInt16:
      core::deposit_combined_quant<std::int16_t>(
          code, traits, soft, frame.emplace<std::int16_t>(type, code.n()));
      break;
    case core::kernels::LaneType::kInt32:
    default:
      core::deposit_combined_quant<std::int32_t>(
          code, traits, soft, frame.emplace<std::int32_t>(type, code.n()));
      break;
  }
  return frame;
}

DecodeFn adapt(core::ReconfigurableDecoder& decoder) {
  return [&decoder](std::span<const double> llr) {
    core::FixedDecodeResult r = decoder.decode(llr);
    return DecodeOutcome{std::move(r.bits), r.iterations, r.converged};
  };
}

DecodeFn adapt(const baseline::SoftDecoder& decoder, int max_iter) {
  return [&decoder, max_iter](std::span<const double> llr) {
    return run_baseline(decoder, max_iter, llr);
  };
}

DecodeFn adapt(std::shared_ptr<const baseline::SoftDecoder> decoder,
               int max_iter) {
  if (!decoder) throw std::invalid_argument("adapt: null decoder");
  return [decoder = std::move(decoder),
          max_iter](std::span<const double> llr) {
    return run_baseline(*decoder, max_iter, llr);
  };
}

DecoderFactory fixed_decoder_factory(const codes::QCCode& code,
                                     core::DecoderConfig config) {
  return [&code, config]() {
    auto decoder =
        std::make_shared<core::ReconfigurableDecoder>(code, config);
    return DecodeFn([decoder](std::span<const double> llr) {
      core::FixedDecodeResult r = decoder->decode(llr);
      return DecodeOutcome{std::move(r.bits), r.iterations, r.converged};
    });
  };
}

BatchDecoderFactory batched_fixed_decoder_factory(
    const codes::QCCode& code, core::DecoderConfig config) {
  return [&code, config]() {
    auto decoder =
        std::make_shared<core::ReconfigurableDecoder>(code, config);
    return BatchDecodeFn([decoder](std::span<const double> llrs) {
      auto rs = decoder->decode_batch(llrs);
      std::vector<DecodeOutcome> outs;
      outs.reserve(rs.size());
      for (auto& r : rs)
        outs.push_back(
            DecodeOutcome{std::move(r.bits), r.iterations, r.converged});
      return outs;
    });
  };
}

DecoderFactory baseline_decoder_factory(
    std::function<std::unique_ptr<baseline::SoftDecoder>()> make,
    int max_iter) {
  if (!make) throw std::invalid_argument("baseline_decoder_factory: null");
  return [make = std::move(make), max_iter]() {
    return adapt(std::shared_ptr<const baseline::SoftDecoder>(make()),
                 max_iter);
  };
}

namespace {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

void validate(const SimConfig& config) {
  if (config.min_frames <= 0 || config.max_frames < config.min_frames)
    throw std::invalid_argument("Simulator: frame budget");
  if (config.threads < 0)
    throw std::invalid_argument("Simulator: threads");
  if (config.batch < 0) throw std::invalid_argument("Simulator: batch");
}

}  // namespace

Simulator::Simulator(const codes::QCCode& code, DecoderFactory factory,
                     SimConfig config)
    : code_(code), factory_(std::move(factory)), config_(config),
      threads_(resolve_threads(config.threads)) {
  if (!factory_) throw std::invalid_argument("Simulator: null factory");
  validate(config_);
}

Simulator::Simulator(const codes::QCCode& code, DecodeFn decode,
                     SimConfig config)
    : code_(code), config_(config), threads_(1) {
  if (!decode) throw std::invalid_argument("Simulator: null decoder");
  validate(config_);
  // The DecodeFn captures one caller-owned decoder; every "worker" would
  // share it, so this path stays single-threaded and the factory hands the
  // same function back.
  factory_ = [fn = std::move(decode)]() { return fn; };
}

Simulator::Simulator(const codes::QCCode& code, std::nullptr_t,
                     SimConfig config)
    : Simulator(code, DecodeFn{}, config) {}

Simulator::Simulator(const codes::QCCode& code, BatchDecoderFactory factory,
                     SimConfig config)
    : code_(code), batch_factory_(std::move(factory)), config_(config),
      threads_(resolve_threads(config.threads)) {
  if (!batch_factory_)
    throw std::invalid_argument("Simulator: null batch factory");
  validate(config_);
  // Default claim: four refill rounds of the stream engine's lane width —
  // wide enough that the end-of-claim drain (the only point where lanes
  // idle) is a small fraction of the work. Sized for the int16 lane type
  // the default decoder configs select (a wider claim is also fine for an
  // int32 engine: it just spans more refill rounds).
  batch_ = config_.batch > 0
               ? config_.batch
               : 4 * core::kernels::preferred_lanes(
                             core::kernels::LaneType::kInt16);
}

SweepPoint Simulator::run_point(double ebn0_db) {
  // Derive a per-point seed so each Eb/N0 point is an independent,
  // reproducible stream. The point key goes through a SplitMix64 substream
  // derivation: the previous xor-with-a-multiple mix left nearby Eb/N0
  // points with correlated noise streams.
  const auto ebn0_key =
      static_cast<std::uint64_t>(static_cast<long long>(ebn0_db * 1000.0));
  const std::uint64_t point_seed = util::substream_seed(config_.seed,
                                                        ebn0_key);

  // Eb is a *payload* bit's energy over the *transmitted* bits — the
  // effective (rate-matched) rate. Identical to rate() for full-codeword
  // schemes.
  const double sigma = channel::ebn0_to_sigma(
      ebn0_db, code_.effective_rate(), config_.modulation);
  const auto k_payload = static_cast<std::size_t>(code_.payload_bits());
  const int max_frames = config_.max_frames;
  const auto target =
      static_cast<std::uint64_t>(config_.target_frame_errors);

  struct FrameOutcome {
    std::uint64_t bit_errors = 0;
    int iterations = 0;
    bool converged = false;
  };

  SweepPoint point;
  point.ebn0_db = ebn0_db;

  // Shared fold state. Workers decode whichever frame index they claim,
  // but outcomes enter the statistics strictly in frame order; the
  // adaptive stop is re-evaluated after every folded frame, exactly as a
  // sequential loop would. `stop_bound` is the exclusive upper limit on
  // frame indices worth decoding; it only ever shrinks.
  std::vector<std::optional<FrameOutcome>> outcomes(
      static_cast<std::size_t>(max_frames));
  std::atomic<int> next_frame{0};
  std::atomic<int> stop_bound{max_frames};
  std::mutex fold_mutex;
  int folded = 0;
  std::exception_ptr failure;

  const auto n = static_cast<std::size_t>(code_.n());
  auto worker = [&]() {
    try {
      // Single-frame or batched decode path; exactly one factory is set.
      DecodeFn decode;
      BatchDecodeFn decode_batch;
      if (batch_factory_) {
        decode_batch = batch_factory_();
        if (!decode_batch)
          throw std::invalid_argument("Simulator: null batch decoder");
      } else {
        decode = factory_();
        if (!decode) throw std::invalid_argument("Simulator: null decoder");
      }
      const int claim = batch_factory_ ? batch_ : 1;
      const auto encoder = enc::make_encoder(code_);
      const channel::AwgnChannel chan(sigma);
      const int rv = code_.scheme().redundancy_version;
      const auto e = static_cast<std::size_t>(code_.transmitted_bits());
      // Per-worker buffers, reused by every frame: the claim's payloads,
      // one codeword, and the claim's LLRs, transmitted in place.
      std::vector<std::uint8_t> info(k_payload *
                                     static_cast<std::size_t>(claim));
      std::vector<std::uint8_t> codeword(n);
      std::vector<double> llrs(e * static_cast<std::size_t>(claim));

      while (true) {
        // Claim a contiguous chunk of frame indices (one frame when not
        // batched). Frames beyond a concurrently shrunk stop bound may be
        // decoded wastefully but never enter the ordered fold, so the
        // statistics stay sequential-identical.
        const int f0 = next_frame.fetch_add(claim,
                                            std::memory_order_relaxed);
        const int bound_now = stop_bound.load(std::memory_order_acquire);
        if (f0 >= bound_now) break;
        const int count = std::min(claim, bound_now - f0);

        // Counter-based substream: frame f's bits and noise depend only on
        // (point_seed, f), never on the worker (or batch slot) that runs
        // it.
        for (int i = 0; i < count; ++i) {
          const int f = f0 + i;
          util::Xoshiro256 rng(util::substream_seed(
              point_seed, static_cast<std::uint64_t>(f)));
          const std::span<std::uint8_t> frame_info{
              info.data() + static_cast<std::size_t>(i) * k_payload,
              k_payload};
          enc::random_bits(rng, frame_info);
          encoder->encode(frame_info, codeword);
          transmit_llrs_into(
              code_, codeword, config_.modulation, chan, rng, rv,
              std::span<double>(llrs).subspan(static_cast<std::size_t>(i) * e,
                                              e));
        }
        const std::span<const double> claimed(
            llrs.data(), static_cast<std::size_t>(count) * e);

        std::vector<DecodeOutcome> outs;
        if (decode_batch) {
          outs = decode_batch(claimed);
        } else {
          outs.push_back(decode(claimed));
        }
        if (outs.size() != static_cast<std::size_t>(count))
          throw std::logic_error("Simulator: batch outcome count");
        for (const DecodeOutcome& out : outs)
          if (out.bits.size() != n)
            throw std::logic_error("Simulator: decoder returned wrong size");

        const std::lock_guard<std::mutex> lock(fold_mutex);
        for (int i = 0; i < count; ++i) {
          const DecodeOutcome& out = outs[static_cast<std::size_t>(i)];
          // Information-bit errors only (systematic payload prefix —
          // known-zero fillers are stripped, not counted).
          std::uint64_t errors = 0;
          for (std::size_t b = 0; b < k_payload; ++b)
            errors += (out.bits[b] & 1) !=
                              (info[static_cast<std::size_t>(i) * k_payload +
                                    b] &
                               1)
                          ? 1
                          : 0;
          outcomes[static_cast<std::size_t>(f0 + i)] =
              FrameOutcome{errors, out.iterations, out.converged};
        }
        int bound = stop_bound.load(std::memory_order_relaxed);
        while (folded < bound &&
               outcomes[static_cast<std::size_t>(folded)]) {
          const FrameOutcome& o = *outcomes[static_cast<std::size_t>(folded)];
          point.info_errors.add_frame(o.bit_errors, k_payload);
          if (o.converged && o.bit_errors > 0) ++point.undetected_errors;
          point.iterations.add(static_cast<double>(o.iterations));
          ++point.frames;
          ++folded;
          if (folded >= config_.min_frames &&
              point.info_errors.frame_errors() >= target) {
            stop_bound.store(folded, std::memory_order_release);
            bound = folded;
          }
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(fold_mutex);
      if (!failure) failure = std::current_exception();
      stop_bound.store(0, std::memory_order_release);
    }
  };

  if (threads_ <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  if (failure) std::rethrow_exception(failure);
  return point;
}

std::vector<SweepPoint> Simulator::sweep(
    const std::vector<double>& ebn0_dbs) {
  std::vector<SweepPoint> points;
  points.reserve(ebn0_dbs.size());
  for (double db : ebn0_dbs) points.push_back(run_point(db));
  return points;
}

}  // namespace ldpc::sim
