#include "ldpc/sim/harq_link.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ldpc/core/decoder.hpp"
#include "ldpc/core/harq.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/util/rng.hpp"

namespace ldpc::sim {

McsPolicy::McsPolicy(int num_modes, Config config)
    : num_modes_(num_modes), config_(config), mode_(config.initial_mode) {
  if (num_modes <= 0) throw std::invalid_argument("McsPolicy: no modes");
  if (config.initial_mode < 0 || config.initial_mode >= num_modes)
    throw std::invalid_argument("McsPolicy: initial mode");
  if (config.up_after_acks <= 0)
    throw std::invalid_argument("McsPolicy: up_after_acks");
}

void McsPolicy::report(bool delivered, int rounds) {
  if (!delivered) {
    // Delivery failure: step towards the most robust mode and restart the
    // clean streak.
    if (mode_ > 0) --mode_;
    streak_ = 0;
    return;
  }
  if (rounds > 1) {
    // Delivered but needed HARQ: hold the mode, the link is marginal.
    streak_ = 0;
    return;
  }
  if (++streak_ >= config_.up_after_acks && mode_ + 1 < num_modes_) {
    ++mode_;
    streak_ = 0;
  }
}

double LinkPoint::cumulative_ebn0_db() const {
  if (!payload_bits_delivered || !tx_bits_sent) return 0.0;
  return esn0_db + 10.0 * std::log10(static_cast<double>(tx_bits_sent) /
                                     static_cast<double>(
                                         payload_bits_delivered));
}

namespace {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

/// Per-user tallies gathered off-thread; folded into the LinkPoint in
/// user order so the statistics are bit-identical at any thread count.
struct UserTally {
  long long blocks = 0;
  long long delivered = 0;
  long long undetected = 0;
  long long payload_bits_delivered = 0;
  long long tx_bits_sent = 0;
  std::vector<RoundStats> rounds;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> block_errors;
  std::vector<double> rounds_to_ack;
  std::vector<double> iterations;
};

}  // namespace

LinkSimulator::LinkSimulator(std::vector<const codes::QCCode*> modes,
                             core::DecoderConfig decoder_config,
                             HarqConfig config)
    : modes_(std::move(modes)), decoder_config_(decoder_config),
      config_(config), threads_(resolve_threads(config.threads)) {
  if (modes_.empty())
    throw std::invalid_argument("LinkSimulator: no modes");
  for (const codes::QCCode* code : modes_)
    if (!code) throw std::invalid_argument("LinkSimulator: null mode");
  if (config_.max_rounds < 1)
    throw std::invalid_argument("LinkSimulator: max_rounds");
  for (int rv : config_.rv_sequence)
    if (rv < 0 || rv >= 4)
      throw std::invalid_argument("LinkSimulator: rv_sequence");
  if (config_.users < 1 || config_.blocks_per_user < 1)
    throw std::invalid_argument("LinkSimulator: workload");
  if (config_.threads < 0)
    throw std::invalid_argument("LinkSimulator: threads");
  // Validates the policy config eagerly (each user builds its own copy).
  McsPolicy probe(static_cast<int>(modes_.size()), config_.mcs);
  (void)probe;
}

LinkPoint LinkSimulator::run_point(double esn0_db) {
  const auto esn0_key =
      static_cast<std::uint64_t>(static_cast<long long>(esn0_db * 1000.0));
  const std::uint64_t point_seed =
      util::substream_seed(config_.seed, esn0_key);
  // Es/N0 per transmitted coded bit: rate-free, so one sigma serves every
  // mode of the ladder and every retransmission round.
  const double sigma = channel::esn0_to_sigma(esn0_db, config_.modulation);

  LinkPoint point;
  point.esn0_db = esn0_db;
  point.rounds.assign(static_cast<std::size_t>(config_.max_rounds),
                      RoundStats{});

  const int users = config_.users;
  std::vector<UserTally> tallies(static_cast<std::size_t>(users));
  std::atomic<int> next_user{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;

  auto worker = [&]() {
    try {
      const auto chan = channel::make_channel(config_.channel, sigma,
                                              config_.coherence_bits);
      // Lazily built per-mode machinery, private to this worker.
      std::vector<std::unique_ptr<core::ReconfigurableDecoder>> decoders(
          modes_.size());
      std::vector<std::unique_ptr<enc::Encoder>> encoders(modes_.size());
      core::HarqSoftBuffer soft;
      std::vector<std::int32_t> raw;
      std::vector<double> llrs;  // one round's LLRs, reused
      const core::DatapathTraits<std::int32_t> traits{decoder_config_};

      while (true) {
        const int u = next_user.fetch_add(1, std::memory_order_relaxed);
        if (u >= users) break;
        const std::uint64_t user_seed =
            util::substream_seed(point_seed, static_cast<std::uint64_t>(u));
        UserTally& tally = tallies[static_cast<std::size_t>(u)];
        tally.rounds.assign(static_cast<std::size_t>(config_.max_rounds),
                            RoundStats{});
        McsPolicy policy(static_cast<int>(modes_.size()), config_.mcs);

        for (int b = 0; b < config_.blocks_per_user; ++b) {
          const int m = config_.adapt_mcs ? policy.mode()
                                          : config_.mcs.initial_mode;
          const codes::QCCode& code = *modes_[static_cast<std::size_t>(m)];
          auto& decoder = decoders[static_cast<std::size_t>(m)];
          if (!decoder)
            decoder = std::make_unique<core::ReconfigurableDecoder>(
                code, decoder_config_);
          auto& encoder = encoders[static_cast<std::size_t>(m)];
          if (!encoder) encoder = enc::make_encoder(code);

          const std::uint64_t block_seed =
              util::substream_seed(user_seed, static_cast<std::uint64_t>(b));
          util::Xoshiro256 content_rng(util::substream_seed(block_seed, 0));
          const auto k_payload =
              static_cast<std::size_t>(code.payload_bits());
          std::vector<std::uint8_t> info(k_payload);
          enc::random_bits(content_rng, info);
          const auto cw = encoder->encode(info);

          soft.reset(code);
          raw.assign(static_cast<std::size_t>(code.n()), 0);
          llrs.resize(static_cast<std::size_t>(code.transmitted_bits()));
          ++tally.blocks;
          bool acked = false;
          int rounds_used = 0;
          core::FixedDecodeResult last{};
          for (int r = 0; r < config_.max_rounds && !acked; ++r) {
            const int rv = config_.rv_sequence[static_cast<std::size_t>(
                r % static_cast<int>(config_.rv_sequence.size()))];
            util::Xoshiro256 round_rng(util::substream_seed(
                block_seed, static_cast<std::uint64_t>(r) + 1));
            transmit_llrs_into(code, cw, config_.modulation, *chan,
                               round_rng, rv, llrs);
            tally.tx_bits_sent += code.transmitted_bits();
            if (!config_.combine) soft.reset(code);
            soft.add_round(code, llrs, rv);
            core::deposit_combined(code, traits, soft,
                                   std::span<std::int32_t>(raw));
            last = decoder->decode_raw(raw);
            rounds_used = r + 1;
            acked = last.converged;
            RoundStats& rs = tally.rounds[static_cast<std::size_t>(r)];
            ++rs.attempts;
            if (!acked) ++rs.failures;
            tally.iterations.push_back(static_cast<double>(last.iterations));
          }

          std::uint64_t errors = 0;
          for (std::size_t i = 0; i < k_payload; ++i)
            errors += (last.bits[i] & 1) != (info[i] & 1) ? 1 : 0;
          tally.block_errors.emplace_back(errors, k_payload);
          if (acked) {
            ++tally.delivered;
            tally.payload_bits_delivered +=
                static_cast<long long>(k_payload);
            tally.rounds_to_ack.push_back(static_cast<double>(rounds_used));
            if (errors > 0) ++tally.undetected;
          }
          if (config_.adapt_mcs) policy.report(acked, rounds_used);
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
      next_user.store(users, std::memory_order_release);
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

  // Ordered fold: user 0's blocks enter the statistics first, then user
  // 1's, ... — the same sequence a single-threaded run would produce.
  for (const UserTally& tally : tallies) {
    point.blocks += tally.blocks;
    point.delivered += tally.delivered;
    point.undetected += tally.undetected;
    point.payload_bits_delivered += tally.payload_bits_delivered;
    point.tx_bits_sent += tally.tx_bits_sent;
    for (std::size_t r = 0; r < tally.rounds.size(); ++r) {
      point.rounds[r].attempts += tally.rounds[r].attempts;
      point.rounds[r].failures += tally.rounds[r].failures;
    }
    for (const auto& [errors, bits] : tally.block_errors)
      point.info_errors.add_frame(errors, bits);
    for (double r : tally.rounds_to_ack) point.rounds_to_ack.add(r);
    for (double it : tally.iterations) point.iterations.add(it);
  }
  return point;
}

std::vector<LinkPoint> LinkSimulator::sweep(
    const std::vector<double>& esn0_dbs) {
  std::vector<LinkPoint> points;
  points.reserve(esn0_dbs.size());
  for (double db : esn0_dbs) points.push_back(run_point(db));
  return points;
}

}  // namespace ldpc::sim
