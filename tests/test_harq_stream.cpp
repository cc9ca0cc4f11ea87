// Closed-loop HARQ over the serving layer: retransmission traffic, the
// quantised combined-frame path through the modeled farm and the live
// service, and the modeled-vs-live bit-identity acceptance lock.
//
// Contracts:
//   1. TrafficSource retransmission mechanics: push_retransmission jobs
//      preempt fresh traffic, carry session / round + 1 / next-rv, and
//      synthesise the *combined* soft state of rounds 0..r; round-0
//      frames stay byte-identical to the historical per-id synthesis.
//      The carried per-round step (make_frame(job, state)) emits exactly
//      the replayed frame — payload, codeword, round LLRs, quantised
//      codes — at every rv, channel and SIMD tier.
//   2. run_harq_modeled closes the loop on the discrete-event farm:
//      NACKs respawn as next-round jobs, deeper rounds ACK what round 0
//      could not, and per-(session, round) decode results are invariant
//      to the worker count (only timelines move).
//   3. run_harq_live drives the same loop through DecodeService via the
//      on_complete feedback hook, and its per-(session, round) results
//      are bit-identical to the modeled farm's — the decode chain
//      (combined QuantisedFrame under the chip layer order) is shared,
//      so scheduling, threads and wall-clock cannot leak into decisions.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "ldpc/channel/channel.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/stream/harq_stream.hpp"
#include "ldpc/util/rng.hpp"

namespace {

using namespace ldpc;

core::DecoderConfig stream_config() {
  core::DecoderConfig cfg;
  cfg.max_iterations = 10;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.stop_on_codeword = true;
  cfg.early_termination.enabled = true;
  return cfg;
}

/// One fading NR mode at an Es/N0 low enough that a healthy fraction of
/// round-0 attempts NACK — the population the closed loop exists for.
stream::TrafficSource fading_nr_source(std::uint64_t seed) {
  stream::TrafficSource source({.seed = seed});
  source.add_mode(codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40),
                  2.0, 1.0, channel::ChannelKind::kRayleighBlock, 0);
  source.emit_quantised(stream_config());
  return source;
}

stream::SchedulerConfig modeled_config(int workers) {
  stream::SchedulerConfig cfg;
  cfg.workers = workers;
  cfg.policy = stream::Policy::kBinned;
  cfg.max_burst = 4;
  cfg.decoder = stream_config();
  return cfg;
}

stream::ServiceConfig live_config(int workers) {
  stream::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.decoder = stream_config();
  return cfg;
}

std::vector<core::kernels::Tier> available_tiers() {
  std::set<core::kernels::Tier> seen;
  for (const auto t : {core::kernels::Tier::kScalar,
                       core::kernels::Tier::kSse42,
                       core::kernels::Tier::kAvx2,
                       core::kernels::Tier::kAvx512})
    seen.insert(core::kernels::force_tier(t));
  core::kernels::clear_forced_tier();
  return {seen.begin(), seen.end()};
}

/// Byte-for-byte frame equality: payload, codeword, the round's own
/// LLRs and the quantised (combined) codes.
void expect_same_frame(const stream::JobFrame& got,
                       const stream::JobFrame& want) {
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.codeword, want.codeword);
  EXPECT_EQ(got.llrs, want.llrs);
  EXPECT_EQ(got.quantised.type, want.quantised.type);
  EXPECT_EQ(got.quantised.n, want.quantised.n);
  EXPECT_EQ(got.quantised.bytes, want.quantised.bytes);
}

using RoundKey = std::pair<long long, int>;          // (session, round)
using RoundResult = std::tuple<std::uint64_t, bool, int, int>;  // hash,
                                                     // converged, iters, rv

std::map<RoundKey, RoundResult> by_round(const stream::StreamReport& r) {
  std::map<RoundKey, RoundResult> out;
  for (const auto& job : r.jobs) {
    const auto [it, inserted] = out.emplace(
        RoundKey{job.session, job.round},
        RoundResult{job.decision_hash, job.converged, job.iterations,
                    job.rv});
    EXPECT_TRUE(inserted) << "duplicate (session " << job.session
                          << ", round " << job.round << ")";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Contract 1: source-side retransmission mechanics.

TEST(HarqTraffic, RetransmissionsPreemptFreshTrafficWithNextRv) {
  auto source = fading_nr_source(3);
  const stream::Job first = source.next();
  EXPECT_EQ(first.session, first.id);
  EXPECT_EQ(first.round, 0);
  EXPECT_EQ(first.rv, 0);

  source.push_retransmission(first, 1000);
  const stream::Job retx = source.next();
  EXPECT_EQ(retx.session, first.session);
  EXPECT_EQ(retx.round, 1);
  EXPECT_EQ(retx.rv, source.config().rv_sequence[1]);
  EXPECT_EQ(retx.arrival_cycle, 1000);
  EXPECT_EQ(retx.id, first.id + 1);  // retransmissions consume stream ids

  // Earliest arrival pops first regardless of push order.
  source.push_retransmission(retx, 900);
  stream::Job a = retx;
  a.session = 77;
  source.push_retransmission(a, 500);
  EXPECT_EQ(source.next().session, 77);
  EXPECT_EQ(source.next().session, first.session);

  source.reset();
  EXPECT_EQ(source.next().id, 0);  // reset drops pending retransmissions
  EXPECT_EQ(source.next().round, 0);
}

TEST(HarqTraffic, DegenerateSchemeModesChaseCombine) {
  stream::TrafficSource source({.seed = 5});
  source.add_mode(codes::make_code({codes::Standard::kWimax80216e,
                                    codes::Rate::kR12, 24}),
                  1.0);
  source.emit_quantised(stream_config());
  EXPECT_EQ(source.rv_for_round(0, 0), 0);
  EXPECT_EQ(source.rv_for_round(0, 1), 0);  // rv forced to 0: Chase
  EXPECT_EQ(source.rv_for_round(0, 2), 0);
  const stream::Job job = source.next();
  source.push_retransmission(job, 0);
  EXPECT_EQ(source.next().rv, 0);
}

TEST(HarqTraffic, Round0FramesKeepHistoricalSynthesis) {
  // The HARQ refactor must not move a single byte of round-0 traffic:
  // the frame equals the legacy per-id derivation (content generator
  // substream_seed(seed, 2 id + 1): payload bits, then the AWGN stream).
  stream::TrafficSource source({.seed = 11});
  const auto code = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
  source.add_mode(codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0),
                  2.5);
  const stream::Job job = source.next();
  const stream::JobFrame frame = source.make_frame(job);

  util::Xoshiro256 rng(util::substream_seed(
      11, 2ULL * static_cast<std::uint64_t>(job.id) + 1));
  std::vector<std::uint8_t> info(
      static_cast<std::size_t>(code.payload_bits()));
  enc::random_bits(rng, info);
  const auto cw = enc::make_encoder(code)->encode(info);
  const double sigma = channel::ebn0_to_sigma(
      2.5, code.effective_rate(), channel::Modulation::kBpsk);
  const auto llrs = sim::transmit_llrs(code, cw,
                                       channel::Modulation::kBpsk, sigma,
                                       rng);
  EXPECT_EQ(frame.payload, info);
  EXPECT_EQ(frame.codeword, cw);
  EXPECT_EQ(frame.llrs, llrs);
}

TEST(HarqTraffic, CombinedRoundsNeedQuantisedEmission) {
  stream::TrafficSource source({.seed = 2});
  source.add_mode(codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40),
                  2.0);
  stream::Job job = source.next();
  job.round = 1;
  EXPECT_THROW(source.make_frame(job), std::logic_error);
}

TEST(HarqTraffic, CombinedFrameAccumulatesEveryRound) {
  auto source = fading_nr_source(13);
  const auto& code = source.code(0);
  stream::Job job = source.next();
  const stream::JobFrame r0 = source.make_frame(job);
  stream::Job retx = job;
  retx.round = 2;
  const stream::JobFrame r2 = source.make_frame(retx);
  // Same session, same transport block...
  EXPECT_EQ(r0.payload, r2.payload);
  EXPECT_EQ(r0.codeword, r2.codeword);
  // ...but the combined frame differs from the one-shot quantisation
  // (three rounds of soft state, two of them beyond the rv0 window).
  ASSERT_EQ(r2.quantised.n, code.n());
  EXPECT_NE(r0.quantised.bytes, r2.quantised.bytes);
  // Round 2's own LLRs ride along for diagnostics, at the rv2 window.
  EXPECT_EQ(r2.llrs.size(),
            static_cast<std::size_t>(code.transmitted_bits()));
  EXPECT_NE(r0.llrs, r2.llrs);
}

TEST(HarqTraffic, CarriedRoundsEqualReplayedFramesOnEveryTier) {
  // One carried step per round must reproduce the pure replay byte for
  // byte: rv 0, 2, 3, 1 and on around the sequence, under AWGN and block
  // fading, at every SIMD tier quantise_combined dispatches to.
  for (const auto kind : {channel::ChannelKind::kAwgn,
                          channel::ChannelKind::kRayleighBlock}) {
    stream::TrafficSource source({.seed = 23});
    source.add_mode(codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40),
                    2.0, 1.0, kind, 0);
    source.emit_quantised(stream_config());
    for (const auto tier : available_tiers()) {
      ASSERT_EQ(core::kernels::force_tier(tier), tier);
      source.reset();
      for (int s = 0; s < 3; ++s) {
        const stream::Job head = source.next();
        stream::SessionState state;
        for (int r = 0; r <= 5; ++r) {
          SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                       " tier=" + core::kernels::to_string(tier) +
                       " session=" + std::to_string(head.session) +
                       " round=" + std::to_string(r));
          stream::Job job = head;
          job.round = r;
          job.rv = source.rv_for_round(job.mode, r);
          const stream::JobFrame carried = source.make_frame(job, state);
          expect_same_frame(carried, source.make_frame(job));
          EXPECT_EQ(state.round, r);
          EXPECT_EQ(state.soft.rounds(), r + 1);
        }
      }
    }
    core::kernels::clear_forced_tier();
  }
}

TEST(HarqTraffic, CarriedStepNeedsThePreviousRoundOfTheSession) {
  auto source = fading_nr_source(29);
  const stream::Job a = source.next();
  const stream::Job b = source.next();
  stream::SessionState state;
  (void)source.make_frame(a, state);
  stream::Job skip = a;
  skip.round = 2;
  EXPECT_THROW(source.make_frame(skip, state), std::invalid_argument);
  stream::Job foreign = b;
  foreign.round = 1;
  EXPECT_THROW(source.make_frame(foreign, state), std::invalid_argument);
  EXPECT_EQ(state.session, a.session);  // a refused step leaves it as is
  EXPECT_EQ(state.round, 0);
  stream::Job next = a;
  next.round = 1;
  expect_same_frame(source.make_frame(next, state), source.make_frame(next));

  // Without quantised emission a carried round > 0 is refused too.
  stream::TrafficSource plain({.seed = 29});
  plain.add_mode(codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40), 2.0);
  stream::SessionState plain_state;
  stream::Job head = plain.next();
  (void)plain.make_frame(head, plain_state);
  head.round = 1;
  EXPECT_THROW(plain.make_frame(head, plain_state), std::logic_error);
}

// ---------------------------------------------------------------------------
// Contract 2: the modeled closed loop.

TEST(HarqModeled, ClosedLoopDeliversWhatRound0CouldNot) {
  auto source = fading_nr_source(17);
  const auto report = stream::run_harq_modeled(
      source, modeled_config(2), 32, {.max_rounds = 3});
  const auto& h = report.harq;
  ASSERT_TRUE(h.enabled);
  EXPECT_EQ(h.sessions, 32);
  ASSERT_EQ(h.rounds.size(), 3u);
  EXPECT_EQ(h.rounds[0].attempts, 32);
  // The fading channel must actually produce NACKs at this Es/N0 (the
  // fixture's reason to exist) ...
  ASSERT_GT(h.rounds[1].attempts, 0);
  EXPECT_EQ(h.rounds[1].attempts, 32 - h.rounds[0].acks);
  // ... and combining must convert some of them.
  EXPECT_GT(h.delivered, h.rounds[0].acks);
  EXPECT_GT(h.goodput(), 0.0);
  EXPECT_LT(h.goodput(), source.code(0).effective_rate());
  // Conservation: every attempt is a job record; payload ledgers agree.
  long long attempts = 0;
  for (const auto& r : h.rounds) attempts += r.attempts;
  EXPECT_EQ(static_cast<long long>(report.jobs.size()), attempts);
  EXPECT_EQ(report.totals.frames, attempts);
}

TEST(HarqModeled, PerRoundResultsInvariantToWorkerCount) {
  auto s1 = fading_nr_source(23);
  auto s3 = fading_nr_source(23);
  const auto r1 = stream::run_harq_modeled(s1, modeled_config(1), 24,
                                           {.max_rounds = 3});
  const auto r3 = stream::run_harq_modeled(s3, modeled_config(3), 24,
                                           {.max_rounds = 3});
  EXPECT_EQ(by_round(r1), by_round(r3));
  EXPECT_EQ(r1.harq.delivered, r3.harq.delivered);
  EXPECT_EQ(r1.harq.tx_bits_sent, r3.harq.tx_bits_sent);
  EXPECT_EQ(r1.harq.payload_bits_delivered,
            r3.harq.payload_bits_delivered);
}

TEST(HarqModeled, FeedbackDelayPushesRetransmissionArrivals) {
  auto fast = fading_nr_source(29);
  auto slow = fading_nr_source(29);
  const auto rf = stream::run_harq_modeled(
      fast, modeled_config(2), 16,
      {.max_rounds = 2, .feedback_delay_cycles = 0});
  const auto rs = stream::run_harq_modeled(
      slow, modeled_config(2), 16,
      {.max_rounds = 2, .feedback_delay_cycles = 500'000});
  // Decode results cannot move...
  EXPECT_EQ(by_round(rf), by_round(rs));
  // ...but the delayed loop's retransmissions land later on the clock.
  long long fast_last = 0, slow_last = 0;
  for (const auto& j : rf.jobs)
    if (j.round > 0) fast_last = std::max(fast_last, j.arrival_cycle);
  for (const auto& j : rs.jobs)
    if (j.round > 0) slow_last = std::max(slow_last, j.arrival_cycle);
  ASSERT_GT(fast_last, 0);
  EXPECT_GE(slow_last, fast_last + 500'000);
  EXPECT_GE(rs.makespan_cycles, rf.makespan_cycles);
}

// ---------------------------------------------------------------------------
// Contract 3: the live closed loop and the cross-path acceptance lock.

TEST(HarqLive, ClosedLoopMatchesModeledBitForBit) {
  auto modeled_source = fading_nr_source(31);
  auto live_source = fading_nr_source(31);
  const auto modeled = stream::run_harq_modeled(
      modeled_source, modeled_config(2), 24, {.max_rounds = 3});
  const auto live = stream::run_harq_live(live_source, live_config(2), 24,
                                          {.max_rounds = 3});
  // Per-(session, round): same hash, same convergence, same iteration
  // count, same rv — the decode chain is shared; only timelines differ.
  EXPECT_EQ(by_round(modeled), by_round(live));
  EXPECT_EQ(modeled.harq.delivered, live.harq.delivered);
  EXPECT_EQ(modeled.harq.tx_bits_sent, live.harq.tx_bits_sent);
  EXPECT_EQ(modeled.harq.payload_bits_delivered,
            live.harq.payload_bits_delivered);
  for (std::size_t r = 0; r < modeled.harq.rounds.size(); ++r) {
    EXPECT_EQ(modeled.harq.rounds[r].attempts,
              live.harq.rounds[r].attempts);
    EXPECT_EQ(modeled.harq.rounds[r].acks, live.harq.rounds[r].acks);
  }
  // Each open session that may go again carries one soft state; every
  // one is released by the time the driver returns (it checks).
  EXPECT_GE(live.harq.peak_carried, 1);
  EXPECT_LE(live.harq.peak_carried, live.harq.peak_open);
  EXPECT_LE(live.harq.peak_open, 24);
  EXPECT_GE(modeled.harq.peak_carried, 1);
  EXPECT_LE(modeled.harq.peak_carried,
            modeled.harq.rounds[1].attempts + modeled_config(2).max_burst);
  // The live payload check ran against the carried codewords.
  for (const auto& job : live.jobs) {
    if (job.converged) {
      EXPECT_TRUE(job.payload_ok) << job.id;
    }
  }
}

TEST(HarqLive, PerRoundResultsInvariantToWorkerCount) {
  auto s1 = fading_nr_source(37);
  auto s4 = fading_nr_source(37);
  const auto r1 = stream::run_harq_live(s1, live_config(1), 24,
                                        {.max_rounds = 3});
  const auto r4 = stream::run_harq_live(s4, live_config(4), 24,
                                        {.max_rounds = 3});
  EXPECT_EQ(by_round(r1), by_round(r4));
  EXPECT_EQ(r1.harq.delivered, r4.harq.delivered);
}

TEST(HarqLive, RejectsAForeignCompletionHook) {
  auto source = fading_nr_source(41);
  stream::ServiceConfig cfg = live_config(1);
  cfg.on_complete = [](const stream::StreamJob&) {};
  EXPECT_THROW(stream::run_harq_live(source, cfg, 4, {.max_rounds = 2}),
               std::invalid_argument);
}

TEST(HarqStream, RequiresQuantisedEmission) {
  stream::TrafficSource source({.seed = 43});
  source.add_mode(codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40),
                  2.0, 1.0, channel::ChannelKind::kRayleighBlock, 0);
  EXPECT_THROW(stream::run_harq_modeled(source, modeled_config(1), 4,
                                        {.max_rounds = 2}),
               std::logic_error);
}

}  // namespace
