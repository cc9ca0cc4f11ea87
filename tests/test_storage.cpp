// Storage read-path workload: the NAND read-retry ladder, CRC-aided
// early termination, and the closed-loop escalation drivers through both
// serving paths.
//
// Contracts:
//   1. NandReadLadder mechanics: config validation, pure/deterministic
//      reads, hard-read two-level LLRs, synth() rung clamping.
//   2. CRC-aided stopping semantics at the engine level (observed through
//      the modeled farm): a codeword-valid frame with a failing CRC is
//      vetoed and keeps iterating to the cap; when the CRC passes at the
//      first stop, results are bit-identical to the plain (kNone) stop
//      rules — CRC-aided ET costs nothing on clean frames.
//   3. ReadRetryController reference model: deeper ladders strictly
//      reduce UBER, the ledger conserves its per-rung decomposition, and
//      reruns are deterministic.
//   4. run_storage_modeled == run_storage_live, per (frame, rung), across
//      worker counts and across the int16 and int8 fused lane types; the
//      path-independent ledger fields agree exactly; and the streaming
//      drivers agree with the single-frame reference controller.
//      A synthesis failure on a worker reaches the live caller promptly.
//      The carried per-rung step equals the replayed frame byte for byte
//      (every rung, clamped rounds, every tier); the drivers' carried
//      state is bounded by the open pages; back-to-back live passes on
//      one source keep ids unique and serve their pages like a fresh run.
//   5. Driver/controller validation errors.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "ldpc/codes/registry.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/storage/read_retry.hpp"
#include "ldpc/storage/storage_stream.hpp"
#include "ldpc/util/rng.hpp"

namespace {

using namespace ldpc;
using core::FrameCrc;

codes::QCCode storage_code() {
  return codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
}

core::DecoderConfig storage_decoder(FrameCrc crc = FrameCrc::kCrc16) {
  core::DecoderConfig cfg;
  cfg.max_iterations = 10;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.stop_on_codeword = true;
  cfg.early_termination.enabled = true;
  cfg.frame_crc = crc;
  cfg.crc_flip_budget = crc == FrameCrc::kNone ? 0 : 4;
  return cfg;
}

/// The int8-lane variant: a strictly 8-bit APP path admits int8 rails.
core::DecoderConfig strict_storage_decoder() {
  core::DecoderConfig cfg = storage_decoder();
  cfg.app_extra_bits = 0;
  return cfg;
}

/// The default ladder at a programming spread noisy enough that a decent
/// fraction of frames fail the hard read and climb the ladder.
storage::NandLadderConfig test_ladder() {
  storage::NandLadderConfig cfg = storage::default_ladder();
  cfg.program_sigma = 0.55;
  return cfg;
}

stream::TrafficSource storage_source(std::uint64_t seed,
                                     const storage::NandLadderConfig& ladder,
                                     const core::DecoderConfig& decoder,
                                     FrameCrc crc = FrameCrc::kCrc16) {
  stream::TrafficSource source({.seed = seed});
  source.add_custom_mode(storage_code(), 1.0,
                         storage::NandReadLadder(ladder).synth(), crc);
  source.emit_quantised(decoder);
  return source;
}

stream::SchedulerConfig modeled_config(int workers,
                                       const core::DecoderConfig& decoder) {
  stream::SchedulerConfig cfg;
  cfg.workers = workers;
  cfg.policy = stream::Policy::kBinned;
  cfg.max_burst = 4;
  cfg.decoder = decoder;
  return cfg;
}

stream::ServiceConfig live_config(int workers,
                                  const core::DecoderConfig& decoder) {
  stream::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.decoder = decoder;
  return cfg;
}

using RungKey = std::pair<long long, int>;  // (session, rung)
// hash, iterations, converged, crc_ok, crc_repaired, payload_bit_errors
using RungResult = std::tuple<std::uint64_t, int, bool, bool, bool, int>;

std::map<RungKey, RungResult> by_rung(const stream::StreamReport& r) {
  std::map<RungKey, RungResult> out;
  for (const auto& job : r.jobs) {
    const auto [it, inserted] = out.emplace(
        RungKey{job.session, job.round},
        RungResult{job.decision_hash, job.iterations, job.converged,
                   job.crc_ok, job.crc_repaired, job.payload_bit_errors});
    EXPECT_TRUE(inserted) << "duplicate (session " << job.session
                          << ", rung " << job.round << ")";
  }
  return out;
}

/// Path-independent ledger fields (everything but decode_cycles, which
/// only the modeled clock fills).
void expect_ledgers_agree(const storage::RetryLadderLedger& a,
                          const storage::RetryLadderLedger& b) {
  ASSERT_EQ(a.rungs.size(), b.rungs.size());
  for (std::size_t r = 0; r < a.rungs.size(); ++r) {
    EXPECT_EQ(a.rungs[r].reads, b.rungs[r].reads) << "rung " << r;
    EXPECT_EQ(a.rungs[r].read_latency_cycles,
              b.rungs[r].read_latency_cycles);
    EXPECT_EQ(a.rungs[r].decode_iterations, b.rungs[r].decode_iterations);
    EXPECT_EQ(a.rungs[r].crc_rejects, b.rungs[r].crc_rejects);
    EXPECT_EQ(a.rungs[r].delivered, b.rungs[r].delivered);
  }
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.payload_bits, b.payload_bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.read_latency_cycles, b.read_latency_cycles);
}

void expect_ledger_conserves(const storage::RetryLadderLedger& ledger) {
  long long delivered = 0, latency = 0;
  for (const auto& rung : ledger.rungs) {
    delivered += rung.delivered;
    latency += rung.read_latency_cycles;
  }
  EXPECT_EQ(delivered, ledger.delivered);
  EXPECT_EQ(latency, ledger.read_latency_cycles);
  EXPECT_LE(ledger.delivered, ledger.frames);
  EXPECT_LE(ledger.repaired, ledger.delivered);
}

// ---------------------------------------------------------------------------
// Contract 1: ladder mechanics.

TEST(NandLadder, ValidatesConfig) {
  storage::NandLadderConfig cfg = storage::default_ladder();
  EXPECT_NO_THROW(storage::NandReadLadder{cfg});

  storage::NandLadderConfig bad = cfg;
  bad.rungs.clear();
  EXPECT_THROW(storage::NandReadLadder{bad}, std::invalid_argument);
  bad = cfg;
  bad.rungs[1].levels = 4;  // even soft read has no centre bin
  EXPECT_THROW(storage::NandReadLadder{bad}, std::invalid_argument);
  bad = cfg;
  bad.rungs[0].latency_cycles = -1;
  EXPECT_THROW(storage::NandReadLadder{bad}, std::invalid_argument);
  bad = cfg;
  bad.program_sigma = 0.0;
  EXPECT_THROW(storage::NandReadLadder{bad}, std::invalid_argument);
}

TEST(NandLadder, ReadsArePureAndHardReadIsTwoLevel) {
  const auto code = storage_code();
  const storage::NandReadLadder ladder(storage::default_ladder());
  util::Xoshiro256 rng(3);
  std::vector<std::uint8_t> codeword(static_cast<std::size_t>(code.n()));
  for (auto& b : codeword) b = 0;  // all-zero is a codeword

  const auto a = ladder.read(code, codeword, 77, 0);
  const auto b = ladder.read(code, codeword, 77, 0);
  EXPECT_EQ(a, b) << "read() must be pure in its arguments";
  ASSERT_EQ(a.size(), codeword.size());

  std::set<double> levels(a.begin(), a.end());
  EXPECT_LE(levels.size(), 2u) << "hard read emits +/-constant LLRs";
  for (const double llr : a)
    EXPECT_NEAR(std::abs(llr), std::abs(a[0]), 1e-9);

  const auto soft = ladder.read(code, codeword, 77, 2);
  EXPECT_LE(std::set<double>(soft.begin(), soft.end()).size(), 5u)
      << "5-level read emits at most 5 distinct LLRs";
  EXPECT_NE(soft, a);

  // Rungs are distinct observations of the same cells.
  EXPECT_NE(ladder.read(code, codeword, 77, 0),
            ladder.read(code, codeword, 78, 0));

  EXPECT_THROW(ladder.read(code, codeword, 77, ladder.rungs()),
               std::invalid_argument);
  EXPECT_EQ(ladder.rung_latency_cycles(0),
            storage::default_ladder().rungs[0].latency_cycles);
  EXPECT_THROW(ladder.rung_latency_cycles(-1), std::invalid_argument);

  // synth() clamps over-budget rounds to the deepest rung.
  const auto synth = ladder.synth();
  EXPECT_EQ(synth(code, codeword, 77, 99),
            ladder.read(code, codeword, 77, ladder.rungs() - 1));
}

// ---------------------------------------------------------------------------
// Contract 2: CRC-aided stopping semantics.

TEST(CrcAidedEt, FailingCrcVetoesTheStopAndKeepsIterating) {
  // Frames WITHOUT an embedded CRC decoded under a CRC-checking config:
  // the decoder reaches the true codeword, but the payload tail is random
  // so the CRC (almost surely) fails — the stop is vetoed, the frame
  // iterates to the cap, and crc_ok stays false.
  const core::DecoderConfig checked = storage_decoder(FrameCrc::kCrc16);
  auto source =
      storage_source(11, test_ladder(), checked, FrameCrc::kNone);
  stream::StreamScheduler scheduler(source, modeled_config(1, checked));
  const stream::StreamReport report = scheduler.run(8);

  auto plain_source = storage_source(
      11, test_ladder(), storage_decoder(FrameCrc::kNone), FrameCrc::kNone);
  stream::StreamScheduler plain_scheduler(
      plain_source, modeled_config(1, storage_decoder(FrameCrc::kNone)));
  const stream::StreamReport plain = plain_scheduler.run(8);

  int vetoed = 0;
  for (std::size_t j = 0; j < report.jobs.size(); ++j) {
    const auto& rec = report.jobs[j];
    EXPECT_FALSE(rec.crc_ok) << "random tails cannot check out";
    if (plain.jobs[j].converged &&
        plain.jobs[j].iterations < checked.max_iterations) {
      // The plain rules stopped early on this frame; the CRC veto must
      // have kept it running to the cap instead.
      EXPECT_EQ(rec.iterations, checked.max_iterations);
      ++vetoed;
    }
  }
  EXPECT_GT(vetoed, 0) << "operating point must stop some frames early";
}

TEST(CrcAidedEt, BitIdenticalToPlainStopsWhenCrcPasses) {
  // Frames WITH the CRC embedded: whenever the plain (kNone) rules
  // stopped on a clean decode (payload matches, so the CRC passes at that
  // first stop), the CRC-aided run must produce the identical result at
  // the identical iteration — the gate only reads, never perturbs.
  auto plain_source = storage_source(13, test_ladder(),
                                     storage_decoder(FrameCrc::kNone));
  stream::StreamScheduler plain_scheduler(
      plain_source, modeled_config(1, storage_decoder(FrameCrc::kNone)));
  const stream::StreamReport plain = plain_scheduler.run(30);

  auto checked_source = storage_source(13, test_ladder(), storage_decoder());
  stream::StreamScheduler checked_scheduler(
      checked_source, modeled_config(1, storage_decoder()));
  const stream::StreamReport checked = checked_scheduler.run(30);

  int clean = 0;
  for (std::size_t j = 0; j < plain.jobs.size(); ++j) {
    if (!plain.jobs[j].converged || !plain.jobs[j].payload_ok) continue;
    ++clean;
    EXPECT_EQ(checked.jobs[j].decision_hash, plain.jobs[j].decision_hash);
    EXPECT_EQ(checked.jobs[j].iterations, plain.jobs[j].iterations);
    EXPECT_TRUE(checked.jobs[j].crc_ok);
    EXPECT_FALSE(checked.jobs[j].crc_repaired);
  }
  EXPECT_GT(clean, 0) << "operating point must deliver some hard reads";
}

// ---------------------------------------------------------------------------
// Contract 3: the reference controller.

TEST(ReadRetry, DeeperLaddersStrictlyReduceUberAndLedgerConserves) {
  const auto code = storage_code();
  const storage::NandLadderConfig full = test_ladder();
  constexpr int kFrames = 60;

  std::vector<storage::RetryLadderLedger> ledgers;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2},
                                  full.rungs.size()}) {
    storage::ReadRetryConfig cfg;
    cfg.ladder = full;
    cfg.ladder.rungs.resize(depth);
    cfg.decoder = storage_decoder();
    storage::ReadRetryController controller(cfg);
    controller.attach(code);
    storage::RetryLadderLedger ledger;
    for (int f = 0; f < kFrames; ++f)
      controller.run_frame(util::substream_seed(21, 2ULL * f + 1), ledger);
    expect_ledger_conserves(ledger);
    EXPECT_EQ(ledger.frames, kFrames);
    EXPECT_EQ(ledger.payload_bits,
              static_cast<long long>(kFrames) * code.payload_bits());
    ledgers.push_back(ledger);
  }

  EXPECT_GT(ledgers.front().uber(), 0.0)
      << "the hard read alone must leave residual errors at this spread";
  for (std::size_t d = 1; d < ledgers.size(); ++d) {
    EXPECT_LE(ledgers[d].uber(), ledgers[d - 1].uber());
    EXPECT_GE(ledgers[d].delivered, ledgers[d - 1].delivered);
    EXPECT_GE(ledgers[d].mean_read_latency_cycles(),
              ledgers[d - 1].mean_read_latency_cycles());
  }
  EXPECT_LT(ledgers.back().uber(), ledgers.front().uber())
      << "the full ladder must strictly beat the hard read";
  EXPECT_GT(ledgers.back().mean_read_latency_cycles(),
            ledgers.front().mean_read_latency_cycles())
      << "escalation must cost read latency";

  // Determinism: an identical rerun reproduces the ledger exactly.
  storage::ReadRetryConfig cfg;
  cfg.ladder = full;
  cfg.decoder = storage_decoder();
  storage::ReadRetryController controller(cfg);
  controller.attach(code);
  storage::RetryLadderLedger rerun;
  for (int f = 0; f < kFrames; ++f)
    controller.run_frame(util::substream_seed(21, 2ULL * f + 1), rerun);
  expect_ledgers_agree(ledgers.back(), rerun);
  EXPECT_EQ(ledgers.back().rungs[0].decode_cycles,
            rerun.rungs[0].decode_cycles);
}

TEST(NandLadder, CarriedRungsEqualReplayedFramesOnEveryTier) {
  // The carried step folds one rung read per round into the session's
  // soft state; the replay re-reads every rung. Rounds past the deepest
  // rung (the synth clamps them to it) included, on both fused lane
  // types and at every SIMD tier.
  const storage::NandLadderConfig ladder = test_ladder();
  const int rounds = storage::NandReadLadder(ladder).rungs() + 2;
  std::set<core::kernels::Tier> tiers;
  for (const auto t : {core::kernels::Tier::kScalar,
                       core::kernels::Tier::kSse42,
                       core::kernels::Tier::kAvx2,
                       core::kernels::Tier::kAvx512})
    tiers.insert(core::kernels::force_tier(t));
  for (const core::DecoderConfig& decoder :
       {storage_decoder(), strict_storage_decoder()}) {
    auto source = storage_source(53, ladder, decoder);
    for (const auto tier : tiers) {
      ASSERT_EQ(core::kernels::force_tier(tier), tier);
      source.reset();
      for (int s = 0; s < 4; ++s) {
        const stream::Job head = source.next();
        stream::SessionState state;
        for (int r = 0; r < rounds; ++r) {
          SCOPED_TRACE("tier=" + core::kernels::to_string(tier) +
                       " page=" + std::to_string(head.session) +
                       " rung=" + std::to_string(r));
          stream::Job job = head;
          job.round = r;
          const stream::JobFrame carried = source.make_frame(job, state);
          const stream::JobFrame replayed = source.make_frame(job);
          EXPECT_EQ(carried.payload, replayed.payload);
          EXPECT_EQ(carried.codeword, replayed.codeword);
          EXPECT_EQ(carried.llrs, replayed.llrs);
          EXPECT_EQ(carried.quantised.type, replayed.quantised.type);
          EXPECT_EQ(carried.quantised.bytes, replayed.quantised.bytes);
        }
      }
    }
  }
  core::kernels::clear_forced_tier();
}

// ---------------------------------------------------------------------------
// Contract 4: modeled == live == reference controller.

TEST(StorageStream, ModeledMatchesLiveAcrossWorkersAndLaneTypes) {
  constexpr long long kFrames = 40;
  const storage::NandLadderConfig ladder = test_ladder();
  storage::StorageStreamConfig storage_cfg;
  storage_cfg.ladder = ladder;

  struct Lane {
    const char* name;
    core::DecoderConfig decoder;
  };
  for (const Lane& lane : {Lane{"int16", storage_decoder()},
                           Lane{"int8", strict_storage_decoder()}}) {
    SCOPED_TRACE(lane.name);
    auto source = storage_source(31, ladder, lane.decoder);
    const storage::StorageRunResult reference = storage::run_storage_modeled(
        source, modeled_config(1, lane.decoder), kFrames, storage_cfg);
    const auto want = by_rung(reference.report);

    EXPECT_TRUE(reference.report.harq.enabled);
    EXPECT_EQ(reference.report.harq.sessions, kFrames);
    EXPECT_EQ(reference.report.harq.delivered, reference.ledger.delivered);
    expect_ledger_conserves(reference.ledger);
    EXPECT_GT(reference.report.harq.rounds[1].attempts, 0)
        << "some frames must escalate past the hard read";
    EXPECT_GT(reference.report.harq.rounds[0].acks, 0)
        << "some frames must deliver on the hard read";

    for (const int workers : {2}) {
      source.reset();
      const auto run = storage::run_storage_modeled(
          source, modeled_config(workers, lane.decoder), kFrames,
          storage_cfg);
      EXPECT_EQ(by_rung(run.report), want) << workers << " workers";
      expect_ledgers_agree(run.ledger, reference.ledger);
    }

    for (const int workers : {1, 2, 4}) {
      source.reset();
      const auto run = storage::run_storage_live(
          source, live_config(workers, lane.decoder), kFrames, storage_cfg);
      EXPECT_EQ(by_rung(run.report), want)
          << "live, " << workers << " workers";
      expect_ledgers_agree(run.ledger, reference.ledger);
      for (const auto& job : run.report.jobs)
        EXPECT_EQ(job.cls, stream::TrafficClass::kStorage);
    }
  }
}

TEST(StorageStream, AgreesWithTheReferenceController) {
  constexpr long long kFrames = 20;
  const storage::NandLadderConfig ladder = test_ladder();
  const core::DecoderConfig decoder = storage_decoder();

  auto source = storage_source(21, ladder, decoder);
  storage::StorageStreamConfig storage_cfg;
  storage_cfg.ladder = ladder;
  const auto run = storage::run_storage_modeled(
      source, modeled_config(1, decoder), kFrames, storage_cfg);

  storage::ReadRetryConfig cfg;
  cfg.ladder = ladder;
  cfg.decoder = decoder;
  storage::ReadRetryController controller(cfg);
  const auto code = storage_code();
  controller.attach(code);
  storage::RetryLadderLedger ledger;
  for (long long f = 0; f < kFrames; ++f) {
    // The stream's session f content key (substream_seed(seed, 2f + 1)).
    const auto result = controller.run_frame(
        util::substream_seed(21, 2ULL * static_cast<std::uint64_t>(f) + 1),
        ledger);
    // Per-rung iteration counts and the delivery verdict must match the
    // serving path record for (session f, rung r).
    int rungs_served = 0;
    bool served_delivered = false;
    for (const auto& job : run.report.jobs) {
      if (job.session != f) continue;
      ++rungs_served;
      if (job.crc_ok && (job.converged || job.crc_repaired))
        served_delivered = true;
    }
    EXPECT_EQ(result.rungs_used, rungs_served) << "frame " << f;
    EXPECT_EQ(result.delivered, served_delivered) << "frame " << f;
  }
  expect_ledgers_agree(ledger, run.ledger);
  // Both paths model decode on the same chip pipeline clock. The
  // scheduler spins up fresh workers per escalation generation, so each
  // rung > 0 may pay one extra reconfiguration the long-lived controller
  // amortised away; everything else must agree cycle-for-cycle.
  EXPECT_EQ(ledger.rungs[0].decode_cycles, run.ledger.rungs[0].decode_cycles);
  const long long reconfig = arch::FramePipelineConfig{}.reconfigure_cycles;
  for (std::size_t r = 1; r < ledger.rungs.size(); ++r)
    EXPECT_LE(std::llabs(ledger.rungs[r].decode_cycles -
                         run.ledger.rungs[r].decode_cycles),
              reconfig)
        << "rung " << r;
}

TEST(StorageStream, BackToBackLivePassesOnOneSourceMatchFreshSessions) {
  // A second live pass on an unreset source serves the next pages of the
  // stream. Its escalations must be numbered after the round-0 ids it
  // drew (not from 0 + pages, where they collide with those very ids and
  // the ledger picks round-0 records as final), and it must serve those
  // pages exactly like a run that starts at them.
  constexpr long long kPages = 200;
  const storage::NandLadderConfig ladder = test_ladder();
  const core::DecoderConfig decoder = storage_decoder();
  storage::StorageStreamConfig storage_cfg;
  storage_cfg.ladder = ladder;

  auto source = storage_source(61, ladder, decoder);
  const auto first = storage::run_storage_live(
      source, live_config(2, decoder), kPages, storage_cfg);
  const auto second = storage::run_storage_live(
      source, live_config(2, decoder), kPages, storage_cfg);

  for (const auto* pass : {&first, &second}) {
    std::set<long long> ids;
    for (const auto& job : pass->report.jobs)
      EXPECT_TRUE(ids.insert(job.id).second) << "duplicate id " << job.id;
    EXPECT_EQ(pass->ledger.frames, kPages);
    expect_ledger_conserves(pass->ledger);
  }
  EXPECT_GT(second.report.harq.rounds[1].attempts, 0);
  for (const auto& job : second.report.jobs) {
    EXPECT_GE(job.session, kPages);
    EXPECT_LT(job.session, 2 * kPages);
  }

  // The same pages run fresh: a new source whose first kPages draws are
  // skipped, so its run opens at page kPages too.
  auto fresh = storage_source(61, ladder, decoder);
  for (long long p = 0; p < kPages; ++p) (void)fresh.next();
  const auto want = storage::run_storage_live(
      fresh, live_config(2, decoder), kPages, storage_cfg);
  EXPECT_EQ(by_rung(second.report), by_rung(want.report));
  expect_ledgers_agree(second.ledger, want.ledger);

  // A source holding a queued retransmission is refused outright.
  fresh.reset();
  fresh.push_retransmission(fresh.next(), 0);
  EXPECT_THROW(storage::run_storage_live(fresh, live_config(1, decoder),
                                         kPages, storage_cfg),
               std::logic_error);
}

TEST(StorageStream, CarriedStateIsBoundedByOpenPages) {
  // The drivers carry one soft state per open page that may escalate.
  // The live one holds at most one per open page (and releases all of
  // them before it returns — it checks), so with a small admission queue
  // its memory follows the pages in flight, not the run length; the
  // modeled one holds the pages it pushes back plus one burst.
  constexpr long long kPages = 300;
  const storage::NandLadderConfig ladder = test_ladder();
  const core::DecoderConfig decoder = storage_decoder();
  storage::StorageStreamConfig storage_cfg;
  storage_cfg.ladder = ladder;
  auto source = storage_source(67, ladder, decoder);

  stream::ServiceConfig cfg = live_config(2, decoder);
  cfg.queue_capacity = 4;
  cfg.max_local_batch = 2;
  const auto live = storage::run_storage_live(source, cfg, kPages,
                                              storage_cfg);
  const auto& h = live.report.harq;
  EXPECT_GT(h.rounds[1].attempts, 0);
  EXPECT_GE(h.peak_carried, 1);
  EXPECT_LE(h.peak_carried, h.peak_open);
  EXPECT_LT(h.peak_open, kPages / 2);

  source.reset();
  const stream::SchedulerConfig model_cfg = modeled_config(2, decoder);
  const auto modeled = storage::run_storage_modeled(source, model_cfg,
                                                    kPages, storage_cfg);
  const auto& m = modeled.report.harq;
  EXPECT_EQ(m.peak_open, kPages);
  EXPECT_GE(m.peak_carried, 1);
  EXPECT_LE(m.peak_carried, m.rounds[1].attempts + model_cfg.max_burst);
  EXPECT_EQ(by_rung(modeled.report), by_rung(live.report));
}

TEST(StorageStream, LiveRethrowsAnEscalationSynthesisFailurePromptly) {
  // Escalation frames are synthesised on the decoding workers. A RungSynth
  // failing at rung >= 1 must come out of run_storage_live as that very
  // exception, right away rather than as the driver's 30 s no-completion
  // stall, and with every worker joined.
  const storage::NandLadderConfig ladder = test_ladder();
  const stream::RungSynth good = storage::NandReadLadder(ladder).synth();
  stream::RungSynth failing = [good](const codes::QCCode& code,
                                     std::span<const std::uint8_t> codeword,
                                     std::uint64_t key, int rung) {
    if (rung >= 1) throw std::domain_error("rung synth failure");
    return good(code, codeword, key, rung);
  };
  stream::TrafficSource source({.seed = 31});
  source.add_custom_mode(storage_code(), 1.0, std::move(failing),
                         FrameCrc::kCrc16);
  source.emit_quantised(storage_decoder());
  storage::StorageStreamConfig storage_cfg;
  storage_cfg.ladder = ladder;

  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)storage::run_storage_live(source, live_config(2, storage_decoder()),
                                    40, storage_cfg);
    ADD_FAILURE() << "no frame escalated, or the failure was swallowed";
  } catch (const std::domain_error& e) {
    EXPECT_STREQ(e.what(), "rung synth failure");
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

// ---------------------------------------------------------------------------
// Contract 5: validation.

TEST(StorageStream, ValidatesInputs) {
  const auto ladder = test_ladder();
  storage::StorageStreamConfig storage_cfg;
  storage_cfg.ladder = ladder;

  // No quantised emission.
  {
    stream::TrafficSource source({.seed = 1});
    source.add_custom_mode(storage_code(), 1.0,
                           storage::NandReadLadder(ladder).synth(),
                           FrameCrc::kCrc16);
    EXPECT_THROW(storage::run_storage_modeled(
                     source, modeled_config(1, storage_decoder()), 4,
                     storage_cfg),
                 std::logic_error);
  }
  // Mode without an outer CRC.
  {
    auto source = storage_source(1, ladder, storage_decoder(),
                                 FrameCrc::kNone);
    EXPECT_THROW(storage::run_storage_modeled(
                     source, modeled_config(1, storage_decoder()), 4,
                     storage_cfg),
                 std::logic_error);
  }
  // Negative escalation delay.
  {
    auto source = storage_source(1, ladder, storage_decoder());
    storage::StorageStreamConfig bad = storage_cfg;
    bad.escalation_delay_cycles = -1;
    EXPECT_THROW(storage::run_storage_modeled(
                     source, modeled_config(1, storage_decoder()), 4, bad),
                 std::invalid_argument);
  }

  // Controller: CRC required, degenerate scheme required.
  {
    storage::ReadRetryConfig cfg;
    cfg.ladder = ladder;
    cfg.decoder = storage_decoder(FrameCrc::kNone);
    EXPECT_THROW(storage::ReadRetryController{cfg}, std::invalid_argument);
  }
  {
    storage::ReadRetryConfig cfg;
    cfg.ladder = ladder;
    cfg.decoder = storage_decoder();
    storage::ReadRetryController controller(cfg);
    const auto nr = codes::make_nr_code(codes::Rate::kR13, 52, 2600, 0);
    EXPECT_THROW(controller.attach(nr), std::invalid_argument);
  }

  // Source-side custom-mode validation.
  {
    stream::TrafficSource source({.seed = 1});
    EXPECT_THROW(source.add_custom_mode(storage_code(), 1.0, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(
        source.add_custom_mode(codes::make_nr_code(codes::Rate::kR13, 52,
                                                   2600, 0),
                               1.0, storage::NandReadLadder(ladder).synth()),
        std::invalid_argument);
  }
}

}  // namespace
