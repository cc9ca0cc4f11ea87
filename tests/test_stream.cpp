#include <gtest/gtest.h>

#include <numeric>

#include "ldpc/codes/registry.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "ldpc/stream/traffic.hpp"

namespace {

using namespace ldpc;
using codes::Rate;
using codes::Standard;
using stream::Policy;
using stream::SchedulerConfig;
using stream::StreamScheduler;
using stream::TrafficConfig;
using stream::TrafficSource;

// A mixed 4-standard traffic mix (802.16e + 802.11n + DMB-T + NR) over
// small lifting sizes so the farm tests stay fast.
TrafficSource make_mixed_source(std::uint64_t seed,
                                double mean_gap_cycles = 0.0) {
  TrafficSource src(
      {.seed = seed, .mean_interarrival_cycles = mean_gap_cycles});
  src.add_mode(codes::make_code({Standard::kWimax80216e, Rate::kR12, 24}),
               3.0, 2.0);
  src.add_mode(codes::make_code({Standard::kWlan80211n, Rate::kR12, 27}),
               3.0, 1.0);
  src.add_mode(codes::make_code({Standard::kDmbT, Rate::kR25, 127}), 4.0,
               1.0);
  src.add_mode(codes::make_nr_code(Rate::kR15, 16), 2.0, 1.0);
  return src;
}

SchedulerConfig fast_config(Policy policy, int workers,
                            int max_burst = 1) {
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.workers = workers;
  cfg.max_burst = max_burst;
  cfg.decoder = {.max_iterations = 3, .stop_on_codeword = true};
  return cfg;
}

// ---- traffic source ---------------------------------------------------------

TEST(TrafficSource, CounterSeededStreamsReproduce) {
  auto a = make_mixed_source(42, 500.0);
  auto b = make_mixed_source(42, 500.0);
  for (int i = 0; i < 50; ++i) {
    const auto ja = a.next();
    const auto jb = b.next();
    EXPECT_EQ(ja.id, i);
    EXPECT_EQ(ja.mode, jb.mode);
    EXPECT_EQ(ja.arrival_cycle, jb.arrival_cycle);
    const auto fa = a.make_frame(ja);
    const auto fb = b.make_frame(jb);
    EXPECT_EQ(fa.payload, fb.payload);
    EXPECT_EQ(fa.codeword, fb.codeword);
    EXPECT_EQ(fa.llrs, fb.llrs);
  }
}

TEST(TrafficSource, ResetReplaysTheIdenticalStream) {
  auto src = make_mixed_source(7, 200.0);
  std::vector<stream::Job> first;
  for (int i = 0; i < 20; ++i) first.push_back(src.next());
  src.reset();
  for (int i = 0; i < 20; ++i) {
    const auto j = src.next();
    EXPECT_EQ(j.mode, first[static_cast<std::size_t>(i)].mode);
    EXPECT_EQ(j.arrival_cycle,
              first[static_cast<std::size_t>(i)].arrival_cycle);
  }
}

TEST(TrafficSource, DifferentSeedsGiveDifferentStreams) {
  auto a = make_mixed_source(1);
  auto b = make_mixed_source(2);
  int differing = 0;
  for (int i = 0; i < 40; ++i) {
    const auto ja = a.next();
    const auto jb = b.next();
    if (ja.mode != jb.mode) ++differing;
    if (a.make_frame(ja).llrs != b.make_frame(jb).llrs) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(TrafficSource, WeightedMixAndMonotoneArrivals) {
  TrafficSource src({.seed = 3, .mean_interarrival_cycles = 300.0});
  src.add_mode(codes::make_code({Standard::kWimax80216e, Rate::kR12, 24}),
               3.0, 3.0);
  src.add_mode(codes::make_code({Standard::kWlan80211n, Rate::kR12, 27}),
               3.0, 1.0);
  src.add_mode(codes::make_code({Standard::kWimax80216e, Rate::kR56, 28}),
               5.0, 0.0);  // zero weight: never drawn
  int counts[3] = {0, 0, 0};
  long long prev_arrival = 0;
  for (int i = 0; i < 400; ++i) {
    const auto j = src.next();
    ++counts[j.mode];
    EXPECT_GE(j.arrival_cycle, prev_arrival);
    prev_arrival = j.arrival_cycle;
  }
  EXPECT_EQ(counts[2], 0);
  const double share0 = counts[0] / 400.0;
  EXPECT_GT(share0, 0.6);  // nominal 0.75
  EXPECT_LT(share0, 0.9);
  EXPECT_GT(prev_arrival, 0);
}

TEST(TrafficSource, InvalidUseThrows) {
  TrafficSource empty;
  EXPECT_THROW(empty.next(), std::logic_error);
  EXPECT_THROW(TrafficSource({.mean_interarrival_cycles = -1.0}),
               std::invalid_argument);
  auto src = make_mixed_source(1);
  EXPECT_THROW(
      src.add_mode(codes::make_code({Standard::kWlan80211n, Rate::kR12, 27}),
                   3.0, -0.5),
      std::invalid_argument);
  (void)src.next();
  // The mode mix is part of the stream identity: no late registration.
  EXPECT_THROW(
      src.add_mode(codes::make_code({Standard::kWlan80211n, Rate::kR12, 27}),
                   3.0),
      std::logic_error);
}

// ---- scheduler: decode invariance (the core farm guarantee) -----------------
// For the same seeded traffic, the per-frame hard decisions and iteration
// counts must be bit-identical under FIFO vs binned, any worker count
// 1..4, and frame-at-a-time vs batched bursts — scheduling may only move
// frames in time, never change their arithmetic.

struct RunOutcome {
  stream::StreamReport report;
};

stream::StreamReport run_farm(std::uint64_t seed, Policy policy,
                              int workers, int max_burst = 1,
                              long long jobs = 32) {
  auto src = make_mixed_source(seed, 2000.0);
  StreamScheduler sched(src, fast_config(policy, workers, max_burst));
  return sched.run(jobs);
}

TEST(StreamScheduler, DecodeResultsInvariantUnderPolicyAndWorkers) {
  const std::uint64_t seed = 0xFA12;
  const auto reference = run_farm(seed, Policy::kFifo, 1);
  ASSERT_EQ(reference.jobs.size(), 32u);
  for (const Policy policy : {Policy::kFifo, Policy::kBinned}) {
    for (const int workers : {1, 2, 3, 4}) {
      const auto report = run_farm(seed, policy, workers);
      ASSERT_EQ(report.jobs.size(), reference.jobs.size());
      for (std::size_t i = 0; i < report.jobs.size(); ++i) {
        const auto& got = report.jobs[i];
        const auto& want = reference.jobs[i];
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.mode, want.mode);
        EXPECT_EQ(got.iterations, want.iterations)
            << to_string(policy) << " workers=" << workers << " job " << i;
        EXPECT_EQ(got.decision_hash, want.decision_hash)
            << to_string(policy) << " workers=" << workers << " job " << i;
        EXPECT_EQ(got.converged, want.converged);
        EXPECT_EQ(got.payload_ok, want.payload_ok);
      }
    }
  }
}

TEST(StreamScheduler, BatchedBurstLaneMatchesFrameAtATime) {
  // max_burst engages FramePipeline::decode_burst_quantised (the
  // StreamBatchEngine-backed lane under a min-sum config): same
  // decisions, same iteration counts.
  const std::uint64_t seed = 0xB00;
  auto config_for = [](int max_burst) {
    auto cfg = fast_config(Policy::kBinned, 2, max_burst);
    cfg.decoder.kernel = core::CnuKernel::kMinSum;
    return cfg;
  };
  auto src_a = make_mixed_source(seed);
  auto src_b = make_mixed_source(seed);
  StreamScheduler frame_at_a_time(src_a, config_for(1));
  StreamScheduler batched(src_b, config_for(16));
  const auto ra = frame_at_a_time.run(32);
  const auto rb = batched.run(32);
  for (std::size_t i = 0; i < ra.jobs.size(); ++i) {
    EXPECT_EQ(ra.jobs[i].decision_hash, rb.jobs[i].decision_hash) << i;
    EXPECT_EQ(ra.jobs[i].iterations, rb.jobs[i].iterations) << i;
  }
  // Fewer dispatches => no more reconfigurations than frame-at-a-time.
  EXPECT_LE(rb.totals.reconfigurations, ra.totals.reconfigurations);
}

TEST(StreamScheduler, PayloadBitsConservedAcrossLedgers) {
  for (const Policy policy : {Policy::kFifo, Policy::kBinned}) {
    for (const int workers : {1, 3}) {
      const auto report = run_farm(0xC0DE, policy, workers, 4);
      long long from_jobs = 0;
      auto src = make_mixed_source(0xC0DE);
      for (const auto& rec : report.jobs)
        from_jobs += src.code(rec.mode).payload_bits();
      EXPECT_EQ(report.total_payload_bits, from_jobs);
      EXPECT_EQ(report.totals.payload_bits, from_jobs);
      long long ledger_sum = 0, frames = 0;
      for (const auto& ledger : report.worker_ledgers) {
        ledger_sum += ledger.payload_bits;
        frames += ledger.frames;
      }
      EXPECT_EQ(ledger_sum, from_jobs);
      EXPECT_EQ(frames, static_cast<long long>(report.jobs.size()));
    }
  }
}

TEST(StreamScheduler, BinnedReconfiguresStrictlyLessThanFifo) {
  // Saturated mixed 4-standard stream on a small farm: FIFO pays a
  // reconfiguration on nearly every frame; binning amortises them.
  auto src_fifo = make_mixed_source(0xAB);
  auto src_binned = make_mixed_source(0xAB);
  StreamScheduler fifo(src_fifo, fast_config(Policy::kFifo, 2));
  StreamScheduler binned(src_binned, fast_config(Policy::kBinned, 2));
  const auto rf = fifo.run(40);
  const auto rb = binned.run(40);
  EXPECT_LT(rb.totals.reconfigurations, rf.totals.reconfigurations);
  EXPECT_GT(rf.totals.reconfigurations, 20);  // mixed stream thrashes FIFO
}

TEST(StreamScheduler, ZeroDelayBoundDegeneratesToFifoOrder) {
  // max_bin_delay_cycles = 0 makes every queued job immediately overdue,
  // so the binned policy serves strict arrival order like FIFO.
  auto src_fifo = make_mixed_source(0x11);
  auto src_binned = make_mixed_source(0x11);
  auto cfg = fast_config(Policy::kBinned, 2);
  cfg.max_bin_delay_cycles = 0;
  StreamScheduler fifo(src_fifo, fast_config(Policy::kFifo, 2));
  StreamScheduler binned(src_binned, cfg);
  const auto rf = fifo.run(24);
  const auto rb = binned.run(24);
  EXPECT_EQ(rb.totals.reconfigurations, rf.totals.reconfigurations);
  for (std::size_t i = 0; i < rf.jobs.size(); ++i) {
    EXPECT_EQ(rb.jobs[i].worker, rf.jobs[i].worker) << i;
    EXPECT_EQ(rb.jobs[i].start_cycle, rf.jobs[i].start_cycle) << i;
  }
}

TEST(StreamScheduler, TimelineAndUtilizationSane) {
  const auto report = run_farm(0x77, Policy::kBinned, 3, 4, 30);
  long long max_finish = 0;
  for (const auto& rec : report.jobs) {
    EXPECT_GE(rec.start_cycle, rec.arrival_cycle);
    EXPECT_GT(rec.finish_cycle, rec.start_cycle);
    EXPECT_GE(rec.worker, 0);
    EXPECT_LT(rec.worker, 3);
    max_finish = std::max(max_finish, rec.finish_cycle);
  }
  EXPECT_EQ(report.makespan_cycles, max_finish);
  EXPECT_LE(report.latency_percentile(50.0),
            report.latency_percentile(99.0));
  EXPECT_GT(report.aggregate_payload_bps(450e6), 0.0);
  for (int w = 0; w < 3; ++w) {
    EXPECT_GE(report.worker_occupancy(w), 0.0);
    EXPECT_LE(report.worker_occupancy(w), 1.0);
  }
  EXPECT_THROW(report.latency_percentile(0.0), std::invalid_argument);
  EXPECT_THROW(report.latency_percentile(101.0), std::invalid_argument);
}

TEST(StreamScheduler, MoreWorkersDoNotIncreaseMakespan) {
  const auto one = run_farm(0x5C, Policy::kFifo, 1, 1, 24);
  const auto four = run_farm(0x5C, Policy::kFifo, 4, 1, 24);
  EXPECT_LE(four.makespan_cycles, one.makespan_cycles);
}

TEST(StreamScheduler, SecondRunContinuesTheStream) {
  // A run on a non-fresh source (job ids not starting at 0) must index
  // its records by the offset within the run, not the global id.
  auto src = make_mixed_source(0x2ED);
  StreamScheduler sched(src, fast_config(Policy::kBinned, 2, 4));
  const auto first = sched.run(8);
  const auto second = sched.run(8);
  ASSERT_EQ(second.jobs.size(), 8u);
  for (std::size_t i = 0; i < second.jobs.size(); ++i) {
    EXPECT_EQ(first.jobs[i].id, static_cast<long long>(i));
    EXPECT_EQ(second.jobs[i].id, static_cast<long long>(8 + i));
    EXPECT_GT(second.jobs[i].finish_cycle, second.jobs[i].start_cycle);
  }
  // The continued stream decodes the same frames a fresh 16-job run sees.
  auto fresh_src = make_mixed_source(0x2ED);
  StreamScheduler fresh(fresh_src, fast_config(Policy::kBinned, 2, 4));
  const auto whole = fresh.run(16);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(first.jobs[i].decision_hash, whole.jobs[i].decision_hash);
    EXPECT_EQ(second.jobs[i].decision_hash,
              whole.jobs[8 + i].decision_hash);
  }
}

TEST(StreamScheduler, InvalidConfigThrows) {
  auto src = make_mixed_source(1);
  EXPECT_THROW(StreamScheduler(src, {.workers = 0}),
               std::invalid_argument);
  EXPECT_THROW(StreamScheduler(src, {.max_bin_delay_cycles = -1}),
               std::invalid_argument);
  EXPECT_THROW(StreamScheduler(src, {.max_burst = 0}),
               std::invalid_argument);
  StreamScheduler sched(src, {.workers = 1});
  EXPECT_THROW(sched.run(-1), std::invalid_argument);
  TrafficSource empty;
  StreamScheduler no_modes(empty, {.workers = 1});
  EXPECT_THROW(no_modes.run(1), std::logic_error);
}

// ---- scheduler: empty-stream edge (regression) ------------------------------
// run(0) used to throw; worse, a hand-built empty report divided by the
// zero makespan in occupancy/percentile computation. An empty stream is a
// valid degenerate serving run.

TEST(StreamScheduler, ZeroJobsProducesValidEmptyReport) {
  auto src = make_mixed_source(5);
  StreamScheduler sched(src, fast_config(Policy::kBinned, 3, 4));
  const auto report = sched.run(0);
  EXPECT_TRUE(report.jobs.empty());
  ASSERT_EQ(report.worker_ledgers.size(), 3u);
  for (const auto& ledger : report.worker_ledgers) {
    EXPECT_EQ(ledger.frames, 0);
    EXPECT_EQ(ledger.payload_bits, 0);
  }
  EXPECT_EQ(report.makespan_cycles, 0);
  EXPECT_EQ(report.total_payload_bits, 0);
  // Every derived statistic must be a well-defined zero, not a
  // divide-by-zero.
  EXPECT_EQ(report.latency_percentile(50.0), 0);
  EXPECT_EQ(report.latency_percentile(99.0), 0);
  EXPECT_EQ(report.aggregate_payload_bps(450e6), 0.0);
  for (int w = 0; w < 3; ++w)
    EXPECT_EQ(report.worker_occupancy(w), 0.0);
  // Argument validation still applies on the empty report.
  EXPECT_THROW(report.latency_percentile(0.0), std::invalid_argument);
  EXPECT_THROW(report.latency_percentile(101.0), std::invalid_argument);
  // The run consumed nothing: the next run starts at job 0.
  const auto follow_up = sched.run(4);
  ASSERT_EQ(follow_up.jobs.size(), 4u);
  EXPECT_EQ(follow_up.jobs.front().id, 0);
}

TEST(StreamScheduler, AllTrafficOnOneModeLeavesOtherQueuesIdle) {
  // Several registered modes but every job drawn from one (the rest at
  // zero weight): the untouched per-mode queues and the single-mode
  // ledger composition must not trip the farm loop or the report.
  TrafficSource src({.seed = 9});
  src.add_mode(codes::make_code({Standard::kWimax80216e, Rate::kR12, 24}),
               3.0, 1.0);
  src.add_mode(codes::make_code({Standard::kWlan80211n, Rate::kR12, 27}),
               3.0, 0.0);
  src.add_mode(codes::make_code({Standard::kDmbT, Rate::kR25, 127}), 4.0,
               0.0);
  StreamScheduler sched(src, fast_config(Policy::kBinned, 2, 4));
  const auto report = sched.run(12);
  ASSERT_EQ(report.jobs.size(), 12u);
  for (const auto& rec : report.jobs) EXPECT_EQ(rec.mode, 0);
  // One mode: at most one reconfiguration per worker, ever.
  EXPECT_LE(report.totals.reconfigurations, 2);
  EXPECT_GT(report.aggregate_payload_bps(450e6), 0.0);
}

}  // namespace
