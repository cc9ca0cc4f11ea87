// The live-service test battery: per-frame result determinism against the
// modeled scheduler, MPMC-queue/work-stealing concurrency stress (run
// under TSan in CI), and SLO/backpressure behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "ldpc/codes/registry.hpp"
#include "ldpc/stream/decode_service.hpp"
#include "ldpc/stream/mpmc_queue.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "ldpc/stream/traffic.hpp"

namespace {

using namespace ldpc;
using codes::Rate;
using codes::Standard;
using stream::Admission;
using stream::BoundedMpmcQueue;
using stream::DecodeService;
using stream::Policy;
using stream::ServiceConfig;
using stream::ServiceRequest;
using stream::StreamScheduler;
using stream::TrafficClass;
using stream::TrafficSource;

// Mirrors test_stream.cpp's mixed 4-standard mix; the service requires a
// min-sum kernel (the StreamBatchEngine contract), so the decoder config
// sets it explicitly — and the modeled reference runs the SAME config.
TrafficSource make_mixed_source(std::uint64_t seed) {
  TrafficSource src({.seed = seed});
  src.add_mode(codes::make_code({Standard::kWimax80216e, Rate::kR12, 24}),
               3.0, 2.0);
  src.add_mode(codes::make_code({Standard::kWlan80211n, Rate::kR12, 27}),
               3.0, 1.0);
  src.add_mode(codes::make_code({Standard::kDmbT, Rate::kR25, 127}), 4.0,
               1.0);
  src.add_mode(codes::make_nr_code(Rate::kR15, 16), 2.0, 1.0);
  return src;
}

core::DecoderConfig service_decoder() {
  core::DecoderConfig cfg;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.max_iterations = 3;
  cfg.stop_on_codeword = true;
  return cfg;
}

// A job with its frame pre-synthesized: the submitter owns synthesis (as
// a real device driver owns its sampled LLRs) and the service only ever
// sees buffers.
struct SynthJob {
  stream::Job job;
  stream::JobFrame frame;
};

std::vector<SynthJob> synthesize(TrafficSource& src, int count) {
  std::vector<SynthJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    SynthJob s;
    s.job = src.next();
    s.frame = src.make_frame(s.job);
    jobs.push_back(std::move(s));
  }
  return jobs;
}

ServiceRequest request_for(const TrafficSource& src, const SynthJob& s,
                           TrafficClass cls = TrafficClass::kBestEffort) {
  ServiceRequest req;
  req.id = s.job.id;
  req.mode = s.job.mode;
  req.cls = cls;
  req.llrs = s.frame.llrs;
  const auto payload =
      static_cast<std::size_t>(src.code(s.job.mode).payload_bits());
  req.expected_payload.assign(s.frame.codeword.begin(),
                              s.frame.codeword.begin() +
                                  static_cast<std::ptrdiff_t>(payload));
  return req;
}

// The single-threaded modeled reference for a given seed: what every
// service configuration must reproduce bit for bit.
stream::StreamReport modeled_reference(std::uint64_t seed, int njobs) {
  auto src = make_mixed_source(seed);
  stream::SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.policy = Policy::kFifo;
  cfg.decoder = service_decoder();
  StreamScheduler sched(src, cfg);
  return sched.run(njobs);
}

stream::StreamReport run_service(std::uint64_t seed, int njobs,
                                 ServiceConfig cfg) {
  auto src = make_mixed_source(seed);
  const auto jobs = synthesize(src, njobs);
  DecodeService service(src, cfg);
  for (const auto& s : jobs)
    EXPECT_TRUE(service.submit(request_for(src, s)));
  return service.finish();
}

void expect_matches_reference(const stream::StreamReport& got,
                              const stream::StreamReport& want,
                              const std::string& label) {
  ASSERT_EQ(got.jobs.size(), want.jobs.size()) << label;
  for (std::size_t i = 0; i < got.jobs.size(); ++i) {
    const auto& g = got.jobs[i];
    const auto& w = want.jobs[i];
    ASSERT_EQ(g.id, w.id) << label << " job " << i;
    EXPECT_EQ(g.mode, w.mode) << label << " job " << i;
    EXPECT_EQ(g.decision_hash, w.decision_hash) << label << " job " << i;
    EXPECT_EQ(g.iterations, w.iterations) << label << " job " << i;
    EXPECT_EQ(g.converged, w.converged) << label << " job " << i;
    EXPECT_EQ(g.payload_ok, w.payload_ok) << label << " job " << i;
  }
}

// ---- determinism battery ----------------------------------------------------
// The tentpole guarantee: per-frame hard-decision hashes and iteration
// counts from the live multi-threaded service are bit-identical to the
// modeled single-threaded scheduler for the same traffic, at every worker
// count, steal configuration and queue capacity. Thread interleaving may
// only move work in time.

TEST(DecodeServiceDeterminism, MatchesModeledSchedulerAcrossWorkerCounts) {
  const std::uint64_t seed = 0xD15C0;
  const int njobs = 48;
  const auto reference = modeled_reference(seed, njobs);
  ASSERT_EQ(reference.jobs.size(), static_cast<std::size_t>(njobs));
  for (const int workers : {1, 2, 4, 8}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 16;
    cfg.work_stealing = true;
    cfg.decoder = service_decoder();
    const auto report = run_service(seed, njobs, cfg);
    expect_matches_reference(report, reference,
                             "workers=" + std::to_string(workers));
  }
}

TEST(DecodeServiceDeterminism, QuantisedSubmissionMatchesModeledScheduler) {
  // The quantised-domain serving path: the source pre-quantises every
  // frame (sim::quantise_llrs under the service's decoder config), the
  // submitter ships ONLY the raw codes, and per-frame results must still
  // equal the modeled double-LLR reference bit for bit — including mixed
  // bins, since every odd job keeps submitting doubles.
  const std::uint64_t seed = 0xD15C1;
  const int njobs = 48;
  const auto reference = modeled_reference(seed, njobs);
  ASSERT_EQ(reference.jobs.size(), static_cast<std::size_t>(njobs));
  for (const int workers : {1, 4}) {
    auto src = make_mixed_source(seed);
    src.emit_quantised(service_decoder());
    ASSERT_TRUE(src.emits_quantised());
    const auto jobs = synthesize(src, njobs);
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 16;
    cfg.decoder = service_decoder();
    DecodeService service(src, cfg);
    for (const auto& s : jobs) {
      ServiceRequest req = request_for(src, s);
      if (s.job.id % 2 == 0) {
        ASSERT_FALSE(s.frame.quantised.empty());
        req.quantised = s.frame.quantised;
        req.llrs.clear();
      }
      EXPECT_TRUE(service.submit(std::move(req)));
    }
    expect_matches_reference(service.finish(), reference,
                             "quantised workers=" + std::to_string(workers));
  }
}

TEST(DecodeService, SubmitValidatesQuantisedPayloads) {
  auto src = make_mixed_source(0xD15C2);
  src.emit_quantised(service_decoder());
  const auto jobs = synthesize(src, 2);
  ServiceConfig cfg;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  auto quantised_request = [&](const SynthJob& s) {
    ServiceRequest req = request_for(src, s);
    req.llrs.clear();
    req.quantised = s.frame.quantised;
    return req;
  };

  // A valid job ahead of the malformed ones.
  EXPECT_TRUE(service.submit(quantised_request(jobs[0])));

  // Both payloads present: ambiguous ingest domain.
  ServiceRequest both = request_for(src, jobs[1]);
  both.quantised = jobs[1].frame.quantised;
  EXPECT_THROW(service.submit(std::move(both)), std::invalid_argument);

  // Truncated quantised payload.
  ServiceRequest bad = quantised_request(jobs[1]);
  bad.quantised.bytes.pop_back();
  EXPECT_THROW(service.submit(std::move(bad)), std::invalid_argument);

  // Unknown lane tag with a payload sized for it: rejected at the door,
  // where admitting it would fail a worker and lose every other job.
  ServiceRequest bad_tag = quantised_request(jobs[1]);
  bad_tag.quantised.type = static_cast<core::kernels::LaneType>(3);
  bad_tag.quantised.bytes.resize(bad_tag.quantised.expected_bytes());
  EXPECT_THROW(service.submit(std::move(bad_tag)), std::invalid_argument);

  // A valid job after them; both valid jobs come back.
  EXPECT_TRUE(service.submit(quantised_request(jobs[1])));
  const auto report = service.finish();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].id, jobs[0].job.id);
  EXPECT_EQ(report.jobs[1].id, jobs[1].job.id);
  EXPECT_TRUE(report.jobs[0].payload_ok);
}

TEST(DecodeServiceDeterminism, StealHeavyAndStealFreeAgree) {
  const std::uint64_t seed = 0x57EA1;
  const int njobs = 48;
  const auto reference = modeled_reference(seed, njobs);
  for (const bool stealing : {true, false}) {
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.queue_capacity = 16;
    cfg.work_stealing = stealing;
    // A long bin delay parks large same-mode bins in local deques — the
    // steal-heavy shape; steal-free must still drain everything.
    cfg.max_bin_delay_ns = 50'000'000;
    cfg.max_local_batch = 2;  // small dispatches -> deep local deques
    cfg.decoder = service_decoder();
    const auto report = run_service(seed, njobs, cfg);
    expect_matches_reference(report, reference,
                             stealing ? "steal-heavy" : "steal-free");
  }
}

TEST(DecodeServiceDeterminism, QueueCapacitiesAgree) {
  const std::uint64_t seed = 0xCAB;
  const int njobs = 48;
  const auto reference = modeled_reference(seed, njobs);
  // Three central-queue bounds, including the rendezvous handoff
  // (capacity 0: a submit only completes by handing the job to a waiting
  // worker — the hardest backpressure).
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{2},
                                     std::size_t{64}}) {
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.queue_capacity = capacity;
    cfg.admission = Admission::kBlock;
    cfg.decoder = service_decoder();
    const auto report = run_service(seed, njobs, cfg);
    expect_matches_reference(report, reference,
                             "capacity=" + std::to_string(capacity));
  }
}

TEST(DecodeServiceDeterminism, LedgerConservationAndReportShape) {
  const std::uint64_t seed = 0x1ED6;
  const int njobs = 40;
  auto src = make_mixed_source(seed);
  const auto jobs = synthesize(src, njobs);
  ServiceConfig cfg;
  cfg.workers = 3;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  long long submitted_payload = 0;
  for (const auto& s : jobs) {
    ASSERT_TRUE(service.submit(request_for(src, s)));
    submitted_payload += src.code(s.job.mode).payload_bits();
  }
  const auto report = service.finish();
  ASSERT_EQ(report.jobs.size(), static_cast<std::size_t>(njobs));
  ASSERT_EQ(report.worker_ledgers.size(), 3u);
  ASSERT_EQ(report.worker_steals.size(), 3u);
  EXPECT_EQ(report.rejected_jobs, 0);
  // Payload-bit conservation across the per-worker ledgers.
  long long ledger_payload = 0, ledger_frames = 0;
  for (const auto& ledger : report.worker_ledgers) {
    ledger_payload += ledger.payload_bits;
    ledger_frames += ledger.frames;
  }
  EXPECT_EQ(ledger_payload, submitted_payload);
  EXPECT_EQ(ledger_frames, njobs);
  EXPECT_EQ(report.total_payload_bits, submitted_payload);
  EXPECT_EQ(report.totals.payload_bits, submitted_payload);
  // Wall-clock accounting: elapsed covers every job's latency sample.
  EXPECT_GT(report.wall_elapsed_ns, 0);
  EXPECT_GT(report.wall_frames_per_sec(), 0.0);
  EXPECT_LE(report.wall_latency_percentile_ns(50.0),
            report.wall_latency_percentile_ns(99.0));
  int payload_ok = 0;
  for (const auto& rec : report.jobs) {
    // payload_ok is evaluated (expected payload supplied); at 3
    // iterations a minority of frames genuinely fail to decode.
    if (rec.payload_ok) ++payload_ok;
    EXPECT_GE(rec.wall_start_ns, rec.wall_submit_ns);
    EXPECT_GE(rec.wall_finish_ns, rec.wall_start_ns);
    EXPECT_GE(rec.finish_seq, 0);
    EXPECT_GE(rec.worker, 0);
    EXPECT_LT(rec.worker, 3);
  }
  EXPECT_GT(payload_ok, njobs / 2);
}

// ---- MPMC queue stress (runs under TSan in CI) ------------------------------

TEST(BoundedMpmcQueue, ProducersOutnumberConsumersExactlyOnceDelivery) {
  BoundedMpmcQueue<int> queue(4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 400;
  constexpr int kConsumers = 2;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(queue.push(p * kPerProducer + i));
    });
  std::vector<std::vector<int>> taken(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&queue, &taken, c] {
      while (auto item = queue.pop()) taken[static_cast<std::size_t>(c)]
          .push_back(*item);
    });
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();
  // Exactly-once: every produced value delivered to exactly one consumer.
  std::vector<int> all;
  for (const auto& v : taken) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(BoundedMpmcQueue, ZeroCapacityIsARendezvous) {
  BoundedMpmcQueue<int> queue(0);
  // No consumer waiting: non-blocking admission must fail — there is
  // nowhere for the item to go.
  EXPECT_FALSE(queue.try_push(1));
  EXPECT_TRUE(queue.empty());
  // A blocked consumer enables the handoff.
  std::atomic<int> received{-1};
  std::thread consumer([&] {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    received.store(*item);
  });
  // Blocking push completes only by handing off to the waiting consumer.
  EXPECT_TRUE(queue.push(42));
  consumer.join();
  EXPECT_EQ(received.load(), 42);
  EXPECT_TRUE(queue.empty());
  // try_push succeeds only in the window where a consumer waits.
  std::thread consumer2([&] { (void)queue.pop(); });
  while (!queue.try_push(7)) std::this_thread::yield();
  consumer2.join();
  queue.close();
  EXPECT_FALSE(queue.push(9));
}

TEST(BoundedMpmcQueue, ShutdownWhileFullRejectsBlockedProducers) {
  BoundedMpmcQueue<int> queue(2);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  EXPECT_FALSE(queue.try_push(3));  // full
  std::atomic<bool> blocked_push_result{true};
  std::thread producer([&] {
    // Blocks on the full queue; close() must wake it with a rejection,
    // not leave it deadlocked and not admit the item.
    blocked_push_result.store(queue.push(3));
  });
  // Give the producer a moment to block, then shut down while full.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  producer.join();
  EXPECT_FALSE(blocked_push_result.load());
  // The two admitted items still drain after close; then nullopt.
  EXPECT_EQ(queue.pop().value_or(-1), 1);
  EXPECT_EQ(queue.pop().value_or(-1), 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedMpmcQueue, CloseWakesBlockedConsumers) {
  BoundedMpmcQueue<int> queue(4);
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c)
    consumers.emplace_back([&] {
      EXPECT_FALSE(queue.pop().has_value());
      woke.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(BoundedMpmcQueue, SelectorAndClaimPickUnderTheLock) {
  BoundedMpmcQueue<int> queue(8);
  for (const int v : {3, 8, 1, 6, 4}) ASSERT_TRUE(queue.push(v));
  // Selector picks the largest waiting item.
  auto largest = [](const std::deque<int>& q) {
    return static_cast<std::size_t>(
        std::max_element(q.begin(), q.end()) - q.begin());
  };
  auto item = queue.pop_select_for(largest, std::chrono::milliseconds(50));
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, 8);
  // Claim: seed = oldest, companions = same parity, in queue order.
  std::vector<int> bin;
  auto oldest = [](const std::deque<int>&) { return std::size_t{0}; };
  auto same_parity = [](const int& seed, const int& cand) {
    return (seed % 2) == (cand % 2);
  };
  const auto taken = queue.claim(oldest, same_parity, 8, bin);
  EXPECT_EQ(taken, 2u);  // 3 (seed) then 1; 6 and 4 skipped
  ASSERT_EQ(bin.size(), 2u);
  EXPECT_EQ(bin[0], 3);
  EXPECT_EQ(bin[1], 1);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(DecodeServiceStress, WorkStealingDrainsSkewedBins) {
  // A long bin delay and tiny dispatches park deep same-mode runs in few
  // workers' local deques; with stealing on, idle workers must drain them
  // and every job must complete with the right results. 8 workers over
  // 96 jobs maximises contention on the steal path (run under TSan).
  const std::uint64_t seed = 0x5733A1;
  const int njobs = 96;
  const auto reference = modeled_reference(seed, njobs);
  ServiceConfig cfg;
  cfg.workers = 8;
  cfg.queue_capacity = 8;
  cfg.work_stealing = true;
  cfg.max_bin_delay_ns = 100'000'000;
  cfg.max_local_batch = 1;  // every bin residue entry is stealable
  cfg.decoder = service_decoder();
  auto src = make_mixed_source(seed);
  const auto jobs = synthesize(src, njobs);
  DecodeService service(src, cfg);
  for (const auto& s : jobs)
    ASSERT_TRUE(service.submit(request_for(src, s)));
  const auto report = service.finish();
  expect_matches_reference(report, reference, "steal-stress");
  long long steals = 0;
  for (const long long s : report.worker_steals) steals += s;
  EXPECT_GE(steals, 0);
}

TEST(DecodeServiceStress, ConcurrentSubmittersShareTheAdmissionQueue) {
  // Multiple producer threads submitting concurrently (producers >
  // consumers) against a small queue: every job admitted exactly once,
  // results still bit-identical to the modeled reference.
  const std::uint64_t seed = 0xC0C0;
  const int njobs = 64;
  const auto reference = modeled_reference(seed, njobs);
  auto src = make_mixed_source(seed);
  const auto jobs = synthesize(src, njobs);
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 4;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  constexpr int kSubmitters = 4;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      for (int i = t; i < njobs; i += kSubmitters)
        ASSERT_TRUE(service.submit(
            request_for(src, jobs[static_cast<std::size_t>(i)])));
    });
  for (auto& t : submitters) t.join();
  const auto report = service.finish();
  expect_matches_reference(report, reference, "concurrent-submit");
}

TEST(DecodeServiceStress, DestructorWithoutFinishJoinsCleanly) {
  // Dropping the service mid-flight must close the queue, drain or
  // discard, and join every worker — no leaks, no deadlock (the TSan job
  // verifies the interleavings).
  auto src = make_mixed_source(0xDEAD);
  const auto jobs = synthesize(src, 24);
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 4;
  cfg.decoder = service_decoder();
  {
    DecodeService service(src, cfg);
    for (const auto& s : jobs) (void)service.submit(request_for(src, s));
    // No finish(): the destructor handles shutdown with jobs in flight.
  }
  SUCCEED();
}

// ---- SLO / backpressure behaviour -------------------------------------------

TEST(DecodeServiceSlo, RejectedJobsAccountedAndPayloadConserved) {
  // Saturate a 1-worker service through a 1-slot queue with fail-fast
  // admission: a prefix is served, the overflow is rejected, and BOTH
  // sides are accounted — completed payload in the ledgers, rejected
  // payload in the rejection tally, summing to everything submitted.
  const std::uint64_t seed = 0xFEE;
  const int njobs = 60;
  auto src = make_mixed_source(seed);
  const auto jobs = synthesize(src, njobs);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.admission = Admission::kReject;
  cfg.decoder = service_decoder();
  cfg.decoder.max_iterations = 8;  // slow the worker: rejections certain
  DecodeService service(src, cfg);
  long long admitted = 0, rejected = 0;
  long long admitted_payload = 0, rejected_payload = 0;
  for (const auto& s : jobs) {
    const long long payload = src.code(s.job.mode).payload_bits();
    if (service.submit(request_for(src, s))) {
      ++admitted;
      admitted_payload += payload;
    } else {
      ++rejected;
      rejected_payload += payload;
    }
  }
  const auto report = service.finish();
  EXPECT_GT(rejected, 0) << "queue never filled: not saturated";
  EXPECT_EQ(report.jobs.size(), static_cast<std::size_t>(admitted));
  EXPECT_EQ(report.rejected_jobs, rejected);
  EXPECT_EQ(report.rejected_payload_bits, rejected_payload);
  EXPECT_EQ(report.total_payload_bits, admitted_payload);
  EXPECT_EQ(report.totals.payload_bits, admitted_payload);
  // Conservation: nothing vanished between admission and the ledgers.
  EXPECT_EQ(report.total_payload_bits + report.rejected_payload_bits,
            admitted_payload + rejected_payload);
  EXPECT_EQ(admitted + rejected, static_cast<long long>(njobs));
}

TEST(DecodeServiceSlo, DeadlineClassBeatsBestEffortP99) {
  // One worker, a deep backlog, EDF on: deadline-class jobs jump the
  // queue, so their p99 latency must be strictly below best-effort's.
  const std::uint64_t seed = 0x510;
  const int njobs = 200;
  auto src = make_mixed_source(seed);
  const auto jobs = synthesize(src, njobs);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = static_cast<std::size_t>(njobs);
  cfg.max_bin_delay_ns = 0;  // isolate the class effect from binning
  cfg.slo.enabled = true;
  cfg.slo.default_deadline_ns = 2'000'000;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  int deadline_jobs = 0;
  for (int i = 0; i < njobs; ++i) {
    // Every 5th job is deadline-class, interleaved through the stream.
    const auto cls =
        i % 5 == 0 ? TrafficClass::kDeadline : TrafficClass::kBestEffort;
    if (cls == TrafficClass::kDeadline) ++deadline_jobs;
    ASSERT_TRUE(service.submit(
        request_for(src, jobs[static_cast<std::size_t>(i)], cls)));
  }
  const auto report = service.finish();
  ASSERT_EQ(report.jobs.size(), static_cast<std::size_t>(njobs));
  int got_deadline = 0;
  for (const auto& rec : report.jobs)
    if (rec.cls == TrafficClass::kDeadline) ++got_deadline;
  ASSERT_EQ(got_deadline, deadline_jobs);
  const long long p99_deadline =
      report.wall_latency_percentile_ns(99.0, TrafficClass::kDeadline);
  const long long p99_best_effort =
      report.wall_latency_percentile_ns(99.0, TrafficClass::kBestEffort);
  EXPECT_LT(p99_deadline, p99_best_effort);
}

// Most jobs one engine dispatch carried: the records of one bin share
// their worker and their start and finish stamps.
std::size_t largest_bin(const stream::StreamReport& report) {
  std::map<std::tuple<int, long long, long long>, std::size_t> bins;
  std::size_t most = 0;
  for (const auto& rec : report.jobs)
    most = std::max(
        most, ++bins[{rec.worker, rec.wall_start_ns, rec.wall_finish_ns}]);
  return most;
}

TEST(DecodeServiceSlo, StorageJobsShareBinsDeadlineJobsDoNot) {
  // The only worker is held in its first completion hook until every job
  // is queued, so the rest wait together in the central queue. Same-mode
  // storage reads must then leave it as multi-job bins; deadline-class
  // jobs must still go one per dispatch (EDF order is per job).
  constexpr int kJobs = 12;
  TrafficSource src({.seed = 0xB1});
  src.add_mode(codes::make_code({Standard::kWimax80216e, Rate::kR12, 24}),
               3.0);
  const auto jobs = synthesize(src, kJobs);
  for (const TrafficClass cls :
       {TrafficClass::kStorage, TrafficClass::kDeadline}) {
    SCOPED_TRACE(stream::to_string(cls));
    std::latch queued(kJobs);
    std::atomic<bool> first{true};
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = kJobs;
    cfg.max_local_batch = 4;  // bins of up to 4, whatever the lane width
    cfg.decoder = service_decoder();
    cfg.on_complete = [&](const stream::StreamJob&) {
      if (first.exchange(false)) queued.wait();
    };
    DecodeService service(src, cfg);
    for (const auto& s : jobs) {
      EXPECT_TRUE(service.submit(request_for(src, s, cls)));
      queued.count_down();
    }
    const auto report = service.finish();
    ASSERT_EQ(report.jobs.size(), static_cast<std::size_t>(kJobs));
    for (const auto& rec : report.jobs) EXPECT_EQ(rec.cls, cls);
    if (cls == TrafficClass::kStorage)
      EXPECT_GE(largest_bin(report), 2u);
    else
      EXPECT_EQ(largest_bin(report), 1u);
  }
}

TEST(DecodeServiceSlo, ZeroDelayOneWorkerDegeneratesToFifoExactly) {
  // max_bin_delay_ns = 0 disables binning (always the oldest job, one at
  // a time) and a single worker serialises dispatch: completion order
  // must equal submission order exactly, job by job.
  const std::uint64_t seed = 0xF1F0;
  const int njobs = 40;
  auto src = make_mixed_source(seed);
  const auto jobs = synthesize(src, njobs);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = static_cast<std::size_t>(njobs);
  cfg.max_bin_delay_ns = 0;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  for (const auto& s : jobs)
    ASSERT_TRUE(service.submit(request_for(src, s)));
  const auto report = service.finish();
  ASSERT_EQ(report.jobs.size(), static_cast<std::size_t>(njobs));
  for (const auto& rec : report.jobs) {
    // Jobs were submitted in id order 0..n-1, so FIFO means the
    // completion stamp equals the id — for every job, not just most.
    EXPECT_EQ(rec.finish_seq, rec.id) << "job " << rec.id;
  }
  // One serial worker, oldest-first: dispatch never reorders, so each
  // job starts no earlier than its predecessor finishes its dispatch.
  for (std::size_t i = 1; i < report.jobs.size(); ++i)
    EXPECT_GE(report.jobs[i].wall_start_ns,
              report.jobs[i - 1].wall_start_ns);
}

// ---- lifecycle and config validation ----------------------------------------

TEST(DecodeService, EmptyServiceFinishesWithValidEmptyReport) {
  auto src = make_mixed_source(1);
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  const auto report = service.finish();
  EXPECT_TRUE(report.jobs.empty());
  ASSERT_EQ(report.worker_ledgers.size(), 2u);
  EXPECT_EQ(report.total_payload_bits, 0);
  EXPECT_EQ(report.wall_elapsed_ns, 0);
  EXPECT_EQ(report.wall_frames_per_sec(), 0.0);
  EXPECT_EQ(report.wall_latency_percentile_ns(99.0), 0);
  EXPECT_EQ(report.latency_percentile(50.0), 0);
}

TEST(DecodeService, FinishIsSingleShot) {
  auto src = make_mixed_source(2);
  ServiceConfig cfg;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  (void)service.finish();
  EXPECT_THROW(service.finish(), std::logic_error);
}

TEST(DecodeService, ThrowingHookFailsFinishAndUnblocksProducers) {
  // A completion hook that throws on the k-th job takes its worker down;
  // the worker closes the queue, so a producer blocked in submit() under
  // kBlock admission wakes with false instead of hanging, and finish()
  // rethrows the hook's exception.
  auto src = make_mixed_source(4);
  const auto jobs = synthesize(src, 16);
  constexpr int kFailAt = 2;
  std::atomic<int> completions{0};
  std::atomic<int> entered{0};  // submit() calls the producer has begun
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.max_bin_delay_ns = 0;  // one job per dispatch
  cfg.admission = Admission::kBlock;
  cfg.decoder = service_decoder();
  cfg.on_complete = [&](const stream::StreamJob&) {
    if (++completions < kFailAt) return;
    // Jobs 1..k are taken and the one-slot queue holds job k+1, so the
    // producer's submit of job k+2 blocks. Wait for it to get there.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered.load() < kFailAt + 2 &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("completion hook failure");
  };
  DecodeService service(src, cfg);

  int refused_at = -1;
  std::thread producer([&] {
    for (int i = 0; i < static_cast<int>(jobs.size()); ++i) {
      entered.store(i + 1);
      if (!service.submit(request_for(src, jobs[static_cast<std::size_t>(i)]))) {
        refused_at = i;
        return;
      }
    }
  });
  producer.join();
  EXPECT_EQ(refused_at, kFailAt + 1);  // the blocked submit of job k+2
  EXPECT_THROW(service.finish(), std::runtime_error);
}

TEST(DecodeService, InvalidConfigOrRequestThrows) {
  auto src = make_mixed_source(3);
  {
    ServiceConfig cfg;
    cfg.workers = 0;
    cfg.decoder = service_decoder();
    EXPECT_THROW(DecodeService(src, cfg), std::invalid_argument);
  }
  {
    ServiceConfig cfg;
    cfg.max_bin_delay_ns = -1;
    cfg.decoder = service_decoder();
    EXPECT_THROW(DecodeService(src, cfg), std::invalid_argument);
  }
  {
    // The default DecoderConfig kernel is full BP, which the SIMD stream
    // engine cannot run — the service must reject it up front, before
    // any thread spawns, not fail inside a worker.
    ServiceConfig cfg;  // cfg.decoder left at defaults (kFullBp)
    EXPECT_THROW(DecodeService(src, cfg), std::invalid_argument);
  }
  {
    ServiceConfig cfg;
    cfg.decoder = service_decoder();
    cfg.decoder.datapath = core::Datapath::kFloat;
    EXPECT_THROW(DecodeService(src, cfg), std::invalid_argument);
  }
  ServiceConfig cfg;
  cfg.decoder = service_decoder();
  DecodeService service(src, cfg);
  ServiceRequest bad_mode;
  bad_mode.mode = 99;
  bad_mode.llrs.resize(16);
  EXPECT_THROW(service.submit(std::move(bad_mode)), std::invalid_argument);
  ServiceRequest bad_llrs;
  bad_llrs.mode = 0;
  bad_llrs.llrs.resize(3);  // not transmitted_bits() long
  EXPECT_THROW(service.submit(std::move(bad_llrs)), std::invalid_argument);
}

}  // namespace
