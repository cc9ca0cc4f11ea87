#include "ldpc/stream/harq_stream.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace ldpc::stream {

namespace {

void validate(const TrafficSource& source, long long sessions,
              const ClosedLoopPolicy& policy) {
  if (sessions < 0) throw std::invalid_argument("closed loop: sessions");
  if (!policy.ack) throw std::invalid_argument("closed loop: ack rule");
  if (policy.max_rounds < 1)
    throw std::invalid_argument("closed loop: max_rounds");
  if (policy.feedback_delay_cycles < 0)
    throw std::invalid_argument("closed loop: feedback_delay_cycles");
  if (!source.emits_quantised())
    throw std::logic_error(
        "closed loop: rounds > 0 carry combined soft state; switch the "
        "source to quantised emission first (emit_quantised)");
}

/// Fills report.harq from the completed job records under the policy's
/// ACK rule. Latency unit: modeled cycles or wall nanoseconds depending
/// on which path produced the records.
void fill_loop_stats(const TrafficSource& source, long long sessions,
                     const ClosedLoopPolicy& policy, bool modeled,
                     StreamReport& report) {
  HarqStreamStats& h = report.harq;
  h.enabled = true;
  h.sessions = sessions;
  h.rounds.assign(static_cast<std::size_t>(policy.max_rounds),
                  HarqRoundServing{});
  for (const StreamJob& rec : report.jobs) {
    const codes::QCCode& code = source.code(rec.mode);
    HarqRoundServing& round = h.rounds.at(static_cast<std::size_t>(rec.round));
    ++round.attempts;
    round.latency.add(modeled ? rec.latency_cycles()
                              : rec.wall_latency_ns());
    h.tx_bits_sent += code.transmitted_bits();
    if (policy.ack(rec)) {
      ++round.acks;
      ++h.delivered;
      h.payload_bits_delivered += code.payload_bits();
    }
  }
}

/// A NACKed record with round budget left: its session goes again.
bool retries(const StreamJob& rec, const ClosedLoopPolicy& policy) {
  return !policy.ack(rec) && rec.round + 1 < policy.max_rounds;
}

bool acked(const StreamJob& rec) { return rec.converged; }

ClosedLoopPolicy harq_policy(const HarqStreamConfig& harq) {
  return {.ack = acked,
          .max_rounds = harq.max_rounds,
          .feedback_delay_cycles = harq.feedback_delay_cycles};
}

}  // namespace

StreamReport run_closed_loop_modeled(TrafficSource& source,
                                     SchedulerConfig config,
                                     long long sessions,
                                     const ClosedLoopPolicy& policy) {
  validate(source, sessions, policy);
  StreamScheduler scheduler(source, config);

  StreamReport merged;
  merged.worker_ledgers.assign(static_cast<std::size_t>(config.workers),
                               arch::FramePipelineStats{});

  long long generation_jobs = sessions;
  while (generation_jobs > 0) {
    const StreamReport gen = scheduler.run(generation_jobs);

    // Feed every NACK with budget left back as the session's next round,
    // arriving one modeled feedback delay after its decode finished.
    // Records are walked in id order, so the push sequence — and with it
    // the retransmission draw order — is deterministic.
    generation_jobs = 0;
    for (const StreamJob& rec : gen.jobs) {
      if (!retries(rec, policy)) continue;
      Job failed;
      failed.mode = rec.mode;
      failed.session = rec.session;
      failed.round = rec.round;
      source.push_retransmission(
          failed, rec.finish_cycle + policy.feedback_delay_cycles);
      ++generation_jobs;
    }

    for (const StreamJob& rec : gen.jobs) merged.jobs.push_back(rec);
    for (std::size_t w = 0; w < gen.worker_ledgers.size(); ++w)
      merged.worker_ledgers[w].merge(gen.worker_ledgers[w]);
    merged.totals.merge(gen.totals);
    merged.total_payload_bits += gen.total_payload_bits;
    merged.makespan_cycles =
        std::max(merged.makespan_cycles, gen.makespan_cycles);
  }

  std::sort(merged.jobs.begin(), merged.jobs.end(),
            [](const StreamJob& a, const StreamJob& b) {
              return a.id < b.id;
            });
  fill_loop_stats(source, sessions, policy, /*modeled=*/true, merged);
  return merged;
}

StreamReport run_closed_loop_live(TrafficSource& source,
                                  ServiceConfig service_config,
                                  long long sessions,
                                  const ClosedLoopPolicy& policy) {
  validate(source, sessions, policy);
  if (service_config.on_complete)
    throw std::invalid_argument(
        "closed loop: the driver owns the completion hook");

  // Completions flow worker threads -> this queue -> the driver thread.
  // The driver alone calls make_frame (not thread-safe) and submit, so
  // admission backpressure can never block a decoding worker.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<StreamJob> completions;
  service_config.on_complete = [&](const StreamJob& rec) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      completions.push_back(rec);
    }
    cv.notify_one();
  };

  DecodeService service(source, service_config);

  auto submit_round = [&](const Job& job) {
    JobFrame frame = source.make_frame(job);
    ServiceRequest req;
    req.id = job.id;
    req.mode = job.mode;
    req.session = job.session;
    req.round = job.round;
    req.rv = source.rv_for_round(job.mode, job.round);
    req.cls = policy.cls;
    req.quantised = std::move(frame.quantised);
    req.expected_payload = std::move(frame.codeword);
    return service.submit(std::move(req));
  };

  long long outstanding = 0;
  for (long long s = 0; s < sessions; ++s)
    if (submit_round(source.next())) ++outstanding;

  long long next_id = sessions;
  while (outstanding > 0) {
    StreamJob rec;
    {
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return !completions.empty(); }))
        throw std::runtime_error(
            "closed loop: no completion within 30s (worker stalled?)");
      rec = completions.front();
      completions.pop_front();
    }
    if (!retries(rec, policy)) {
      --outstanding;
      continue;
    }
    Job next;
    next.id = next_id++;
    next.mode = rec.mode;
    next.session = rec.session;
    next.round = rec.round + 1;
    if (!submit_round(next)) --outstanding;  // admission closed/refused
  }

  StreamReport report = service.finish();
  fill_loop_stats(source, sessions, policy, /*modeled=*/false, report);
  return report;
}

StreamReport run_harq_modeled(TrafficSource& source, SchedulerConfig config,
                              long long sessions, HarqStreamConfig harq) {
  return run_closed_loop_modeled(source, std::move(config), sessions,
                                 harq_policy(harq));
}

StreamReport run_harq_live(TrafficSource& source,
                           ServiceConfig service_config, long long sessions,
                           HarqStreamConfig harq) {
  return run_closed_loop_live(source, std::move(service_config), sessions,
                              harq_policy(harq));
}

}  // namespace ldpc::stream
