#include "ldpc/stream/harq_stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "session_carry.hpp"

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

/// Every session resolved, so every carried state must be gone.
void check_released(const SessionCarry& table) {
  if (table.held() != 0)
    throw std::logic_error("closed loop: a resolved session kept its state");
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
  // A session that goes again keeps its combined soft state across the
  // generation boundary; one-shot policies carry nothing.
  SessionCarry table(sessions, [&policy](const StreamJob& rec) {
    return retries(rec, policy);
  });
  SessionCarry* const carry = policy.max_rounds > 1 ? &table : nullptr;

  StreamReport merged;
  merged.worker_ledgers.assign(static_cast<std::size_t>(config.workers),
                               arch::FramePipelineStats{});

  long long generation_jobs = sessions;
  while (generation_jobs > 0) {
    const StreamReport gen = scheduler.run(generation_jobs, carry);

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
  check_released(table);
  merged.harq.peak_open = sessions;  // generation 0 opens every session
  merged.harq.peak_carried = table.peak();
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

  // Open sessions that may go again carry their combined soft state, so
  // an escalation is one channel read on top of it (make_frame(job,
  // state)). The driver opens a session's state before submitting its
  // round 0; from then on only the thread holding the session's one
  // request touches it (see session_carry.hpp).
  SessionCarry table(sessions, [&policy](const StreamJob& rec) {
    return retries(rec, policy);
  });
  SessionCarry* const carry = policy.max_rounds > 1 ? &table : nullptr;

  auto request_for = [&source, &policy](const Job& job, JobFrame frame) {
    ServiceRequest req;
    req.id = job.id;
    req.mode = job.mode;
    req.session = job.session;
    req.round = job.round;
    req.rv = source.rv_for_round(job.mode, job.round);
    req.cls = policy.cls;
    req.quantised = std::move(frame.quantised);
    req.expected_payload = std::move(frame.codeword);
    return req;
  };

  // Feedback from the completion hook (worker threads) to the driver. A
  // worker decides ACK or retry and, on a retry, synthesises the next
  // round's request itself; only the driver submits, so kBlock admission
  // can never block a decoding worker. Each session has at most one
  // request in flight, so `ready` never holds more than the sessions
  // still open.
  struct Feedback {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ServiceRequest> ready;  // synthesised escalations
    long long resolved = 0;   // sessions ended by a completion, not yet seen
    long long completed = 0;  // completions so far
    std::exception_ptr error;  // first escalation-synthesis failure
  } fb;
  // Escalations are numbered after the round-0 ids this run draws (the
  // driver stores the first one before its first submit), so ids stay
  // unique whatever the source's cursor was.
  std::atomic<long long> next_id{0};

  service_config.on_complete = [&](const StreamJob& rec) {
    std::optional<ServiceRequest> next;
    std::exception_ptr error;
    if (retries(rec, policy)) {
      try {
        Job job;
        job.id = next_id++;
        job.mode = rec.mode;
        job.session = rec.session;
        job.round = rec.round + 1;
        next = request_for(job, source.make_frame(job, carry->at(job.session)));
      } catch (...) {
        error = std::current_exception();
      }
    } else if (carry) {
      carry->release(rec.session);
    }
    {
      const std::lock_guard<std::mutex> lock(fb.mu);
      ++fb.completed;
      if (next) {
        fb.ready.push_back(std::move(*next));
      } else if (error) {
        if (!fb.error) fb.error = error;
      } else {
        ++fb.resolved;
      }
    }
    fb.cv.notify_one();
  };

  // Declared after the feedback state: its destructor joins the workers
  // (whose hooks touch that state) before the state goes away.
  DecodeService service(source, service_config);

  long long started = 0;    // sessions whose round 0 was drawn
  long long open = 0;       // sessions not yet ended, as the driver knows
  long long peak_open = 0;
  long long submitted = 0;  // requests handed to submit()
  auto submit = [&](ServiceRequest req) {
    ++submitted;
    const long long session = req.session;
    if (!service.submit(std::move(req))) {  // admission refused: resolved
      --open;
      if (carry) carry->release(session);
    }
  };
  // Round 0 of the next session, drawn and synthesised on this thread.
  auto open_session = [&] {
    const Job job = source.next();
    if (job.round != 0)
      throw std::logic_error(
          "closed loop: the source holds pending retransmissions; reset it "
          "first");
    if (started == 0) next_id = job.id + sessions;
    ++started;
    peak_open = std::max(peak_open, ++open);
    return request_for(job, carry ? source.make_frame(
                                        job, carry->open(job.session))
                                  : source.make_frame(job));
  };

  // The driver synthesises round-0 frames and, between its own submits,
  // drains the escalations the workers have made ready.
  std::vector<ServiceRequest> escalations;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(fb.mu);
      if (started == sessions && open > 0 &&
          !fb.cv.wait_for(lock, std::chrono::seconds(30), [&] {
            return fb.error || fb.resolved > 0 || !fb.ready.empty();
          }))
        throw std::runtime_error(
            "closed loop: no completion within 30s (worker stalled?): " +
            std::to_string(open) + " sessions outstanding, " +
            std::to_string(submitted) + " submitted, " +
            std::to_string(fb.completed) + " completed, " +
            std::to_string(fb.ready.size()) + " ready");
      if (fb.error) std::rethrow_exception(fb.error);
      open -= fb.resolved;
      fb.resolved = 0;
      escalations.swap(fb.ready);
    }
    for (ServiceRequest& req : escalations) submit(std::move(req));
    escalations.clear();
    if (started < sessions) {
      submit(open_session());
    } else if (open == 0) {
      break;
    }
  }

  StreamReport report = service.finish();
  fill_loop_stats(source, sessions, policy, /*modeled=*/false, report);
  check_released(table);
  report.harq.peak_open = peak_open;
  report.harq.peak_carried = table.peak();
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
