#include "ldpc/stream/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>

#include "ldpc/sim/simulator.hpp"
#include "session_carry.hpp"

namespace ldpc::stream {

std::string to_string(Policy policy) {
  return policy == Policy::kFifo ? "fifo" : "binned";
}

StreamScheduler::StreamScheduler(TrafficSource& source,
                                 SchedulerConfig config)
    : source_(source), config_(config) {
  if (config_.workers <= 0 || config_.max_burst <= 0 ||
      config_.max_bin_delay_cycles < 0)
    throw std::invalid_argument("StreamScheduler: config");
}

StreamReport StreamScheduler::run(long long njobs) {
  return run(njobs, nullptr);
}

StreamReport StreamScheduler::run(long long njobs, SessionCarry* carry) {
  if (njobs < 0) throw std::invalid_argument("StreamScheduler: jobs");
  const int nmodes = source_.mode_count();
  if (nmodes == 0)
    throw std::logic_error("StreamScheduler: source has no modes");
  if (njobs == 0) {
    // An empty stream is a valid (degenerate) serving run: every worker
    // contributes an empty ledger and every derived statistic —
    // occupancy, percentiles, throughput — is well-defined zero rather
    // than a division by the zero makespan.
    StreamReport report;
    report.worker_ledgers.assign(static_cast<std::size_t>(config_.workers),
                                 arch::FramePipelineStats{});
    return report;
  }

  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(njobs));
  for (long long i = 0; i < njobs; ++i) jobs.push_back(source_.next());
  // The source's cursor need not start at 0 (a second run continues the
  // stream); report.jobs is indexed by the id offset within this run.
  const long long base_id = jobs.front().id;

  struct Worker {
    std::unique_ptr<arch::DecoderChip> chip;
    std::unique_ptr<arch::FramePipeline> pipe;
    long long free_at = 0;
    int mode = -1;  // currently configured mode (-1 = none)
  };
  std::vector<Worker> workers(static_cast<std::size_t>(config_.workers));
  for (auto& w : workers) {
    w.chip = std::make_unique<arch::DecoderChip>(
        arch::ChipDimensions::universal(), config_.decoder);
    w.pipe = std::make_unique<arch::FramePipeline>(*w.chip,
                                                   config_.pipeline);
  }

  StreamReport report;
  report.jobs.resize(static_cast<std::size_t>(njobs));

  // Deterministic discrete-event loop: per-mode ready queues hold job
  // indices in id order (arrivals are monotone in id), so the oldest
  // waiting job is always the smallest id among queue fronts.
  std::vector<std::deque<long long>> ready(
      static_cast<std::size_t>(nmodes));
  long long admitted = 0, served = 0, ready_count = 0;
  std::vector<long long> burst_ids;

  while (served < njobs) {
    // Earliest-free worker, ties to the lowest index.
    int wi = 0;
    for (int i = 1; i < config_.workers; ++i)
      if (workers[static_cast<std::size_t>(i)].free_at <
          workers[static_cast<std::size_t>(wi)].free_at)
        wi = i;
    Worker& w = workers[static_cast<std::size_t>(wi)];
    long long now = w.free_at;
    if (ready_count == 0)
      now = std::max(now,
                     jobs[static_cast<std::size_t>(admitted)].arrival_cycle);
    while (admitted < njobs &&
           jobs[static_cast<std::size_t>(admitted)].arrival_cycle <= now) {
      ready[static_cast<std::size_t>(
                jobs[static_cast<std::size_t>(admitted)].mode)]
          .push_back(admitted);
      ++admitted;
      ++ready_count;
    }

    long long oldest = -1;
    for (const auto& q : ready)
      if (!q.empty() && (oldest < 0 || q.front() < oldest))
        oldest = q.front();
    int mode = jobs[static_cast<std::size_t>(oldest)].mode;
    if (config_.policy == Policy::kBinned) {
      // Keep the worker on its configured mode (no reconfiguration)
      // unless the oldest waiting job is overdue: the max-queue-delay
      // knob bounds how long binning may starve a minority mode.
      const bool overdue =
          now - jobs[static_cast<std::size_t>(oldest)].arrival_cycle >=
          config_.max_bin_delay_cycles;
      if (!overdue && w.mode >= 0 &&
          !ready[static_cast<std::size_t>(w.mode)].empty())
        mode = w.mode;
    }

    auto& queue = ready[static_cast<std::size_t>(mode)];
    burst_ids.clear();
    while (static_cast<int>(burst_ids.size()) < config_.max_burst &&
           !queue.empty()) {
      if (config_.policy == Policy::kFifo && !burst_ids.empty() &&
          queue.front() != burst_ids.back() + 1)
        break;  // FIFO bursts only over back-to-back same-mode arrivals
      burst_ids.push_back(queue.front());
      queue.pop_front();
    }
    ready_count -= static_cast<long long>(burst_ids.size());

    // One ingest domain: every frame reaches the chip as deposited size-n
    // raw codes. A quantised source already carries them (for HARQ rounds
    // > 0 the *combined* soft state, which only exists in this domain); a
    // double source is quantised here, once per frame, under the farm's
    // decoder config — bit-identical to depositing the doubles on the
    // chip (test-locked at the engine layer).
    const codes::QCCode& code = source_.code(mode);
    std::vector<JobFrame> frames;
    std::vector<const core::QuantisedFrame*> burst_frames;
    frames.reserve(burst_ids.size());
    burst_frames.reserve(burst_ids.size());
    for (std::size_t f = 0; f < burst_ids.size(); ++f) {
      const Job& job = jobs[static_cast<std::size_t>(burst_ids[f])];
      if (carry)
        frames.push_back(source_.make_frame(
            job, job.round == 0 ? carry->open(job.session)
                                : carry->at(job.session)));
      else
        frames.push_back(source_.make_frame(job));
      if (!source_.emits_quantised())
        frames[f].quantised =
            sim::quantise_llrs(code, config_.decoder, frames[f].llrs);
      burst_frames.push_back(&frames[f].quantised);
    }
    const arch::BurstDecodeResult burst =
        w.pipe->decode_burst_quantised(code, burst_frames);
    w.mode = mode;

    long long t = now;
    const auto payload = static_cast<std::size_t>(code.payload_bits());
    for (std::size_t f = 0; f < burst_ids.size(); ++f) {
      const Job& job = jobs[static_cast<std::size_t>(burst_ids[f])];
      const auto& result = burst.frames[f];
      StreamJob& rec =
          report.jobs[static_cast<std::size_t>(job.id - base_id)];
      rec.id = job.id;
      rec.mode = job.mode;
      rec.worker = wi;
      rec.session = job.session;
      rec.round = job.round;
      rec.rv = job.rv;
      rec.iterations = result.functional.iterations;
      rec.converged = result.functional.converged;
      rec.crc_ok = result.functional.crc_ok;
      rec.crc_repaired = result.functional.crc_repaired;
      rec.payload_bit_errors = 0;
      for (std::size_t v = 0; v < payload; ++v)
        rec.payload_bit_errors +=
            result.functional.bits[v] != frames[f].codeword[v];
      rec.payload_ok = rec.payload_bit_errors == 0;
      rec.decision_hash = fnv1a(result.functional.bits);
      rec.arrival_cycle = job.arrival_cycle;
      t = std::max(t, job.arrival_cycle);
      rec.start_cycle = t;
      t += burst.frame_elapsed_cycles[f];
      rec.finish_cycle = t;
      report.total_payload_bits += code.payload_bits();
      if (carry && !carry->keeps(rec)) carry->release(job.session);
    }
    w.free_at = t;
    report.makespan_cycles = std::max(report.makespan_cycles, t);
    served += static_cast<long long>(burst_ids.size());
  }

  report.worker_ledgers.reserve(workers.size());
  for (const auto& w : workers) {
    report.worker_ledgers.push_back(w.pipe->stats());
    report.totals.merge(w.pipe->stats());
  }
  return report;
}

}  // namespace ldpc::stream
